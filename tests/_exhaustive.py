"""Exhaustive search over per-coordinate product grids: the brute-force
minimizers that test_oracles.py and test_acceptance.py check the solvers'
objectives against. `sarqc verify` runs none of them, so they live beside
the tests."""

import itertools
from typing import Sequence

import numpy as np

from sarqc.linalg import as_matrix


def _product_grid(grids: Sequence[Sequence[float]]) -> np.ndarray:
    total = 1
    for grid in grids:
        if len(grid) == 0:
            raise ValueError("empty candidate grid")
        total *= len(grid)
    if total > 10**6:
        raise ValueError(f"product grid too large: {total} > 1e6")
    return np.array(list(itertools.product(*grids)), dtype=np.float64)


def exhaustive_quant_min(w_row, g, grids: Sequence[Sequence[float]]):
    """Global minimizer of ½ΔᵀGΔ over the per-coordinate product grid."""
    w = np.asarray(w_row, dtype=np.float64)
    if w.shape[0] > 4:
        raise ValueError("exhaustive search is limited to rows of length <= 4")
    g = as_matrix(g, "G")
    if g.shape != (w.shape[0], w.shape[0]) or len(grids) != w.shape[0]:
        raise ValueError("G / grids do not match the row length")
    combos = _product_grid(grids)
    deltas = combos - w[None, :]
    objs = 0.5 * np.einsum("nd,de,ne->n", deltas, g, deltas)
    k = int(np.argmin(objs))
    return deltas[k], float(objs[k])


def exhaustive_tradeoff_sweep(w_row, gram_mat, sal_sq, grids, lambdas):
    """Exact scalarized minimizers over a product grid for each λ.

    Returns one (recon, sar) pair per λ where recon = δᵀ(XXᵀ)δ and
    sar = Σ s_j² δ_j². Ties resolve to the first grid point in enumeration
    order.
    """
    w = np.asarray(w_row, dtype=np.float64)
    gm = as_matrix(gram_mat, "gram")
    s2 = np.asarray(sal_sq, dtype=np.float64)
    combos = _product_grid(grids)
    deltas = combos - w[None, :]
    recon = np.einsum("nd,de,ne->n", deltas, gm, deltas)
    sar = (deltas * deltas) @ s2
    out = []
    for lam in lambdas:
        k = int(np.argmin(recon + lam * sar))
        out.append((float(recon[k]), float(sar[k])))
    return out
