"""Dense linear-algebra kernels shared by the solvers.

Gram products, squared Frobenius norms, upper-triangular factors of inverse
SPD matrices, and SPD solves. Everything runs in float64. Factorizations
that fail get escalating diagonal jitter before giving up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


MAX_JITTER_RETRIES = 10


class NumericalFailure(RuntimeError):
    """SPD factorization failed even after the escalating-jitter policy."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class TriangularFactor:
    """Upper-triangular M with MᵀM = (G + jitter·I)⁻¹ and positive diagonal."""

    dim: int
    data: np.ndarray
    jitter: float = 0.0

    def __post_init__(self):
        d = self.data
        if d.shape != (self.dim, self.dim):
            raise ValueError("factor shape does not match dim")
        if not np.all(np.diag(d) > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        if np.any(np.tril(d, k=-1) != 0.0):
            raise ValueError("factor must be upper triangular")


def gram(x) -> np.ndarray:
    """XXᵀ for X of shape (d_in, n); output is exactly symmetric.

    Raises NumericalFailure when XXᵀ overflows.
    """
    x = as_matrix(x, "X")
    with np.errstate(over="ignore"):
        g = x @ x.T
        g = (g + g.T) / 2.0
    if not np.isfinite(g).all():
        raise NumericalFailure(f"Gram matrix of X {x.shape} is not finite")
    return g


def frobenius_sq(a) -> float:
    """Sum of squared entries.

    The squares are sorted before they are summed, so the result depends
    only on the multiset of entries: transposed or row/column-permuted
    inputs give bit-identical results. Raises NumericalFailure when the sum
    overflows.
    """
    m = as_matrix(a, "A")
    with np.errstate(over="ignore"):
        sq = np.square(m).ravel()
        sq.sort()
        total = float(sq.sum())
    if not math.isfinite(total):
        raise NumericalFailure(f"sum of squares of a {m.shape} matrix is not finite")
    return total


def _check_square_symmetric(g: np.ndarray, name: str) -> np.ndarray:
    if g.shape[0] != g.shape[1]:
        raise ValueError(f"{name} must be square, got shape {g.shape}")
    scale = 1.0 + float(np.max(np.abs(g))) if g.size else 1.0
    if float(np.max(np.abs(g - g.T), initial=0.0)) > 1e-8 * scale:
        raise ValueError(f"{name} is not symmetric")
    return (g + g.T) / 2.0


def _factor_with_jitter(g: np.ndarray, what: str, context: str, finish):
    """Return finish(cho_factor(G + eps·I), eps), retrying with escalating eps.

    eps starts at 0, then 1e-6 · mean diag, doubling up to MAX_JITTER_RETRIES
    times; `finish` raises LinAlgError to ask for more jitter.
    """
    d = g.shape[0]
    base = 1e-6 * float(np.mean(np.diag(g)))
    if not base > 0.0:  # non-positive mean diagonal, or the product underflowed
        base = 1e-6
    eps = 0.0
    for _ in range(MAX_JITTER_RETRIES + 1):
        try:
            work = g if eps == 0.0 else g + eps * np.eye(d)
            return finish(scipy.linalg.cho_factor(work, lower=True), eps)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
            eps = base if eps == 0.0 else 2.0 * eps
    raise NumericalFailure(
        f"{what} failed for {context} (dim {d}) after "
        f"{MAX_JITTER_RETRIES} jitter retries, final eps {eps:.3e}"
    )


def chol_upper_of_inverse(g, *, context: str = "matrix") -> TriangularFactor:
    """Upper-triangular M with MᵀM = G⁻¹.

    On factorization failure, adds eps·I with eps starting at 1e-6 · mean
    diag and doubling, up to MAX_JITTER_RETRIES times.
    The jitter actually used is recorded on the returned factor.
    """
    g = _check_square_symmetric(as_matrix(g, "G"), "G")
    d = g.shape[0]

    def finish(cf, eps):
        ginv = scipy.linalg.cho_solve(cf, np.eye(d))
        ginv = (ginv + ginv.T) / 2.0
        m = scipy.linalg.cholesky(ginv, lower=False)
        if not np.isfinite(m).all():
            raise scipy.linalg.LinAlgError("non-finite factor")
        return TriangularFactor(dim=d, data=m, jitter=eps)

    return _factor_with_jitter(g, "Cholesky of inverse", context, finish)


def solve_spd(g, b, *, context: str = "system") -> np.ndarray:
    """Solve G y = b for symmetric positive definite G (after jitter policy)."""
    g = _check_square_symmetric(as_matrix(g, "G"), "G")
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != g.shape[0]:
        raise ValueError("right-hand side length does not match G")

    def finish(cf, eps):
        y = scipy.linalg.cho_solve(cf, rhs)
        if not np.isfinite(y).all():
            raise scipy.linalg.LinAlgError("non-finite solution")
        return y

    return _factor_with_jitter(g, "SPD solve", context, finish)


def spd_inverse(g, *, context: str = "matrix") -> np.ndarray:
    """G⁻¹ via the Cholesky factor, symmetrized on output."""
    f = chol_upper_of_inverse(g, context=context)
    ginv = f.data.T @ f.data
    return (ginv + ginv.T) / 2.0
