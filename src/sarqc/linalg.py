"""Dense linear-algebra kernels shared by the solvers.

Gram products, squared Frobenius norms, upper-triangular factors of inverse
SPD matrices, and SPD solves. Everything runs in float64. Factorizations
that fail get escalating diagonal jitter before giving up.

The upper factor M of G⁻¹ comes from one Cholesky factorization and one
triangular inverse: with P the matrix that reverses the index order and
P·G·P = L·Lᵀ, M = P·L⁻¹·P is upper triangular and MᵀM = P·L⁻ᵀ·L⁻¹·P = G⁻¹.
Neither G⁻¹ nor a second factorization is formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg


MAX_JITTER_RETRIES = 10
SYMMETRY_TILE = 256  # edge of the tiles the symmetry and triangle checks scan


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
    """Upper-triangular M with MᵀM = (G + jitter·I)⁻¹ and positive diagonal.

    `retries` counts the factorization attempts that failed before the one
    that produced M, each of which raised the jitter.
    """

    dim: int
    data: np.ndarray
    jitter: float = 0.0
    retries: int = 0

    def __post_init__(self):
        d = self.data
        if d.shape != (self.dim, self.dim):
            raise ValueError("factor shape does not match dim")
        if not np.all(np.diag(d) > 0.0):
            raise ValueError("factor diagonal must be strictly positive")
        # row tiles: the part left of the diagonal tile, then the strict lower
        # triangle of the diagonal tile, so no d×d copy or mask is built
        for i in range(0, self.dim, SYMMETRY_TILE):
            rows = d[i : i + SYMMETRY_TILE]
            if rows[:, :i].any() or np.tril(rows[:, i : i + SYMMETRY_TILE], k=-1).any():
                raise ValueError("factor must be upper triangular")

    @property
    def min_pivot(self) -> float:
        """Smallest diagonal entry of the Cholesky factor M was built from,
        1 / max(diag(M))."""
        return 1.0 / float(np.max(np.diag(self.data)))


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
    """Reject G unless |G - Gᵀ| ≤ 1e-8·(1 + max|G|); return (G + Gᵀ)/2, or
    G itself when it is exactly symmetric.

    Upper tiles are compared with the transposed lower ones, so G - Gᵀ is
    never built in full.
    """
    d = g.shape[0]
    if d != g.shape[1]:
        raise ValueError(f"{name} must be square, got shape {g.shape}")
    amax = max(float(g.max()), -float(g.min())) if g.size else 0.0
    tol = 1e-8 * (1.0 + amax)
    exact = True
    for i in range(0, d, SYMMETRY_TILE):
        rows = slice(i, i + SYMMETRY_TILE)
        for j in range(i, d, SYMMETRY_TILE):
            cols = slice(j, j + SYMMETRY_TILE)
            worst = float(np.max(np.abs(g[rows, cols] - g[cols, rows].T)))
            if worst > tol:
                raise ValueError(f"{name} is not symmetric")
            exact = exact and worst == 0.0
    return g if exact else (g + g.T) / 2.0


def _factor_with_jitter(g: np.ndarray, what: str, context: str, finish, *, reverse: bool = False):
    """Return finish(cho_factor(A + eps·I), eps, retries), retrying with
    escalating eps; A is G, or P·G·P with the index order reversed when
    `reverse` is set.

    eps starts at 0, then 1e-6 · mean diag of G, doubling up to
    MAX_JITTER_RETRIES times; `retries` counts the failed attempts, and
    `finish` raises LinAlgError to ask for more jitter.
    """
    d = g.shape[0]
    base = 1e-6 * float(np.mean(np.diag(g)))
    if not base > 0.0:  # non-positive mean diagonal, or the product underflowed
        base = 1e-6
    a = g[::-1, ::-1] if reverse else g
    eps = 0.0
    for retries in range(MAX_JITTER_RETRIES + 1):
        try:
            work = a if eps == 0.0 else a + eps * np.eye(d)
            return finish(scipy.linalg.cho_factor(work, lower=True), eps, retries)
        except (scipy.linalg.LinAlgError, np.linalg.LinAlgError, ValueError):
            eps = base if eps == 0.0 else 2.0 * eps
    raise NumericalFailure(
        f"{what} failed for {context} (dim {d}) after "
        f"{MAX_JITTER_RETRIES} jitter retries, final eps {eps:.3e}"
    )


def chol_upper_of_inverse(g, *, context: str = "matrix") -> TriangularFactor:
    """Upper-triangular M with MᵀM = G⁻¹, as M = P·L⁻¹·P for the lower
    Cholesky factor L of P·G·P, where P reverses the index order.

    On factorization failure, adds eps·I with eps starting at 1e-6 · mean
    diag and doubling, up to MAX_JITTER_RETRIES times.
    The jitter actually used and the failed attempts are recorded on the
    returned factor.
    """
    g = _check_square_symmetric(as_matrix(g, "G"), "G")
    d = g.shape[0]

    def finish(cf, eps, retries):
        linv, info = scipy.linalg.lapack.dtrtri(cf[0], lower=1, overwrite_c=True)
        if info != 0:
            raise scipy.linalg.LinAlgError(f"triangular inverse failed (info {info})")
        # cho_factor leaves the input in the strict upper triangle of L;
        # after the reversal that is the strict lower triangle of M
        m = np.triu(linv[::-1, ::-1])
        if not np.isfinite(m).all():
            raise scipy.linalg.LinAlgError("non-finite factor")
        return TriangularFactor(dim=d, data=m, jitter=eps, retries=retries)

    return _factor_with_jitter(g, "Cholesky of inverse", context, finish, reverse=True)


def solve_spd(g, b, *, context: str = "system") -> np.ndarray:
    """Solve G y = b for symmetric positive definite G (after jitter policy)."""
    g = _check_square_symmetric(as_matrix(g, "G"), "G")
    rhs = np.asarray(b, dtype=np.float64)
    if rhs.shape[0] != g.shape[0]:
        raise ValueError("right-hand side length does not match G")

    def finish(cf, eps, retries):
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
