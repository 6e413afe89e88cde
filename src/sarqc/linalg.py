"""Dense linear-algebra kernels shared by the solvers.

Gram products, squared Frobenius norms and the upper-triangular factor of
an inverse SPD matrix. Everything runs in float64. A factorization that
fails gets escalating diagonal jitter before giving up.

The upper factor M of G⁻¹ comes from one Cholesky factorization and one
triangular inverse: with P the matrix that reverses the index order and
P·G·P = L·Lᵀ, M = P·L⁻¹·P is upper triangular and MᵀM = P·L⁻ᵀ·L⁻¹·P = G⁻¹.
Neither G⁻¹ nor a second factorization is formed. G must be exactly
symmetric, as `gram` returns it for every layout of X.

Only `chol_upper_of_inverse(..., overwrite_g=True)` writes to its input:
it builds M in G's own buffer, so a caller that passes it must not read G
again, whether the call returns or raises. Nothing else here modifies an
argument.

The LAPACK routines come from scipy's `_flapack` extension, which `_lapack`
loads from its file at the first factor without importing `scipy.linalg`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np


MAX_JITTER_RETRIES = 10
SYMMETRY_TILE = 128  # edge of the tiles the symmetry and triangle checks scan
# strict lower triangle of one diagonal tile; a short tile reads its leading block
_STRICT_LOWER = np.tri(SYMMETRY_TILE, k=-1, dtype=bool)
_STRICT_UPPER = _STRICT_LOWER.T
_HALF_MAX = sys.float_info.max / 2.0


_FLAPACK = "scipy.linalg._flapack"
_FLAPACK_LOCK = threading.Lock()  # --jobs workers reach the first factor together


def _lapack():
    """scipy's `_flapack` extension module, which holds dpotrf, dtrtri and
    dpotrs.

    Importing scipy.linalg costs a few hundred ms and about 20 MiB, most of
    it in scipy._lib._array_api, numpy.testing and numpy.f2py, none of which
    a factor uses. So unless scipy.linalg has already loaded the extension,
    it is loaded from scipy's directory, which find_spec locates without
    importing scipy, and registered under its own name: a later
    `import scipy.linalg` then re-exports this same module. This relies on
    scipy's layout, scipy/linalg/_flapack<extension suffix>; where that
    file is missing, ImportError names the path.
    """
    module = sys.modules.get(_FLAPACK)
    if module is not None:
        return module
    with _FLAPACK_LOCK:
        module = sys.modules.get(_FLAPACK)
        if module is None:
            scipy_spec = importlib.util.find_spec("scipy")
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            path = Path(scipy_spec.submodule_search_locations[0], "linalg", "_flapack" + suffix)
            if not path.is_file():
                raise ImportError(f"scipy's LAPACK extension is not at {path}")
            spec = importlib.util.spec_from_file_location(_FLAPACK, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_FLAPACK] = module
    return module


class NumericalFailure(RuntimeError):
    """SPD factorization failed even after the escalating-jitter policy."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    # a NaN or ±inf entry makes the sum non-finite, so a finite sum needs no
    # entrywise mask; a sum that is not finite may still come from finite
    # entries that overflow it, so only then are entries checked
    with np.errstate(over="ignore", invalid="ignore"):
        finite = math.isfinite(m.sum()) or np.isfinite(m).all()
    if not finite:
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
        if not (d.diagonal() > 0.0).all():
            raise ValueError("factor diagonal must be strictly positive")
        # row tiles: the part left of the diagonal tile, then the strict lower
        # triangle of the diagonal tile, so no d×d copy or mask is built
        for i in range(0, self.dim, SYMMETRY_TILE):
            rows = d[i : i + SYMMETRY_TILE]
            n = rows.shape[0]
            if rows[:, :i].any() or rows[:, i : i + n].any(where=_STRICT_LOWER[:n, :n]):
                raise ValueError("factor must be upper triangular")

    @property
    def min_pivot(self) -> float:
        """Smallest diagonal entry of the Cholesky factor M was built from,
        1 / max(diag(M))."""
        return 1.0 / float(np.max(np.diag(self.data)))


def gram(x) -> np.ndarray:
    """XXᵀ for X of shape (d_in, n), exactly symmetric: numpy computes an
    array times its own transpose by SYRK and mirrors the triangle, but only
    when one stride is the item size and the other a whole number of items
    spanning a line, so any other X is first copied to C order.

    Raises NumericalFailure when an entry is not finite or is past half the
    float64 range, so that any two entries sum to a finite value.
    """
    x = as_matrix(x, "X")
    rows, cols = (s // x.itemsize if s % x.itemsize == 0 else -1 for s in x.strides)
    if not ((cols == 1 and rows >= x.shape[1]) or (rows == 1 and cols >= x.shape[0])):
        x = np.ascontiguousarray(x)
    with np.errstate(over="ignore", invalid="ignore"):
        g = x @ x.T
        # NaN fails both comparisons
        if not (g.max() <= _HALF_MAX and g.min() >= -_HALF_MAX):
            raise NumericalFailure(f"Gram matrix of X {x.shape} is not finite or past half the float64 range")
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


def _check_square_symmetric(g: np.ndarray, name: str) -> None:
    """Raise ValueError unless G is square and exactly symmetric. Upper tiles
    are compared with the transposed lower ones, so Gᵀ is never built."""
    d = g.shape[0]
    if d != g.shape[1]:
        raise ValueError(f"{name} must be square, got shape {g.shape}")
    for i in range(0, d, SYMMETRY_TILE):
        rows = slice(i, i + SYMMETRY_TILE)
        for j in range(i, d, SYMMETRY_TILE):
            cols = slice(j, j + SYMMETRY_TILE)
            if not (g[rows, cols] == g[cols, rows].T).all():
                raise ValueError(f"{name} is not symmetric")


def _reverse_in_place(a: np.ndarray) -> None:
    """Overwrite the C-contiguous array a with a[::-1, ::-1], which is its
    flat buffer reversed, swapping one tile's worth of entries from each end
    at a time."""
    flat = a.reshape(-1)
    n = flat.size
    half = n // 2
    chunk = SYMMETRY_TILE * SYMMETRY_TILE
    scratch = np.empty(min(half, chunk))
    for lo in range(0, half, chunk):
        hi = min(lo + chunk, half)
        head, tail = flat[lo:hi], flat[n - hi : n - lo][::-1]
        tmp = scratch[: hi - lo]
        np.copyto(tmp, head)
        head[...] = tail
        tail[...] = tmp


def _mirror_strict_lower(a: np.ndarray) -> None:
    """Copy the strict lower triangle of the square array a onto its strict
    upper triangle, one tile at a time."""
    d = a.shape[0]
    for i in range(0, d, SYMMETRY_TILE):
        rows = slice(i, i + SYMMETRY_TILE)
        tile = a[rows, rows]
        n = tile.shape[0]
        np.copyto(tile, tile.T.copy(), where=_STRICT_UPPER[:n, :n])
        for j in range(i + SYMMETRY_TILE, d, SYMMETRY_TILE):
            cols = slice(j, j + SYMMETRY_TILE)
            a[rows, cols] = a[cols, rows].T


def _anti_transpose(b: np.ndarray) -> None:
    """Overwrite the square array b with b[::-1, ::-1].T, its mirror image
    across the anti-diagonal, one tile pair at a time.

    Row tile a spans [lo, hi) and column tile a its mirror [d - hi, d - lo),
    so the (a, c) and (c, a) tiles trade places and the (a, a) tiles map
    onto themselves; the only scratch is one tile.
    """
    d = b.shape[0]
    spans = [(lo, min(lo + SYMMETRY_TILE, d)) for lo in range(0, d, SYMMETRY_TILE)]
    scratch = np.empty((min(d, SYMMETRY_TILE),) * 2)
    for a, (lo_a, hi_a) in enumerate(spans):
        for lo_c, hi_c in spans[a:]:
            upper = b[lo_a:hi_a, d - hi_c : d - lo_c]
            lower = b[lo_c:hi_c, d - hi_a : d - lo_a]
            tmp = scratch[: hi_a - lo_a, : hi_c - lo_c]
            np.copyto(tmp, upper)
            if lo_c != lo_a:
                upper[...] = lower[::-1, ::-1].T
            lower[...] = tmp[::-1, ::-1].T


def _check_finite_upper(m: np.ndarray) -> None:
    """Raise LinAlgError unless the upper triangle of m is finite; read in
    row tiles, starting at the diagonal tile."""
    for i in range(0, m.shape[0], SYMMETRY_TILE):
        if not np.isfinite(m[i : i + SYMMETRY_TILE, i:]).all():
            raise np.linalg.LinAlgError("non-finite factor")


def _zero_strict_lower(m: np.ndarray) -> None:
    """Zero the strict lower triangle of m in row tiles."""
    for i in range(0, m.shape[0], SYMMETRY_TILE):
        rows = m[i : i + SYMMETRY_TILE]
        n = rows.shape[0]
        rows[:, :i] = 0.0
        rows[:, i : i + n][_STRICT_LOWER[:n, :n]] = 0.0


def chol_upper_of_inverse(
    g, *, shift=None, context: str = "matrix", overwrite_g: bool = False
) -> TriangularFactor:
    """Upper-triangular M with MᵀM = (G + diag(shift))⁻¹, as M = P·L⁻¹·P for
    the lower Cholesky factor L of A = P·(G + diag(shift))·P, where P reverses
    the index order. G must be exactly symmetric, as `gram` returns it; any
    other G raises ValueError before anything is written.

    The damped matrix is never built: one d×d array is filled with A,
    factored, inverted and turned into M in place. With `overwrite_g` that
    array is G's own buffer, reversed in place, so the call allocates only
    tiles and vectors and the returned factor's data is G: the caller must
    not read G again, and after NumericalFailure G holds garbage. Only a
    C-contiguous, writeable float64 G is overwritten; any other G is copied
    as without the flag.

    A is symmetric, so the C-ordered array reads as A in Fortran order.
    potrf and trtri write only the lower triangle of that Fortran view, the
    upper triangle of the array, so a retry refills the array from its
    strict lower triangle and a copy of the diagonal taken before G was
    touched; nothing writes to that triangle until the inverse has passed
    its checks. A damped or jittered fill adds 0.0 off the diagonal and
    (g_ii + shift_i) + eps on it, the arithmetic of G + diag(shift) + eps·I.
    eps starts at 0, then 1e-6 · mean diag of G + diag(shift), doubling up
    to MAX_JITTER_RETRIES times. The mean is taken only after a failed
    attempt, over the diagonal in index order, or as the sum of each entry
    times 1e-6 / d where the plain sum overflows. The jitter actually used and
    the failed attempts are recorded on the returned factor.

    scipy's LAPACK extension is loaded here, not at module load, so
    processes that never factor do not pay for it; see `_lapack`.
    """
    g = as_matrix(g, "G")
    if shift is not None:
        shift = np.asarray(shift, dtype=np.float64)
        if shift.shape != g.shape[:1] or not np.isfinite(shift).all():
            raise ValueError(f"shift must be a finite vector of length {g.shape[0]}")
    _check_square_symmetric(g, "G")
    lapack = _lapack()

    d = g.shape[0]
    diag = np.diag(g).copy()  # G + diag(shift) in index order, taken before G is overwritten
    if shift is not None:
        diag += shift
        if not np.isfinite(diag).all():
            raise ValueError("G contains non-finite entries")
    fill = diag[::-1]
    if overwrite_g and g.flags.c_contiguous and g.flags.writeable:
        work_c = g
        _reverse_in_place(work_c)
    else:
        work_c = np.empty((d, d))
        np.copyto(work_c, g[::-1, ::-1])
    work = work_c.T  # Fortran-ordered, and equal to work_c while it holds the symmetric A
    work_diag = work_c.reshape(-1)[:: d + 1]  # a view
    eps = 0.0
    for retries in range(MAX_JITTER_RETRIES + 1):
        try:
            if retries:
                _mirror_strict_lower(work_c)
            if shift is not None or eps != 0.0:
                np.add(work, 0.0, out=work)
                work_diag[:] = fill + eps if eps != 0.0 else fill
                if not np.isfinite(work_diag).all():
                    raise ValueError("jittered diagonal is not finite")
            _, info = lapack.dpotrf(work, lower=1, clean=0, overwrite_a=1)
            if info > 0:
                raise np.linalg.LinAlgError(f"{info}-th leading minor is not positive definite")
            if info < 0:
                raise ValueError(f"illegal argument {-info} to potrf")
            _, info = lapack.dtrtri(work, lower=1, overwrite_c=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"triangular inverse failed (info {info})")
            # work_c is C-ordered with work_c[j, k] = L⁻¹[k, j]; its
            # anti-transpose is M[j, k] = L⁻¹[d-1-j, d-1-k]. The strict lower
            # triangle of work_c still holds A for a retry, so L⁻¹ is checked
            # before the anti-transpose moves that triangle into the strict
            # lower triangle of M. Its diagonal 1/L_jj needs no check:
            # potrf's pivots L_jj are finite and positive
            _check_finite_upper(work_c)
            _anti_transpose(work_c)
            _zero_strict_lower(work_c)
            return TriangularFactor(dim=d, data=work_c, jitter=eps, retries=retries)
        except (np.linalg.LinAlgError, ValueError):
            if eps != 0.0:
                eps *= 2.0
            else:
                with np.errstate(over="ignore"):
                    eps = 1e-6 * float(np.mean(diag))
                if eps == math.inf:  # the sum overflowed; diag is finite, so scale before summing
                    eps = float(np.sum(diag * (1e-6 / d)))
                if not eps > 0.0:  # non-positive mean diagonal, or the product underflowed
                    eps = 1e-6
    raise NumericalFailure(
        f"Cholesky of inverse failed for {context} (dim {d}) after "
        f"{MAX_JITTER_RETRIES} jitter retries, final eps {eps:.3e}"
    )
