import importlib.machinery
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sarqc.gbs import build_curvature
from sarqc.linalg import (
    MAX_JITTER_RETRIES,
    SYMMETRY_TILE,
    NumericalFailure,
    TriangularFactor,
    _anti_transpose,
    _lapack,
    _check_square_symmetric,
    as_matrix,
    chol_upper_of_inverse,
    frobenius_sq,
    gram,
)


from sarqc.saliency import scale_normalize_gbs

def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + (0.1 + rng.uniform()) * np.eye(d)


def traced_peak(fn, *args, **kwargs):
    """(result, peak bytes allocated by fn above what was live before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def damped_factor_by_copies(g0, v):
    """M, jitter and retries of the inverse Cholesky factor of G0 + diag(v)
    by the route that builds G, its jittered copies, cho_factor's copy and
    the np.triu result, written out independently of sarqc.linalg."""
    d = g0.shape[0]
    g = g0 + np.diag(v)
    base = 1e-6 * float(np.mean(np.diag(g)))
    if not base > 0.0:
        base = 1e-6
    a = g[::-1, ::-1]
    eps = 0.0
    for retries in range(MAX_JITTER_RETRIES + 1):
        try:
            work = a if eps == 0.0 else a + eps * np.eye(d)
            c, _ = scipy.linalg.cho_factor(work, lower=True)
            linv, info = scipy.linalg.lapack.dtrtri(c, lower=1, overwrite_c=True)
            if info != 0:
                raise scipy.linalg.LinAlgError("singular")
            m = np.triu(linv[::-1, ::-1])
            if not np.isfinite(m).all() or not np.all(np.diag(m) > 0.0):
                raise scipy.linalg.LinAlgError("bad factor")
            return m, eps, retries
        except (scipy.linalg.LinAlgError, ValueError):
            eps = base if eps == 0.0 else 2.0 * eps
    raise AssertionError("the reference factorization failed")


class TestAsMatrix:
    def test_finite_entries_whose_sum_overflows_pass_silently(self):
        a = np.full((4, 4), 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert as_matrix(a) is a

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "both infinities"])
    def test_non_finite_entries_are_rejected_silently(self, bad):
        a = np.ones((4, 4))
        if bad == "both infinities":
            a[0, 1], a[-1, 0] = np.inf, -np.inf
        else:
            a[-1, -1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="A contains non-finite entries"):
                as_matrix(a, "A")


class TestGram:
    def test_identity(self):
        assert np.array_equal(gram(np.eye(2)), np.eye(2))

    def test_zero(self):
        assert np.array_equal(gram(np.zeros((3, 4))), np.zeros((3, 3)))

    def test_hand_example(self):
        # rows (1,2) and (0,1): <r0,r0>=5, <r0,r1>=2, <r1,r1>=1
        expected = np.array([[5.0, 2.0], [2.0, 1.0]])
        assert np.array_equal(gram([[1.0, 2.0], [0.0, 1.0]]), expected)

    def test_output_exactly_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            g = gram(rng.standard_normal((7, 13)))
            assert np.array_equal(g, g.T)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gram([[np.nan, 0.0], [0.0, 1.0]])

    def test_overflow_is_numerical_failure(self):
        # finite input whose products overflow float64
        with pytest.raises(NumericalFailure, match="not finite"):
            gram(np.full((2, 3), 1e160))

    @pytest.mark.parametrize("x", [[[1e154]], [[1e154, 1e-300], [-1e154, 0.0]], [[1e160, -1e160]]])
    def test_entry_past_half_the_float_range_fails_without_a_warning(self, x):
        # 1e308 is finite, but twice it is not; 1e160 overflows to inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NumericalFailure):
                gram(x)
        assert not caught

    def test_strided_training_view_exactly_symmetric(self):
        # the training split is a column slice of X; 300 rows span three
        # tiles. The other views are layouts numpy cannot hand to SYRK
        view = np.random.default_rng(1).standard_normal((300, 400))[:, :300]
        x = np.random.default_rng(1).standard_normal((257, 600))
        for v in (view, x[::-1], x[:, ::-1], x[:, ::2], np.broadcast_to(x[0], x.shape)):
            g = gram(v)
            assert np.array_equal(g, g.T)
            assert g.tobytes() == gram(np.ascontiguousarray(v)).tobytes()


class TestCholUpperOfInverse:
    def test_scaled_identity(self):
        f = chol_upper_of_inverse(4.0 * np.eye(2))
        assert np.allclose(f.data, 0.5 * np.eye(2))
        assert f.jitter == 0.0

    def test_identity(self):
        f = chol_upper_of_inverse(np.eye(3))
        assert np.allclose(f.data, np.eye(3))

    def test_two_by_two(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        f = chol_upper_of_inverse(g)
        ginv = f.data.T @ f.data
        assert np.max(np.abs(ginv - np.array([[2, -1], [-1, 2]]) / 3.0)) < 1e-12
        assert np.max(np.abs(ginv @ g - np.eye(2))) < 1e-10

    def test_random_spd_inverse_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 17))
            g = random_spd(rng, d)
            f = chol_upper_of_inverse(g)
            assert np.max(np.abs(f.data.T @ f.data @ g - np.eye(d))) <= 1e-8

    def test_upper_triangular_positive_diag(self):
        rng = np.random.default_rng(2)
        g = random_spd(rng, 6)
        f = chol_upper_of_inverse(g)
        assert np.all(np.diag(f.data) > 0)
        assert np.all(np.tril(f.data, k=-1) == 0.0)

    def test_singular_gets_jitter(self):
        f = chol_upper_of_inverse(np.ones((3, 3)))
        assert f.jitter > 0.0
        assert np.all(np.isfinite(f.data))

    @pytest.mark.parametrize(
        "factor",
        [lambda g, context: chol_upper_of_inverse(g, context=context)],
        ids=["chol_upper_of_inverse"],
    )
    def test_indefinite_fails_after_retries(self, factor):
        with pytest.raises(NumericalFailure) as exc:
            factor(-np.eye(3), context="layer_007 curvature")
        msg = str(exc.value)
        # base jitter 1e-6 (mean diagonal is negative), doubled after each of 10 retries
        assert "layer_007" in msg and "(dim 3)" in msg and "final eps 1.024e-03" in msg

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError):
            chol_upper_of_inverse([[1.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("d", [1, 7, 300])
    def test_exact_upper_factor_of_the_inverse(self, d):
        # 300 is not a multiple of the symmetry tile
        g = random_spd(np.random.default_rng(d), d)
        f = chol_upper_of_inverse(g)
        assert np.all(np.tril(f.data, k=-1) == 0.0)
        assert np.all(np.diag(f.data) > 0.0)
        assert (f.jitter, f.retries) == (0.0, 0)
        assert np.max(np.abs(f.data @ g @ f.data.T - np.eye(d))) <= 1e-9

    def test_jittered_rank_deficient_gram(self):
        g = gram(np.random.default_rng(12).standard_normal((40, 10)))
        f = chol_upper_of_inverse(g)
        # one failed attempt, then the first jitter step: 1e-6 · mean diag of
        # G in its own index order (the reversed order can round differently)
        assert f.retries == 1
        assert f.jitter == 1e-6 * float(np.mean(np.diag(g)))
        assert np.all(np.tril(f.data, k=-1) == 0.0)
        assert np.max(np.abs(f.data @ (g + f.jitter * np.eye(40)) @ f.data.T - np.eye(40))) <= 1e-8
        assert f.min_pivot == 1.0 / np.max(np.diag(f.data))

    def test_jitter_base_of_a_diagonal_whose_sum_overflows(self):
        # rank one, every entry 5.808e307: the diagonal sums past the float64
        # range, but 1e-6 times its mean is finite
        g = np.full((8, 8), 5.808e307)
        f = chol_upper_of_inverse(g)
        assert (f.jitter, f.retries) == (float(np.sum(np.diag(g) * (1e-6 / 8))), 1)
        assert f.jitter == pytest.approx(5.808e301, rel=1e-15)
        assert np.isfinite(f.data).all()

    @pytest.mark.parametrize("shifted", [False, True], ids=["undamped", "damped"])
    def test_jitter_base_reads_the_diagonal_in_index_order(self, shifted):
        # diag 1, 1e-16, 1e-16, 1e-16: summed in index order each 1e-16 is
        # lost against 1, summed reversed they are not, so the two means
        # differ in the last bit; the trailing block is singular
        g = np.zeros((4, 4))
        g[0, 0] = 1.0
        g[1:, 1:] = 1e-16
        shift = np.array([0.5, 0.0, 0.0, 0.0]) if shifted else None
        diag = np.diag(g) + shift if shifted else np.diag(g)
        want = 1e-6 * float(np.mean(diag))
        assert want != 1e-6 * float(np.mean(diag[::-1].copy()))
        f = chol_upper_of_inverse(g, shift=shift)
        assert (f.jitter, f.retries) == (want, 1)

    def test_matches_inverse_then_cholesky(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(1, 65))
            g = random_spd(rng, d)
            old = scipy.linalg.cholesky(scipy.linalg.cho_solve(scipy.linalg.cho_factor(g), np.eye(d)))
            m = chol_upper_of_inverse(g).data
            assert np.max(np.abs(m - old)) <= 1e-10 * np.max(np.abs(old))

    def test_min_pivot_is_the_smallest_cholesky_pivot(self):
        g = np.diag([4.0, 0.25, 9.0])
        f = chol_upper_of_inverse(g)
        assert f.min_pivot == 0.5


# sizes that do not fill whole tiles, and tile edges
TILE_SIZES = sorted(
    {1, 7, 255, 256, 257, 300, 519, SYMMETRY_TILE - 1, SYMMETRY_TILE, SYMMETRY_TILE + 1, 2 * SYMMETRY_TILE + 7}
)
# below one tile, and with a partial last row tile
DAMPED_SIZES = sorted({1, 7, 300, 519, 2 * SYMMETRY_TILE + 7})


class TestAntiTranspose:
    @pytest.mark.parametrize("d", TILE_SIZES)
    def test_mirrors_across_the_anti_diagonal(self, d):
        b = np.random.default_rng(d).standard_normal((d, d))
        want = b[::-1, ::-1].T.copy()
        _anti_transpose(b)
        assert b.tobytes() == want.tobytes()


class TestDampedFactor:
    """chol_upper_of_inverse(G0, shift=v) against building G0 + diag(v)."""

    @staticmethod
    def gram_case(d, kind):
        rng = np.random.default_rng(100 + d)
        x = rng.standard_normal((d, d + 8))
        if kind == "rank deficient":
            x[::3] = 0.0  # dead channels, left undamped below
        g0 = gram(x)
        v = rng.uniform(0.05, 2.0, d) * float(np.mean(np.diag(g0)))
        if kind == "rank deficient":
            v[::3] = 0.0
        if kind == "negative zero":
            # a decoupled block: its -0.0 coupling entries turn into +0.0 in G0 + diag(v)
            k = max(1, d // 2)
            g0[:k, k:] = -0.0
            g0[k:, :k] = -0.0
        return g0, v

    @pytest.mark.parametrize("kind", ["unjittered", "rank deficient", "negative zero"])
    @pytest.mark.parametrize("d", DAMPED_SIZES)
    def test_bytes_match_building_the_damped_matrix(self, d, kind):
        g0, v = self.gram_case(d, kind)
        want, eps, retries = damped_factor_by_copies(g0, v)
        f = chol_upper_of_inverse(g0, shift=v)
        assert f.data.tobytes() == want.tobytes()
        assert (f.jitter, f.retries) == (eps, retries)
        assert f.data.flags.c_contiguous
        if kind == "rank deficient":
            assert retries >= 1

    @pytest.mark.parametrize("shift", [np.ones(3), np.array([1.0, np.inf])], ids=["length", "non-finite"])
    def test_bad_shift_is_rejected(self, shift):
        with pytest.raises(ValueError, match="shift must be a finite vector of length 2"):
            chol_upper_of_inverse(np.eye(2), shift=shift)


def indefinite_gram(d, seed):
    """An exactly symmetric G with one eigenvalue of -3e-5 · mean diag, which
    takes several doublings of the jitter."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    vals, vecs = np.linalg.eigh(a @ a.T)
    vals[0] = -3e-5 * float(np.mean(vals))
    g = (vecs * vals) @ vecs.T
    return (g + g.T) / 2.0


class TestInPlaceFactor:
    """chol_upper_of_inverse(G, overwrite_g=True) against the copying call."""

    @staticmethod
    def assert_same_factor(f, want):
        assert f.data.tobytes() == want.data.tobytes()
        assert (f.jitter, f.retries) == (want.jitter, want.retries)

    @pytest.mark.parametrize("shifted", [True, False], ids=["damped", "undamped"])
    @pytest.mark.parametrize("kind", ["unjittered", "rank deficient", "negative zero"])
    @pytest.mark.parametrize("d", DAMPED_SIZES)
    def test_bytes_match_the_copying_call(self, d, kind, shifted):
        g0, v = TestDampedFactor.gram_case(d, kind)
        shift = v if shifted else None
        want = chol_upper_of_inverse(g0, shift=shift)
        g = g0.copy()
        f = chol_upper_of_inverse(g, shift=shift, overwrite_g=True)
        self.assert_same_factor(f, want)
        assert np.shares_memory(f.data, g)  # built in G's buffer
        assert f.data.flags.c_contiguous

    @pytest.mark.parametrize("d", [5, 40, 300])
    def test_several_jitter_retries_refill_the_same_matrix(self, d):
        g0 = indefinite_gram(d, d)
        for shift in (None, np.full(d, 1e-12)):
            want = chol_upper_of_inverse(g0, shift=shift)
            assert want.retries >= 3
            self.assert_same_factor(chol_upper_of_inverse(g0.copy(), shift=shift, overwrite_g=True), want)

    @pytest.mark.parametrize("overwrite_g", [False, True])
    def test_overflowing_triangular_inverse_gets_jitter(self, overwrite_g):
        # P·G·P = L·Lᵀ for L with 1 on the diagonal and -1 below it, whose
        # inverse has entries up to 2^(d-2): inf at d = 1100. The jittered
        # retry refills from the triangle the failed attempt left untouched
        d = 1100
        low = np.tril(-np.ones((d, d)), -1) + np.eye(d)
        g = np.ascontiguousarray((low @ low.T)[::-1, ::-1])
        want = chol_upper_of_inverse(g)
        assert want.retries == 1 and np.isfinite(want.data).all()
        self.assert_same_factor(chol_upper_of_inverse(g.copy(), overwrite_g=overwrite_g), want)

    @pytest.mark.parametrize("kind", ["unjittered", "rank deficient"])
    def test_without_the_flag_g_is_unchanged(self, kind):
        g0, v = TestDampedFactor.gram_case(300, kind)
        g = g0.copy()
        for shift in (v, None):
            f = chol_upper_of_inverse(g, shift=shift)
            assert not np.shares_memory(f.data, g)
            assert g.tobytes() == g0.tobytes()

    def test_non_contiguous_g_is_copied(self):
        g0, v = TestDampedFactor.gram_case(300, "rank deficient")
        big = g0.copy()
        k = 2 * SYMMETRY_TILE + 7
        want = chol_upper_of_inverse(g0[:k, :k].copy(), shift=v[:k])
        f = chol_upper_of_inverse(big[:k, :k], shift=v[:k], overwrite_g=True)
        self.assert_same_factor(f, want)
        assert big.tobytes() == g0.tobytes()

    def test_failure_is_the_same_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="final eps 1.024e-03"):
            chol_upper_of_inverse(-np.eye(3), overwrite_g=True)


class TestPeakMemory:
    """At d = 1024 the d×d float64 output is 8 MiB; traced allocations may
    exceed it by tiles and vectors only, and a factor built in G's buffer
    allocates no more than those."""

    D = 1024
    BUDGET = 1.1 * 8 * D * D

    def test_gram_builds_one_matrix(self):
        x = np.random.default_rng(16).standard_normal((self.D, 256))
        g, peak = traced_peak(gram, x)
        assert np.array_equal(g, g.T)
        assert peak <= self.BUDGET

    @pytest.mark.parametrize("n, lam", [(2 * D, 0.5), (D // 4, 1e-30)], ids=["unjittered", "jitter retry"])
    def test_damped_curvature_builds_one_matrix(self, n, lam):
        g0 = gram(np.random.default_rng(17).standard_normal((self.D, n)))
        s = np.random.default_rng(18).uniform(0.5, 2.0, self.D)
        profile = scale_normalize_gbs(s, float(np.mean(np.diag(g0))))
        f, peak = traced_peak(build_curvature, g0, profile, lam)
        assert f.retries == (0 if lam == 0.5 else 1)
        assert peak <= self.BUDGET

    @pytest.mark.parametrize("n, lam", [(2 * D, 0.5), (D // 4, 1e-30)], ids=["unjittered", "jitter retry"])
    def test_in_place_curvature_allocates_tiles_only(self, n, lam):
        g0 = gram(np.random.default_rng(17).standard_normal((self.D, n)))
        s = np.random.default_rng(18).uniform(0.5, 2.0, self.D)
        profile = scale_normalize_gbs(s, float(np.mean(np.diag(g0))))
        want = build_curvature(g0, profile, lam)
        f, peak = traced_peak(build_curvature, g0, profile, lam, overwrite_g=True)
        assert f.data.tobytes() == want.data.tobytes()
        assert peak <= 0.1 * 8 * self.D * self.D


class TestSymmetryCheck:
    D = SYMMETRY_TILE + 44

    def symmetric(self):
        return gram(np.random.default_rng(14).standard_normal((self.D, 8)))

    def test_exactly_symmetric_is_returned_as_is(self):
        g = self.symmetric()
        before = g.tobytes()
        assert _check_square_symmetric(g, "G") is None
        assert g.tobytes() == before

    @pytest.mark.parametrize(
        "where, ulps",
        [((SYMMETRY_TILE + 20, 10), False), ((SYMMETRY_TILE + 43, SYMMETRY_TILE + 5), False), ((3, D - 1), True)],
        ids=["below-diagonal tile", "last partial tile", "one ulp"],
    )
    def test_planted_asymmetry_is_rejected(self, where, ulps):
        g = self.symmetric()
        g[where] = np.nextafter(g[where], np.inf) if ulps else g[where] + 1e-3 * np.max(np.abs(g))
        with pytest.raises(ValueError, match="G is not symmetric"):
            _check_square_symmetric(g, "G")
        # the factor routine rejects it before G is written
        before = g.tobytes()
        with pytest.raises(ValueError, match="G is not symmetric"):
            chol_upper_of_inverse(g, overwrite_g=True)
        assert g.tobytes() == before


class TestTriangularFactor:
    D = 2 * SYMMETRY_TILE + 7  # the last row tile is partial

    def upper(self):
        return np.triu(np.random.default_rng(15).uniform(0.5, 1.0, (self.D, self.D)))

    def test_upper_triangular_is_accepted(self):
        f = TriangularFactor(dim=self.D, data=self.upper())
        assert f.dim == self.D

    @pytest.mark.parametrize(
        "where",
        [(D - 1, D - 2), (D - 1, 0), (SYMMETRY_TILE + 1, SYMMETRY_TILE)],
        ids=["last tile diagonal block", "last tile first column", "inner diagonal block"],
    )
    def test_planted_lower_entry_is_rejected(self, where):
        m = self.upper()
        m[where] = 1e-300
        with pytest.raises(ValueError, match="factor must be upper triangular"):
            TriangularFactor(dim=self.D, data=m)


class TestFrobeniusSq:
    def test_zero(self):
        assert frobenius_sq(np.zeros((2, 5))) == 0.0

    def test_identity(self):
        assert frobenius_sq(np.eye(3)) == 3.0

    def test_hand_example(self):
        assert frobenius_sq([[1.0, 2.0], [3.0, 4.0]]) == 30.0

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        )
    )
    def test_transpose_exact(self, a):
        assert frobenius_sq(a) == frobenius_sq(a.T)

    @settings(max_examples=100, deadline=None)
    @given(
        hnp.arrays(
            np.float64,
            hnp.array_shapes(min_dims=2, max_dims=2, max_side=16),
            elements=st.floats(-1e6, 1e6, allow_nan=False),
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_permutation_exact_and_close_to_fsum(self, a, seed):
        rng = np.random.default_rng(seed)
        permuted = a[rng.permutation(a.shape[0])][:, rng.permutation(a.shape[1])]
        total = frobenius_sq(a)
        assert frobenius_sq(a.T) == total
        assert frobenius_sq(permuted) == total
        assert frobenius_sq(permuted.T) == total
        exact = math.fsum((a * a).ravel().tolist())
        assert abs(total - exact) <= 1e-13 * exact

    def test_overflow_is_numerical_failure(self):
        with pytest.raises(NumericalFailure, match="not finite"):
            frobenius_sq([[1e154, 1e154], [1e154, 1e154]])
        with pytest.raises(NumericalFailure):
            frobenius_sq([[1e160]])


def run_python(code: str) -> None:
    """Run code in a fresh interpreter, which has not imported scipy."""
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr


class TestLapackLoader:
    def test_factor_then_scipy_linalg_share_one_module(self):
        run_python(
            "import sys\n"
            "import numpy as np\n"
            "from sarqc import linalg\n"
            "g = linalg.gram(np.random.default_rng(3).standard_normal((48, 96)))\n"
            "before = linalg.chol_upper_of_inverse(g).data.tobytes()\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "import scipy.linalg\n"
            "assert scipy.linalg.lapack.dpotrf is linalg._lapack().dpotrf\n"
            "assert linalg.chol_upper_of_inverse(g).data.tobytes() == before\n"
        )

    def test_scipy_linalg_first_is_reused(self):
        run_python(
            "import sys\n"
            "import scipy.linalg\n"
            "from sarqc import linalg\n"
            "assert linalg._lapack() is scipy.linalg.lapack._flapack is sys.modules['scipy.linalg._flapack']\n"
        )

    def test_concurrent_first_loads_share_one_module(self):
        # eight threads ask for the module at once; a slowed load widens the
        # window in which a thread that found it missing would start a
        # second load of the extension without the lock
        run_python(
            "import importlib.util, sys, threading, time\n"
            "from sarqc import linalg\n"
            "loads = []\n"
            "spec_from_file_location = importlib.util.spec_from_file_location\n"
            "def slow_spec(*args, **kwargs):\n"
            "    loads.append(args[0])\n"
            "    time.sleep(0.05)\n"
            "    return spec_from_file_location(*args, **kwargs)\n"
            "importlib.util.spec_from_file_location = slow_spec\n"
            "sys.setswitchinterval(1e-6)\n"
            "start = threading.Barrier(8)\n"
            "got = []\n"
            "def first_load():\n"
            "    start.wait(timeout=30)\n"
            "    got.append(linalg._lapack())\n"
            "threads = [threading.Thread(target=first_load) for _ in range(8)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join(timeout=60)\n"
            "assert not any(t.is_alive() for t in threads)\n"
            "assert loads == ['scipy.linalg._flapack'], loads\n"
            "assert len(got) == 8 and all(m is sys.modules['scipy.linalg._flapack'] for m in got)\n"
        )

    def test_missing_extension_names_its_path(self, monkeypatch):
        # the loader reads scipy's private layout, scipy/linalg/_flapack<suffix>;
        # where that file is missing it raises, and there is no other route
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"linalg/_flapack\.missing\.so"):
            _lapack()
