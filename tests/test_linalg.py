import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sarqc.linalg import (
    NumericalFailure,
    chol_upper_of_inverse,
    frobenius_sq,
    gram,
    solve_spd,
    spd_inverse,
)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + (0.1 + rng.uniform()) * np.eye(d)


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
        [
            lambda g, context: chol_upper_of_inverse(g, context=context),
            lambda g, context: solve_spd(g, np.ones(3), context=context),
        ],
        ids=["chol_upper_of_inverse", "solve_spd"],
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


class TestSolveSpd:
    def test_identity(self):
        assert np.array_equal(solve_spd(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_scaled(self):
        assert np.allclose(solve_spd(2.0 * np.eye(2), [4.0, 6.0]), [2.0, 3.0])

    def test_two_by_two(self):
        y = solve_spd(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
        assert np.allclose(y, [1.0, 1.0], atol=1e-12)

    def test_residual_bound_random(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.integers(1, 33))
            g = random_spd(rng, d)
            b = rng.standard_normal(d)
            y = solve_spd(g, b)
            assert np.max(np.abs(g @ y - b)) <= 1e-9 * (1.0 + np.max(np.abs(b)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_spd(np.eye(2), [1.0, 2.0, 3.0])


def test_spd_inverse_matches_solve():
    rng = np.random.default_rng(4)
    g = random_spd(rng, 5)
    assert np.max(np.abs(spd_inverse(g) @ g - np.eye(5))) < 1e-9
