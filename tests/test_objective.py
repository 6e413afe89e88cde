import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarqc.calibration import split_batch
from sarqc.harness import solve
from sarqc.linalg import gram
from sarqc.objective import check_grid, joint_score, minmax_normalize, recon_loss, sar_loss, weight_drift
from sarqc.quantizer import QuantScheme
from sarqc.saliency import SaliencyProfile, identity_profile


class TestReconLoss:
    def test_zero_when_equal(self):
        w = np.array([[1.0, 2.0]])
        assert recon_loss(w, w, np.eye(2)) == 0.0

    def test_identity_inputs(self):
        w = np.zeros((1, 2))
        assert recon_loss(w, np.array([[1.0, 0.0]]), np.eye(2)) == 1.0

    def test_hand_example(self):
        w = np.zeros((1, 2))
        w_hat = np.array([[1.0, 1.0]])
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert recon_loss(w, w_hat, x) == 5.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            recon_loss(np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((3, 2)))

    def test_gram_trace_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            w = rng.standard_normal((4, 6))
            w_hat = w + rng.standard_normal((4, 6)) * 0.1
            x = rng.standard_normal((6, 9))
            direct = recon_loss(w, w_hat, x)
            delta = w_hat - w
            via_gram = float(np.trace(delta @ gram(x) @ delta.T))
            assert abs(direct - via_gram) <= 1e-9 * (1.0 + abs(direct))


class TestSarLoss:
    def test_identity_profile_equals_drift(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            w = rng.standard_normal((3, 5))
            w_hat = w + rng.standard_normal((3, 5))
            assert sar_loss(w, w_hat, identity_profile(5)) == weight_drift(w, w_hat)

    def test_zero_when_equal(self):
        w = np.ones((2, 3))
        p = SaliencyProfile(values=np.array([1.0, 2.0, 3.0]), kind="gs")
        assert sar_loss(w, w, p) == 0.0

    def test_hand_example(self):
        w = np.zeros((1, 2))
        w_hat = np.array([[1.0, 1.0]])
        p = SaliencyProfile(values=np.array([2.0, 1.0]), kind="gs")
        assert sar_loss(w, w_hat, p) == 5.0


class TestWeightDrift:
    def test_zero(self):
        w = np.array([[1.0, 2.0]])
        assert weight_drift(w, w) == 0.0

    def test_identity_delta(self):
        assert weight_drift(np.zeros((2, 2)), np.eye(2)) == 2.0

    def test_hand_example(self):
        assert weight_drift(np.zeros((2, 2)), np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0


class TestMinmaxNormalize:
    def test_hand_example(self):
        assert np.allclose(minmax_normalize([4.0, 2.0, 8.0]), [1.0 / 3.0, 0.0, 1.0])

    def test_degenerate(self):
        assert np.array_equal(minmax_normalize([5.0, 5.0, 5.0]), np.zeros(3))

    def test_already_normalized(self):
        assert np.array_equal(minmax_normalize([0.0, 1.0]), [0.0, 1.0])

    def test_too_few_values(self):
        with pytest.raises(ValueError):
            minmax_normalize([1.0])

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-1000, 1000), min_size=2, max_size=12),
        st.integers(1, 64),
        st.integers(-1000, 1000),
    )
    def test_affine_invariance_exact_on_integer_vectors(self, values, a, b):
        # integer-valued floats keep every intermediate exact, so the identity
        # holds bitwise, not just approximately
        v = np.array(values, dtype=np.float64)
        assert np.array_equal(minmax_normalize(a * v + b), minmax_normalize(v))

    def test_argmin_invariance_on_random_floats(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.standard_normal(8)
            a = rng.uniform(0.1, 10.0)
            b = rng.standard_normal()
            assert np.argmin(minmax_normalize(a * v + b)) == np.argmin(minmax_normalize(v))


class TestJointScore:
    def test_lambda_zero(self):
        r = np.array([1.0 / 3.0, 0.0, 1.0])
        assert np.array_equal(joint_score(r, np.array([0.5, 0.1, 0.9]), 0.0), r)

    def test_hand_example(self):
        out = joint_score(np.array([1.0 / 3.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.5]), 0.5)
        assert np.allclose(out, [1.0 / 3.0, 0.5, 1.25])

    def test_equal_vectors_double(self):
        r = np.array([0.2, 0.4])
        assert np.array_equal(joint_score(r, r, 1.0), 2.0 * r)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(3)
        r = rng.uniform(0, 1, 6)
        s = rng.uniform(0, 1, 6)
        prev = joint_score(r, s, 0.0)
        for lam in (0.1, 0.5, 2.0):
            cur = joint_score(r, s, lam)
            assert np.all(cur >= prev)
            prev = cur

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            joint_score(np.zeros(2), np.zeros(3), 1.0)


class TestCheckLambdaGrid:
    def test_returns_floats(self):
        assert check_grid("lambda_grid", [0, 0.5, 2], 0.0) == (0.0, 0.5, 2.0)

    @pytest.mark.parametrize(
        "grid",
        [(), (-0.1,), (float("nan"),), (float("inf"),), (0.1, float("nan")), (0.5, 0.5), (0.5, 0.25)],
        ids=["empty", "negative", "nan", "inf", "trailing-nan", "repeated", "decreasing"],
    )
    # the ids keep the names they had when each solver's config class ran this check
    @pytest.mark.parametrize(
        "method", [pytest.param("sarqc-gs", id="GsConfig"), pytest.param("sarqc-gbs", id="GbsConfig")]
    )
    def test_configs_reject_bad_grids(self, method, grid):
        rng = np.random.default_rng(0)
        w, batch = rng.standard_normal((2, 4)), split_batch(rng.standard_normal((4, 8)))
        with pytest.raises(ValueError, match="lambda_grid"):
            solve(method, w, batch, QuantScheme(bits=4, mode="symmetric", group_size="per_channel"), lambda_grid=grid)
