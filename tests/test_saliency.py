import numpy as np
import pytest

from sarqc.linalg import NumericalFailure
from sarqc.saliency import (
    STAT_FLOOR,
    SaliencyProfile,
    channel_stats,
    identity_profile,
    saliency_vector_gbs,
    saliency_vector_gs,
    scale_normalize_gbs,
    scaling_vector_gs,
)


def stats_from(mean_x, mean_w):
    mean_x = np.asarray(mean_x, dtype=np.float64)
    mean_w = np.asarray(mean_w, dtype=np.float64)
    from sarqc.saliency import ChannelStats

    return ChannelStats(mean_abs_x=mean_x, mean_abs_w=mean_w, max_abs_x=mean_x, max_abs_w=mean_w)


class TestChannelStats:
    def test_identity_inputs(self):
        s = channel_stats(np.eye(2), np.eye(2))
        assert np.allclose(s.mean_abs_x, [0.5, 0.5])
        assert np.allclose(s.mean_abs_w, [0.5, 0.5])

    def test_constant_inputs(self):
        s = channel_stats(np.ones((2, 2)), np.ones((2, 3)))
        assert np.all(s.mean_abs_x == 1.0) and np.all(s.mean_abs_w == 1.0)
        assert np.all(s.max_abs_x == 1.0) and np.all(s.max_abs_w == 1.0)

    def test_zero_channel_floored(self):
        w = np.array([[1.0, 0.0], [1.0, 0.0]])
        x = np.array([[1.0, 1.0], [0.0, 0.0]])
        s = channel_stats(w, x)
        assert s.mean_abs_w[1] == STAT_FLOOR
        assert s.mean_abs_x[1] == STAT_FLOOR

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            channel_stats(np.ones((2, 3)), np.ones((2, 3)))

    def test_mean_le_max(self):
        rng = np.random.default_rng(0)
        s = channel_stats(rng.standard_normal((5, 7)), rng.standard_normal((7, 11)))
        assert np.all(s.mean_abs_x <= s.max_abs_x)
        assert np.all(s.mean_abs_w <= s.max_abs_w)


class TestScalingVectorGs:
    def test_uniform_stats_give_ones(self):
        s = scaling_vector_gs(stats_from([3.0, 3.0], [0.5, 0.5]), alpha=0.7)
        assert np.allclose(s, 1.0)

    def test_alpha_zero_is_inverse_weight(self):
        st = stats_from([5.0, 9.0], [2.0, 8.0])
        s = scaling_vector_gs(st, alpha=0.0)
        pre = 1.0 / st.mean_abs_w
        assert np.allclose(s, pre / np.sqrt(pre.max() * pre.min()))

    def test_hand_example(self):
        s = scaling_vector_gs(stats_from([4.0, 1.0], [1.0, 1.0]), alpha=0.5)
        assert np.allclose(s, [np.sqrt(2.0), 1.0 / np.sqrt(2.0)])

    def test_geometric_mean_fixed_point(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            st = stats_from(rng.uniform(0.01, 10, 6), rng.uniform(0.01, 10, 6))
            s = scaling_vector_gs(st, rng.uniform())
            assert abs(s.max() * s.min() - 1.0) < 1e-10

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            scaling_vector_gs(stats_from([1.0], [1.0]), 1.5)

    def test_overflow_is_numerical_failure(self):
        # max(s) · min(s) overflows, which would zero s and make NaN candidates
        rng = np.random.default_rng(0)
        stats = channel_stats(rng.standard_normal((4, 8)), rng.standard_normal((8, 16)) * 1e160)
        with pytest.raises(NumericalFailure, match="scaling vector"):
            scaling_vector_gs(stats, 1.0)


class TestSaliencyVectors:
    def test_gs_equal_stats(self):
        p = saliency_vector_gs(stats_from([2.0, 2.0], [2.0, 2.0]))
        assert p.kind == "gs"
        assert np.all(p.values == 1.0)

    def test_gs_ratio(self):
        p = saliency_vector_gs(stats_from([2.0, 8.0], [1.0, 2.0]))
        assert np.allclose(p.values, [2.0, 4.0])

    def test_gs_floored_channel(self):
        p = saliency_vector_gs(stats_from([STAT_FLOOR, 1.0], [2.0, 1.0]))
        assert p.values[0] == pytest.approx(STAT_FLOOR / 2.0)

    def test_gbs_hand_example(self):
        s = saliency_vector_gbs(stats_from([4.0], [1.0]), gamma=0.5)
        assert s[0] == pytest.approx(2.0)

    def test_gbs_gamma_one(self):
        st = stats_from([4.0, 2.5], [3.0, 7.0])
        assert np.allclose(saliency_vector_gbs(st, 1.0), st.mean_abs_x)

    def test_gbs_uniform_stats_constant(self):
        s = saliency_vector_gbs(stats_from([3.0, 3.0], [2.0, 2.0]), 0.35)
        assert np.allclose(s, s[0])


class TestScaleNormalizeGbs:
    def test_constant_unit(self):
        p = scale_normalize_gbs(np.array([5.0, 5.0]), h_bar=1.0)
        assert np.allclose(p.values, 1.0)

    def test_hand_example(self):
        p = scale_normalize_gbs(np.array([1.0, 1.0]), h_bar=4.0)
        assert np.allclose(p.values, [2.0, 2.0])

    def test_mean_square_matches_h_bar(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            s = rng.uniform(0.01, 20, 9)
            h = rng.uniform(0.1, 50)
            p = scale_normalize_gbs(s, h)
            assert abs(np.mean(p.values**2) - h) < 1e-12 * max(1.0, h)

    def test_scale_invariance_after_normalization(self):
        rng = np.random.default_rng(3)
        st = stats_from(rng.uniform(0.1, 5, 8), rng.uniform(0.1, 5, 8))
        gamma, c = 0.35, 3.7
        scaled = stats_from(c * st.mean_abs_x, st.mean_abs_w)
        raw = saliency_vector_gbs(st, gamma)
        raw_scaled = saliency_vector_gbs(scaled, gamma)
        assert np.allclose(raw_scaled, c**gamma * raw, rtol=1e-12)
        a = scale_normalize_gbs(raw, 2.0).values
        b = scale_normalize_gbs(raw_scaled, 2.0).values
        assert np.max(np.abs(a - b)) < 1e-10

    def test_invalid_h_bar(self):
        with pytest.raises(ValueError):
            scale_normalize_gbs(np.array([1.0]), 0.0)


class TestProfileValidation:
    def test_identity_profile(self):
        p = identity_profile(4)
        assert p.kind == "identity" and np.all(p.values == 1.0)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            SaliencyProfile(values=np.array([1.0, 0.0]), kind="gs")

    def test_identity_must_be_ones(self):
        with pytest.raises(ValueError):
            SaliencyProfile(values=np.array([1.0, 2.0]), kind="identity")
