import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sarqc.quantizer import (
    QuantScheme,
    dequantize_with_params,
    group_params,
    quantize_matrix,
    quantize_with_params,
    rtn,
)

SYM4 = QuantScheme(bits=4, mode="symmetric", group_size="per_channel")
ASYM4 = QuantScheme(bits=4, mode="asymmetric", group_size="per_channel")


class TestScheme:
    def test_ranges(self):
        assert (SYM4.qmin, SYM4.qmax) == (-7, 7)
        assert (ASYM4.qmin, ASYM4.qmax) == (0, 15)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantScheme(bits=1)
        with pytest.raises(ValueError):
            QuantScheme(mode="ternary")
        with pytest.raises(ValueError):
            QuantScheme(group_size=0)
        # codes and zero points are int32: larger ranges would wrap
        with pytest.raises(ValueError):
            QuantScheme(bits=32, mode="asymmetric")
        with pytest.raises(ValueError):
            QuantScheme(bits=33, mode="symmetric")
        assert QuantScheme(bits=31, mode="asymmetric").qmax == 2**31 - 1
        assert QuantScheme(bits=32, mode="symmetric").qmax == 2**31 - 1

    @pytest.mark.parametrize(
        "field, value",
        [("bits", 4.5), ("bits", "4"), ("bits", True), ("group_size", 4.5), ("group_size", 8.0),
         ("group_size", [1]), ("group_size", True), ("group_size", np.True_), ("group_size", "per_row")],
    )
    def test_integer_fields_reject_other_types(self, field, value):
        # a bool is an int to Python, but groups of `True` columns mean nothing
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            QuantScheme(**{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        s = QuantScheme(bits=np.int64(3), group_size=np.int32(8))
        assert (type(s.bits), type(s.group_size)) == (int, int)
        assert s == QuantScheme(bits=3, group_size=8)

    def test_ragged_groups(self):
        s = QuantScheme(group_size=2)
        assert s.group_slices(5) == [slice(0, 2), slice(2, 4), slice(4, 5)]
        assert list(s.group_index(5)) == [0, 0, 1, 1, 2]


def quantize_rows(w, scheme):
    """Each row of w as one group: (codes, scales, zero points)."""
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    scale, zp = group_params(w, scheme)
    return quantize_with_params(w, scale, zp, scheme), scale, zp


class TestQuantizeGroup:
    """One group quantized with group_params and quantize_with_params."""

    def test_symmetric_unit_scale(self):
        codes, scale, zp = quantize_rows([-7.0, 0.0, 3.0, 7.0], SYM4)
        assert np.array_equal(scale, [1.0]) and np.array_equal(zp, [0])
        assert np.array_equal(codes, [[-7, 0, 3, 7]])
        assert np.array_equal(dequantize_with_params(codes, scale, zp), [[-7.0, 0.0, 3.0, 7.0]])

    def test_symmetric_all_zero(self):
        codes, scale, zp = quantize_rows(np.zeros(4), SYM4)
        assert np.array_equal(scale, [1.0]) and np.array_equal(zp, [0])
        assert np.array_equal(codes, np.zeros((1, 4)))

    def test_asymmetric_endpoints(self):
        codes, scale, zp = quantize_rows([0.0, 1.5], ASYM4)
        assert scale[0] == pytest.approx(0.1)
        assert np.array_equal(zp, [0])
        assert np.array_equal(codes, [[0, 15]])
        assert dequantize_with_params(codes, scale, zp)[0] == pytest.approx([0.0, 1.5])

    def test_asymmetric_constant_reproduced_exactly(self):
        w = np.array([[c] * 5 for c in (0.0, 2.7, -1.3)])
        codes, scale, zp = quantize_rows(w, ASYM4)
        assert np.array_equal(dequantize_with_params(codes, scale, zp), w)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty quantization group"):
            group_params(np.empty((1, 0)), SYM4)


class TestQuantizeWithParams:
    # ties at ±0.5, ±1.5 and ±2.5, signed zeros, values past either end of
    # the range, and ordinary values
    VALUES = np.array([-0.5, 0.5, -1.5, 1.5, 2.5, -2.5, -0.0, 0.0, 0.49, -0.51, 3.5, 9.0, -9.0, 1e9, -1e9, 0.7, -1.2])

    @pytest.mark.parametrize("scheme", [SYM4, ASYM4, QuantScheme(bits=2, mode="symmetric")], ids=["sym4", "asym4", "sym2"])
    @pytest.mark.parametrize("ndim", [1, 2])
    def test_bytes_match_clip_of_round(self, scheme, ndim):
        rng = np.random.default_rng(7)
        rows = self.VALUES.size
        # powers of two keep the ties exact through (v − z)·s / s + z
        s = 2.0 ** rng.integers(-3, 4, rows)
        z = rng.integers(0, scheme.qmax + 1, rows) if scheme.mode == "asymmetric" else np.zeros(rows, dtype=np.int32)
        v = self.VALUES
        sb, zb = (s, z) if ndim == 1 else (s[:, None], z[:, None])
        if ndim == 2:
            v = np.stack([v, v[::-1], -v], axis=1)
        w = (v - zb) * sb
        want = np.clip(np.round(w / sb + zb), scheme.qmin, scheme.qmax).astype(np.int32)
        got = quantize_with_params(w, s, z.astype(np.int32), scheme)
        assert got.dtype == np.int32 and got.shape == w.shape
        assert got.tobytes() == want.tobytes()

    def test_ties_round_half_to_even(self):
        w = np.array([-2.5, -1.5, -0.5, -0.0, 0.5, 1.5, 2.5])
        codes = quantize_with_params(w, np.ones(7), np.zeros(7, dtype=np.int32), SYM4)
        assert codes.tolist() == [-2, -2, 0, 0, 0, 2, 2]


class TestDequantizeGroup:
    def test_zeros(self):
        assert np.array_equal(dequantize_with_params([0, 0], 1.0, 0), [0.0, 0.0])

    def test_unit_scale(self):
        assert np.array_equal(dequantize_with_params([-7, 7], 1.0, 0), [-7.0, 7.0])

    def test_with_zero_point(self):
        out = dequantize_with_params(np.array([3, 12]), 0.1, 3)
        assert out == pytest.approx([0.0, 0.9])


class TestQuantizeMatrix:
    def test_grid_fixed_point(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(-7, 8, size=(3, 8)).astype(np.float64)
        codes[:, 0] = 7.0  # pin the per-row max so the scale is exactly 1
        ql = quantize_matrix(codes, SYM4)
        assert np.array_equal(ql.dequantized, codes)

    def test_zeros(self):
        ql = quantize_matrix(np.zeros((2, 4)), SYM4)
        assert np.array_equal(ql.dequantized, np.zeros((2, 4)))

    def test_groups_quantized_independently(self):
        scheme = QuantScheme(bits=4, mode="symmetric", group_size=2)
        ql = quantize_matrix(np.array([[-7.0, 0.0, 3.0, 7.0]]), scheme)
        assert np.array_equal(ql.scales, [[1.0, 1.0]])
        assert np.array_equal(ql.codes, [[-7, 0, 3, 7]])

    def test_dequantized_reconstruction_identity(self):
        rng = np.random.default_rng(1)
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=3)
        w = rng.standard_normal((5, 8))
        ql = quantize_matrix(w, scheme)
        for gi, sl in enumerate(scheme.group_slices(8)):
            rebuilt = ql.scales[:, gi : gi + 1] * (ql.codes[:, sl] - ql.zero_points[:, gi : gi + 1])
            assert np.array_equal(rebuilt, ql.dequantized[:, sl])

    def test_per_tensor_single_scale(self):
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size="per_tensor")
        ql = quantize_matrix(np.array([[0.0, 1.0], [2.0, 3.0]]), scheme)
        assert ql.scales.shape == (2, 1)
        assert np.unique(ql.scales).size == 1

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_per_tensor_group_params_reduce_the_whole_array(self, mode):
        # the whole array as one row of a per-channel scheme, repeated per row
        w = np.random.default_rng(4).standard_normal((5, 8))
        scale, zp = group_params(w, QuantScheme(bits=4, mode=mode, group_size="per_tensor"))
        s1, z1 = group_params(w.reshape(1, -1), QuantScheme(bits=4, mode=mode, group_size="per_channel"))
        assert scale.dtype == np.float64 and zp.dtype == np.int32
        assert np.array_equal(scale, np.full(5, s1[0])) and np.array_equal(zp, np.full(5, z1[0]))

    def test_rtn_is_alias(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 6))
        a = quantize_matrix(w, ASYM4)
        b = rtn(w, ASYM4)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.dequantized, b.dequantized)


class TestContractProperties:
    @pytest.mark.parametrize("scheme", [SYM4, ASYM4, QuantScheme(bits=3, mode="symmetric", group_size=4)])
    def test_error_bound_within_clip_range(self, scheme):
        rng = np.random.default_rng(3)
        for _ in range(500):
            w = rng.standard_normal((4, 8)) * rng.uniform(0.1, 10.0)
            ql = quantize_matrix(w, scheme)
            for gi, sl in enumerate(scheme.group_slices(8)):
                scale = ql.scales[:, gi : gi + 1]
                zp = ql.zero_points[:, gi : gi + 1]
                lo = scale * (scheme.qmin - zp)
                hi = scale * (scheme.qmax - zp)
                inside = (w[:, sl] >= lo) & (w[:, sl] <= hi)
                err = np.abs(ql.dequantized[:, sl] - w[:, sl])
                assert np.all(err[inside] <= scale.repeat(len(range(*sl.indices(8))), 1)[inside] / 2 + 1e-15)

    @pytest.mark.parametrize("scheme", [SYM4, ASYM4])
    def test_roundtrip_idempotence(self, scheme):
        # the contract only covers inputs where no rounded code got clipped
        rng = np.random.default_rng(4)
        checked = 0
        for _ in range(500):
            w = rng.standard_normal((3, 6))
            first = quantize_matrix(w, scheme)
            raw = np.round(w / first.scales + first.zero_points)
            if np.any(raw < scheme.qmin) or np.any(raw > scheme.qmax):
                continue
            checked += 1
            # codes are reproduced exactly; scales get recomputed and may
            # differ in the last ulp
            second = quantize_matrix(first.dequantized, scheme)
            assert np.array_equal(first.codes, second.codes)
        assert checked >= 400

    def test_symmetric_negation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            w = rng.standard_normal((3, 5))
            pos = quantize_matrix(w, SYM4)
            neg = quantize_matrix(-w, SYM4)
            assert np.all(pos.zero_points == 0) and np.all(neg.zero_points == 0)
            assert np.array_equal(neg.dequantized, -pos.dequantized)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=12),
        st.sampled_from(["symmetric", "asymmetric"]),
    )
    def test_codes_monotone_within_group(self, values, mode):
        scheme = QuantScheme(bits=4, mode=mode, group_size="per_channel")
        codes, _, _ = quantize_rows(values, scheme)
        order = np.argsort(values, kind="stable")
        assert np.all(np.diff(codes[0, order]) >= 0)

    @pytest.mark.parametrize("mode", ["symmetric", "asymmetric"])
    def test_subnormal_range_gets_a_positive_scale(self, mode):
        # range / qmax underflows to 0; a zero scale made the codes NaN casts
        scheme = QuantScheme(bits=4, mode=mode, group_size="per_channel")
        codes, scale, zp = quantize_rows([0.0, 5e-324], scheme)
        assert np.all(scale > 0.0)
        assert scheme.qmin <= codes.min() and codes.max() <= scheme.qmax
        assert codes[0, 0] <= codes[0, 1]
        assert np.array_equal(dequantize_with_params(codes, scale, zp), [[0.0, 5e-324]])

    def test_codes_within_range(self):
        rng = np.random.default_rng(6)
        for scheme in (SYM4, ASYM4):
            w = rng.standard_normal((4, 9)) * 100
            ql = quantize_matrix(w, scheme)
            assert ql.codes.min() >= scheme.qmin and ql.codes.max() <= scheme.qmax
