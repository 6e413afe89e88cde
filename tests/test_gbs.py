import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sarqc.gbs
import sarqc.harness
from sarqc.calibration import split_batch
from sarqc.gbs import (
    SUBSET_FRACTION,
    SUBSET_MIN,
    GbsConfig,
    build_curvature,
    h_bar_of_gram,
    profile_for,
    run_gbs,
    select_hparams_gbs,
)
from sarqc.harness import solve
from sarqc.linalg import TriangularFactor, chol_upper_of_inverse, gram
from sarqc.objective import recon_loss
from sarqc.oracles import greedy_sequential_reference, oracle_row_update
from sarqc.quantizer import QuantScheme, dequantize_with_params, group_params, quantize_with_params, rtn
from sarqc.saliency import channel_stats, identity_profile, scale_normalize_gbs

SYM3 = QuantScheme(bits=3, mode="symmetric", group_size="per_channel")
SYM4 = QuantScheme(bits=4, mode="symmetric", group_size="per_channel")
SYM2_G32 = QuantScheme(bits=2, mode="symmetric", group_size=32)


def assert_same_bytes(out, ref):
    """codes, scales, zero points and dequant of a QuantizedLayer equal ref's
    (a layer or a tuple in that order) byte for byte, so −0.0 ≠ +0.0."""
    if not isinstance(ref, tuple):
        ref = (ref.codes, ref.scales, ref.zero_points, ref.dequantized)
    for got, want in zip((out.codes, out.scales, out.zero_points, out.dequantized), ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def run_gbs_column_layout(w, m, scheme, block_size):
    """The blocked pass on a (d_out, d_in) working copy, as run_gbs computed
    it before it moved to a transposed one; kept as its byte reference."""
    d_out, d_in = w.shape
    slices = scheme.group_slices(d_in)
    grp_idx = scheme.group_index(d_in)
    codes = np.empty((d_out, d_in), dtype=np.int32)
    qhat = np.empty_like(w)
    scales = np.empty((d_out, len(slices)), dtype=np.float64)
    zps = np.empty((d_out, len(slices)), dtype=np.int32)
    ready = np.zeros(len(slices), dtype=bool)
    u = w.copy()
    for i in range(0, d_in, block_size):
        i_end = min(i + block_size, d_in)
        e_blk = np.empty((d_out, i_end - i))
        for j in range(i, i_end):
            gi = int(grp_idx[j])
            if not ready[gi]:
                if scheme.per_tensor:
                    s1, z1 = group_params(u.reshape(1, -1), scheme)
                    scales[:, gi] = s1[0]
                    zps[:, gi] = z1[0]
                else:
                    sl = slices[gi]
                    g_slice = u[:, sl]
                    if sl.stop > i_end and j > i:
                        g_slice = g_slice.copy()
                        g_slice[:, i_end - sl.start :] -= e_blk[:, : j - i] @ m[i:j, i_end : sl.stop]
                    scales[:, gi], zps[:, gi] = group_params(g_slice, scheme)
                ready[gi] = True
            s = scales[:, gi]
            z = zps[:, gi]
            c = quantize_with_params(u[:, j], s, z, scheme)
            qcol = dequantize_with_params(c, s, z)
            codes[:, j] = c
            qhat[:, j] = qcol
            e = (u[:, j] - qcol) / m[j, j]
            e_blk[:, j - i] = e
            u[:, j:i_end] -= np.outer(e, m[j, j:i_end])
        if i_end < d_in:
            u[:, i_end:] -= e_blk @ m[i:i_end, i_end:]
    return codes, scales, zps, qhat


def identity_curvature(d):
    return TriangularFactor(dim=d, data=np.eye(d))


def assert_factor_of(factor, g, tol=1e-12):
    """factor is the inverse-Cholesky factor of the curvature g."""
    want = chol_upper_of_inverse(g).data
    assert factor.data.shape == want.shape
    assert np.max(np.abs(factor.data - want)) <= tol * np.max(np.abs(want))


class TestBuildCurvature:
    def test_identity_inputs_unit_lambda(self):
        prof = scale_normalize_gbs(np.ones(2), h_bar=1.0)
        factor = build_curvature(gram(np.eye(2)), prof, lam=1.0)
        assert_factor_of(factor, 2.0 * np.eye(2))
        assert np.allclose(factor.data, np.eye(2) / np.sqrt(2.0))

    def test_lambda_zero_is_plain_gram(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 9))
        factor = build_curvature(gram(x), identity_profile(4), 0.0)
        assert np.array_equal(factor.data, chol_upper_of_inverse(gram(x)).data)

    def test_identity_profile_hand_example(self):
        # rows (1,0) and (1,1): gram [[1,1],[1,2]], h_bar 1.5, damping 0.75
        x = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert h_bar_of_gram(gram(x)) == pytest.approx(1.5)
        factor = build_curvature(gram(x), identity_profile(2), lam=0.5)
        assert_factor_of(factor, np.array([[1.75, 1.0], [1.0, 2.75]]))

    def test_identity_profile_hand_example_transposed(self):
        # with the transposed inputs the gram is [[2,1],[1,1]], same h_bar
        x = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert h_bar_of_gram(gram(x)) == pytest.approx(1.5)
        factor = build_curvature(gram(x), identity_profile(2), lam=0.5)
        assert_factor_of(factor, np.array([[2.75, 1.0], [1.0, 1.75]]))

    def test_h_bar_of_a_diagonal_whose_sum_overflows(self):
        # every diagonal entry 5.808e307: the sum overflows, the mean does not
        g0 = np.full((8, 8), 5.808e307)
        assert h_bar_of_gram(g0) == float(np.sum(np.diag(g0) * (1.0 / 8))) == pytest.approx(5.808e307, rel=1e-15)
        g0 = gram(np.random.default_rng(2).standard_normal((8, 16)))
        assert h_bar_of_gram(g0) == float(np.mean(np.diag(g0)))

    def test_identity_plus_lambda_is_isotropic_damping(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 20))
        lam = 0.7
        factor = build_curvature(gram(x), identity_profile(6), lam)
        g0 = gram(x)
        assert_factor_of(factor, g0 + lam * h_bar_of_gram(g0) * np.eye(6), tol=1e-10)


class TestRunGbs:
    def test_representable_weights_are_fixed_point(self):
        rng = np.random.default_rng(2)
        w = rng.integers(-7, 8, size=(3, 5)).astype(np.float64)
        w[:, 0] = 7.0
        x = rng.standard_normal((5, 16))
        factor = build_curvature(gram(x), identity_profile(5), 0.0)
        out = run_gbs(w, factor, SYM4, block_size=128)
        assert np.array_equal(out.dequantized, w)

    def test_diagonal_curvature_equals_rtn(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 6))
        out = run_gbs(w, identity_curvature(6), SYM4, block_size=2)
        base = rtn(w, SYM4)
        assert np.array_equal(out.codes, base.codes)
        assert np.array_equal(out.scales, base.scales)
        assert np.array_equal(out.dequantized, base.dequantized)

    def test_traced_rounding_example(self):
        # unit factor, per-row scale pinned to 1 by the third column
        w = np.array([[1.3, 0.7, 3.0]])
        out = run_gbs(w, identity_curvature(3), SYM3, block_size=128)
        assert np.array_equal(out.scales, [[1.0]])
        assert np.array_equal(out.dequantized, [[1.0, 1.0, 3.0]])

    def test_block_size_independence(self):
        rng = np.random.default_rng(4)
        d_in = 24
        w = rng.standard_normal((8, d_in))
        x = rng.standard_normal((d_in, 64))
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=8)
        factor = build_curvature(gram(x), identity_profile(d_in), 0.3)
        outs = [run_gbs(w, factor, scheme, block_size=b) for b in (1, 5, d_in)]
        for other in outs[1:]:
            assert np.max(np.abs(outs[0].dequantized - other.dequantized)) <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_gbs(np.zeros((2, 3)), identity_curvature(4), SYM4)

    @pytest.mark.parametrize("group", ["per_channel", "per_tensor", 4])
    def test_no_input_channels(self, group):
        # no column would be quantized, so the group parameters would be left
        # as uninitialised memory
        scheme = QuantScheme(bits=4, mode="symmetric", group_size=group)
        with pytest.raises(ValueError, match="no input channels"):
            run_gbs(np.zeros((3, 0)), TriangularFactor(dim=0, data=np.zeros((0, 0))), scheme)

    @settings(max_examples=60, deadline=None)
    @given(
        d_out=st.integers(1, 300),
        d_in=st.integers(1, 300),
        block=st.sampled_from([1, 3, 8, 16, 32, 128]),
        group=st.sampled_from([4, 16, 32, "per_channel", "per_tensor"]),
        mode=st.sampled_from(["symmetric", "asymmetric"]),
        bits=st.integers(2, 4),
        lam=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_match_column_layout_loop(self, d_out, d_in, block, group, mode, bits, lam, seed):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((d_out, d_in))
        x = rng.standard_normal((d_in, int(rng.integers(1, 2 * d_in + 2))))
        scheme = QuantScheme(bits=bits, mode=mode, group_size=group)
        factor = build_curvature(gram(x), identity_profile(d_in), lam)
        out = run_gbs(w, factor, scheme, block_size=block)
        ref = run_gbs_column_layout(w, factor.data, scheme, block)
        assert_same_bytes(out, ref)

    @pytest.mark.parametrize("block", [1, 7, 48, 128])
    def test_negative_zero_bytes_match_column_layout_loop(self, block):
        # small negative weights at 2 symmetric bits round to code 0 from
        # below, where rint gives −0.0; the dequant must be the +0.0 of
        # s · (0 − 0), which array_equal cannot tell from −0.0
        rng = np.random.default_rng(11)
        w = -np.abs(rng.standard_normal((24, 96))) * 1e-3
        x = rng.standard_normal((96, 160))
        factor = build_curvature(gram(x), identity_profile(96), 0.25)
        out = run_gbs(w, factor, SYM2_G32, block_size=block)
        assert np.sum(out.codes == 0) > 100
        assert_same_bytes(out, run_gbs_column_layout(w, factor.data, SYM2_G32, block))
        assert not np.signbit(out.dequantized[out.codes == 0]).any()

    @pytest.mark.parametrize("group", [128, 96])
    @pytest.mark.parametrize("block", [128, 48])
    def test_bytes_match_column_layout_loop_at_production_width(self, production_layer, block, group):
        # the one-GEMM fold at trailing widths up to 1024 columns, where the
        # BLAS picks other kernels than at the widths above; group 96
        # straddles the block edges
        w, factor = production_layer
        scheme = QuantScheme(bits=3, mode="asymmetric", group_size=group)
        out = run_gbs(w, factor, scheme, block_size=block)
        assert_same_bytes(out, run_gbs_column_layout(w, factor.data, scheme, block))


@pytest.fixture(scope="module")
def production_layer():
    """A 256×1024 layer and its λ = 0.25 identity-profile factor."""
    rng = np.random.default_rng(17)
    w = rng.standard_normal((256, 1024))
    factor = build_curvature(gram(rng.standard_normal((1024, 1536))), identity_profile(1024), 0.25)
    return w, factor


def memory_of(a):
    """The array that owns a's buffer; it outlives every view of it."""
    while a.base is not None:
        a = a.base
    return a


class OutputStageSpy:
    """Stands in for numpy in sarqc.gbs and records, at each
    ascontiguousarray call (the output stage of run_gbs), whether every
    watched array has been freed."""

    def __init__(self):
        self.watched = []
        self.freed = []

    def __getattr__(self, name):
        return getattr(np, name)

    def ascontiguousarray(self, a, *args, **kwargs):
        if self.watched:
            self.freed.append(all(ref() is None for ref in self.watched))
        return np.ascontiguousarray(a, *args, **kwargs)


@pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="CPython 3.10 keeps call arguments on the caller's stack until the call returns",
)
class TestFactorFreedBeforeOutputs:
    """M is read only in the column loop; a pass handed the only reference
    to its factor frees M before it builds the outputs."""

    SCHEME = QuantScheme(bits=3, mode="asymmetric", group_size=32)

    def test_run_gbs_frees_a_handed_over_factor(self, monkeypatch):
        rng = np.random.default_rng(23)
        w = rng.standard_normal((16, 96))
        holder = [build_curvature(gram(rng.standard_normal((96, 160))), identity_profile(96), 0.25)]
        spy = OutputStageSpy()
        spy.watched.append(weakref.ref(memory_of(holder[0].data)))
        monkeypatch.setattr(sarqc.gbs, "np", spy)
        run_gbs(w, holder.pop(), self.SCHEME, block_size=32)
        assert spy.freed and all(spy.freed)

    @pytest.mark.parametrize("method", ["gptq", "sarqc-gbs"])
    def test_solve_frees_the_full_layer_factor(self, monkeypatch, method):
        rng = np.random.default_rng(29)
        w = rng.standard_normal((16, 128))
        batch = split_batch(rng.standard_normal((128, 96)))
        spy = OutputStageSpy()

        def watched_build_curvature(*args, **kwargs):
            factor = build_curvature(*args, **kwargs)
            spy.watched.append(weakref.ref(memory_of(factor.data)))
            return factor

        monkeypatch.setattr(sarqc.harness, "build_curvature", watched_build_curvature)
        monkeypatch.setattr(sarqc.gbs, "np", spy)
        solve(method, w, batch, self.SCHEME, lambda_grid=(0.25,), gamma_grid=(0.5,))
        assert len(spy.watched) == 1
        assert spy.freed and all(spy.freed)


class TestGptqEquivalence:
    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            d_in = int(rng.integers(6, 33))
            w = rng.standard_normal((5, d_in))
            x = rng.standard_normal((d_in, 128))
            mode = "symmetric" if trial % 2 else "asymmetric"
            scheme = QuantScheme(bits=4, mode=mode, group_size=8)
            factor = build_curvature(gram(x), identity_profile(d_in), 0.0)
            solver = run_gbs(w, factor, scheme, block_size=128)
            ref = greedy_sequential_reference(w, factor, scheme)
            assert_same_bytes(solver, ref)

    @pytest.mark.parametrize("group", [128, "per_channel"])
    def test_bit_identical_to_reference_at_production_shape(self, group):
        # the README's λ = 0 contract beyond the d_in ≤ 64 of gptq-equiv: one
        # block spans all 1024 channels, so nothing is folded across blocks
        rng = np.random.default_rng(18)
        w = rng.standard_normal((128, 1024))
        g0 = gram(rng.standard_normal((1024, 2048)))
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=group)
        factor = build_curvature(g0, identity_profile(1024), 0.0)
        solver = run_gbs(w, factor, scheme, block_size=1024)
        assert_same_bytes(solver, greedy_sequential_reference(w, factor, scheme))

    def test_negative_zero_bit_identical_to_reference(self):
        rng = np.random.default_rng(12)
        w = -np.abs(rng.standard_normal((16, 64))) * 1e-3
        x = rng.standard_normal((64, 128))
        g0 = gram(x)
        factor = build_curvature(g0, identity_profile(64), 0.0)
        solver = run_gbs(w, factor, SYM2_G32, block_size=128)
        ref = greedy_sequential_reference(w, factor, SYM2_G32)
        assert np.sum(ref.codes == 0) > 100
        assert_same_bytes(solver, ref)

    def test_isotropic_reduction_matches_damped_reference(self):
        rng = np.random.default_rng(6)
        d_in = 12
        w = rng.standard_normal((4, d_in))
        x = rng.standard_normal((d_in, 40))
        lam = 0.5
        factor = build_curvature(gram(x), identity_profile(d_in), lam)
        out = run_gbs(w, factor, SYM4, block_size=128)
        damped = gram(x) + lam * h_bar_of_gram(gram(x)) * np.eye(d_in)
        ref = greedy_sequential_reference(w, chol_upper_of_inverse(damped), SYM4)
        assert np.max(np.abs(out.dequantized - ref.dequantized)) < 1e-9


class TestCompensationOptimality:
    def test_each_step_matches_constrained_minimizer(self):
        # replay the sequential pass and compare every committed update with
        # the reduced-system oracle on the trailing curvature block
        rng = np.random.default_rng(7)
        d_in, d_out = 6, 3
        w = rng.standard_normal((d_out, d_in))
        x = rng.standard_normal((d_in, 30))
        lam = 0.2
        g0 = gram(x)
        g = g0 + lam * h_bar_of_gram(g0) * np.eye(d_in)
        factor = build_curvature(g0, identity_profile(d_in), lam)
        assert_factor_of(factor, g)
        m = factor.data

        scheme = SYM4
        scales, zps = group_params(w, scheme)
        u = w.copy()
        for j in range(d_in):
            c = quantize_with_params(u[:, j], scales, zps, scheme)
            qcol = dequantize_with_params(c, scales, zps)
            e = (u[:, j] - qcol) / m[j, j]
            applied = -np.outer(e, m[j, j:])
            g_tail = g[j:, j:]
            for r in range(d_out):
                delta, obj = oracle_row_update(u[r, j:], g_tail, 0, qcol[r])
                assert np.max(np.abs(applied[r] - delta)) <= 1e-9
                raw = u[r, j] - qcol[r]
                step_obj = raw * raw / (2.0 * m[j, j] ** 2)
                assert abs(step_obj - obj) <= 1e-9 * (1.0 + abs(obj))
                jj = np.linalg.inv(g_tail)[0, 0]
                closed = raw * raw / (2.0 * jj)
                assert abs(step_obj - closed) <= 1e-9 * (1.0 + abs(closed))
            u[:, j:] -= np.outer(e, m[j, j:])


class TestSelectHparams:
    def test_singleton_grids_equal_direct_run(self):
        rng = np.random.default_rng(8)
        d_in = 10
        w = rng.standard_normal((4, d_in))
        batch = split_batch(rng.standard_normal((d_in, 24)), 0.25)
        sol = solve("sarqc-gbs", w, batch, SYM4, lambda_grid=(0.5,), gamma_grid=(0.35,))
        g0 = gram(batch.train)
        prof = profile_for(channel_stats(w, batch.train), "gbs", 0.35, g0)
        direct = run_gbs(w, build_curvature(g0, prof, 0.5), SYM4)
        assert (sol.lam, sol.gamma) == (0.5, 0.35)
        assert np.array_equal(sol.layer.dequantized, direct.dequantized)

    def test_lossless_ties_pick_smallest_pair(self):
        w = np.array([[-7.0, 7.0, 7.0, -7.0]])
        batch = split_batch(np.sign(np.random.default_rng(9).standard_normal((4, 12))), 0.25)
        cfg = GbsConfig(scheme=SYM4)  # d_in = 4 < SUBSET_MIN: the subset is the layer
        sel = select_hparams_gbs(w, batch, cfg, gram(batch.train), channel_stats(w, batch.train))
        assert sel.lam == min(cfg.lambda_grid)
        assert sel.gamma == min(cfg.gamma_grid)

    def test_selection_matches_val_table_argmin(self):
        from sarqc.harness import SynthLayerSpec, gen_calibration, gen_layer

        spec = SynthLayerSpec(d_out=16, d_in=48, outlier_channels=4, outlier_scale=10.0, seed=7)
        w = gen_layer(spec)
        batch = gen_calibration(48, 64, 1e18, 7)
        cfg = GbsConfig(scheme=QuantScheme(bits=3, mode="asymmetric", group_size=16))
        sel = select_hparams_gbs(w, batch, cfg, gram(batch.train), channel_stats(w, batch.train))
        # rebuild the subset table from the subset's own Gram and statistics
        # and check the tie-break order
        k = max(SUBSET_MIN, int(np.ceil(SUBSET_FRACTION * 48)))
        w_sub, x_tr, x_val = w[:, :k], batch.train[:k], batch.val[:k]
        g0 = gram(x_tr)
        stats = channel_stats(w_sub, x_tr)
        table = []
        for lam in cfg.lambda_grid:
            for gamma in cfg.gamma_grid:
                prof = profile_for(stats, "gbs", gamma, g0)
                layer = run_gbs(w_sub, build_curvature(g0, prof, lam), cfg.scheme, cfg.block_size)
                table.append((lam, gamma, recon_loss(w_sub, layer.dequantized, x_val)))
        best = min(table, key=lambda t: (t[2], t[0], t[1]))
        assert (sel.lam, sel.gamma) == (best[0], best[1])
        assert sel.val_table == tuple(table)

    def test_identity_kind_skips_gamma(self):
        rng = np.random.default_rng(10)
        w = rng.standard_normal((3, 8))
        batch = split_batch(rng.standard_normal((8, 16)), 0.25)
        cfg = GbsConfig(scheme=SYM4, saliency_kind="identity")
        sel = select_hparams_gbs(w, batch, cfg, gram(batch.train), None)
        assert sel.gamma is None

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((4, 40))
        batch = split_batch(rng.standard_normal((40, 32)), 0.25)
        a = solve("sarqc-gbs", w, batch, SYM4)
        b = solve("sarqc-gbs", w, batch, SYM4)
        assert (a.lam, a.gamma) == (b.lam, b.gamma)
        assert np.array_equal(a.layer.codes, b.layer.codes)
        assert np.array_equal(a.layer.dequantized, b.layer.dequantized)
