import tracemalloc
from dataclasses import fields, replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sarqc import gs
from sarqc.calibration import split_batch
from sarqc.gs import (
    ALPHA_GRID_DEFAULT,
    LAMBDA_GRID_GS_DEFAULT,
    GsResult,
    candidate,
    run_gs,
    select_joint,
    select_lambda_gs,
)
from sarqc.harness import solve
from sarqc.objective import joint_score, minmax_normalize, recon_loss, sar_loss
from sarqc.quantizer import QuantizedLayer, QuantScheme, rtn
from sarqc.saliency import (
    ChannelStats,
    SaliencyProfile,
    channel_stats,
    identity_profile,
    saliency_vector_gs,
)

SYM3 = QuantScheme(bits=3, mode="symmetric", group_size="per_channel")
SYM4 = QuantScheme(bits=4, mode="symmetric", group_size="per_channel")


def stats_from(mean_x, mean_w):
    mean_x = np.asarray(mean_x, dtype=np.float64)
    mean_w = np.asarray(mean_w, dtype=np.float64)
    return ChannelStats(mean_abs_x=mean_x, mean_abs_w=mean_w, max_abs_x=mean_x, max_abs_w=mean_w)


class TestCandidate:
    def test_uniform_scaling_matches_rtn_bitwise(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        ql = candidate(w, stats_from(np.full(4, 2.0), np.full(4, 0.7)), alpha=0.6, scheme=SYM4)
        base = rtn(w, SYM4)
        assert np.array_equal(ql.codes, base.codes)
        assert np.array_equal(ql.scales, base.scales)
        assert np.array_equal(ql.dequantized, base.dequantized)
        assert np.all(ql.channel_scale == 1.0)

    def test_traced_example(self):
        # s pre-norm [1, 4] -> geometric mean 2 -> s = [0.5, 2]; scaled W = [3, 1]
        # quantizes exactly at unit scale, descaling restores [6, 0.5]
        w = np.array([[6.0, 0.5]])
        stats = stats_from([1.0, 4.0], [6.0, 0.5])
        ql = candidate(w, stats, alpha=1.0, scheme=SYM3)
        assert np.allclose(ql.channel_scale, [0.5, 2.0])
        assert np.array_equal(ql.codes, [[3, 1]])
        assert np.array_equal(ql.scales, [[1.0]])
        assert np.allclose(ql.dequantized, w)

    def test_lossless_when_scaled_weights_on_grid(self):
        w = np.array([[6.0, 0.5]])
        ql = candidate(w, stats_from([1.0, 4.0], [6.0, 0.5]), alpha=1.0, scheme=SYM3)
        assert np.allclose(ql.dequantized, w)


class TestSelectJoint:
    def test_three_point_example(self):
        idx, recon_n, sar_n, joint = select_joint(
            np.array([4.0, 2.0, 8.0]), np.array([1.0, 3.0, 2.0]), lam=0.5
        )
        assert np.allclose(recon_n, [1.0 / 3.0, 0.0, 1.0])
        assert np.allclose(sar_n, [0.0, 1.0, 0.5])
        assert np.allclose(joint, [1.0 / 3.0, 0.5, 1.25])
        assert idx == 0

    def test_lambda_zero_reduces_to_recon_argmin(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            recon = rng.uniform(0, 10, 7)
            sar = rng.uniform(0, 10, 7)
            idx, _, _, _ = select_joint(recon, sar, 0.0)
            assert idx == int(np.argmin(recon))


def lossless_instance():
    # uniform channel statistics force unit scaling for every alpha, and the
    # weights sit exactly on the 4-bit grid
    w = np.array([[-7.0, 7.0], [7.0, -7.0]])
    x = np.array([[1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]])
    return w, x


def select_lambda(w, batch, scheme, lambda_grid=LAMBDA_GRID_GS_DEFAULT, kind="gs"):
    """`select_lambda_gs` on a grid scored here, so the grid pass falls
    inside whatever the caller counts or traces."""
    return select_lambda_gs(w, batch, scheme, lambda_grid, run_gs(w, batch.train, scheme, kind))


class TestRunGs:
    def test_lossless_ties_break_to_first_alpha(self):
        w, x = lossless_instance()
        grid = run_gs(w, x, SYM4, "gs")
        assert np.all(grid.recon == 0.0) and np.all(grid.sar == 0.0)
        res = select_lambda(w, split_batch(x, 0.25), SYM4, (0.3,))
        assert (res.chosen_alpha, res.chosen_lambda) == (0.0, 0.3)
        assert np.array_equal(res.layer.dequantized, w)

    def test_lambda_zero_matches_raw_recon_argmin(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            w = rng.standard_normal((4, 6)) * rng.uniform(0.5, 3)
            batch = split_batch(rng.standard_normal((6, 12)), 0.25)
            grid = run_gs(w, batch.train, SYM4, "gs")
            i = int(np.argmin(grid.recon))
            res = select_lambda(w, batch, SYM4, (0.0,))
            assert res.chosen_alpha == ALPHA_GRID_DEFAULT[i]
            want = candidate(w, grid.stats, ALPHA_GRID_DEFAULT[i], SYM4)
            assert np.array_equal(res.layer.dequantized, want.dequantized)

    def test_losses_score_each_candidate(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 6)) * rng.uniform(0.5, 3)
        x = rng.standard_normal((6, 10))
        grid = run_gs(w, x, SYM4, "gs")
        stats = channel_stats(w, x)
        assert np.array_equal(grid.profile.values, saliency_vector_gs(stats).values)
        assert_bit_equal(grid.stats, stats)
        assert len(grid.recon) == len(grid.sar) == len(ALPHA_GRID_DEFAULT)
        for alpha, r, s in zip(ALPHA_GRID_DEFAULT, grid.recon, grid.sar):
            want = candidate(w, stats, alpha, SYM4)
            assert r == recon_loss(w, want.dequantized, x)
            assert s == sar_loss(w, want.dequantized, grid.profile)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((3, 5))
        x = rng.standard_normal((5, 8))
        a = run_gs(w, x, SYM4, "gs")
        b = run_gs(w, x, SYM4, "gs")
        assert a.recon.tobytes() == b.recon.tobytes() and a.sar.tobytes() == b.sar.tobytes()
        for alpha in ALPHA_GRID_DEFAULT:
            qa = candidate(w, a.stats, alpha, SYM4)
            qb = candidate(w, b.stats, alpha, SYM4)
            assert np.array_equal(qa.codes, qb.codes)
            assert np.array_equal(qa.dequantized, qb.dequantized)

    def test_selected_index_is_joint_argmin(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((4, 6))
        batch = split_batch(rng.standard_normal((6, 16)), 0.25)
        grid = run_gs(w, batch.train, SYM4, "gs")
        joint = joint_score(minmax_normalize(grid.recon), minmax_normalize(grid.sar), 0.7)
        assert select_lambda(w, batch, SYM4, (0.7,)).chosen_alpha == ALPHA_GRID_DEFAULT[int(np.argmin(joint))]


class TestScalarizationMonotonicity:
    def test_exact_over_lambda_grid(self):
        rng = np.random.default_rng(5)
        lambdas = [k / 10 for k in range(11)]
        for trial in range(50):
            w = rng.standard_normal((3, 6)) * rng.uniform(0.5, 4)
            batch = split_batch(rng.standard_normal((6, 12)), 0.25)
            prev_sar = None
            prev_recon = None
            base = run_gs(w, batch.train, SYM4, "gs")
            for lam in lambdas:
                idx, recon_n, sar_n, _ = select_joint(base.recon, base.sar, lam)
                res = select_lambda_gs(w, batch, SYM4, (lam,), base)
                assert res.chosen_alpha == ALPHA_GRID_DEFAULT[idx]
                if prev_sar is not None:
                    assert sar_n[idx] <= prev_sar
                    assert recon_n[idx] >= prev_recon
                prev_sar, prev_recon = sar_n[idx], recon_n[idx]


class TestSelectLambdaGs:
    def test_singleton_grid_equals_fixed_run(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((3, 4))
        batch = split_batch(rng.standard_normal((4, 8)), 0.25)
        res = select_lambda(w, batch, SYM4, (0.0,))
        direct = per_lambda_reference(w, batch, SYM4, (0.0,))
        assert res.chosen_lambda == 0.0
        for f in fields(GsResult):
            assert_bit_equal(getattr(res, f.name), getattr(direct, f.name))

    def test_lossless_ties_pick_smallest_lambda(self):
        w, x = lossless_instance()
        batch = split_batch(x, 0.25)
        res = select_lambda(w, batch, SYM4, (0.1, 0.5, 1.0))
        assert res.chosen_lambda == 0.1
        assert all(v == 0.0 for _, v in res.val_losses)

    def test_chosen_lambda_is_val_table_argmin(self):
        from sarqc.harness import SynthLayerSpec, gen_calibration, gen_layer

        spec = SynthLayerSpec(d_out=6, d_in=8, outlier_channels=2, outlier_scale=10.0, seed=7)
        w = gen_layer(spec)
        batch = gen_calibration(8, 16, 1e18, 7)
        scheme = QuantScheme(bits=3, mode="symmetric", group_size=4)
        res = select_lambda(w, batch, scheme)
        # rebuild the validation table independently, then check the argmin
        table = per_lambda_reference(w, batch, scheme).val_losses
        assert res.val_losses == table
        best = min(table, key=lambda t: (t[1], t[0]))
        assert res.chosen_lambda == best[0]


def production_shape_layer():
    """The gs-select benchmark shape: 256×512, n = 256, on correlated
    activations with hot channels and a shifted validation split, whose
    default λ grid has two distinct winners."""
    rng = np.random.default_rng(3)
    d_out, d_in, n, n_val = 256, 512, 256, 64
    x = rng.standard_normal((d_in, 16)) @ rng.standard_normal((16, n)) / 4 + 0.5 * rng.standard_normal((d_in, n))
    chan = np.exp(0.5 * rng.standard_normal(d_in))
    chan[rng.choice(d_in, 8, replace=False)] *= 8.0
    x *= chan[:, None]
    x[:, n - n_val :] *= np.exp(0.4 * rng.standard_normal(d_in))[:, None]
    w = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
    w[:, rng.choice(d_in, 8, replace=False)] *= 4.0
    return w, split_batch(x, n_val / n), QuantScheme(bits=4, mode="asymmetric", group_size=128)


def per_lambda_reference(w, batch, scheme, lambda_grid=LAMBDA_GRID_GS_DEFAULT, kind="gs"):
    """λ selection without the one-pass reuse: for each λ, build fresh
    candidates, score them, pick the joint-score winner and compute its
    validation recon; ties go to the smallest λ."""
    stats = channel_stats(w, batch.train)
    profile = identity_profile(w.shape[1]) if kind == "identity" else saliency_vector_gs(stats)
    best, best_v, table = None, np.inf, []
    for lam in lambda_grid:
        layers = [candidate(w, stats, alpha, scheme) for alpha in ALPHA_GRID_DEFAULT]
        recon = [recon_loss(w, ql.dequantized, batch.train) for ql in layers]
        sar = [sar_loss(w, ql.dequantized, profile) for ql in layers]
        i = select_joint(np.array(recon), np.array(sar), lam)[0]
        v = recon_loss(w, layers[i].dequantized, batch.val)
        table.append((lam, v))
        if v < best_v:
            best, best_v = GsResult(ALPHA_GRID_DEFAULT[i], lam, layers[i], profile, []), v
    return replace(best, val_losses=table)


def assert_bit_equal(a, b):
    if isinstance(a, (QuantizedLayer, SaliencyProfile, ChannelStats)):
        assert type(a) is type(b)
        for f in fields(a):
            assert_bit_equal(getattr(a, f.name), getattr(b, f.name))
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_bit_equal(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    else:
        assert a == b


class TestOnePassSelection:
    SCHEMES = (SYM4, QuantScheme(bits=3, mode="asymmetric", group_size=2))

    def assert_same_result(self, w, batch, scheme, lambda_grid=LAMBDA_GRID_GS_DEFAULT, kind="gs"):
        got = select_lambda(w, batch, scheme, lambda_grid, kind)
        want = per_lambda_reference(w, batch, scheme, lambda_grid, kind)
        for f in fields(GsResult):
            assert_bit_equal(getattr(got, f.name), getattr(want, f.name))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d_out=st.integers(1, 4),
        d_in=st.integers(2, 6),
        n=st.integers(4, 12),
        scheme=st.sampled_from(SCHEMES),
        saliency_kind=st.sampled_from(("gs", "identity")),
    )
    @example(seed=0, d_out=1, d_in=2, n=4, scheme=SYM4, saliency_kind="gs")
    def test_equals_per_lambda_loop(self, seed, d_out, d_in, n, scheme, saliency_kind):
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((d_out, d_in)) * rng.uniform(0.5, 4.0, d_in)
        x = rng.standard_normal((d_in, n)) * rng.uniform(0.2, 5.0, (d_in, 1))
        self.assert_same_result(w, split_batch(x, 0.25), scheme, kind=saliency_kind)

    def test_lossless_ties_equal_per_lambda_loop(self):
        w, x = lossless_instance()
        self.assert_same_result(w, split_batch(x, 0.25), SYM4, (0.1, 0.5, 1.0))

    def test_candidates_built_once(self, monkeypatch):
        # the grid pass builds each α once; selection rebuilds each distinct
        # λ-winner once, in the order the λ grid first picks it
        calls = []

        def counting_candidate(*args, **kwargs):
            calls.append(args[2])
            return candidate(*args, **kwargs)

        rng = np.random.default_rng(8)
        w = rng.standard_normal((3, 6))
        batch = split_batch(rng.standard_normal((6, 12)), 0.25)
        grid = run_gs(w, batch.train, SYM4, "gs")
        winners = [ALPHA_GRID_DEFAULT[select_joint(grid.recon, grid.sar, lam)[0]] for lam in LAMBDA_GRID_GS_DEFAULT]
        monkeypatch.setattr(gs, "candidate", counting_candidate)
        select_lambda(w, batch, SYM4)
        assert calls == list(ALPHA_GRID_DEFAULT) + list(dict.fromkeys(winners))

    def test_equals_per_lambda_reference_at_production_shape(self):
        w, batch, scheme = production_shape_layer()
        self.assert_same_result(w, batch, scheme)
        per_lambda = [per_lambda_reference(w, batch, scheme, (lam,)) for lam in LAMBDA_GRID_GS_DEFAULT]
        assert len({ref.chosen_alpha for ref in per_lambda}) > 1
        for lam, ref in zip(LAMBDA_GRID_GS_DEFAULT, per_lambda):
            sol = solve("sarqc-gs", w, batch, scheme, lam=lam)
            assert (sol.alpha, sol.lam) == (ref.chosen_alpha, ref.chosen_lambda)
            assert_bit_equal(sol.layer, ref.layer)
            assert_bit_equal(sol.profile, ref.profile)


class TestPeakMemory:
    def test_selection_peak_does_not_grow_with_the_alpha_grid(self):
        # candidates are scored one at a time: the traced peak is the kept
        # best winner plus the one being built, under 5 W-sized arrays where
        # keeping all 21 candidates took about 34
        w, batch, scheme = production_shape_layer()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = select_lambda(w, batch, scheme)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len({v for _, v in res.val_losses}) > 1  # a second winner was built while the first was kept
        assert peak < 5 * w.nbytes
