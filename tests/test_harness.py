import tracemalloc

import numpy as np
import pytest

from sarqc import forks
from sarqc.gbs import GAMMA_GRID_DEFAULT, build_curvature, profile_for
from sarqc.harness import (
    METHODS,
    SWEEP_METHODS,
    SynthLayerSpec,
    activation_factor,
    Solution,
    calib_size_study,
    gen_calibration,
    gen_layer,
    heldout_risk,
    layer_losses,
    outlier_channel_indices,
    solutions,
    solve,
    sweep_lambda,
    sweep_layer,
)
from sarqc.linalg import _lapack, gram
from sarqc.objective import recon_loss
from sarqc.quantizer import QuantScheme, quantize_matrix
from sarqc.saliency import channel_stats, identity_profile, saliency_vector_gs


class TestGenLayer:
    def test_deterministic(self):
        spec = SynthLayerSpec(d_out=4, d_in=8, outlier_channels=2, outlier_scale=10.0, seed=7)
        assert np.array_equal(gen_layer(spec), gen_layer(spec))

    def test_unit_outlier_scale_is_noop(self):
        base = SynthLayerSpec(d_out=4, d_in=8, seed=3)
        scaled = SynthLayerSpec(d_out=4, d_in=8, outlier_channels=3, outlier_scale=1.0, seed=3)
        assert np.array_equal(gen_layer(base), gen_layer(scaled))

    def test_seed7_outlier_statistics(self):
        spec = SynthLayerSpec(d_out=4, d_in=8, outlier_channels=2, outlier_scale=10.0, seed=7)
        w = gen_layer(spec)
        idx = outlier_channel_indices(spec)
        assert idx.shape == (2,)
        mean_abs = np.abs(w).mean(axis=0)
        assert np.all(mean_abs[idx] >= 5.0 * np.median(mean_abs))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthLayerSpec(d_out=2, d_in=4, outlier_channels=5)
        with pytest.raises(ValueError):
            SynthLayerSpec(d_out=2, d_in=4, outlier_scale=0.5)


class TestGenCalibration:
    def test_column_norms_clipped(self):
        batch = gen_calibration(16, 32, m_x=1.0, seed=0)
        assert np.all(np.linalg.norm(batch.x, axis=0) <= 1.0 + 1e-12)

    def test_large_m_x_effectively_unclipped(self):
        clipped = gen_calibration(8, 16, m_x=1e18, seed=1)
        norms = np.linalg.norm(clipped.x, axis=0)
        assert np.all(norms > 1.0)  # nothing got rescaled

    def test_deterministic(self):
        a = gen_calibration(8, 16, 1e18, seed=2)
        b = gen_calibration(8, 16, 1e18, seed=2)
        assert np.array_equal(a.x, b.x)
        assert a.n_val == b.n_val

    def test_split_indices(self):
        batch = gen_calibration(4, 16, 1e18, seed=3, val_fraction=0.25)
        assert batch.n_val == 4
        assert batch.train.shape == (4, 12)
        assert batch.val.shape == (4, 4)
        assert np.array_equal(np.hstack([batch.train, batch.val]), batch.x)

    def test_cov_diag_validation(self):
        with pytest.raises(ValueError):
            gen_calibration(4, 8, 1.0, 0, cov_diag=np.array([1.0, -1.0, 1.0, 1.0]))

    def test_cov_factor_shapes(self):
        f = activation_factor(8, 3, 2.0, seed=5)
        assert f.shape == (8, 3)
        batch = gen_calibration(8, 16, 1e18, 5, cov_factor=f)
        assert batch.x.shape == (8, 16)


class TestEvaluate:
    """Scoring a solved layer: `layer_losses` and `heldout_risk`."""

    def test_exact_layer_scores_zero(self):
        w = np.array([[7.0, -7.0, 3.0]])
        scheme = QuantScheme(bits=4, mode="symmetric", group_size="per_channel")
        layer = quantize_matrix(w, scheme)
        losses, risk = layer_losses(w, Solution(layer, identity_profile(3)), np.eye(3), np.eye(3))
        assert losses.recon == 0.0 and losses.sar == 0.0 and losses.drift == 0.0
        assert risk == 0.0

    def test_risk_identity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 4))
        scheme = QuantScheme(bits=3, mode="asymmetric", group_size=2)
        layer = quantize_matrix(w, scheme)
        x = rng.standard_normal((4, 10))
        losses, risk = layer_losses(w, Solution(layer, identity_profile(4)), x, x)
        assert risk * 10 == pytest.approx(losses.recon, rel=1e-15)
        assert losses.recon == recon_loss(w, layer.dequantized, x)

    def test_one_by_one_example(self):
        w = np.array([[0.0]])
        scheme = QuantScheme(bits=2, mode="symmetric", group_size="per_channel")
        layer = quantize_matrix(np.array([[2.0]]), scheme)
        # delta is exactly 2 at unit scale, single input column of 3
        assert np.array_equal(layer.dequantized, [[2.0]])
        risk = heldout_risk(w, layer, np.array([[3.0]]))
        assert risk == 36.0

    def test_each_loss_is_computed_once(self, monkeypatch):
        # an identity-profile layer takes its sar from the one drift it
        # computes; the study scores only the held-out risk
        import sarqc.harness

        calls = []

        def counting(name):
            fn = getattr(sarqc.harness, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("sar_loss", "weight_drift"):
            monkeypatch.setattr(sarqc.harness, name, counting(name))
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=8)
        w = gen_layer(SynthLayerSpec(d_out=6, d_in=16, outlier_channels=2, outlier_scale=6.0, seed=4))
        batch = gen_calibration(16, 48, 1e18, seed=4)
        for method, saliency, want in (
            ("rtn", "saliency", ["weight_drift"]),
            ("awq", "saliency", ["weight_drift"]),
            ("gptq", "saliency", ["weight_drift"]),
            ("sarqc-gs", "identity", ["weight_drift"]),
            ("sarqc-gbs", "identity", ["weight_drift"]),
            ("sarqc-gs", "saliency", ["weight_drift", "sar_loss"]),
            ("sarqc-gbs", "saliency", ["weight_drift", "sar_loss"]),
        ):
            sol = solve(method, w, batch, scheme, lam=0.25, saliency=saliency)
            calls.clear()
            losses, _ = layer_losses(w, sol, batch.train, batch.val)
            assert calls == want, method
            if sol.profile.kind == "identity":
                assert losses.sar == losses.drift
        calls.clear()
        monkeypatch.setattr(forks, "cpus", lambda: 1)  # a worker's calls are not counted here
        spec = SynthLayerSpec(d_out=8, d_in=8, outlier_channels=1, outlier_scale=4.0)
        calib_size_study(spec, scheme, [8, 16], seeds=range(2), n_heldout=32)
        assert calls == []


class TestSweepLambda:
    SPEC = SynthLayerSpec(d_out=8, d_in=12, outlier_channels=2, outlier_scale=5.0)
    SCHEME = QuantScheme(bits=4, mode="asymmetric", group_size=4)

    def test_single_point_single_seed(self):
        recs = sweep_lambda(self.SPEC, self.SCHEME, "gbs", [0.0], seeds=[0], n_calib=16, n_heldout=32)
        assert len(recs) == 1
        assert recs[0].lam == 0.0 and recs[0].seed == 0 and recs[0].method == "gbs"

    def test_deterministic_and_sorted(self):
        kw = dict(n_calib=16, n_heldout=32)
        a = sweep_lambda(self.SPEC, self.SCHEME, "gbs", [0.5, 0.0], seeds=[1, 0], **kw)
        b = sweep_lambda(self.SPEC, self.SCHEME, "gbs", [0.0, 0.5], seeds=[0, 1], **kw)
        assert a == b
        assert [(r.seed, r.lam) for r in a] == [(0, 0.0), (0, 0.5), (1, 0.0), (1, 0.5)]

    def test_gs_method_records_no_gamma(self):
        recs = sweep_lambda(self.SPEC, self.SCHEME, "gs", [0.2], seeds=[0], n_calib=16, n_heldout=32)
        assert recs[0].gamma is None


def layer_bytes(sol):
    ql = sol.layer
    return tuple(a.tobytes() for a in (ql.codes, ql.scales, ql.zero_points, ql.dequantized))


class TestSweepLayer:
    """A sweep's rows are those of one fixed-λ `solve` per λ, scored by
    `layer_losses`, byte for byte."""

    SCHEME = QuantScheme(bits=4, mode="asymmetric", group_size=4)

    @pytest.fixture
    def layer(self):
        # at seed 1, λ = 0.5 and λ = 0 pick the same α and λ = 1 another
        spec = SynthLayerSpec(d_out=8, d_in=12, outlier_channels=2, outlier_scale=5.0, seed=1)
        heldout = gen_calibration(12, 48, 1e18, seed=1, stream="heldout")
        return gen_layer(spec), gen_calibration(12, 32, 1e18, seed=1), heldout.x

    def per_row_reference(self, method, w, batch, x_heldout, grid, gamma):
        rows, sols = [], []
        for lam in grid:
            sol = solve(SWEEP_METHODS[method], w, batch, self.SCHEME, lam=lam, gamma=gamma)
            losses, risk = layer_losses(w, sol, batch.train, x_heldout)
            rows.append(tuple(map(repr, (lam, sol.gamma, losses.recon, losses.sar, losses.drift, risk))))
            sols.append(sol)
        return rows, sols

    @pytest.mark.parametrize("method, gamma", [("gs", None), ("gbs", 0.35)])
    def test_rows_equal_one_solve_per_lambda(self, layer, method, gamma):
        w, batch, x_heldout = layer
        grid = (0.5, 0.0, 1.0)
        want_rows, want_sols = self.per_row_reference(method, w, batch, x_heldout, grid, gamma)
        if method == "gs":
            assert [s.alpha for s in want_sols] == [1.0, 1.0, 0.9]  # two λ share a winner
        recs = sweep_layer(w, batch, x_heldout, self.SCHEME, method, grid, gamma=gamma, seed=3)
        got = [tuple(map(repr, (r.lam, r.gamma, r.recon, r.sar, r.drift, r.heldout_risk))) for r in recs]
        assert got == want_rows
        assert {(r.method, r.seed) for r in recs} == {(method, 3)}
        sols = list(solutions(SWEEP_METHODS[method], w, batch, self.SCHEME, grid, gamma=gamma))
        assert [layer_bytes(s) for s in sols] == [layer_bytes(s) for s in want_sols]
        assert [(s.lam, s.gamma, s.alpha, s.factor) for s in sols] == [
            (s.lam, s.gamma, s.alpha, s.factor) for s in want_sols
        ]

    @pytest.mark.parametrize("method", ["awq", "sarqc-gs", "gptq", "sarqc-gbs"])
    def test_selected_and_fixed_entries_equal_solve(self, layer, method):
        # None selects λ; the GS entries share one scored α grid
        w, batch, _ = layer
        lams = (None, 0.3, None)
        kw = dict(lambda_grid=(0.25, 0.5), gamma_grid=(0.5,))
        got = list(solutions(method, w, batch, self.SCHEME, lams, **kw))
        want = [solve(method, w, batch, self.SCHEME, lam=lam, **kw) for lam in lams]
        assert [layer_bytes(s) for s in got] == [layer_bytes(s) for s in want]
        assert [(s.lam, s.gamma, s.alpha, s.factor) for s in got] == [(s.lam, s.gamma, s.alpha, s.factor) for s in want]

    def test_gs_sweep_scores_the_alpha_grid_once_per_layer(self, monkeypatch):
        # a k-point sweep builds the 21 α candidates once per layer and one
        # winner per row: 21 + k, where one solve per row built 22·k
        import sarqc.gs
        import sarqc.harness

        run_gs_calls, candidate_calls = [], []

        def counting(fn, calls):
            def wrapper(*args, **kwargs):
                calls.append(1)
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(sarqc.harness, "run_gs", counting(sarqc.gs.run_gs, run_gs_calls))
        monkeypatch.setattr(sarqc.gs, "candidate", counting(sarqc.gs.candidate, candidate_calls))
        monkeypatch.setattr(forks, "cpus", lambda: 1)  # a worker's calls are not counted here
        spec = SynthLayerSpec(d_out=8, d_in=12, outlier_channels=2, outlier_scale=5.0)
        grid = (0.5, 0.0, 1.0, 0.25)
        seeds = (0, 1)
        recs = sweep_lambda(spec, self.SCHEME, "gs", grid, seeds=seeds, n_calib=16, n_heldout=32)
        assert len(recs) == len(seeds) * len(grid)
        assert len(run_gs_calls) == len(seeds)
        assert len(candidate_calls) == len(seeds) * (len(sarqc.gs.ALPHA_GRID_DEFAULT) + len(grid))


class TestCalibSizeStudy:
    def test_smoke_table(self):
        spec = SynthLayerSpec(d_out=8, d_in=8, outlier_channels=1, outlier_scale=4.0)
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=4)
        rows = calib_size_study(spec, scheme, [8, 16], seeds=range(3), n_heldout=64)
        assert [r["size"] for r in rows] == [8, 16]
        for row in rows:
            assert row["baseline_median"] >= 0.0
            assert row["selected_median"] >= 0.0

    def test_sizes_must_ascend(self):
        spec = SynthLayerSpec(d_out=4, d_in=8)
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=4)
        with pytest.raises(ValueError):
            calib_size_study(spec, scheme, [16, 8], seeds=range(2))

    def test_more_data_helps_baseline(self):
        spec = SynthLayerSpec(d_out=16, d_in=24, outlier_channels=3, outlier_scale=16.0)
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=8)
        rows = calib_size_study(spec, scheme, [16, 512], seeds=range(5), n_heldout=256)
        assert rows[0]["baseline_median"] >= rows[1]["baseline_median"]


class TestSolve:
    SCHEME = QuantScheme(bits=4, mode="asymmetric", group_size=8)

    @pytest.fixture
    def layer(self):
        spec = SynthLayerSpec(d_out=6, d_in=16, outlier_channels=2, outlier_scale=6.0, seed=4)
        return gen_layer(spec), gen_calibration(16, 48, 1e18, seed=4)

    def test_profile_is_the_one_the_solver_used(self, layer):
        w, batch = layer
        kinds = {"rtn": "identity", "awq": "identity", "gptq": "identity", "sarqc-gs": "gs", "sarqc-gbs": "gbs"}
        for method in METHODS:
            assert solve(method, w, batch, self.SCHEME).profile.kind == kinds[method]
        gs = solve("sarqc-gs", w, batch, self.SCHEME)
        assert np.array_equal(gs.profile.values, saliency_vector_gs(channel_stats(w, batch.train)).values)
        gbs = solve("sarqc-gbs", w, batch, self.SCHEME)
        g0 = gram(batch.train)
        want = profile_for(channel_stats(w, batch.train), "gbs", gbs.gamma, g0)
        assert np.array_equal(gbs.profile.values, want.values)

    def test_lambda_zero_baselines(self, layer):
        w, batch = layer
        pairs = (("awq", "sarqc-gs"), ("gptq", "sarqc-gbs"))
        for base, method in pairs:
            a = solve(base, w, batch, self.SCHEME, lam=0.7)  # the baselines pin lambda to 0
            b = solve(method, w, batch, self.SCHEME, lam=0.0, saliency="identity")
            assert np.array_equal(a.layer.dequantized, b.layer.dequantized)
            assert (a.lam, a.gamma, a.alpha) == (b.lam, b.gamma, b.alpha)

    def test_fixed_lambda_gbs_defaults_gamma(self, layer):
        w, batch = layer
        sol = solve("sarqc-gbs", w, batch, self.SCHEME, lam=0.5)
        assert (sol.lam, sol.gamma) == (0.5, 0.5)
        assert solve("sarqc-gbs", w, batch, self.SCHEME, lam=0.5, saliency="identity").gamma is None

    def test_unknown_method(self, layer):
        w, batch = layer
        with pytest.raises(ValueError):
            solve("magic", w, batch, self.SCHEME)

    def test_selected_gbs_builds_each_gram_and_profile_once(self, monkeypatch):
        import sarqc.gbs
        import sarqc.harness

        d_in = 48  # the default subset is the first 32 channels
        w = gen_layer(SynthLayerSpec(d_out=6, d_in=d_in, outlier_channels=4, outlier_scale=6.0, seed=5))
        batch = gen_calibration(d_in, 64, 1e18, seed=5)
        gram_rows, stats_rows, profile_rows = [], [], []

        def counted(fn, rows, arg, axis):
            def wrapper(*args, **kwargs):
                rows.append(np.asarray(args[arg]).shape[axis])  # channels of the argument passed
                return fn(*args, **kwargs)

            return wrapper

        for mod in (sarqc.gbs, sarqc.harness):
            monkeypatch.setattr(mod, "gram", counted(gram, gram_rows, 0, 0), raising=False)
            monkeypatch.setattr(mod, "channel_stats", counted(channel_stats, stats_rows, 0, 1), raising=False)
            monkeypatch.setattr(mod, "profile_for", counted(profile_for, profile_rows, 3, 0))
        sol = solve("sarqc-gbs", w, batch, self.SCHEME)
        assert sol.gamma is not None
        assert gram_rows == [d_in]
        assert stats_rows == [d_in]
        # the γ profiles read the leading 32×32 block of the layer's Gram
        assert sorted(profile_rows) == [32] * len(GAMMA_GRID_DEFAULT) + [d_in]
        # a k-row sweep builds one Gram per row and takes the statistics once
        gram_rows.clear()
        stats_rows.clear()
        lams = (0.25, None, 0.5)
        assert len(list(solutions("sarqc-gbs", w, batch, self.SCHEME, lams))) == len(lams)
        assert gram_rows == [d_in] * len(lams)
        assert stats_rows == [d_in]

    @pytest.mark.parametrize("saliency", ["saliency", "identity"])
    def test_selected_gbs_equals_fixed_lambda_at_the_chosen_pair(self, layer, saliency):
        w, batch = layer
        sel = solve("sarqc-gbs", w, batch, self.SCHEME, saliency=saliency)
        fixed = solve("sarqc-gbs", w, batch, self.SCHEME, lam=sel.lam, gamma=sel.gamma, saliency=saliency)
        for field in ("codes", "scales", "zero_points", "dequantized"):
            assert np.array_equal(getattr(sel.layer, field), getattr(fixed.layer, field))
        assert np.array_equal(sel.profile.values, fixed.profile.values)
        assert sel.profile.kind == fixed.profile.kind
        for field in ("lam", "gamma", "alpha"):
            assert getattr(sel, field) == getattr(fixed, field)
        assert sel.factor.jitter == fixed.factor.jitter
        assert sel.layer.scheme == fixed.layer.scheme


class TestGbsSolveMemory:
    """gptq and sarqc-gbs build the full-layer factor in the Gram's buffer
    and keep only its report, so one d_in×d_in array is live at a time."""

    D_OUT, D_IN = 256, 1024
    SCHEME = QuantScheme(bits=3, mode="asymmetric", group_size=64)

    @pytest.fixture(scope="class")
    def layer(self):
        _lapack()  # the first factor loads scipy's LAPACK extension; that module is not the layer's

        w = np.random.default_rng(21).standard_normal((self.D_OUT, self.D_IN))
        return w, gen_calibration(self.D_IN, 512, 1e18, seed=21)

    @pytest.mark.parametrize("method", ["gptq", "sarqc-gbs"])
    def test_traced_peak_is_one_gram_and_four_weights(self, layer, method):
        # building the factor beside the Gram, as before, peaked at about
        # one Gram and 4.3 weight-sized arrays
        w, batch = layer
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            solve(method, w, batch, self.SCHEME)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 8 * self.D_IN * self.D_IN + 4 * w.nbytes

    @pytest.mark.parametrize("method", ["gptq", "sarqc-gbs"])
    def test_factor_report_is_that_of_the_full_layer_factor(self, layer, method):
        w, batch = layer
        sol = solve(method, w, batch, self.SCHEME, lam=0.25 if method == "sarqc-gbs" else None)
        f = build_curvature(gram(batch.train), sol.profile, sol.lam)
        assert sol.factor == (f.jitter, f.retries, f.min_pivot)
        assert sol.factor._fields == ("jitter", "retries", "min_pivot")
