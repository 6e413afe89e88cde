import math

import numpy as np
import pytest

import sarqc.oracles as oracles
from sarqc.gbs import build_curvature, h_bar_of_gram, run_gbs
from sarqc.linalg import chol_upper_of_inverse, gram
from sarqc.oracles import (
    FiniteCandidate,
    HOEFFDING_BIAS_Z_MAX,
    HOEFFDING_D_IN,
    HOEFFDING_M_X,
    HOEFFDING_MIN_TRIALS,
    PreconditionError,
    WORKED_FRONTIER,
    _clipped_second_moment,
    closed_form_row_update,
    exhaustive_quant_min,
    exhaustive_tradeoff_sweep,
    greedy_sequential_reference,
    hoeffding_bound,
    hoeffding_check,
    lambda_interval,
    oracle_row_update,
    penalized_argmin,
    run_compensation_suite,
    run_gptq_equiv_suite,
    run_hoeffding_suite,
    run_supportedness_suite,
    verify_supportedness,
)
from sarqc.quantizer import QuantScheme
from sarqc.saliency import identity_profile
from sarqc.seeds import substream

# Largest scale difference, in units in the last place, between the blocked
# pass at λ = 0 and the unblocked reference when several blocks cover d_in.
# Each block folds its pending updates as one matrix product where the
# reference subtracts rank-1 terms one at a time; over 1000 trials per block
# size (d_in ≤ 256, n = 256) the largest difference seen was 6736 ulp.
CROSS_BLOCK_SCALE_ULP = 2**14


class TestOracleRowUpdate:
    def test_identity_curvature(self):
        delta, obj = oracle_row_update(np.array([0.3]), np.eye(1), 0, 0.0)
        assert np.allclose(delta, [-0.3])
        assert obj == pytest.approx(0.045)

    def test_zero_error(self):
        delta, obj = oracle_row_update(np.array([1.0, 2.0]), np.eye(2), 1, 2.0)
        assert np.array_equal(delta, np.zeros(2))
        assert obj == 0.0

    def test_hand_example_both_forms(self):
        g = np.array([[2.0, 1.0], [1.0, 2.0]])
        w = np.array([1.0, 0.0])
        delta, obj = oracle_row_update(w, g, 0, 0.0)  # e = 1
        assert np.allclose(delta, [-1.0, 0.5])
        assert obj == pytest.approx(0.75)
        ginv = np.linalg.inv(g)
        assert obj == pytest.approx(1.0 / (2.0 * ginv[0, 0]))
        delta_c, obj_c = closed_form_row_update(w, g, 0, 0.0)
        assert np.allclose(delta, delta_c, atol=1e-12)
        assert obj == pytest.approx(obj_c)

    def test_closed_form_agreement_random(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            d = int(rng.integers(2, 9))
            a = rng.standard_normal((d, d))
            g = a @ a.T + (0.5 + rng.uniform()) * np.eye(d)
            w = rng.standard_normal(d)
            j = int(rng.integers(d))
            qhat = w[j] + rng.uniform(-0.5, 0.5)
            delta_o, obj_o = oracle_row_update(w, g, j, qhat)
            delta_c, obj_c = closed_form_row_update(w, g, j, qhat)
            assert np.max(np.abs(delta_o - delta_c)) <= 1e-9
            assert abs(obj_o - obj_c) <= 1e-9 * (1.0 + abs(obj_c))

    def test_reduced_system_residual_bound(self):
        # the free coordinates solve G_rr Δ_r = e·G_rj, where Δ_j = -e
        rng = np.random.default_rng(3)
        for _ in range(1000):
            d = int(rng.integers(2, 34))  # reduced systems of 1 to 32 unknowns
            a = rng.standard_normal((d, d))
            g = a @ a.T + (0.1 + rng.uniform()) * np.eye(d)
            w = rng.standard_normal(d)
            j = int(rng.integers(d))
            delta, _ = oracle_row_update(w, g, j, w[j] + rng.uniform(-1.0, 1.0))
            rest = [k for k in range(d) if k != j]
            rhs = -delta[j] * g[rest, j]
            residual = g[np.ix_(rest, rest)] @ delta[rest] - rhs
            assert np.max(np.abs(residual)) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))

    def test_singular_reduced_block_raises(self):
        # no jitter: the oracle must not answer for a different system
        with pytest.raises(np.linalg.LinAlgError):
            oracle_row_update(np.zeros(3), np.ones((3, 3)), 0, 1.0)


class TestExhaustiveQuantMin:
    def test_on_grid_weights(self):
        w = np.array([1.0, -2.0])
        grids = [[-2.0, 1.0, 3.0], [-2.0, 0.0, 1.0]]
        delta, obj = exhaustive_quant_min(w, np.eye(2), grids)
        assert np.array_equal(delta, np.zeros(2))
        assert obj == 0.0

    def test_single_coordinate_example(self):
        delta, obj = exhaustive_quant_min(np.array([0.4]), np.array([[1.0]]), [[0.0, 1.0]])
        assert delta[0] == pytest.approx(-0.4)
        assert obj == pytest.approx(0.08)

    def test_diagonal_curvature_separable(self):
        rng = np.random.default_rng(1)
        w = rng.uniform(-2, 2, 3)
        grids = [np.linspace(-2, 2, 9)] * 3
        g = np.diag(rng.uniform(0.5, 3.0, 3))
        delta, _ = exhaustive_quant_min(w, g, grids)
        for k in range(3):
            nearest = grids[k][np.argmin(np.abs(grids[k] - w[k]))]
            assert delta[k] == pytest.approx(nearest - w[k])

    def test_grid_size_cap(self):
        with pytest.raises(ValueError):
            exhaustive_quant_min(np.zeros(4), np.eye(4), [np.linspace(0, 1, 40)] * 4)

    def test_greedy_never_beats_global(self):
        rng = np.random.default_rng(2)
        scheme = QuantScheme(bits=2, mode="symmetric", group_size="per_channel")
        for _ in range(25):
            d = 3
            w = rng.standard_normal((1, d))
            x = rng.standard_normal((d, 12))
            g0 = gram(x)
            g = g0 + 0.1 * h_bar_of_gram(g0) * np.eye(d)
            factor = build_curvature(g0, identity_profile(d), 0.1)
            assert np.max(np.abs(factor.data - chol_upper_of_inverse(g).data)) <= 1e-12 * np.max(np.abs(factor.data))
            out = run_gbs(w, factor, scheme, block_size=128)
            scale = out.scales[0, 0]
            grid = [scale * q for q in range(scheme.qmin, scheme.qmax + 1)]
            _, best = exhaustive_quant_min(w[0], g, [grid] * d)
            delta = out.dequantized[0] - w[0]
            greedy = 0.5 * float(delta @ g @ delta)
            assert best <= greedy + 1e-12


class TestLambdaInterval:
    def test_worked_instance(self):
        iv = lambda_interval(WORKED_FRONTIER, "A", 4.0)
        assert iv.lambda_min == pytest.approx(0.1)
        assert iv.lambda_max == pytest.approx(1.0 / 3.0)
        assert iv.supported
        # spot-check the regimes around the interval
        assert penalized_argmin(WORKED_FRONTIER, 0.2) == {"A"}
        assert penalized_argmin(WORKED_FRONTIER, 0.05) == {"B"}
        assert penalized_argmin(WORKED_FRONTIER, 0.5) == {"C"}

    def test_singleton(self):
        iv = lambda_interval([FiniteCandidate("only", 1.0, 2.0)], "only", 4.0)
        assert iv.lambda_min == 0.0
        assert iv.lambda_max == math.inf
        assert iv.supported

    def test_equal_risk_closer_candidate_zeroes_lambda_max(self):
        cands = [FiniteCandidate("a", 1.0, 4.0), FiniteCandidate("b", 1.0, 1.0)]
        iv = lambda_interval(cands, "a", 4.0)
        assert iv.lambda_max == 0.0
        assert iv.supported == (iv.lambda_min == 0.0)

    def test_precondition_infeasible_chosen(self):
        with pytest.raises(PreconditionError):
            lambda_interval(WORKED_FRONTIER, "B", 4.0)

    def test_precondition_not_optimal(self):
        with pytest.raises(PreconditionError):
            lambda_interval(WORKED_FRONTIER, "C", 4.0)


class TestVerifySupportedness:
    def test_worked_probe_pattern(self):
        probes = [0.05, 0.1, 0.2, 1.0 / 3.0, 0.5]
        report = verify_supportedness(WORKED_FRONTIER, "A", 4.0, probes)
        assert report.passed
        members = [("A" in penalized_argmin(WORKED_FRONTIER, p)) for p in probes]
        assert members == [False, True, True, True, False]

    def test_unsupported_instance_never_recovered(self):
        # B sits strictly above the segment joining A and C
        cands = [
            FiniteCandidate("A", 2.0, 1.0),
            FiniteCandidate("B", 1.6, 2.0),
            FiniteCandidate("C", 0.0, 3.0),
        ]
        iv = lambda_interval(cands, "B", 2.0)
        assert not iv.supported
        report = verify_supportedness(cands, "B", 2.0, [0.0, 0.4, 1.0, 1.6, 5.0])
        assert report.passed
        assert all("B" not in penalized_argmin(cands, p) for p in [0.0, 0.4, 1.0, 1.6, 5.0])

    def test_endpoint_tie_at_a_large_score(self):
        # supportedness suite, seed 63, trial 3133: at λ = lambda_max the
        # chosen c2 ties with c3, but their rounded scores, about 1.83e4, are
        # one ulp (3.6e-12) apart, more than an absolute 1e-12
        cands = [
            FiniteCandidate("c0", 3.0903218951354106, 3.3315929627163787),
            FiniteCandidate("c1", 6.889045066054206, 8.493742590911724),
            FiniteCandidate("c2", 0.03345387548576717, 2.899141165708893),
            FiniteCandidate("c3", 6.59163526482045, 2.8981027723837682),
            FiniteCandidate("c4", 2.813479868399705, 4.217853947638334),
        ]
        r_sq = 4.217853947638334
        lam = 6315.700641225296
        iv = lambda_interval(cands, "c2", r_sq)
        assert (iv.lambda_min, iv.lambda_max) == (0.0, lam)
        assert penalized_argmin(cands, lam) == {"c2", "c3"}
        assert verify_supportedness(cands, "c2", r_sq, [0.0, 0.5 * lam, lam, 1.5 * lam + 0.1]).passed
        assert run_supportedness_suite(4000, seed=63).passed

    def test_singleton_always_recovered(self):
        cands = [FiniteCandidate("x", 3.0, 1.0)]
        report = verify_supportedness(cands, "x", 2.0, [0.0, 1.0, 100.0])
        assert report.passed

    def test_default_probes_bracket_the_interval(self):
        report = verify_supportedness(WORKED_FRONTIER, "A", 4.0)
        assert report.passed
        lo, hi = report.interval.lambda_min, report.interval.lambda_max
        assert report.probes == sorted({0.0, 0.5 * lo, lo, 0.5 * (lo + hi), hi, 1.5 * hi + 0.1, 2.0 * hi + 1.0})

    def test_suite_computes_each_interval_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[1])
            return lambda_interval(*args, **kwargs)

        monkeypatch.setattr(oracles, "lambda_interval", counting)
        assert run_supportedness_suite(300, seed=7).passed
        assert len(calls) == 1 + 300  # the worked instance, then one per trial


class TestHoeffding:
    def test_bound_value(self):
        assert hoeffding_bound(1.0, 1.0, 16, 200, 0.05) == pytest.approx(0.1271, abs=5e-5)

    def test_quadrupling_n_halves_bound(self):
        b1 = hoeffding_bound(1.0, 1.0, 16, 200, 0.05)
        b4 = hoeffding_bound(1.0, 1.0, 16, 800, 0.05)
        assert b4 == pytest.approx(b1 / 2.0)

    def test_zero_radius_never_violates(self):
        rep = hoeffding_check(4, 0.0, 1.0, 20, 0.05, 4, 1000, seed=1)
        assert rep.violations == 0
        assert rep.passed
        # every Δ is zero, so there is no ratio to test c with
        assert rep.ratio_mean is None and rep.z is None

    def test_smoke_coverage(self):
        rep = hoeffding_check(4, 1.0, 1.0, 50, 0.05, 8, 1000, seed=2)
        assert rep.passed
        assert rep.bound == pytest.approx(hoeffding_bound(1.0, 1.0, 8, 50, 0.05))

    def test_trials_floor(self):
        with pytest.raises(ValueError):
            hoeffding_check(4, 1.0, 1.0, 50, 0.05, 8, 10)

    def test_suite_runs_at_least_the_trials_floor(self):
        res = run_hoeffding_suite(10, seed=0)
        assert res.passed and res.trials == 1000

    def test_tight_bound_coverage(self):
        # at n = 2000 the bound, 0.038, is below the error of a wrong true
        # risk: χ²_d in place of χ²_{d+2} moves c by 0.076 at d = 4, m_x = 1
        rep = hoeffding_check(4, 1.0, 1.0, 2000, 0.05, 8, 1000, seed=3)
        assert rep.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bias_check_accepts_the_true_c(self, seed):
        res = run_hoeffding_suite(1000, seed=seed)
        assert res.passed
        d = res.details
        assert d["c"] == _clipped_second_moment(HOEFFDING_D_IN, HOEFFDING_M_X)
        assert abs(d["ratio_mean"] - d["c"]) <= 1e-3 * d["c"]
        assert abs(d["z"]) <= 3.0

    def test_clipped_second_moment_matches_gammainc(self):
        # c = P(χ²_{d+2} ≤ m²) + (m²/d)(1 − P(χ²_d ≤ m²)), with scipy's
        # regularized lower incomplete gamma as the reference
        from scipy.special import gammainc

        worst = 0.0
        for d in range(1, 65):
            for m_x in np.geomspace(0.05, 30.0, 60):
                y = 0.5 * m_x * m_x
                want = gammainc(d / 2 + 1, y) + (m_x * m_x / d) * (1.0 - gammainc(d / 2, y))
                worst = max(worst, abs(_clipped_second_moment(d, m_x) - want) / want)
        assert worst <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 63, 64])
    def test_clipped_second_moment_limits(self, d):
        # no clipping leaves E[xxᵀ] = I; clipping everything leaves
        # ‖x̃‖ = m_x, so E[x̃x̃ᵀ] = (m_x²/d)·I
        assert _clipped_second_moment(d, 1e3) == 1.0
        m_x = 1e-4
        assert _clipped_second_moment(d, m_x) == pytest.approx(m_x * m_x / d, rel=1e-3)


class TestSuites:
    def test_compensation_passes(self):
        res = run_compensation_suite(50, seed=0)
        assert res.passed
        assert res.details["max_delta_err"] <= 1e-9

    def test_compensation_fault_injection(self):
        res = run_compensation_suite(10, seed=0, inject_fault=True)
        assert not res.passed
        assert res.counterexample is not None
        assert "delta_err" in res.counterexample

    def test_supportedness_suite(self):
        res = run_supportedness_suite(100, seed=0)
        assert res.passed

    def test_gptq_equiv_suite(self):
        res = run_gptq_equiv_suite(10, seed=0)
        assert res.passed

    @pytest.mark.parametrize("block", [8, 16, 32, 128])
    def test_lambda_zero_across_block_boundaries(self, block):
        # the suite above keeps one block per layer (d_in ≤ 64 < 128), where
        # the pass is bit-identical; here blocks split the layer
        for t in range(25):
            rng = substream(0, "gptq-equiv-blocks", block, t)
            d_in = int(rng.integers(8, 257))
            d_out = int(rng.integers(4, 33))
            w = rng.standard_normal((d_out, d_in))
            x = rng.standard_normal((d_in, 256))
            mode = "symmetric" if rng.integers(2) else "asymmetric"
            group = [16, 32, "per_channel"][int(rng.integers(3))]
            scheme = QuantScheme(bits=int(rng.integers(3, 5)), mode=mode, group_size=group)
            g0 = gram(x)
            factor = build_curvature(g0, identity_profile(d_in), 0.0)
            solver = run_gbs(w, factor, scheme, block_size=block)
            ref = greedy_sequential_reference(w, factor, scheme)
            assert np.array_equal(solver.codes, ref.codes)
            assert np.array_equal(solver.zero_points, ref.zero_points)
            # scales are positive, so their int64 views order like the floats
            ulps = np.abs(solver.scales.view(np.int64) - ref.scales.view(np.int64))
            assert ulps.max() <= CROSS_BLOCK_SCALE_ULP

    @pytest.mark.parametrize("group", [128, "per_channel"])
    def test_lambda_zero_across_block_boundaries_at_production_shape(self, group):
        # the README's multi-block contract at 256×1024: eight blocks of 128
        rng = np.random.default_rng(21)
        w = rng.standard_normal((256, 1024))
        g0 = gram(rng.standard_normal((1024, 256)))
        scheme = QuantScheme(bits=4, mode="asymmetric", group_size=group)
        factor = build_curvature(g0, identity_profile(1024), 0.0)
        solver = run_gbs(w, factor, scheme, block_size=128)
        ref = greedy_sequential_reference(w, factor, scheme)
        assert np.array_equal(solver.codes, ref.codes)
        assert np.array_equal(solver.zero_points, ref.zero_points)
        ulps = np.abs(solver.scales.view(np.int64) - ref.scales.view(np.int64))
        assert ulps.max() <= CROSS_BLOCK_SCALE_ULP


def closed_form_off_by_1e_6(monkeypatch):
    closed_form = oracles.closed_form_row_update

    def mutant(*args, **kwargs):
        delta, obj = closed_form(*args, **kwargs)
        return delta * (1.0 + 1e-6), obj * (1.0 + 1e-6)

    monkeypatch.setattr(oracles, "closed_form_row_update", mutant)


def first_scale_up_one_ulp(monkeypatch):
    import sarqc.gbs

    run = sarqc.gbs.run_gbs

    def mutant(*args, **kwargs):
        layer = run(*args, **kwargs)
        layer.scales[0, 0] = np.nextafter(layer.scales[0, 0], np.inf)
        return layer

    monkeypatch.setattr(sarqc.gbs, "run_gbs", mutant)


def chi2_d_for_chi2_d_plus_2(monkeypatch):
    # moves c by 1.3%, far inside the coverage bound: only the bias check sees it
    from scipy.stats import chi2

    def mutant(d, m_x):
        p = chi2.cdf(m_x * m_x, d)
        return float(p + (m_x * m_x / d) * (1.0 - p))

    want = _clipped_second_moment(HOEFFDING_D_IN, HOEFFDING_M_X)
    assert mutant(HOEFFDING_D_IN, HOEFFDING_M_X) == pytest.approx(1.0126 * want, rel=1e-4)
    monkeypatch.setattr(oracles, "_clipped_second_moment", mutant)


def hoeffding_fails_only_the_bias_check(res):
    d = res.details
    return (
        d["violation_rate"] <= d["threshold"]
        and abs(d["z"]) > HOEFFDING_BIAS_Z_MAX
        and res.counterexample == {"violations": 0, "z": d["z"]}
    )


class TestMutants:
    """Each row plants a small error through a private helper and runs the
    suite that should see it, at the trial count of the verify-tiny bench
    workload (hoeffding, which that workload does not run, at its floor of
    HOEFFDING_MIN_TRIALS). `check` pins how the suite fails."""

    @pytest.mark.parametrize(
        "suite, trials, mutate, check",
        [
            pytest.param(run_compensation_suite, 3000, closed_form_off_by_1e_6,
                         lambda res: res.counterexample["trial"] == 0, id="compensation-closed-form-1e-6"),
            # codes agree, so only the byte comparison of the scales sees it
            pytest.param(run_gptq_equiv_suite, 1000, first_scale_up_one_ulp,
                         lambda res: res.counterexample["code_mismatches"] == 0, id="gptq-equiv-scale-one-ulp"),
            pytest.param(run_supportedness_suite, 4000, lambda mp: mp.setattr(oracles, "PENALIZED_TIE_TOL", 0.0),
                         lambda res: res.details == {"trial": 15}, id="supportedness-tie-tol-0"),
            pytest.param(run_supportedness_suite, 4000, lambda mp: mp.setattr(oracles, "PENALIZED_TIE_TOL", 1e-3),
                         lambda res: res.details == {"trial": 741}, id="supportedness-tie-tol-1e-3"),
            pytest.param(run_hoeffding_suite, HOEFFDING_MIN_TRIALS, chi2_d_for_chi2_d_plus_2,
                         hoeffding_fails_only_the_bias_check, id="hoeffding-chi2-d"),
        ],
    )
    def test_mutant_fails_its_suite(self, monkeypatch, suite, trials, mutate, check):
        mutate(monkeypatch)
        res = suite(trials, seed=0)
        assert not res.passed
        assert res.counterexample
        assert check(res)


class TestTradeoffSweepOracle:
    def test_exact_monotonicity(self):
        rng = np.random.default_rng(3)
        lambdas = np.linspace(0.0, 5.0, 21)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            w = rng.standard_normal(d)
            x = rng.standard_normal((d, 8))
            sal_sq = rng.uniform(0.2, 4.0, d)
            grids = [np.linspace(-2, 2, 7)] * d
            pairs = exhaustive_tradeoff_sweep(w, gram(x), sal_sq, grids, lambdas)
            for (r1, s1), (r2, s2) in zip(pairs, pairs[1:]):
                assert s2 <= s1
                assert r2 >= r1
