"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Every tolerance is pinned here; the stated runtime budgets are asserted as
hard limits.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from sarqc.gbs import GAMMA_GRID_DEFAULT, LAMBDA_GRID_GBS_DEFAULT
from sarqc.gs import ALPHA_GRID_DEFAULT, LAMBDA_GRID_GS_DEFAULT, run_gs, select_joint
from sarqc.harness import SynthLayerSpec, calib_size_study, sweep_lambda
from sarqc.linalg import gram
from sarqc.oracles import (
    exhaustive_tradeoff_sweep,
    hoeffding_bound,
    hoeffding_check,
    run_compensation_suite,
    run_gptq_equiv_suite,
    run_supportedness_suite,
)
from sarqc.quantizer import QuantScheme, quantize_matrix
from sarqc.tensorio import read_tensor, write_tensor


def report(number, name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {number:2d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded runtime budget"


def test_01_compensation_oracle_equivalence():
    t0 = time.perf_counter()
    res = run_compensation_suite(500, seed=101)
    elapsed = time.perf_counter() - t0
    ok = res.passed and res.details["max_delta_err"] <= 1e-9 and res.details["max_obj_rel_err"] <= 1e-9
    report(1, "compensation oracle equivalence", ok, elapsed, 10.0)


def test_02_gptq_recovery():
    t0 = time.perf_counter()
    res = run_gptq_equiv_suite(100, seed=202)
    elapsed = time.perf_counter() - t0
    report(2, "gptq recovery at lambda zero", res.passed, elapsed, 30.0)


def test_03_supportedness_enumeration():
    t0 = time.perf_counter()
    res = run_supportedness_suite(1000, seed=303)
    elapsed = time.perf_counter() - t0
    report(3, "supportedness enumeration", res.passed, elapsed, 10.0)


def test_04_hoeffding_coverage():
    t0 = time.perf_counter()
    bound = hoeffding_bound(1.0, 1.0, 16, 200, 0.05)
    rep = hoeffding_check(8, 1.0, 1.0, 200, 0.05, 16, 2000, seed=404)
    elapsed = time.perf_counter() - t0
    threshold = 0.05 + 3.0 * np.sqrt(0.05 * 0.95 / 2000)
    ok = (
        abs(bound - 0.1271) < 5e-5
        and rep.bound == bound
        and rep.violation_rate <= threshold
    )
    report(4, "hoeffding coverage", ok, elapsed, 120.0)


def test_05_exact_scalarization_monotonicity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    lambdas = [k / 10 for k in range(11)]
    ok = True

    # grid-search solver over a fixed candidate set with fixed normalization
    scheme = QuantScheme(bits=4, mode="symmetric", group_size="per_channel")
    for _ in range(200):
        w = rng.standard_normal((3, 6)) * rng.uniform(0.5, 4.0)
        x = rng.standard_normal((6, 9))
        base = run_gs(w, x, scheme, "gs")
        prev_sar = prev_recon = None
        for lam in lambdas:
            idx, recon_n, sar_n, _ = select_joint(base.recon, base.sar, lam)
            if prev_sar is not None:
                ok = ok and sar_n[idx] <= prev_sar and recon_n[idx] >= prev_recon
            prev_sar, prev_recon = sar_n[idx], recon_n[idx]

    # exhaustive oracle minimizer, d <= 4
    for _ in range(200):
        d = int(rng.integers(1, 5))
        w = rng.standard_normal(d)
        x = rng.standard_normal((d, 8))
        sal_sq = rng.uniform(0.2, 4.0, d)
        grids = [np.linspace(-2, 2, 7)] * d
        pairs = exhaustive_tradeoff_sweep(w, gram(x), sal_sq, grids, lambdas)
        for (r1, s1), (r2, s2) in zip(pairs, pairs[1:]):
            ok = ok and s2 <= s1 and r2 >= r1

    elapsed = time.perf_counter() - t0
    report(5, "exact scalarization monotonicity", ok, elapsed, 30.0)


def test_06_tradeoff_sweep():
    t0 = time.perf_counter()
    spec = SynthLayerSpec(d_out=64, d_in=128, outlier_channels=8, outlier_scale=8.0, weight_std=1.0)
    scheme = QuantScheme(bits=4, mode="asymmetric", group_size=32)
    grid = tuple(k / 10 for k in range(11))
    recs = sweep_lambda(spec, scheme, "gbs", grid, seeds=range(20))
    ok = True
    interior = 0
    for seed in range(20):
        rs = [r for r in recs if r.seed == seed]
        drifts = [r.drift for r in rs]
        recons = [r.recon for r in rs]
        risks = [r.heldout_risk for r in rs]
        drift_viol = sum(drifts[i + 1] > drifts[i] * 1.01 for i in range(len(rs) - 1))
        recon_viol = sum(recons[i + 1] < recons[i] * 0.99 for i in range(len(rs) - 1))
        ok = ok and drift_viol <= 2 and recon_viol <= 2
        k = int(np.argmin(risks))
        interior += 0 < k < len(rs) - 1
    ok = ok and interior >= 0.6 * 20
    elapsed = time.perf_counter() - t0
    report(6, f"trade-off sweep (interior minima {interior}/20)", ok, elapsed, 120.0)


def test_07_calibration_scarcity_trend():
    t0 = time.perf_counter()
    spec = SynthLayerSpec(d_out=64, d_in=24, outlier_channels=3, outlier_scale=16.0, weight_std=1.0)
    scheme = QuantScheme(bits=4, mode="asymmetric", group_size=32)
    rows = calib_size_study(spec, scheme, [16, 32, 64, 128], seeds=range(20))
    gaps = [(r["baseline_median"] - r["selected_median"]) / r["baseline_median"] for r in rows]
    ok = all(r["selected_median"] <= r["baseline_median"] for r in rows)
    ok = ok and gaps[0] == max(gaps)
    elapsed = time.perf_counter() - t0
    gap_text = " ".join(f"{g:+.3f}" for g in gaps)
    report(7, f"calibration scarcity trend (gaps {gap_text})", ok, elapsed, 180.0)


def test_08_quantizer_contract(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    ok = True
    unclipped = 0
    for trial in range(500):
        mode = "symmetric" if trial % 2 else "asymmetric"
        scheme = QuantScheme(bits=int(rng.integers(2, 6)), mode=mode, group_size=int(rng.integers(1, 9)))
        w = rng.standard_normal((4, 12)) * rng.uniform(0.1, 8.0)
        ql = quantize_matrix(w, scheme)
        clipped = False
        for gi, sl in enumerate(scheme.group_slices(12)):
            scale = ql.scales[:, gi : gi + 1]
            zp = ql.zero_points[:, gi : gi + 1]
            lo = scale * (scheme.qmin - zp)
            hi = scale * (scheme.qmax - zp)
            inside = (w[:, sl] >= lo) & (w[:, sl] <= hi)
            raw = np.round(w[:, sl] / scale + zp)
            clipped = clipped or bool(np.any(raw < scheme.qmin) or np.any(raw > scheme.qmax))
            err = np.abs(ql.dequantized[:, sl] - w[:, sl])
            width = sl.stop - sl.start
            ok = ok and bool(np.all(err[inside] <= np.repeat(scale, width, 1)[inside] / 2 + 1e-15))
        if not clipped:
            # idempotence is only contracted for unclipped inputs
            unclipped += 1
            again = quantize_matrix(ql.dequantized, scheme)
            ok = ok and np.array_equal(again.codes, ql.codes)
    ok = ok and unclipped >= 300

    arr_f = rng.standard_normal((6, 5))
    arr_i = rng.integers(-100, 100, (3, 4)).astype(np.int32)
    for name, arr in (("f.sqt", arr_f), ("i.sqt", arr_i)):
        write_tensor(tmp_path / name, arr)
        back = read_tensor(tmp_path / name)
        ok = ok and np.array_equal(back, arr) and back.tobytes() == arr.tobytes()

    elapsed = time.perf_counter() - t0
    report(8, "quantizer contract and tensor round trip", ok, elapsed, 10.0)


def test_09_parallel_determinism(tmp_path):
    t0 = time.perf_counter()
    spec = {
        "layers": 16, "d_out": 16, "d_in": 64, "n": 64,
        "outlier_channels": 4, "outlier_scale": 8.0, "weight_std": 1.0,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "sarqc.cli", *map(str, args)], capture_output=True, text=True)

    ok = cli("gen", "--spec", tmp_path / "spec.json", "--out", tmp_path / "d", "--seed", 9).returncode == 0
    for jobs, out in ((1, "j1"), (8, "j8")):
        r = cli(
            "quantize", "--manifest", tmp_path / "d" / "manifest.json",
            "--method", "sarqc-gbs", "--bits", 4, "--group-size", 16, "--mode", "asym",
            "--jobs", jobs, "--seed", 9, "--out", tmp_path / out,
        )
        ok = ok and r.returncode == 0
    if ok:
        tensors1 = sorted((tmp_path / "j1").glob("*.sqt"))
        ok = ok and len(tensors1) == 16 * 4
        for f in tensors1:
            ok = ok and f.read_bytes() == (tmp_path / "j8" / f.name).read_bytes()
        docs = []
        for out in ("j1", "j8"):
            doc = json.loads((tmp_path / out / "report.json").read_text())
            for layer in doc["layers"]:
                layer.pop("wall_time_ms")
            doc["config"].pop("jobs")
            doc["config"].pop("out")
            docs.append(doc)
        ok = ok and docs[0] == docs[1]
    elapsed = time.perf_counter() - t0
    report(9, "parallel determinism (jobs 1 vs 8)", ok, elapsed, 60.0)


def test_10_paper_default_configuration():
    t0 = time.perf_counter()
    ok = (
        ALPHA_GRID_DEFAULT == tuple(k / 20 for k in range(21))
        and LAMBDA_GRID_GS_DEFAULT == tuple(k / 10 for k in range(1, 11))
        and LAMBDA_GRID_GBS_DEFAULT == (0.25, 0.5, 0.75)
        and GAMMA_GRID_DEFAULT == (0.1, 0.15, 0.35, 0.5)
    )
    elapsed = time.perf_counter() - t0
    report(10, "paper-default configuration echo", ok, elapsed, 10.0)
