import json
import math
import os
import platform
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy

from sarqc.quantizer import QuantScheme
from sarqc.tensorio import read_tensor, write_manifest, write_tensor


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "sarqc.cli", *map(str, args)],
        capture_output=True,
        text=True,
        env=None if env is None else {**os.environ, **env},
    )


def gen_spec(tmp_path, **overrides):
    spec = {
        "layers": 2,
        "d_out": 8,
        "d_in": 16,
        "n": 32,
        "outlier_channels": 2,
        "outlier_scale": 6.0,
        "weight_std": 1.0,
    }
    spec.update(overrides)
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    return p


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        spec = gen_spec(tmp_path)
        for out in ("g1", "g2"):
            assert run_cli("gen", "--spec", spec, "--out", tmp_path / out, "--seed", 5).returncode == 0
        for f in sorted((tmp_path / "g1").iterdir()):
            assert f.read_bytes() == (tmp_path / "g2" / f.name).read_bytes()

    def test_generated_manifest_quantizes(self, tmp_path):
        spec = gen_spec(tmp_path)
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "d", "--seed", 1).returncode == 0
        r = run_cli(
            "quantize", "--manifest", tmp_path / "d" / "manifest.json",
            "--method", "rtn", "--bits", 4, "--group-size", 8, "--mode", "asym",
            "--out", tmp_path / "q",
        )
        assert r.returncode == 0, r.stderr
        report = json.loads((tmp_path / "q" / "report.json").read_text())
        assert len(report["layers"]) == 2

    def test_default_calibration_size_is_128(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text(json.dumps({"layers": 1, "d_out": 4, "d_in": 8}))
        assert run_cli("gen", "--spec", p, "--out", tmp_path / "d", "--seed", 0).returncode == 0
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert doc["layers"][0]["n"] == 128

    def test_manifest_defaults_hold_only_what_quantize_reads(self, tmp_path):
        assert run_cli("gen", "--spec", gen_spec(tmp_path), "--out", tmp_path / "d", "--seed", 0).returncode == 0
        doc = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert set(doc["defaults"]) == {"scheme", "method"}

    @pytest.mark.parametrize("layers", [0, -1])
    def test_layers_below_one_exits_2_before_out_is_touched(self, tmp_path, layers):
        r = run_cli("gen", "--spec", gen_spec(tmp_path, layers=layers), "--out", tmp_path / "d", "--seed", 0)
        assert r.returncode == 2
        assert '"layers" must be at least 1' in r.stderr
        assert not (tmp_path / "d").exists()


def lossless_manifest(tmp_path):
    # weights already on the symmetric 4-bit grid with per-row max 7
    rng = np.random.default_rng(3)
    w = rng.integers(-7, 8, size=(4, 8)).astype(np.float64)
    w[:, 0] = 7.0
    x = rng.standard_normal((8, 16))
    write_tensor(tmp_path / "w.sqt", w)
    write_tensor(tmp_path / "x.sqt", x)
    entry = {"layer_id": "l0", "weights": "w.sqt", "calib": "x.sqt", "d_out": 4, "d_in": 8, "n": 16}
    write_manifest(tmp_path / "m.json", [entry], {})
    return w


class TestQuantize:
    @pytest.mark.parametrize(
        "method, flags",
        [("rtn", []), ("awq", []), ("gptq", []), ("sarqc-gs", []), ("sarqc-gbs", []),
         ("sarqc-gs", ["--saliency", "identity"]), ("sarqc-gbs", ["--lambda", "0.25", "--saliency", "identity"])],
    )
    def test_report_losses_are_three_finite_values(self, tmp_path, method, flags):
        # the benchmark's output check rejects a layer on any other losses
        # shape; under the identity profile the sar loss is the drift
        from sarqc import cli

        m = random_manifest(tmp_path, 2)
        assert cli.main(["quantize", "--manifest", str(m), "--method", method, *flags,
                         "--out", str(tmp_path / "q")]) == 0
        layers = json.loads((tmp_path / "q" / "report.json").read_text())["layers"]
        for layer in layers:
            losses = layer["losses"]
            assert set(losses) == {"recon", "sar", "drift"}
            assert all(math.isfinite(v) for v in losses.values())
            assert math.isfinite(layer["heldout_risk"])
            if method in ("rtn", "awq", "gptq") or flags[-1:] == ["identity"]:
                assert losses["sar"].hex() == losses["drift"].hex()

    def test_rtn_lossless_layer_bytes(self, tmp_path):
        lossless_manifest(tmp_path)
        r = run_cli(
            "quantize", "--manifest", tmp_path / "m.json", "--method", "rtn",
            "--bits", 4, "--group-size", "per_channel", "--mode", "sym",
            "--out", tmp_path / "q",
        )
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "q" / "l0.dequant.sqt").read_bytes() == (tmp_path / "w.sqt").read_bytes()

    def test_gptq_equals_gbs_at_lambda_zero(self, tmp_path):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((6, 12))
        x = rng.standard_normal((12, 24))
        write_tensor(tmp_path / "w.sqt", w)
        write_tensor(tmp_path / "x.sqt", x)
        entry = {"layer_id": "l0", "weights": "w.sqt", "calib": "x.sqt", "d_out": 6, "d_in": 12, "n": 24}
        write_manifest(tmp_path / "m.json", [entry], {})
        common = ["--manifest", tmp_path / "m.json", "--bits", 4, "--group-size", 4, "--mode", "asym"]
        assert run_cli("quantize", *common, "--method", "gptq", "--out", tmp_path / "a").returncode == 0
        assert run_cli(
            "quantize", *common, "--method", "sarqc-gbs", "--lambda", 0, "--out", tmp_path / "b"
        ).returncode == 0
        for name in ("codes", "scales", "zeros", "dequant"):
            assert (tmp_path / "a" / f"l0.{name}.sqt").read_bytes() == (tmp_path / "b" / f"l0.{name}.sqt").read_bytes()
        ra = json.loads((tmp_path / "a" / "report.json").read_text())["layers"][0]["losses"]
        rb = json.loads((tmp_path / "b" / "report.json").read_text())["layers"][0]["losses"]
        assert ra["recon"] == rb["recon"] and ra["drift"] == rb["drift"]

    def test_report_records_factor_diagnostics(self, tmp_path):
        from sarqc import cli

        lossless_manifest(tmp_path)
        x = read_tensor(tmp_path / "x.sqt").copy()
        x[3] = 0.0  # a dead input channel: XXᵀ is singular, so the first factorization fails
        write_tensor(tmp_path / "x.sqt", x)
        reports = []
        for i, method in enumerate(("gptq", "gptq", "rtn")):
            out = tmp_path / f"q{i}"
            rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method, "--out", str(out)])
            assert rc == 0
            entry = json.loads((out / "report.json").read_text())["layers"][0]
            entry.pop("wall_time_ms")
            reports.append(entry)
        factor = reports[0]["factor"]
        assert factor["retries"] >= 1
        assert factor["jitter"] > 0.0
        # a Cholesky pivot is at most the square root of its diagonal entry,
        # which is the jitter alone for the dead channel
        assert 0.0 < factor["min_pivot"] <= 1.000001 * np.sqrt(factor["jitter"])
        assert reports[1] == reports[0]
        assert reports[2]["factor"] is None

    def test_jobs_bytes_match_at_production_shape(self, tmp_path):
        from sarqc import cli

        spec = gen_spec(tmp_path, layers=2, d_out=512, d_in=2048, n=512, outlier_channels=16)
        assert cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "d"), "--seed", "7"]) == 0
        reports = []
        for jobs in (1, 2):
            out = tmp_path / f"j{jobs}"
            rc = cli.main([
                "quantize", "--manifest", str(tmp_path / "d" / "manifest.json"), "--method", "sarqc-gbs",
                "--bits", "4", "--group-size", "128", "--mode", "asym", "--jobs", str(jobs), "--out", str(out),
            ])
            assert rc == 0
            doc = json.loads((out / "report.json").read_text())
            for layer in doc["layers"]:
                layer.pop("wall_time_ms")
            for key in ("jobs", "out"):
                doc["config"].pop(key)
            reports.append(doc)
        assert reports[0] == reports[1]
        assert all(layer["chosen_gamma"] is not None for layer in reports[0]["layers"])
        tensors = sorted(p.name for p in (tmp_path / "j1").glob("*.sqt"))
        assert len(tensors) == 2 * 4
        for name in tensors:
            assert (tmp_path / "j1" / name).read_bytes() == (tmp_path / "j2" / name).read_bytes()

    def test_sarqc_gs_defaults_select_from_paper_grids(self, tmp_path):
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 8)) * 3
        w[:, 0] *= 8
        x = rng.standard_normal((8, 20))
        write_tensor(tmp_path / "w.sqt", w)
        write_tensor(tmp_path / "x.sqt", x)
        entry = {"layer_id": "l0", "weights": "w.sqt", "calib": "x.sqt", "d_out": 4, "d_in": 8, "n": 20}
        write_manifest(tmp_path / "m.json", [entry], {})
        r = run_cli(
            "quantize", "--manifest", tmp_path / "m.json", "--method", "sarqc-gs",
            "--bits", 4, "--group-size", "per_channel", "--mode", "sym", "--out", tmp_path / "q",
        )
        assert r.returncode == 0, r.stderr
        layer = json.loads((tmp_path / "q" / "report.json").read_text())["layers"][0]
        assert layer["chosen_alpha"] in [k / 20 for k in range(21)]
        assert layer["chosen_lambda"] in [k / 10 for k in range(1, 11)]

    def test_replay_from_config_echo(self, tmp_path):
        spec = gen_spec(tmp_path, layers=2)
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "d", "--seed", 2).returncode == 0
        args = [
            "quantize", "--manifest", tmp_path / "d" / "manifest.json",
            "--method", "sarqc-gbs", "--bits", 4, "--group-size", 8, "--mode", "asym",
            "--seed", 9, "--out", tmp_path / "q1",
        ]
        assert run_cli(*args).returncode == 0
        cfg = json.loads((tmp_path / "q1" / "report.json").read_text())["config"]
        replay = [
            "quantize", "--manifest", cfg["manifest"], "--method", cfg["method"],
            "--bits", cfg["bits"], "--group-size", cfg["group_size"], "--mode", cfg["mode"],
            "--block", cfg["block"], "--saliency", cfg["saliency"],
            "--val-fraction", cfg["val_fraction"], "--seed", cfg["seed"],
            "--jobs", cfg["jobs"], "--out", tmp_path / "q2",
        ]
        assert run_cli(*replay).returncode == 0
        for f in sorted((tmp_path / "q1").glob("*.sqt")):
            assert f.read_bytes() == (tmp_path / "q2" / f.name).read_bytes()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--method", "sarqc-gs", "--lambda-grid", "0.2,0.6", "--bits", 3, "--group-size", 8, "--mode", "sym"],
            ["--method", "sarqc-gbs", "--lambda", "0.3", "--gamma", "0.25", "--gamma-grid", "0.1,0.9",
             "--block", 4, "--saliency", "identity", "--val-fraction", "0.375", "--jobs", 2, "--seed", 9],
        ],
        ids=["sarqc-gs-lambda-grid", "sarqc-gbs-fixed-lambda"],
    )
    def test_replay_from_every_key_of_config_echo(self, tmp_path, flags):
        # every key of the config echo maps to the flag that set it, or is
        # a constant of this version; the rebuilt argv writes the same bytes
        from sarqc import cli

        spec = gen_spec(tmp_path, layers=2)
        assert cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "d"), "--seed", "2"]) == 0
        manifest = tmp_path / "d" / "manifest.json"
        assert cli.main(["quantize", "--manifest", str(manifest), *map(str, flags), "--out", str(tmp_path / "q1")]) == 0
        cfg = json.loads((tmp_path / "q1" / "report.json").read_text())["config"]

        flag_of = {"manifest": "--manifest", "method": "--method", "bits": "--bits", "group_size": "--group-size",
                   "mode": "--mode", "lambda": "--lambda", "lambda_grid": "--lambda-grid", "gamma": "--gamma",
                   "gamma_grid": "--gamma-grid", "block": "--block", "saliency": "--saliency",
                   "val_fraction": "--val-fraction", "seed": "--seed", "jobs": "--jobs"}
        assert set(cfg) == {"command", "out", "alpha_grid", "default_grids", *flag_of}
        assert cfg["command"] == "quantize" and cfg["out"] == str(tmp_path / "q1")
        assert cfg["default_grids"] == cli._default_grids() and cfg["alpha_grid"] == cfg["default_grids"]["alpha"]
        replay = ["quantize", "--out", str(tmp_path / "q2")]
        for key, flag in flag_of.items():
            value = cfg[key]
            if isinstance(value, list):
                replay.append(f"{flag}={','.join(map(repr, value))}")
            elif value is not None:
                replay += [flag, repr(value) if isinstance(value, float) else str(value)]
        assert cli.main(replay) == 0
        files = sorted(p.name for p in (tmp_path / "q1").glob("*.sqt"))
        assert len(files) >= 2 * 4 and files == sorted(p.name for p in (tmp_path / "q2").glob("*.sqt"))
        for name in files:
            assert (tmp_path / "q1" / name).read_bytes() == (tmp_path / "q2" / name).read_bytes()

    def test_manifest_validation_fails_before_compute(self, tmp_path):
        write_tensor(tmp_path / "w.sqt", np.zeros((2, 3)))
        write_tensor(tmp_path / "x.sqt", np.zeros((3, 4)))
        entry = {"layer_id": "l0", "weights": "w.sqt", "calib": "x.sqt", "d_out": 2, "d_in": 7, "n": 4}
        write_manifest(tmp_path / "m.json", [entry], {})
        r = run_cli("quantize", "--manifest", tmp_path / "m.json", "--method", "rtn", "--out", tmp_path / "q")
        assert r.returncode == 3
        assert not (tmp_path / "q" / "report.json").exists()

    def test_short_payload_exits_3_before_any_tensor_is_written(self, tmp_path):
        # the last layer's calib header is intact and its payload 8 bytes
        # short; load_manifest sees the file size, so no layer runs
        m = random_manifest(tmp_path, 3, d_out=16, d_in=64, n=48)
        x = tmp_path / "l2.x.sqt"
        x.write_bytes(x.read_bytes()[:-8])
        r = run_cli("quantize", "--manifest", m, "--method", "rtn", "--jobs", 1, "--out", tmp_path / "q")
        assert r.returncode == 3
        assert "payload length" in r.stderr
        assert not (tmp_path / "q").exists()

    @pytest.mark.parametrize("jobs, env", [("0", {}), ("-1", {}), (None, {"SARQC_JOBS": "0"})])
    def test_jobs_below_one_exits_2_before_out_is_touched(self, tmp_path, jobs, env):
        lossless_manifest(tmp_path)
        args = ["quantize", "--manifest", tmp_path / "m.json", "--method", "rtn", "--out", tmp_path / "q"]
        assert run_cli(*args).returncode == 0
        report = (tmp_path / "q" / "report.json").read_bytes()
        r = run_cli(*args, *(["--jobs", jobs] if jobs is not None else []), env=env)
        assert r.returncode == 2
        assert "--jobs must be at least 1" in r.stderr
        assert (tmp_path / "q" / "report.json").read_bytes() == report

    def test_unknown_method_exits_2(self, tmp_path):
        lossless_manifest(tmp_path)
        r = run_cli("quantize", "--manifest", tmp_path / "m.json", "--method", "magic", "--out", tmp_path / "q")
        assert r.returncode == 2


def random_manifest(tmp_path, count, d_out=4, d_in=8, n=16, seed=12):
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(count):
        lid = f"l{i}"
        write_tensor(tmp_path / f"{lid}.w.sqt", rng.standard_normal((d_out, d_in)) * rng.uniform(0.5, 4.0, d_in))
        write_tensor(tmp_path / f"{lid}.x.sqt", rng.standard_normal((d_in, n)))
        entries.append({"layer_id": lid, "weights": f"{lid}.w.sqt", "calib": f"{lid}.x.sqt",
                        "d_out": d_out, "d_in": d_in, "n": n})
    write_manifest(tmp_path / "m.json", entries, {})
    return tmp_path / "m.json"


class TestOutputs:
    @pytest.mark.parametrize("method", ["rtn", "awq", "gptq", "sarqc-gs", "sarqc-gbs"])
    @pytest.mark.parametrize("group_size, mode", [(4, "asym"), ("per_channel", "sym"), ("per_tensor", "asym")])
    def test_dequant_is_rebuilt_from_the_written_tensors(self, tmp_path, method, group_size, mode):
        # awq and sarqc-gs quantize W·diag(s) and divide s back out, so they
        # write s as chscale; the other methods write no channel scale
        from sarqc import cli

        m = random_manifest(tmp_path, 1, d_in=10)
        out = tmp_path / "q"
        rc = cli.main(["quantize", "--manifest", str(m), "--method", method, "--group-size", str(group_size),
                       "--mode", mode, "--out", str(out)])
        assert rc == 0
        t = {name: read_tensor(out / f"l0.{name}.sqt") for name in ("codes", "scales", "zeros", "dequant")}
        group = QuantScheme(group_size=group_size).group_index(10)
        want = t["scales"][:, group] * (t["codes"].astype(np.float64) - t["zeros"][:, group].astype(np.float64))
        if method in ("awq", "sarqc-gs"):
            chscale = read_tensor(out / "l0.chscale.sqt")
            assert chscale.shape == (10,)
            want = want / chscale[None, :]
        else:
            assert not (out / "l0.chscale.sqt").exists()
        assert want.tobytes() == t["dequant"].tobytes()

    def test_report_records_blas_and_thread_pins(self, tmp_path, monkeypatch):
        from sarqc import cli

        m = random_manifest(tmp_path, 1)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        monkeypatch.setenv("OMP_NUM_THREADS", "3")
        assert cli.main(["quantize", "--manifest", str(m), "--method", "rtn", "--out", str(tmp_path / "q")]) == 0
        versions = json.loads((tmp_path / "q" / "report.json").read_text())["versions"]
        assert versions["scipy"] == scipy.__version__
        blas = versions["blas"]
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert (blas["name"], blas["version"]) == (build["name"], build["version"])
        assert blas["threads"] == {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": None, "OMP_NUM_THREADS": "3"}
        # the factors come from scipy's LAPACK, which need not be numpy's BLAS
        lapack = versions["lapack"]
        build = scipy.show_config(mode="dicts")["Build Dependencies"]["lapack"]
        assert lapack == {"name": build["name"], "version": build["version"]}

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failed_rerun_leaves_no_stale_report(self, tmp_path, monkeypatch, jobs):
        from sarqc import cli
        from sarqc.linalg import NumericalFailure

        m = random_manifest(tmp_path, 3)
        args = ["quantize", "--manifest", str(m), "--method", "awq", "--jobs", jobs, "--out", str(tmp_path / "q")]
        assert cli.main(args) == 0
        assert (tmp_path / "q" / "report.json").exists()
        quantize_one = cli._quantize_one

        def failing(entry, method, scheme, args):
            if entry["layer_id"] == "l1":
                raise NumericalFailure("synthetic failure")
            return quantize_one(entry, method, scheme, args)

        monkeypatch.setattr(cli, "_quantize_one", failing)
        assert cli.main(args) == 4
        assert not (tmp_path / "q" / "report.json").exists()


class TestPeakMemory:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_heap_peak_does_not_grow_with_the_layer_count(self, tmp_path, jobs):
        # each layer is written by the worker that solved it and then
        # dropped, so 8 layers peak within one layer's outputs of 2 layers;
        # keeping every finished layer until the end added about 6
        from sarqc import cli

        d_out, d_in = 128, 512
        one_layer = d_out * d_in * (4 + 8)  # int32 codes and float64 dequant; scales and zeros are smaller
        peaks = []
        for count in (2, 8):
            root = tmp_path / str(count)
            root.mkdir()
            m = random_manifest(root, count, d_out=d_out, d_in=d_in, n=64)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                rc = cli.main(["quantize", "--manifest", str(m), "--method", "awq", "--jobs", jobs,
                               "--out", str(root / "q")])
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
            assert rc == 0
        assert peaks[1] - peaks[0] < one_layer


# modules whose loading tells what a command paid for: a factor loads only
# scipy's _flapack extension, never the scipy package or scipy.linalg, whose
# import also pulls in scipy._lib._array_api; _hashlib, which maps OpenSSL,
# loads only where seeded streams are drawn; statistics loads nowhere, and
# neither does a thread or process pool: every command that runs work in
# parallel forks its own workers with os.fork
_WATCHED = ("scipy", "scipy.linalg", "scipy.linalg._flapack", "scipy._lib._array_api", "_hashlib", "statistics",
            "multiprocessing", "concurrent.futures")

# runs sarqc's main in a fresh interpreter and reports which watched modules
# it loaded; the test process itself has long since imported them
_MAIN_THEN_MODULES = (
    "import json, sys\n"
    "from sarqc.cli import main\n"
    "rc = main(sys.argv[1:])\n"
    f"print(json.dumps({{'rc': rc, 'loaded': [m for m in {_WATCHED!r} if m in sys.modules]}}))\n"
)


def loaded_watched_modules(*args) -> set:
    r = subprocess.run([sys.executable, "-c", _MAIN_THEN_MODULES, *map(str, args)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return set(result["loaded"])


class TestImportHygiene:
    def test_importing_the_cli_loads_no_scipy(self):
        # nor OpenSSL's _hashlib, nor statistics, nor a thread or process pool
        r = subprocess.run(
            [sys.executable, "-c", "import sys, sarqc.cli; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('scipy', '_hashlib', 'statistics', 'concurrent', 'multiprocessing')))"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"

    @pytest.mark.parametrize("method", ["rtn", "awq", "sarqc-gs"])
    def test_methods_that_never_factor_leave_lapack_unloaded(self, tmp_path, method):
        m = random_manifest(tmp_path, 2)
        assert loaded_watched_modules("quantize", "--manifest", m, "--method", method, "--out", tmp_path / "q") == set()

    def test_gen_leaves_lapack_unloaded(self, tmp_path):
        loaded = loaded_watched_modules("gen", "--spec", gen_spec(tmp_path), "--out", tmp_path / "g", "--seed", 1)
        assert loaded == {"_hashlib"}

    @pytest.mark.parametrize("suite", ["supportedness", "hoeffding"])
    def test_suites_that_never_factor_leave_lapack_unloaded(self, tmp_path, suite):
        loaded = loaded_watched_modules("verify", "--suite", suite, "--trials", 20, "--out", tmp_path / "v.json")
        assert loaded == {"_hashlib"}

    @pytest.mark.parametrize("method", ["gptq", "sarqc-gbs"])
    def test_methods_that_factor_load_only_the_lapack_extension(self, tmp_path, method):
        m = random_manifest(tmp_path, 1)
        loaded = loaded_watched_modules("quantize", "--manifest", m, "--method", method, "--out", tmp_path / "q")
        assert loaded == {"scipy.linalg._flapack"}

    @pytest.mark.parametrize("suite", ["gptq-equiv", "compensation"])
    def test_suites_that_factor_load_only_the_lapack_extension(self, tmp_path, suite):
        loaded = loaded_watched_modules("verify", "--suite", suite, "--trials", 5, "--out", tmp_path / "v.json")
        assert loaded == {"scipy.linalg._flapack", "_hashlib"}

    def test_verify_loads_no_process_pool(self, tmp_path):
        # its trials run in workers it forks itself, so neither
        # multiprocessing nor concurrent.futures loads
        loaded = loaded_watched_modules("verify", "--suite", "all", "--trials", 20, "--out", tmp_path / "v.json")
        assert loaded == {"scipy.linalg._flapack", "_hashlib"}

    def test_quantize_on_two_processes_loads_no_pool(self, tmp_path):
        m = random_manifest(tmp_path, 2, d_in=64, n=48)
        loaded = loaded_watched_modules("quantize", "--manifest", m, "--method", "sarqc-gbs", "--jobs", 2,
                                        "--out", tmp_path / "q")
        assert loaded == {"scipy.linalg._flapack"}


class TestHeapReuse:
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap trim rule is glibc's malloc's")
    def test_a_gs_layer_in_the_main_thread_reuses_its_heap_pages(self, tmp_path):
        # with glibc's mmap threshold left at the largest array freed so far,
        # this layer faulted in about 24,000 pages; with it raised, about 1,700
        m = random_manifest(tmp_path, 1, d_out=256, d_in=512, n=256)
        code = ("import resource, sys\n"
                "from sarqc.cli import main\n"
                "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
                "rc = main(sys.argv[1:])\n"
                "print(rc, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        r = subprocess.run([sys.executable, "-c", code, "quantize", "--manifest", str(m), "--method", "sarqc-gs",
                            "--out", str(tmp_path / "q")], capture_output=True, text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        rc, faults = map(int, r.stdout.split())
        assert rc == 0 and faults < 8000


class TestForkSafety:
    """Forked workers with BLAS left at its default thread count: nothing
    pins OPENBLAS_NUM_THREADS, OMP_NUM_THREADS or MKL_NUM_THREADS, so the
    BLAS thread pool may be running when a command forks."""

    @staticmethod
    def run_unpinned(*args):
        env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                                  "MKL_NUM_THREADS", "SARQC_JOBS")}
        r = subprocess.run([sys.executable, "-m", "sarqc.cli", *map(str, args)], capture_output=True, text=True,
                           env=env, timeout=300)
        assert r.returncode == 0, r.stderr

    def test_quantize_and_sweep_exit_0_and_jobs_keep_the_bytes(self, tmp_path):
        m = random_manifest(tmp_path, 2, d_out=64, d_in=256, n=128)
        for jobs in ("1", "2"):
            self.run_unpinned("quantize", "--manifest", m, "--method", "sarqc-gbs", "--jobs", jobs,
                              "--out", tmp_path / jobs)
        docs = []
        for jobs in ("1", "2"):
            doc = json.loads((tmp_path / jobs / "report.json").read_text())
            for layer in doc["layers"]:
                layer.pop("wall_time_ms")
            for key in ("jobs", "out"):
                doc["config"].pop(key)
            docs.append(doc)
        assert docs[0] == docs[1]
        assert all(v is None for v in docs[0]["versions"]["blas"]["threads"].values())
        files = sorted(p.name for p in (tmp_path / "1").glob("*.sqt"))
        assert len(files) == 2 * 4
        for name in files:
            assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"d_out": 16, "d_in": 64, "n_calib": 96, "n_heldout": 64}))
        self.run_unpinned("sweep", "--spec", spec, "--seeds", 3, "--lambda-grid", "0,0.5", "--out", tmp_path / "s.csv")
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 1 + 3 * 2


class TestSweep:
    SPEC = {"d_out": 8, "d_in": 12, "outlier_channels": 2, "outlier_scale": 6.0,
            "n_calib": 16, "n_heldout": 32, "corr_strength": 2.0}

    @pytest.mark.parametrize(
        "grid_flags, seeds, lams",
        [(["--lambda-grid", "0.5"], 1, ["0.5"]), ([], 2, [repr(k / 10) for k in range(11)])],
        ids=["one-lambda", "default-grid"],
    )
    def test_spec_mode_rows(self, tmp_path, grid_flags, seeds, lams):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.SPEC))
        r = run_cli(
            "sweep", "--spec", p, "--method", "sarqc-gbs", *grid_flags,
            "--seeds", seeds, "--bits", 4, "--group-size", 4, "--mode", "asym",
            "--out", tmp_path / "out.csv",
        )
        assert r.returncode == 0, r.stderr
        header, *rows = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert header == "lambda,gamma,recon,sar,drift,heldout_risk,method,seed,layer"
        # seed order, then grid order; no layer in --spec mode
        cells = [row.split(",") for row in rows]
        assert [(c[0], c[-2], c[-1]) for c in cells] == [(lam, str(seed), "") for seed in range(seeds) for lam in lams]

    def test_rerun_byte_identical(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.SPEC))
        for name in ("a.csv", "b.csv"):
            assert run_cli(
                "sweep", "--spec", p, "--method", "sarqc-gbs", "--lambda-grid", "0,0.5,1.0",
                "--seeds", 2, "--seed", 3, "--bits", 4, "--group-size", 4, "--mode", "asym",
                "--out", tmp_path / name,
            ).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("seeds", [0, -2])
    def test_seeds_below_one_exits_2(self, tmp_path, seeds):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.SPEC))
        r = run_cli("sweep", "--spec", p, "--method", "sarqc-gs", "--seeds", seeds, "--out", tmp_path / "out.csv")
        assert r.returncode == 2
        assert "--seeds must be at least 1" in r.stderr
        assert not (tmp_path / "out.csv").exists()

    def test_requires_exactly_one_source(self, tmp_path):
        r = run_cli("sweep", "--method", "sarqc-gbs", "--out", tmp_path / "o.csv")
        assert r.returncode == 2

    def test_manifest_mode(self, tmp_path):
        spec = gen_spec(tmp_path, layers=2, d_in=12, n=24)
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "d", "--seed", 4).returncode == 0
        r = run_cli(
            "sweep", "--manifest", tmp_path / "d" / "manifest.json", "--method", "sarqc-gbs",
            "--lambda-grid", "0,0.5", "--bits", 4, "--group-size", 4, "--mode", "asym",
            "--seed", 4, "--out", tmp_path / "m.csv",
        )
        assert r.returncode == 0, r.stderr
        lines = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + layers x lambdas

    def test_manifest_rows_name_their_layer(self, tmp_path):
        spec = gen_spec(tmp_path, layers=2, d_in=12, n=24)
        assert run_cli("gen", "--spec", spec, "--out", tmp_path / "d", "--seed", 4).returncode == 0
        r = run_cli(
            "sweep", "--manifest", tmp_path / "d" / "manifest.json", "--method", "sarqc-gs",
            "--lambda-grid", "0.5,0,1", "--bits", 4, "--group-size", 4, "--mode", "asym",
            "--seed", 4, "--out", tmp_path / "m.csv",
        )
        assert r.returncode == 0, r.stderr
        header, *rows = (tmp_path / "m.csv").read_text().strip().splitlines()
        assert header.split(",")[-1] == "layer"
        # manifest order, then grid order
        cells = [row.split(",") for row in rows]
        assert [(c[0], c[-1]) for c in cells] == [
            (lam, lid) for lid in ("layer_000", "layer_001") for lam in ("0.5", "0.0", "1.0")
        ]
        assert all(c[7] == "4" for c in cells)

    def test_spec_mode_honours_val_fraction(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(json.dumps(self.SPEC))
        common = [
            "sweep", "--spec", p, "--method", "sarqc-gbs", "--lambda-grid", "0.5",
            "--seeds", 1, "--bits", 4, "--group-size", 4, "--mode", "asym",
        ]
        assert run_cli(*common, "--out", tmp_path / "a.csv").returncode == 0
        assert run_cli(*common, "--val-fraction", 0.5, "--out", tmp_path / "b.csv").returncode == 0
        # fewer training columns change the calibration reconstruction loss
        assert (tmp_path / "a.csv").read_text() != (tmp_path / "b.csv").read_text()


class TestVerify:
    def test_zero_trials_invalid(self, tmp_path):
        r = run_cli("verify", "--suite", "compensation", "--trials", 0, "--out", tmp_path / "v.json")
        assert r.returncode == 2

    def test_all_suites_pass(self, tmp_path):
        r = run_cli("verify", "--suite", "all", "--trials", 20, "--out", tmp_path / "v.json")
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "v.json").read_text())
        assert set(doc["suites"]) == {"compensation", "supportedness", "hoeffding", "gptq-equiv"}
        assert all(s["passed"] for s in doc["suites"].values())

    def test_compensation_suite_passes(self, tmp_path):
        r = run_cli("verify", "--suite", "compensation", "--trials", 50, "--out", tmp_path / "v.json")
        assert r.returncode == 0, r.stderr
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["suites"]["compensation"]["passed"]

    def test_fault_injection_fails_with_counterexample(self, tmp_path):
        # --suite all carries the fault to every suite
        r = run_cli("verify", "--suite", "all", "--trials", 5, "--inject-fault", "--out", tmp_path / "v.json")
        assert r.returncode == 1, r.stderr
        suites = json.loads((tmp_path / "v.json").read_text())["suites"]
        assert set(suites) == {"compensation", "supportedness", "hoeffding", "gptq-equiv"}
        assert all(not s["passed"] and s["counterexample"] for s in suites.values())

    @pytest.mark.parametrize("suite", ["compensation", "supportedness", "hoeffding", "gptq-equiv"])
    def test_injected_fault_fails_the_suite_with_a_counterexample(self, tmp_path, suite):
        # each suite's own comparison sees the fault: exit 1, not a crash
        r = run_cli("verify", "--suite", suite, "--trials", 5, "--inject-fault", "--out", tmp_path / "v.json")
        assert r.returncode == 1, r.stderr
        doc = json.loads((tmp_path / "v.json").read_text())
        assert not doc["suites"][suite]["passed"]
        assert doc["suites"][suite]["counterexample"]


def verify_json(tmp_path, monkeypatch, workers: int, *args) -> tuple[int, bytes]:
    """(exit code, JSON bytes) of an in-process verify run on `workers` processes."""
    from sarqc import cli, forks

    monkeypatch.setattr(forks, "cpus", lambda: workers)
    out = tmp_path / f"v{workers}.json"
    rc = cli.main(["verify", *map(str, args), "--out", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestVerifyWorkers:
    """The verify JSON and exit code do not depend on how many processes
    the trials are spread over."""

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("suite, trials", [("gptq-equiv", 1000), ("compensation", 3000), ("supportedness", 4000)])
    def test_worker_count_leaves_the_json_unchanged(self, tmp_path, monkeypatch, suite, trials, seed):
        # the verify-tiny bench commands
        runs = {n: verify_json(tmp_path, monkeypatch, n, "--suite", suite, "--trials", trials, "--seed", seed)
                for n in (1, 2, 3)}
        assert runs[1][0] == 0
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_worker_left()

    def test_worker_count_leaves_the_failing_json_unchanged(self, tmp_path, monkeypatch):
        runs = {n: verify_json(tmp_path, monkeypatch, n, "--suite", "all", "--trials", 20, "--inject-fault")
                for n in (1, 2, 3)}
        assert runs[1][0] == 1
        assert runs[2] == runs[1] and runs[3] == runs[1]
        assert_no_worker_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_numerical_failure_in_a_later_span_exits_4(self, tmp_path, monkeypatch, capsys, workers):
        from sarqc import oracles
        from sarqc.linalg import NumericalFailure

        trial = oracles._compensation_trial

        def failing(seed, t, inject_fault):
            if t == 2500:  # in the last span for every worker count here
                raise NumericalFailure(f"planted at trial {t}")
            return trial(seed, t, inject_fault)

        monkeypatch.setattr(oracles, "_compensation_trial", failing)
        assert verify_json(tmp_path, monkeypatch, workers, "--suite", "compensation", "--trials", 3000) == (4, b"")
        assert capsys.readouterr().err == "numerical failure: planted at trial 2500\n"
        assert_no_worker_left()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_an_earlier_spans_failure_wins_over_a_later_exception(self, tmp_path, monkeypatch, workers):
        # trial 1500 fails; trial 2500, later in serial order, raises
        from sarqc import oracles
        from sarqc.linalg import NumericalFailure

        trial = oracles._compensation_trial

        def failing(seed, t, inject_fault):
            if t == 2500:
                raise NumericalFailure(f"planted at trial {t}")
            return trial(seed, t, inject_fault or t == 1500)

        monkeypatch.setattr(oracles, "_compensation_trial", failing)
        rc, text = verify_json(tmp_path, monkeypatch, workers, "--suite", "compensation", "--trials", 3000)
        assert rc == 1
        assert json.loads(text)["suites"]["compensation"]["counterexample"]["trial"] == 1500
        assert_no_worker_left()


class TestExitCodes:
    def test_malformed_sarqc_jobs_leaves_verify_working(self, tmp_path):
        r = run_cli("verify", "--suite", "compensation", "--trials", 5, "--out", tmp_path / "v.json",
                    env={"SARQC_JOBS": "abc"})
        assert r.returncode == 0, r.stderr

    def test_malformed_sarqc_jobs_is_a_quantize_usage_error(self, tmp_path):
        lossless_manifest(tmp_path)
        r = run_cli("quantize", "--manifest", tmp_path / "m.json", "--method", "rtn", "--out", tmp_path / "q",
                    env={"SARQC_JOBS": "abc"})
        assert r.returncode == 2
        assert "--jobs" in r.stderr and "Traceback" not in r.stderr

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--lambda", "--lambda-grid", "--gamma", "--gamma-grid"])
    @pytest.mark.parametrize("method", ["rtn", "awq", "gptq", "sarqc-gs", "sarqc-gbs"])
    def test_non_finite_hyperparameter_exits_2(self, tmp_path, capsys, method, flag, value):
        from sarqc import cli

        lossless_manifest(tmp_path)
        arg = f"0.25,{value}" if flag.endswith("-grid") else value
        with pytest.raises(SystemExit) as exc:
            cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method,
                      f"{flag}={arg}", "--out", str(tmp_path / "q")])
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "q" / "report.json").exists()

    # a negative grid entry is written with "=", or argparse reads it as a flag
    @pytest.mark.parametrize(
        "flags, name",
        [
            (["--lambda", "-0.5"], "lambda"),
            (["--lambda-grid", "0.5,0.2"], "lambda_grid"),
            (["--lambda-grid=-1,0.5"], "lambda_grid"),
            (["--gamma-grid", "0.5,1.5"], "gamma_grid"),
            (["--gamma", "1.5", "--lambda", "0.5"], "gamma"),
            (["--block", "0"], "block"),
            (["--val-fraction", "1.5"], "val_fraction"),
            (["--val-fraction", "0"], "val_fraction"),
            (["--val-fraction", "nan"], "val_fraction"),
        ],
        ids=["negative-lambda", "unsorted-lambda-grid", "negative-lambda-grid", "gamma-grid-above-1",
             "gamma-above-1", "block-0", "val-fraction-1.5", "val-fraction-0", "val-fraction-nan"],
    )
    @pytest.mark.parametrize("method", ["rtn", "awq", "gptq", "sarqc-gs", "sarqc-gbs"])
    def test_invalid_hyperparameter_exits_2_for_every_method(self, tmp_path, capsys, method, flags, name):
        # every method checks every hyperparameter, whether it reads it or
        # not, before --out is touched: a complete earlier run there survives
        from sarqc import cli

        lossless_manifest(tmp_path)
        args = ["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method, "--out", str(tmp_path / "q")]
        assert cli.main(args) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "q").iterdir()}
        assert "report.json" in before
        capsys.readouterr()
        assert cli.main([*args, *flags]) == 2
        assert capsys.readouterr().err.startswith(f"error: {name} must ")
        assert {p.name: p.read_bytes() for p in (tmp_path / "q").iterdir()} == before

    @pytest.mark.parametrize(
        "key, value",
        [("group_size", 4.5), ("group_size", [1]), ("group_size", True), ("group_size", "per_row"),
         ("bits", 4.5), ("bits", "4"), ("mode", [1])],
    )
    def test_bad_manifest_scheme_exits_2_before_out_is_touched(self, tmp_path, capsys, key, value):
        # the scheme is built before --out is touched: a complete earlier run there survives
        from sarqc import cli

        lossless_manifest(tmp_path)
        args = ["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn", "--out", str(tmp_path / "q")]
        assert cli.main(args) == 0
        before = {p.name: p.read_bytes() for p in (tmp_path / "q").iterdir()}
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["defaults"]["scheme"] = {key: value}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert cli.main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert {p.name: p.read_bytes() for p in (tmp_path / "q").iterdir()} == before

    @pytest.mark.parametrize(
        "key, value, message",
        [("group_size", 4.5, "group_size must be an integer"), ("group_size", 0, "group_size must be >= 1"),
         ("group_size", "per_row", "group_size must be an integer"), ("method", "foo", 'spec "method" must be'),
         ("n", 1, "calibration batch needs at least 2 columns"), ("m_x", -1, "m_x must be positive"),
         ("m_x", "1", 'spec "m_x" must be a number'), ("val_fraction", 1.5, "val_fraction must lie in (0, 1)"),
         ("d_out", 0, "layer dimensions must be positive")],
    )
    def test_bad_gen_defaults_exit_2_before_out_is_touched(self, tmp_path, capsys, key, value, message):
        # gen writes no manifest that quantize would refuse, and makes no
        # --out for a spec whose layers or calibration it cannot draw
        from sarqc import cli

        spec = gen_spec(tmp_path, layers=1, **{key: value})
        assert cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("value", [4.5, True, "8"])
    @pytest.mark.parametrize("key", ["layers", "d_out", "d_in", "n", "outlier_channels"])
    def test_non_integer_gen_shape_exits_2_before_out_is_touched(self, tmp_path, capsys, key, value):
        # refused, not truncated: "d_out": 4.5 once wrote 4-row layers
        from sarqc import cli

        spec = gen_spec(tmp_path, **{key: value})
        assert cli.main(["gen", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert capsys.readouterr().err == f'error: spec "{key}" must be an integer, got {value!r}\n'
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key", ["d_out", "d_in", "n_calib", "n_heldout", "outlier_channels", "corr_rank"])
    def test_non_integer_sweep_spec_shape_exits_2(self, tmp_path, capsys, key):
        from sarqc import cli

        p = tmp_path / "s.json"
        p.write_text(json.dumps({**TestSweep.SPEC, key: 8.7}))
        assert cli.main(["sweep", "--spec", str(p), "--seeds", "1", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f'error: spec "{key}" must be an integer, got 8.7\n'
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("method", ["sarqc-gs", "sarqc-gbs"])
    def test_sweep_block_below_one_exits_2(self, tmp_path, capsys, method):
        from sarqc import cli

        lossless_manifest(tmp_path)
        rc = cli.main(["sweep", "--manifest", str(tmp_path / "m.json"), "--method", method, "--block", "0",
                       "--out", str(tmp_path / "s.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: block must ")
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("zeroed, code", [("all", 2), ("train", 2), ("channel", 0)])
    @pytest.mark.parametrize("method", ["rtn", "awq", "gptq", "sarqc-gs", "sarqc-gbs"])
    def test_all_zero_training_split_exits_2(self, tmp_path, capsys, method, zeroed, code):
        # an all-zero X, or only its 12 training columns zeroed, is rejected
        # by every method; one all-zero input channel is not
        from sarqc import cli

        lossless_manifest(tmp_path)
        x = read_tensor(tmp_path / "x.sqt").copy()
        x[{"all": np.s_[:], "train": np.s_[:, :12], "channel": np.s_[3]}[zeroed]] = 0.0
        write_tensor(tmp_path / "x.sqt", x)
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method,
                       "--out", str(tmp_path / "q")])
        assert rc == code
        err = capsys.readouterr().err
        assert ("training split of the calibration batch is all zero" in err) == (code == 2)
        assert (tmp_path / "q" / "report.json").exists() == (code == 0)

    @pytest.mark.parametrize("command", ["quantize", "sweep"])
    def test_bad_group_size_exits_2_with_the_reason(self, tmp_path, capsys, command):
        from sarqc import cli

        lossless_manifest(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--manifest", str(tmp_path / "m.json"), "--group-size", "abc",
                      "--out", str(tmp_path / "q")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --group-size: not an integer, per_channel or per_tensor: 'abc'" in err
        assert "_parse_group_size" not in err

    def test_non_finite_report_value_exits_4_without_a_report(self, tmp_path, monkeypatch, capsys):
        from sarqc import cli

        lossless_manifest(tmp_path)
        layer_losses = cli.layer_losses

        def nan_risk(*args):
            losses, _ = layer_losses(*args)
            return losses, float("nan")

        monkeypatch.setattr(cli, "layer_losses", nan_risk)
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn",
                       "--out", str(tmp_path / "q")])
        assert rc == 4
        assert "non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "q" / "report.json").exists()

    def test_non_finite_verify_value_exits_4(self, tmp_path, monkeypatch, capsys):
        from sarqc import cli
        from sarqc.oracles import SuiteResult

        monkeypatch.setattr(cli, "run_supportedness_suite",
                            lambda trials, seed, **_: SuiteResult("supportedness", True, trials, {"gap": float("inf")}))
        rc = cli.main(["verify", "--suite", "supportedness", "--trials", "1", "--out", str(tmp_path / "v.json")])
        assert rc == 4
        assert "non-finite value" in capsys.readouterr().err
        assert not (tmp_path / "v.json").exists()

    def test_numerical_failure_maps_to_4(self, tmp_path, monkeypatch):
        from sarqc import cli
        from sarqc.linalg import NumericalFailure

        lossless_manifest(tmp_path)

        def boom(entry, method, scheme, args):
            raise NumericalFailure("synthetic failure in layer l0")

        monkeypatch.setattr(cli, "_quantize_one", boom)
        rc = cli.main(
            ["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn", "--out", str(tmp_path / "q")]
        )
        assert rc == 4

    def test_jobs_failure_names_the_failing_layer(self, tmp_path, monkeypatch, capsys):
        from sarqc import cli
        from sarqc.linalg import NumericalFailure

        rng = np.random.default_rng(6)
        entries = []
        for lid in ("l0", "l1"):
            write_tensor(tmp_path / f"{lid}.w.sqt", rng.standard_normal((4, 8)))
            write_tensor(tmp_path / f"{lid}.x.sqt", rng.standard_normal((8, 16)))
            entries.append({"layer_id": lid, "weights": f"{lid}.w.sqt", "calib": f"{lid}.x.sqt",
                            "d_out": 4, "d_in": 8, "n": 16})
        write_manifest(tmp_path / "m.json", entries, {})

        def quantize_one(entry, method, scheme, args):
            if entry["layer_id"] == "l1":  # in the forked worker
                raise NumericalFailure("synthetic failure")
            time.sleep(0.5)  # this process still runs l0 when l1 fails
            return entry["layer_id"], {}, {}

        monkeypatch.setattr(cli, "_quantize_one", quantize_one)
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn",
                       "--jobs", "2", "--out", str(tmp_path / "q")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "layer l1" in err and "layer l0" not in err

    @pytest.mark.parametrize("error, code", [("numerical", 4), ("invalid", 2)])
    def test_jobs_failure_cancels_queued_layers(self, tmp_path, monkeypatch, error, code):
        from sarqc import cli
        from sarqc.linalg import NumericalFailure

        rng = np.random.default_rng(7)
        entries = []
        for i in range(6):
            lid = f"l{i}"
            write_tensor(tmp_path / f"{lid}.w.sqt", rng.standard_normal((4, 8)))
            write_tensor(tmp_path / f"{lid}.x.sqt", rng.standard_normal((8, 16)))
            entries.append({"layer_id": lid, "weights": f"{lid}.w.sqt", "calib": f"{lid}.x.sqt",
                            "d_out": 4, "d_in": 8, "n": 16})
        write_manifest(tmp_path / "m.json", entries, {})
        marks = tmp_path / "started"
        marks.mkdir()

        def quantize_one(entry, method, scheme, args):
            (marks / entry["layer_id"]).touch()  # a forked worker's start shows here too
            if entry["layer_id"] == "l0":
                raise NumericalFailure("synthetic failure") if error == "numerical" else ValueError("synthetic")
            time.sleep(0.2)
            return entry["layer_id"], {}, {}

        monkeypatch.setattr(cli, "_quantize_one", quantize_one)
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn",
                       "--jobs", "2", "--out", str(tmp_path / "q")])
        assert rc == code
        # l0 fails first, in this process's span l0..l2; the worker that runs
        # l3..l5 is killed then, so besides l0 at most l3 and l4 have started
        started = {p.name for p in marks.iterdir()}
        assert "l0" in started and len(started) <= 1 + 2

    def test_jobs_worker_failure_ends_this_process_span(self, tmp_path, monkeypatch, capsys):
        from sarqc import cli
        from sarqc.linalg import NumericalFailure

        rng = np.random.default_rng(8)
        entries = []
        for i in range(6):
            lid = f"l{i}"
            write_tensor(tmp_path / f"{lid}.w.sqt", rng.standard_normal((4, 8)))
            write_tensor(tmp_path / f"{lid}.x.sqt", rng.standard_normal((8, 16)))
            entries.append({"layer_id": lid, "weights": f"{lid}.w.sqt", "calib": f"{lid}.x.sqt",
                            "d_out": 4, "d_in": 8, "n": 16})
        write_manifest(tmp_path / "m.json", entries, {})
        marks = tmp_path / "started"
        marks.mkdir()

        def quantize_one(entry, method, scheme, args):
            (marks / entry["layer_id"]).touch()
            if entry["layer_id"] == "l3":  # the worker's first layer
                raise NumericalFailure("synthetic failure")
            # this process's first layer ends only once the worker has exited
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None:
                time.sleep(0.005)
            return entry["layer_id"], {}, {}

        monkeypatch.setattr(cli, "_quantize_one", quantize_one)
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn",
                       "--jobs", "2", "--out", str(tmp_path / "q")])
        assert rc == 4
        assert "layer l3" in capsys.readouterr().err
        # this process's span is l0..l2: it stops after l0 instead of running l1 and l2
        assert {p.name for p in marks.iterdir()} == {"l0", "l3"}
        assert not (tmp_path / "q" / "report.json").exists()

    @staticmethod
    def quantize_rank_one(tmp_path, scale, method, flags):
        """(exit code, warnings) of quantize on the lossless layer with every
        entry of X ±scale, one sign per column, so XXᵀ has rank 1 and every
        entry 12·scale²."""
        from sarqc import cli

        lossless_manifest(tmp_path)
        signs = np.where(np.random.default_rng(5).standard_normal(16) < 0.0, -1.0, 1.0)
        write_tensor(tmp_path / "x.sqt", scale * np.ones((8, 1)) * signs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method, *flags,
                           "--out", str(tmp_path / "q")])
        return rc, [str(w.message) for w in caught]

    GBS_FLAGS = [[], ["--lambda", "0.5"], ["--lambda", "0.5", "--saliency", "identity"]]

    @pytest.mark.parametrize(
        "method, flags, scale",
        [pytest.param("gptq", [], 3e153, id="gptq-flags0-3e+153")]
        + [
            pytest.param("sarqc-gbs", flags, 3e153, id=f"sarqc-gbs-flags{i}-3e+153")
            for i, flags in enumerate(GBS_FLAGS, 1)
        ],
    )
    def test_activations_near_the_float_range_exit_4(self, tmp_path, capsys, method, flags, scale):
        # the Gram entries 12·scale² are past half the float64 range
        assert self.quantize_rank_one(tmp_path, scale, method, flags) == (4, [])
        assert "numerical failure" in capsys.readouterr().err

    def test_gptq_near_the_float_range_takes_a_finite_jitter(self, tmp_path):
        # the Gram diagonal 5.808e307 sums past the float64 range, but its
        # first jitter, 1e-6 times its mean, is finite
        assert self.quantize_rank_one(tmp_path, 2.2e153, "gptq", []) == (0, [])
        layer = json.loads((tmp_path / "q" / "report.json").read_text())["layers"][0]
        assert all(math.isfinite(v) for v in layer["losses"].values())
        assert math.isfinite(layer["heldout_risk"])
        assert layer["factor"]["retries"] == 1
        assert layer["factor"]["jitter"] == pytest.approx(1e-6 * 12 * 2.2e153**2, rel=1e-12)

    @pytest.mark.parametrize("flags", [pytest.param(f, id=f"flags{i}") for i, f in enumerate(GBS_FLAGS, 1)])
    def test_sarqc_gbs_near_the_float_range_takes_a_finite_h_bar(self, tmp_path, flags):
        # the same diagonal: its mean h̄, which scales the gbs damping, is
        # finite although the plain sum of the diagonal overflows
        assert self.quantize_rank_one(tmp_path, 2.2e153, "sarqc-gbs", flags) == (0, [])
        layer = json.loads((tmp_path / "q" / "report.json").read_text())["layers"][0]
        assert all(math.isfinite(v) for v in layer["losses"].values())
        assert math.isfinite(layer["heldout_risk"])
        assert layer["factor"]["retries"] == 0

    @pytest.mark.parametrize("method", ["gptq", "sarqc-gbs"])
    def test_overflowing_activations_exit_4(self, tmp_path, method, capsys):
        from sarqc import cli

        lossless_manifest(tmp_path)
        write_tensor(tmp_path / "x.sqt", 1e160 * read_tensor(tmp_path / "x.sqt"))
        rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", method,
                       "--out", str(tmp_path / "q")])
        assert rc == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_int32_overflowing_bits_exit_2(self, tmp_path):
        from sarqc import cli

        lossless_manifest(tmp_path)
        for bits, mode in ((32, "asym"), (33, "sym")):
            rc = cli.main(["quantize", "--manifest", str(tmp_path / "m.json"), "--method", "rtn",
                           "--bits", str(bits), "--mode", mode, "--out", str(tmp_path / "q")])
            assert rc == 2

    @pytest.mark.parametrize(
        "command, doc",
        [
            ("gen", [1, 2]),
            ("sweep", [1, 2]),
            ("quantize", [1, 2]),
            ("quantize", {"schema": 1, "layers": [5]}),
            ("quantize", {"schema": 1, "layers": "valid", "defaults": [1]}),
            ("quantize", {"schema": 1, "layers": "valid", "defaults": {"scheme": 4}}),
        ],
    )
    def test_non_object_json_maps_to_3(self, tmp_path, command, doc, capsys):
        from sarqc import cli

        lossless_manifest(tmp_path)
        if isinstance(doc, dict) and doc["layers"] == "valid":
            doc = {**doc, "layers": json.loads((tmp_path / "m.json").read_text())["layers"]}
        p = tmp_path / "doc.json"
        p.write_text(json.dumps(doc))
        if command == "quantize":
            args = ["quantize", "--manifest", str(p), "--method", "rtn"]
        else:
            args = [command, "--spec", str(p)]
        assert cli.main([*args, "--out", str(tmp_path / "o")]) == 3
        assert "object" in capsys.readouterr().err

    def test_missing_manifest_maps_to_3(self, tmp_path):
        r = run_cli("quantize", "--manifest", tmp_path / "missing.json", "--method", "rtn", "--out", tmp_path / "q")
        assert r.returncode == 3
