"""sarqc benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload gs-select --seed 1 --seconds 25 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed; the program is then run as a user runs it, one process per command
started as the `sarqc` console script starts (bench/launch.py), in rounds
until --seconds are used. Every round's outputs are checked. With
--trace 0 the last line of stdout is a JSON
object with the end-to-end metrics (medians over rounds); with --trace 1 the
commands run in this process through `sarqc.cli.main`, alternating untraced
rounds with rounds traced by `tracer.Tracer`, and the metrics are the
per-layer ones. `--write-spec` regenerates BENCHMARK.json and
bench/predictions.json from spec.py.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child, so BLAS runs one
# thread; the program's own pin in sarqc/cli.py comes after numpy is loaded.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)
# The program reads its default --jobs from here; the workloads set --jobs themselves.
os.environ.pop("SARQC_JOBS", None)

import argparse
import dataclasses
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

import spec
from checks import check_quantize, check_verify
from inputs import write_manifest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_out"
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no program, or a traced function went missing."""


@dataclasses.dataclass
class Context:
    workload: str
    seed: int
    work: Path
    manifest: Path | None
    layers: list[dict]
    digests: list[str] | None = None


@dataclasses.dataclass
class Round:
    wall: float = 0.0
    solve: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    ops: int = 0
    failed: int = 0
    risks: list[float] = dataclasses.field(default_factory=list)
    digests: list[str] = dataclasses.field(default_factory=list)
    layer_weights: int = 0
    trials: int = 0


def _flag(cmd: list[str], name: str) -> str:
    return cmd[cmd.index(name) + 1]


def run_round(ctx: Context, execute) -> Round:
    """Run every command of the workload once and check its outputs.

    execute(argv) returns (exit code, wall s, s inside sarqc.cli.main, CPU s, max RSS MiB).
    """
    r = Round()
    for i, cmd in enumerate(spec.WORKLOADS[ctx.workload]["commands"]):
        out = ctx.work / f"out{i}"
        shutil.rmtree(out, ignore_errors=True)
        if cmd[0] == "quantize":
            argv = [*cmd, "--manifest", str(ctx.manifest), "--out", str(out)]
            ops = len(ctx.layers)
        else:
            out.mkdir(parents=True)
            argv = [*cmd, "--seed", str(ctx.seed), "--out", str(out / "verify.json")]
            ops = 1
        rc, wall, solve, cpu, rss_mb = execute(argv)
        risks: list[float] = []
        if rc != 0:
            problems, digest = [f"exit code {rc}"], ""
        elif cmd[0] == "quantize":
            problems, digest, risks = check_quantize(out, ctx.layers, _flag(cmd, "--method"))
        else:
            problems, digest = check_verify(out / "verify.json", _flag(cmd, "--suite"), int(_flag(cmd, "--trials")))
        if not problems and ctx.digests is not None and digest != ctx.digests[i]:
            problems = ["output digest differs from the first round"]
        for p in problems:
            print(f"check failed: {' '.join(cmd)}: {p}", file=sys.stderr)
        r.wall += wall
        r.solve += solve
        r.cpu += cpu
        r.rss_mb = max(r.rss_mb, rss_mb)
        r.ops += ops
        r.failed += ops if problems else 0
        r.risks += risks
        r.digests.append(digest)
        if cmd[0] == "quantize":
            r.layer_weights += sum(entry["d_out"] * entry["d_in"] for entry in ctx.layers)
        else:
            r.trials += int(_flag(cmd, "--trials"))
    if ctx.digests is None and not r.failed:
        ctx.digests = r.digests
    return r


def rounds_for(seconds: float, one_round) -> list:
    """Call one_round() until the next call would overrun seconds (at least once)."""
    results = []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(one_round())
        last = time.perf_counter() - t
        if time.perf_counter() - t0 + last > seconds:
            return results


# ---------------------------------------------------------------------------
# untraced: one process per command


def child_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[int, float, float, float]:
    """Run one child to completion: (exit code, wall s, CPU s, max RSS MiB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=child_env(), stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.stderr.write(f"$ {' '.join(argv)} exited {code}:\n{log.read_text(errors='replace')[-2000:]}\n")
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def measure_setup(ctx: Context, deadline: float) -> float:
    """Median wall time of a fresh interpreter importing sarqc.cli and loading the manifest."""
    code = "import sys, sarqc.cli as c\nif len(sys.argv) > 1: c.load_manifest(sys.argv[1])"
    argv = ["-c", code] + ([str(ctx.manifest)] if ctx.manifest else [])
    times = []
    for _ in range(spec.SETUP_REPEATS):
        rc, wall, _, _ = spawn(argv, ctx.work / "setup.log", deadline)
        if rc != 0:
            raise BenchError("the program does not import; see the log above")
        times.append(wall)
    return statistics.median(times)


def untraced(ctx: Context, seconds: float, deadline: float) -> tuple[dict, list[Round], dict]:
    setup_s = measure_setup(ctx, deadline)
    timing = ctx.work / "timing.json"

    def execute(argv):
        timing.unlink(missing_ok=True)
        rc, wall, cpu, rss_mb = spawn([str(HERE / "launch.py"), str(timing), *argv], ctx.work / "cmd.log", deadline)
        solve = json.loads(timing.read_text())["main_s"] if rc == 0 and timing.exists() else wall
        return rc, wall, solve, cpu, rss_mb

    rounds = rounds_for(seconds, lambda: run_round(ctx, execute))
    med = lambda f: statistics.median(f(r) for r in rounds)
    solve_s = med(lambda r: r.solve)
    metrics = {
        "setup_s": setup_s,
        "wall_s": med(lambda r: r.wall),
        "solve_s": solve_s,
        "peak_rss_mb": med(lambda r: r.rss_mb),
    }
    info = {
        "rounds": len(rounds),
        "round_wall_s": [r.wall for r in rounds],
        "failed_frac": sum(r.failed for r in rounds) / sum(r.ops for r in rounds),
    }
    if rounds[0].layer_weights:
        info["weights_per_s"] = rounds[0].layer_weights / solve_s
        info["heldout_risk"] = statistics.fmean(rounds[0].risks) if rounds[0].risks else float("nan")
    if rounds[0].trials:
        info["trials_per_s"] = rounds[0].trials / solve_s
    return metrics, rounds, info


# ---------------------------------------------------------------------------
# traced: in-process rounds through sarqc.cli.main


def traced(ctx: Context, seconds: float) -> tuple[dict, list[Round], dict]:
    sys.path.insert(0, str(SRC))
    import sarqc.cli as cli
    from tracer import Tracer

    def in_process(tracer):
        def execute(argv):
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                rc = tracer.root(cli.main, argv) if tracer else cli.main(argv)
            except Exception:  # a crash fails this command's operations, as a non-zero exit would
                traceback.print_exc()
                rc = 1
            wall = time.perf_counter() - w0
            return rc, wall, wall, time.process_time() - c0, 0.0
        return execute

    per_layer = [m["name"] for m in spec.PER_LAYER]
    samples: list[dict] = []
    walls = {"plain": [], "traced": []}
    rounds: list[Round] = []
    last: Tracer | None = None

    def pair():
        nonlocal last
        plain = run_round(ctx, in_process(None))
        with Tracer() as tr:
            r = run_round(ctx, in_process(tr))
        counts = tr.call_counts()
        missing = [fn for fn in spec.EXPECTED_CALLS[ctx.workload] if not counts.get(fn)]
        if missing:
            raise BenchError(f"traced run recorded no calls of {missing} on {ctx.workload}")
        m = tr.metrics(per_layer)
        m["cli.cpu_per_wall"] = r.cpu / r.wall
        samples.append(m)
        walls["plain"].append(plain.wall)
        walls["traced"].append(r.wall)
        rounds.extend([plain, r])
        last = tr

    # The first in-process round pays one-off costs (lazy imports, heap
    # growth) that would otherwise land on the untraced side of the ratio.
    t0 = time.perf_counter()
    rounds.append(run_round(ctx, in_process(None)))
    rounds_for(seconds - (time.perf_counter() - t0), pair)
    metrics = {name: statistics.median(s[name] for s in samples) for name in per_layer if name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(walls["traced"]) / statistics.median(walls["plain"]) - 1.0
    TRACES.mkdir(exist_ok=True)
    spans_file = TRACES / f"{ctx.workload}.spans.json"
    spans_file.write_text(json.dumps({
        "workload": ctx.workload, "seed": ctx.seed, "fields": ["id", "name", "start", "end", "parent", "context"],
        "spans": last.spans,
    }))
    return metrics, rounds, {"pairs": len(samples), "spans_file": str(spans_file.relative_to(ROOT))}


# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {k: os.environ[k] for k in BLAS_THREADS},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "seed": seed,
    }


def prepare(workload: str, seed: int) -> Context:
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    shape = spec.WORKLOADS[workload]["layers"]
    if shape is None:
        return Context(workload, seed, work, None, [])
    manifest = write_manifest(work / "inputs", seed, shape["count"], shape["d_out"], shape["d_in"], shape["n"], "layer")
    layers = json.loads(manifest.read_text())["layers"]
    return Context(workload, seed, work, manifest, layers)


def write_spec() -> None:
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n")
    (HERE / "predictions.json").write_text(json.dumps(spec.predictions_json(), indent=2) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json and bench/predictions.json")
    args = p.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if not (SRC / "sarqc" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'sarqc'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be non-negative")

    deadline = time.monotonic() + DEADLINE_S
    print("env " + json.dumps(environment(args.seed)))
    ctx = prepare(args.workload, args.seed)
    try:
        if args.trace:
            metrics, rounds, info = traced(ctx, args.seconds)
            units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        else:
            metrics, rounds, info = untraced(ctx, args.seconds, deadline)
            units = {m["name"]: m["unit"] for m in spec.END_TO_END}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    for name, value in info.items():
        unit = spec.INFORMATIONAL.get(name, ("",))[0]
        print(f"info {name} {value} {unit}".rstrip())
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
