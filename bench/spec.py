"""Workloads, metrics, bounds and predictions: the one source for BENCHMARK.json.

`python3 bench/run.py --write-spec` regenerates BENCHMARK.json at the
repository root and bench/predictions.json from this module.
"""

from __future__ import annotations

RUN_SECONDS = 25
SETUP_REPEATS = 7

# Commands run one at a time, each in a fresh interpreter with BLAS pinned to
# one thread; `--jobs 2` is the most threads any command asks for, so a
# 2-core machine never runs more threads than it has cores.
WORKLOADS = {
    "gbs-select-wide": {
        "why": "sarqc-gbs with default (lambda, gamma) selection on 512x2048, n=512: "
               "the factorization-heavy path, 13 inverse-Cholesky factors per layer; no GS code runs",
        "layers": {"count": 1, "d_out": 512, "d_in": 2048, "n": 512},
        "commands": [["quantize", "--method", "sarqc-gbs"]],
    },
    "gs-select": {
        "why": "sarqc-gs with default lambda selection on 256x512, n=256: 210 scaled candidates "
               "and Frobenius losses per layer, no factorization",
        "layers": {"count": 1, "d_out": 256, "d_in": 512, "n": 256},
        "commands": [["quantize", "--method", "sarqc-gs"]],
    },
    "baselines-jobs2": {
        "why": "rtn then gptq with --jobs 2 on 6 layers of 512x1024, n=256: no hyperparameter "
               "search, so grid reuse is bypassed; layer pool, tensor I/O and losses show",
        "layers": {"count": 6, "d_out": 512, "d_in": 1024, "n": 256},
        "commands": [["quantize", "--method", "rtn", "--jobs", "2"],
                     ["quantize", "--method", "gptq", "--jobs", "2"]],
    },
    "verify-tiny": {
        "why": "gptq-equiv, compensation and supportedness suites: the solver code on thousands "
               "of d <= 64 problems, where per-call overhead dominates",
        "layers": None,
        "commands": [["verify", "--suite", "gptq-equiv", "--trials", "1000"],
                     ["verify", "--suite", "compensation", "--trials", "3000"],
                     ["verify", "--suite", "supportedness", "--trials", "4000"]],
    },
}

# Gated metrics: every workload reports each of them.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

# Printed on the human-readable lines of an untraced run where they apply.
INFORMATIONAL = {
    "weights_per_s": ("weights/s", "sum of d_out*d_in over every quantized layer of every command / solve_s"),
    "trials_per_s": ("trials/s", "verification trials / solve_s"),
    "heldout_risk": ("sq_err", "mean heldout_risk over every layer of the run's report.json files"),
    "failed_frac": ("ratio", "failed operations / attempted"),
}

_FUNCS = {
    "linalg.chol_upper_of_inverse": ["ms", "calls", "gflop", "jitter_retries"],
    "linalg.gram": ["ms", "calls", "useful_ratio"],
    "gbs.profile_for": ["ms", "calls"],
    "saliency.channel_stats": ["ms", "calls", "useful_ratio"],
    "gbs.run_gbs": ["ms", "self_ms", "calls", "columns"],
    "gbs.build_curvature": ["ms"],
    "gbs.select_hparams_gbs": ["self_ms"],
    "linalg.frobenius_sq": ["ms", "calls", "melems"],
    "objective.recon_loss": ["self_ms", "calls"],
    "objective.sar_loss": ["self_ms", "calls"],
    "objective.weight_drift": ["self_ms", "calls"],
    "gs.candidate": ["ms", "calls", "useful_ratio"],
    "gs.run_gs": ["self_ms"],
    "gs.select_lambda_gs": ["ms"],
    "quantizer.quantize_matrix": ["ms", "calls"],
    "tensorio.read_tensor": ["ms", "calls", "mb"],
    "tensorio.write_tensor": ["ms", "calls", "mb"],
    "tensorio.load_manifest": ["ms"],
    "oracles.run_gptq_equiv_suite": ["ms", "calls"],
    "oracles.run_compensation_suite": ["ms", "calls"],
    "oracles.run_supportedness_suite": ["ms", "calls"],
    "oracles.greedy_sequential_reference": ["ms", "calls"],
}

_STAT_UNITS = {
    "ms": ("ms", "lower"),
    "self_ms": ("ms", "lower"),
    "calls": ("count", "lower"),
    "useful_ratio": ("ratio", "higher"),
    "gflop": ("GFLOP-computed", "lower"),
    "jitter_retries": ("count", "lower"),
    "columns": ("count", "lower"),
    "melems": ("Melem", "lower"),
    "mb": ("MB", "lower"),
}

PER_LAYER = [
    {"name": f"{fn}.{stat}", "unit": _STAT_UNITS[stat][0], "better": _STAT_UNITS[stat][1]}
    for fn, stats in _FUNCS.items()
    for stat in stats
] + [
    {"name": "cli.cpu_per_wall", "unit": "ratio", "better": "higher"},
    {"name": "cli.layer_ms.p50", "unit": "ms", "better": "lower"},
    {"name": "cli.layer_ms.max", "unit": "ms", "better": "lower"},
    {"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"},
]

# Functions the traced run must see called at least once on each workload.
EXPECTED_CALLS = {
    "gbs-select-wide": ["linalg.chol_upper_of_inverse", "linalg.gram", "gbs.profile_for",
                        "saliency.channel_stats", "gbs.run_gbs", "gbs.build_curvature",
                        "gbs.select_hparams_gbs", "linalg.frobenius_sq", "objective.recon_loss",
                        "tensorio.read_tensor", "tensorio.write_tensor", "tensorio.load_manifest"],
    "gs-select": ["linalg.frobenius_sq", "objective.recon_loss", "objective.sar_loss",
                  "objective.weight_drift", "gs.candidate", "gs.run_gs", "gs.select_lambda_gs",
                  "quantizer.quantize_matrix", "saliency.channel_stats",
                  "tensorio.read_tensor", "tensorio.write_tensor", "tensorio.load_manifest"],
    "baselines-jobs2": ["linalg.chol_upper_of_inverse", "linalg.gram", "gbs.run_gbs",
                        "gbs.build_curvature", "gbs.profile_for", "quantizer.quantize_matrix",
                        "tensorio.read_tensor", "tensorio.write_tensor", "tensorio.load_manifest"],
    "verify-tiny": ["oracles.run_gptq_equiv_suite", "oracles.run_compensation_suite",
                    "oracles.run_supportedness_suite", "oracles.greedy_sequential_reference",
                    "gbs.run_gbs", "gbs.build_curvature", "linalg.chol_upper_of_inverse",
                    "linalg.gram"],
}

# Which per-layer metric should move which end-to-end metric, on which
# workload, and where it should not move. Later performance changes cite
# these names.
PREDICTIONS = [
    {"per_layer": "linalg.chol_upper_of_inverse.{ms,calls,gflop,jitter_retries}",
     "moves": "solve_s (weights_per_s)", "on": ["gbs-select-wide", "baselines-jobs2"],
     "no_change_on": "gs-select (0 calls); solve_s (trials_per_s) on verify-tiny must not worsen"},
    {"per_layer": "linalg.gram.{ms,calls,useful_ratio}, gbs.profile_for.{ms,calls}, "
                  "saliency.channel_stats.{ms,calls,useful_ratio}",
     "moves": "solve_s (weights_per_s)", "on": ["gbs-select-wide"], "no_change_on": "gs-select"},
    {"per_layer": "gbs.run_gbs.{ms,self_ms,calls,columns}, gbs.build_curvature.ms, "
                  "gbs.select_hparams_gbs.self_ms",
     "moves": "solve_s (weights_per_s / trials_per_s)",
     "on": ["gbs-select-wide", "baselines-jobs2", "verify-tiny"], "no_change_on": "gs-select"},
    {"per_layer": "linalg.frobenius_sq.{ms,calls,melems}, "
                  "objective.{recon_loss,sar_loss,weight_drift}.{self_ms,calls}",
     "moves": "solve_s (weights_per_s)", "on": ["gs-select"], "no_change_on": "small share elsewhere"},
    {"per_layer": "gs.candidate.{ms,calls,useful_ratio}, gs.run_gs.self_ms, gs.select_lambda_gs.ms, "
                  "quantizer.quantize_matrix.{ms,calls}",
     "moves": "solve_s (weights_per_s)", "on": ["gs-select"],
     "no_change_on": "gbs-select-wide, baselines-jobs2"},
    {"per_layer": "tensorio.{read_tensor,write_tensor}.{ms,calls,mb}, tensorio.load_manifest.ms",
     "moves": "wall_s, setup_s", "on": ["baselines-jobs2"], "no_change_on": "-"},
    {"per_layer": "cli.cpu_per_wall, cli.layer_ms.{p50,max}",
     "moves": "solve_s (weights_per_s)", "on": ["baselines-jobs2"],
     "no_change_on": "the --jobs 1 workloads"},
    {"per_layer": "oracles.{run_gptq_equiv_suite,run_compensation_suite,run_supportedness_suite,"
                  "greedy_sequential_reference}.{ms,calls}",
     "moves": "solve_s (trials_per_s)", "on": ["verify-tiny"], "no_change_on": "quantize workloads (0 calls)"},
    {"per_layer": "trace.overhead_frac", "moves": "-", "on": [],
     "no_change_on": "traced wall / untraced wall - 1, per workload"},
]

NOTES = {
    "solve_s": "wall time inside sarqc.cli.main, timed in each command's own process by bench/launch.py "
               "(interpreter start and import excluded; the ms-scale manifest load included), summed over "
               "the workload's commands, median over rounds; weights_per_s and trials_per_s are fixed work "
               "divided by it",
    "setup_s": "fresh interpreter importing sarqc.cli and running load_manifest on the workload's "
               f"manifest (import only for verify-tiny); median of {SETUP_REPEATS} per run",
    "wall_s": "wall time of the workload's commands end to end, set-up included (median over rounds)",
    "peak_rss_mb": "ru_maxrss of the largest command process (median over rounds)",
    "gflop": "computed from the dimensions as (8/3)*d^3 per call, not measured",
    "self_ms": "inclusive time minus the part of the span covered by wrapped child spans",
    "useful_ratio": "distinct argument contents / calls",
    "trace.overhead_frac": "median traced in-process round / median untraced in-process round - 1",
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def predictions_json() -> dict:
    return {
        "informational": {k: {"unit": u, "meaning": m} for k, (u, m) in INFORMATIONAL.items()},
        "notes": NOTES,
        "expected_calls": EXPECTED_CALLS,
        "predictions": PREDICTIONS,
    }
