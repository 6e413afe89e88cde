"""Batch calibration pipeline: generate synthetic layers, quantize manifests,
sweep regularization grids, and run the verification suites.

Exit codes: 0 success, 1 verification-suite failure, 2 invalid arguments,
3 I/O or parse failure, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import check_val_fraction, split_batch
from .forks import map_trials, never
from .gbs import BLOCK_DEFAULT, GAMMA_GRID_DEFAULT, LAMBDA_GRID_GBS_DEFAULT
from .gs import ALPHA_GRID_DEFAULT, LAMBDA_GRID_GS_DEFAULT
from .harness import (
    CORR_RANK,
    CORR_STRENGTH,
    METHODS,
    SWEEP_METHODS,
    UNCLIPPED,
    SynthLayerSpec,
    check_calibration_args,
    check_hparams,
    gen_calibration,
    gen_layer,
    layer_losses,
    solve,
    sweep_lambda,
    sweep_layer,
)
from .linalg import NumericalFailure, scipy_build
from .oracles import (
    run_compensation_suite,
    run_gptq_equiv_suite,
    run_hoeffding_suite,
    run_supportedness_suite,
)
from .quantizer import PER_CHANNEL, PER_TENSOR, QuantScheme, _integer
from .seeds import substream
from .tensorio import ManifestError, TensorFormatError, load_manifest, read_tensor, write_manifest, write_tensor

SUITES = ("compensation", "supportedness", "hoeffding", "gptq-equiv")
SUITE_DEFAULT_TRIALS = {"compensation": 500, "supportedness": 1000, "hoeffding": 2000, "gptq-equiv": 100}


class UsageError(ValueError):
    pass


def _parse_group_size(text: str):
    # ArgumentTypeError, so argparse names the flag, gives the reason and exits 2
    if text in (PER_CHANNEL, PER_TENSOR):
        return text
    try:
        return int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer, {PER_CHANNEL} or {PER_TENSOR}: {text!r}") from exc


def _finite_float(text: str) -> float:
    # ArgumentTypeError, so argparse names the flag and exits 2
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _parse_grid(text: str) -> tuple[float, ...]:
    return tuple(_finite_float(v) for v in text.split(","))


def _scheme_from(args, defaults: dict) -> QuantScheme:
    dscheme = defaults.get("scheme", {})
    bits = args.bits if args.bits is not None else dscheme.get("bits", 4)
    mode = args.mode if args.mode is not None else dscheme.get("mode", "asym")
    group = args.group_size if args.group_size is not None else dscheme.get("group_size", 128)
    # a manifest's mode may be any JSON value; only a string can name one
    mode_full = {"sym": "symmetric", "asym": "asymmetric"}.get(mode, mode) if isinstance(mode, str) else mode
    return QuantScheme(bits=bits, mode=mode_full, group_size=group)


def _default_grids() -> dict:
    return {
        "alpha": list(ALPHA_GRID_DEFAULT),
        "lambda_gs": list(LAMBDA_GRID_GS_DEFAULT),
        "lambda_gbs": list(LAMBDA_GRID_GBS_DEFAULT),
        "gamma": list(GAMMA_GRID_DEFAULT),
    }


def _json_text(doc: dict) -> str:
    """doc as standard JSON; a NaN or infinite value raises NumericalFailure
    (exit 4) instead of being written as non-standard JSON."""
    try:
        return json.dumps(doc, indent=2, default=float, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericalFailure(f"non-finite value in the output JSON: {exc}") from exc


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _versions() -> dict:
    # Gram bytes depend on numpy's BLAS and its thread count, factor bytes on
    # scipy's LAPACK, so all of them belong to the replay config. scipy's are
    # read from its files; the scipy package is not imported.
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy_version, lapack = scipy_build()
    return {
        "sarqc": __version__,
        "numpy": np.__version__,
        "scipy": scipy_version,
        "python": platform.python_version(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        },
        "lapack": {"name": lapack.get("name"), "version": lapack.get("version")},
    }


# ---------------------------------------------------------------------------
# quantize


def _quantize_one(entry: dict, method: str, scheme: QuantScheme, args) -> tuple[str, dict, dict]:
    w = read_tensor(entry["weights"])
    batch = split_batch(read_tensor(entry["calib"]), args.val_fraction)
    t0 = time.perf_counter()
    sol = solve(
        method,
        w,
        batch,
        scheme,
        lam=args.lam,
        gamma=args.gamma,
        lambda_grid=args.lambda_grid,
        gamma_grid=args.gamma_grid,
        block=args.block,
        saliency=args.saliency,
    )
    wall_ms = (time.perf_counter() - t0) * 1000.0
    losses, heldout_risk = layer_losses(w, sol, batch.train, batch.val)
    factor = sol.factor._asdict() if sol.factor is not None else None  # gptq and sarqc-gbs only
    report = {
        "layer_id": entry["layer_id"],
        "method": method,
        "chosen_lambda": sol.lam,
        "chosen_gamma": sol.gamma,
        "chosen_alpha": sol.alpha,
        "losses": {"recon": losses.recon, "sar": losses.sar, "drift": losses.drift},
        "heldout_risk": heldout_risk,
        "factor": factor,
        "wall_time_ms": wall_ms,
    }
    tensors = {
        "codes": sol.layer.codes,
        "scales": sol.layer.scales,
        "zeros": sol.layer.zero_points,
        "dequant": sol.layer.dequantized,
    }
    if sol.layer.channel_scale is not None:  # awq and sarqc-gs: codes live in the scaled weight space
        tensors["chscale"] = sol.layer.channel_scale
    return entry["layer_id"], tensors, report


def _quantize_and_write(entry: dict, method: str, scheme: QuantScheme, args, out: Path) -> dict:
    """Quantize one layer and write its tensors in the same process, so a
    finished layer holds no memory once it is written; returns its report."""
    layer_id, tensors, report = _quantize_one(entry, method, scheme, args)
    for name, arr in tensors.items():
        write_tensor(out / f"{layer_id}.{name}.sqt", arr)
    return report


def cmd_quantize(args) -> int:
    if args.jobs < 1:  # checked before --out is touched, so an earlier run's report survives
        raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
    manifest = load_manifest(args.manifest)
    defaults = manifest.get("defaults", {})
    method = args.method if args.method is not None else defaults.get("method", "sarqc-gbs")
    scheme = _scheme_from(args, defaults)
    # each layer checks these again; checked here, a bad value leaves --out untouched
    check_hparams(method, (args.lam,), args.gamma, args.lambda_grid, args.gamma_grid, args.block, args.saliency)
    check_val_fraction(args.val_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    # report.json marks a complete run; a failed run must not leave an earlier one beside its tensors
    (out / "report.json").unlink(missing_ok=True)

    # the layers run on min(--jobs, layers) processes; a failure in any of
    # them ends the run as soon as this process sees it
    layers = manifest["layers"]

    def quantize_layer(t: int) -> dict:
        try:
            return _quantize_and_write(layers[t], method, scheme, args, out)
        except NumericalFailure as exc:
            raise NumericalFailure(f"numerical failure in layer {layers[t]['layer_id']}: {exc}") from None

    jobs = min(args.jobs, len(layers))
    try:
        reports = list(map_trials(quantize_layer, len(layers), never, processes=jobs, fail_fast=True))
    except NumericalFailure as exc:
        print(exc, file=sys.stderr)
        return 4
    report_layers = sorted(reports, key=lambda r: r["layer_id"])

    group_size = scheme.group_size
    run_report = {
        "schema": 1,
        "seed": args.seed,
        "versions": _versions(),
        "config": {
            "command": "quantize",
            "manifest": str(args.manifest),
            "method": method,
            "bits": scheme.bits,
            "group_size": group_size,
            "mode": {"symmetric": "sym", "asymmetric": "asym"}[scheme.mode],
            "lambda": args.lam,
            "lambda_grid": list(args.lambda_grid) if args.lambda_grid else None,
            "gamma": args.gamma,
            "gamma_grid": list(args.gamma_grid) if args.gamma_grid else None,
            "alpha_grid": list(ALPHA_GRID_DEFAULT),
            "block": args.block,
            "saliency": args.saliency,
            "val_fraction": args.val_fraction,
            "seed": args.seed,
            "jobs": args.jobs,
            "out": str(args.out),
            "default_grids": _default_grids(),
        },
        "layers": report_layers,
    }
    (out / "report.json").write_text(_json_text(run_report))
    return 0


# ---------------------------------------------------------------------------
# gen


def _load_spec(path) -> dict:
    spec = json.loads(Path(path).read_text())
    if not isinstance(spec, dict):
        raise ManifestError(f"{path}: spec is not a JSON object")
    return spec


def _spec_int(spec: dict, key: str, default: int) -> int:
    # a float is refused, not truncated: "d_out": 4.5 exits 2
    return _integer(f'spec "{key}"', spec.get(key, default))


def _spec_float(spec: dict, key: str, default: float) -> float:
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UsageError(f'spec "{key}" must be a number, got {value!r}')
    return float(value)


def _synth_layer_spec(spec: dict, outlier_channels: int, outlier_scale: float) -> SynthLayerSpec:
    return SynthLayerSpec(
        d_out=_spec_int(spec, "d_out", 64),
        d_in=_spec_int(spec, "d_in", 128),
        outlier_channels=_spec_int(spec, "outlier_channels", outlier_channels),
        outlier_scale=_spec_float(spec, "outlier_scale", outlier_scale),
        weight_std=_spec_float(spec, "weight_std", 1.0),
    )


def cmd_gen(args) -> int:
    # every spec key is checked before --out is touched
    spec = _load_spec(args.spec)
    n_layers = _spec_int(spec, "layers", 1)
    if n_layers < 1:
        raise UsageError(f"spec \"layers\" must be at least 1, got {n_layers}")
    layer_spec = _synth_layer_spec(spec, outlier_channels=0, outlier_scale=1.0)
    n = _spec_int(spec, "n", 128)
    m_x = _spec_float(spec, "m_x", UNCLIPPED)
    val_fraction = _spec_float(spec, "val_fraction", 0.25)
    check_calibration_args(n, m_x, val_fraction)
    # the manifest's defaults are checked as quantize reads them
    scheme = QuantScheme(bits=4, mode="asymmetric", group_size=spec.get("group_size", 128))
    method = spec.get("method", "sarqc-gbs")
    if method not in METHODS:
        raise UsageError(f"spec \"method\" must be one of {', '.join(METHODS)}, got {method!r}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    entries = []
    for i in range(n_layers):
        lid = f"layer_{i:03d}"
        lseed = int(substream(args.seed, "gen-layer", i).integers(0, 2**31))
        cseed = int(substream(args.seed, "gen-calib", i).integers(0, 2**31))
        w = gen_layer(dataclasses.replace(layer_spec, seed=lseed))
        batch = gen_calibration(layer_spec.d_in, n, m_x, cseed, val_fraction=val_fraction)
        write_tensor(out / f"{lid}.w.sqt", w)
        write_tensor(out / f"{lid}.x.sqt", batch.x)
        entries.append(
            {
                "layer_id": lid,
                "weights": f"{lid}.w.sqt",
                "calib": f"{lid}.x.sqt",
                "d_out": layer_spec.d_out,
                "d_in": layer_spec.d_in,
                "n": n,
            }
        )
    defaults = {"scheme": {"bits": scheme.bits, "mode": "asym", "group_size": scheme.group_size}, "method": method}
    write_manifest(out / "manifest.json", entries, defaults)
    return 0


# ---------------------------------------------------------------------------
# sweep


def cmd_sweep(args) -> int:
    if (args.spec is None) == (args.manifest is None):
        raise UsageError("exactly one of --spec / --manifest is required")
    lambda_grid = args.lambda_grid if args.lambda_grid else tuple(k / 10 for k in range(11))
    method = args.method.removeprefix("sarqc-")
    if method not in SWEEP_METHODS:
        raise UsageError(f"sweep supports sarqc-gs / sarqc-gbs, got {args.method!r}")
    scheme = _scheme_from(args, {})

    if args.spec is not None:
        if args.seeds < 1:
            raise UsageError(f"--seeds must be at least 1, got {args.seeds}")
        spec = _load_spec(args.spec)
        layer_spec = _synth_layer_spec(spec, outlier_channels=8, outlier_scale=8.0)
        seeds = [args.seed + i for i in range(args.seeds)]
        records = sweep_lambda(
            layer_spec,
            scheme,
            method,
            lambda_grid,
            seeds,
            n_calib=_spec_int(spec, "n_calib", 192),
            n_heldout=_spec_int(spec, "n_heldout", 512),
            m_x=_spec_float(spec, "m_x", UNCLIPPED),
            val_fraction=args.val_fraction,
            corr_rank=_spec_int(spec, "corr_rank", CORR_RANK),
            corr_strength=_spec_float(spec, "corr_strength", CORR_STRENGTH),
            gamma=args.gamma,
            block_size=args.block,
        )
        rows = [(r, "") for r in records]
    else:
        # manifest order, then grid order; the layer column tells layers apart
        rows = []
        for entry in load_manifest(args.manifest)["layers"]:
            w = read_tensor(entry["weights"])
            batch = split_batch(read_tensor(entry["calib"]), args.val_fraction)
            # held-out risk is measured on the validation split
            records = sweep_layer(
                w, batch, batch.val, scheme, method, lambda_grid, gamma=args.gamma, block_size=args.block, seed=args.seed
            )
            rows += [(r, entry["layer_id"]) for r in records]

    lines = ["lambda,gamma,recon,sar,drift,heldout_risk,method,seed,layer"]
    for r, layer_id in rows:
        gamma = "" if r.gamma is None else repr(r.gamma)
        lines.append(
            f"{r.lam!r},{gamma},{r.recon!r},{r.sar!r},{r.drift!r},{r.heldout_risk!r},{r.method},{r.seed},{layer_id}"
        )
    Path(args.out).write_text("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 1:
        raise UsageError("--trials must be >= 1")
    names = list(SUITES) if args.suite == "all" else [args.suite]
    runners = {
        "compensation": run_compensation_suite,
        "supportedness": run_supportedness_suite,
        "hoeffding": run_hoeffding_suite,
        "gptq-equiv": run_gptq_equiv_suite,
    }
    suites = {}
    for name in names:
        trials = args.trials if args.trials is not None else SUITE_DEFAULT_TRIALS[name]
        res = runners[name](trials, args.seed, inject_fault=args.inject_fault)
        suites[name] = {
            "passed": res.passed,
            "trials": res.trials,
            "details": res.details,
            "counterexample": res.counterexample,
        }
    all_passed = all(s["passed"] for s in suites.values())
    doc = {"schema": 1, "seed": args.seed, "versions": _versions(), "suites": suites}
    text = _json_text(doc)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")
    return 0 if all_passed else 1


# ---------------------------------------------------------------------------
# parser / entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sarqc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_flags(p):
        p.add_argument("--bits", type=int, default=None)
        p.add_argument("--group-size", type=_parse_group_size, default=None)
        p.add_argument("--mode", choices=("sym", "asym"), default=None)

    q = sub.add_parser("quantize", help="quantize every layer in a manifest")
    q.add_argument("--manifest", required=True)
    q.add_argument("--method", choices=METHODS, default=None)
    add_scheme_flags(q)
    q.add_argument("--lambda", dest="lam", type=_finite_float, default=None)
    q.add_argument("--lambda-grid", type=_parse_grid, default=None)
    q.add_argument("--gamma", type=_finite_float, default=None)
    q.add_argument("--gamma-grid", type=_parse_grid, default=None)
    q.add_argument("--block", type=int, default=BLOCK_DEFAULT)
    q.add_argument("--saliency", choices=("saliency", "identity"), default="saliency")
    q.add_argument("--val-fraction", type=float, default=0.25)
    q.add_argument("--seed", type=int, default=0, help="only recorded in report.json: quantize draws nothing random")
    q.add_argument("--jobs", type=int, default=os.environ.get("SARQC_JOBS", "1"))
    q.add_argument("--out", required=True)
    q.set_defaults(func=cmd_quantize)

    g = sub.add_parser("gen", help="generate synthetic weights, calibration data, and a manifest")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sweep", help="sweep the regularization grid and emit CSV records")
    s.add_argument("--spec", default=None)
    s.add_argument("--manifest", default=None)
    s.add_argument("--method", default="sarqc-gbs")
    add_scheme_flags(s)
    s.add_argument("--lambda-grid", type=_parse_grid, default=None)
    s.add_argument("--gamma", type=_finite_float, default=None)
    s.add_argument("--block", type=int, default=BLOCK_DEFAULT)
    s.add_argument("--val-fraction", type=float, default=0.25)
    s.add_argument("--seeds", type=int, default=20)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_sweep)

    v = sub.add_parser("verify", help="run the brute-force verification suites")
    v.add_argument("--suite", choices=SUITES + ("all",), default="all")
    v.add_argument("--trials", type=int, default=None)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    v.set_defaults(func=cmd_verify)

    return parser


# glibc's malloc hands the top of its heap back to the kernel whenever more
# than twice its mmap threshold is free there, and it raises that threshold
# to the size of any mmap'd block that is freed, up to 32 MiB. Left at the
# size of the largest array freed so far, a layer loop that frees a few
# W-sized temporaries at a time has its heap trimmed and faulted in again
# over and over: 22,000 minor page faults for one 256×512 sarqc-gs layer,
# against 1,400 once one block just under 32 MiB has been freed.
_THRESHOLD_BLOCK = (32 << 20) - (64 << 10)  # bytes


def main(argv=None) -> int:
    np.empty(_THRESHOLD_BLOCK, dtype=np.uint8)  # mmap'd and freed at once; see _THRESHOLD_BLOCK
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except (ManifestError, TensorFormatError, FileNotFoundError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
