"""Output checks for one benchmark command, done with the benchmark's own reader.

A check returns a list of problems (empty when the outputs are right) and a
digest of the outputs, which must repeat across every round of a workload.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from inputs import BITS, GROUP_SIZE, read_sqt

QMIN, QMAX = 0, 2**BITS - 1  # asymmetric
# Codes of these methods are in the unscaled weight space, so the written
# tensors must reproduce `dequant` exactly. awq / sarqc-gs codes are in the
# scaled space and the channel scale is not written, so they are exempt.
EXACT_DEQUANT = ("rtn", "gptq", "sarqc-gbs")
TENSORS = ("codes", "scales", "zeros", "dequant")


def check_quantize(out: Path, layers: list[dict], method: str) -> tuple[list[str], str, list[float]]:
    """Problems, digest and per-layer heldout_risk of one `quantize --out out`."""
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"], "", []
    by_id = {entry.get("layer_id"): entry for entry in report.get("layers", [])}
    problems = []
    risks = []
    h = hashlib.sha256()
    for layer in layers:
        lid = layer["layer_id"]
        entry = by_id.get(lid)
        if entry is None:
            problems.append(f"{lid}: missing from report.json")
            continue
        values = [entry.get("heldout_risk"), *entry.get("losses", {}).values()]
        if len(values) != 4 or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in values):
            problems.append(f"{lid}: non-finite or missing losses {values}")
            continue
        risks.append(float(entry["heldout_risk"]))
        try:
            t = {name: read_sqt(out / f"{lid}.{name}.sqt") for name in TENSORS}
        except (OSError, ValueError) as exc:
            problems.append(f"{lid}: unreadable tensor: {exc}")
            continue
        problems += [f"{lid}: {p}" for p in _check_layer(t, layer["d_out"], layer["d_in"], method)]
        for name in TENSORS:
            h.update((out / f"{lid}.{name}.sqt").read_bytes())
        entry = dict(entry)
        entry.pop("wall_time_ms", None)
        h.update(json.dumps(entry, sort_keys=True).encode())
    return problems, h.hexdigest(), risks


def _check_layer(t: dict, d_out: int, d_in: int, method: str) -> list[str]:
    codes, scales, zeros, deq = t["codes"], t["scales"], t["zeros"], t["dequant"]
    n_groups = -(-d_in // GROUP_SIZE)
    shapes = {"codes": (d_out, d_in), "scales": (d_out, n_groups), "zeros": (d_out, n_groups),
              "dequant": (d_out, d_in)}
    bad = [f"{k} has shape {t[k].shape}, expected {v}" for k, v in shapes.items() if t[k].shape != v]
    if bad:
        return bad
    problems = []
    if codes.min() < QMIN or codes.max() > QMAX:
        problems.append(f"codes outside [{QMIN}, {QMAX}]: [{codes.min()}, {codes.max()}]")
    if not np.isfinite(deq).all():
        problems.append("dequant has non-finite entries")
    if method in EXACT_DEQUANT:
        group = np.arange(d_in) // GROUP_SIZE
        expected = scales[:, group] * (codes.astype(np.float64) - zeros[:, group].astype(np.float64))
        if not np.array_equal(expected, deq):
            problems.append(f"dequant != scales*(codes-zeros) at {int(np.sum(expected != deq))} entries")
    return problems


def check_verify(path: Path, suite: str, trials: int) -> tuple[list[str], str]:
    """Problems and digest of one `verify --suite suite --out path`."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        return [f"{path.name} unreadable: {exc}"], ""
    res = doc.get("suites", {}).get(suite)
    if res is None:
        return [f"suite {suite} missing"], ""
    problems = []
    if res.get("passed") is not True:
        problems.append(f"suite {suite} failed: {res.get('counterexample')}")
    if res.get("trials") != trials:
        problems.append(f"suite {suite} ran {res.get('trials')} trials, expected {trials}")
    return problems, hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
