"""Span recorder installed from outside around the program's public functions.

`Tracer` wraps every public function defined in the measured modules and
patches each binding of it in every loaded `sarqc` module, because several
modules import functions by name (`from .linalg import gram`). Each call
records a span: id, name, start, end, parent span and the layer or suite it
belongs to. Spans stay in memory; `metrics()` derives call counts,
inclusive and self times and the per-function counters from them.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import math
import statistics
import sys
import threading
import time
from typing import NamedTuple

import numpy as np

MODULES = ("tensorio", "linalg", "quantizer", "saliency", "objective", "gs", "gbs", "oracles")
LAYER_FN = "cli._quantize_one"
ROOT_FN = "cli.main"
# Functions whose distinct argument contents are counted for useful_ratio.
FINGERPRINTED = ("linalg.gram", "saliency.channel_stats", "gs.candidate")


def _chol_info(args, kwargs, result):
    """(dim, jitter retries) of one chol_upper_of_inverse call."""
    if result.jitter == 0.0:
        return result.dim, 0
    g = np.asarray(args[0])
    base = kwargs.get("jitter_base", args[1] if len(args) > 1 else None)
    if base is None:
        md = float(np.mean(np.diag(g)))
        base = 1e-6 * md if md > 0.0 else 1e-6
    base = float(base) if base > 0.0 else 1e-6
    return result.dim, 1 + round(math.log2(result.jitter / base))


# name -> function(args, kwargs, result) giving the per-call counter
COUNTERS = {
    "linalg.chol_upper_of_inverse": _chol_info,
    "gbs.run_gbs": lambda a, k, r: r.codes.shape[1],
    "linalg.frobenius_sq": lambda a, k, r: np.asarray(a[0]).size,
    "tensorio.read_tensor": lambda a, k, r: r.nbytes,
    "tensorio.write_tensor": lambda a, k, r: np.asarray(a[1] if len(a) > 1 else k["arr"]).nbytes,
}


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(repr(obj).encode())


def fingerprint(args, kwargs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _feed(h, args)
    _feed(h, sorted(kwargs.items()))
    return h.digest()


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    context: str | None


class Tracer:
    """Install with `with Tracer() as tr:`; originals are restored on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, object] = {}
        self._args: dict[int, tuple] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._root: int | None = None

    # -- installation -------------------------------------------------------

    def __enter__(self):
        loaded = [m for name, m in list(sys.modules.items()) if name == "sarqc" or name.startswith("sarqc.")]
        wrappers: dict[int, tuple[object, object]] = {}
        for short in MODULES:
            mod = sys.modules[f"sarqc.{short}"]
            for attr, fn in vars(mod).items():
                if not attr.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        cli = sys.modules["sarqc.cli"]
        wrappers[id(cli._quantize_one)] = (cli._quantize_one, self._wrap(LAYER_FN, cli._quantize_one))
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name: str, fn):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        keep_args = name in FINGERPRINTED
        suite = name.split(".", 1)[1] if name.startswith("oracles.run_") else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent, ctx = stack[-1] if stack else (tracer._root, None)
            if name == LAYER_FN:
                ctx = args[0]["layer_id"]
            elif suite is not None:
                ctx = suite
            sid = next(ids)
            stack.append((sid, ctx))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(sid, name, start, end, parent, ctx))
            if counter is not None:
                tracer.counters[sid] = counter(args, kwargs, result)
            if keep_args:
                tracer._args[sid] = (args, kwargs)
            return result

        return wrapper

    def root(self, fn, *args):
        """Call fn(*args) under the root span that worker-thread spans hang off."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        self._root = sid
        stack.append((sid, None))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._root = None
            self.spans.append(Span(sid, ROOT_FN, start, end, None, None))

    # -- derived metrics ----------------------------------------------------

    def self_ms(self) -> dict[int, float]:
        """Span duration minus the union of its children's intervals, in ms."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = {}
        for s in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(s.id, ())):
                lo, hi = max(lo, s.start), min(hi, s.end)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[s.id] = max(0.0, (s.end - s.start - covered) * 1000.0)
        return out

    def metrics(self, names: list[str]) -> dict[str, float]:
        """Every `<module>.<function>.<stat>` and `cli.layer_ms.*` metric in names."""
        self_ms = self.self_ms()
        by_fn: dict[str, list[Span]] = {}
        for s in self.spans:
            by_fn.setdefault(s.name, []).append(s)
        distinct: dict[str, set] = {}
        for s in self.spans:
            if s.id in self._args:
                distinct.setdefault(s.name, set()).add(fingerprint(*self._args[s.id]))
        self._args.clear()

        out = {}
        for metric in names:
            fn, _, stat = metric.rpartition(".")
            spans = by_fn.get(fn, [])
            if fn == "cli.layer_ms":
                layer = sorted((s.end - s.start) * 1000.0 for s in by_fn.get(LAYER_FN, []))
                out[metric] = (statistics.median(layer) if stat == "p50" else layer[-1]) if layer else 0.0
                continue
            if fn in ("cli", "trace"):  # filled in by the caller
                continue
            vals = [self.counters[s.id] for s in spans if s.id in self.counters]  # calls that returned
            if stat == "ms":
                out[metric] = sum(s.end - s.start for s in spans) * 1000.0
            elif stat == "self_ms":
                out[metric] = sum((self_ms[s.id] for s in spans), 0.0)
            elif stat == "calls":
                out[metric] = float(len(spans))
            elif stat == "useful_ratio":
                out[metric] = len(distinct.get(fn, ())) / len(spans) if spans else 0.0
            elif stat == "gflop":
                out[metric] = sum(8.0 / 3.0 * v[0] ** 3 for v in vals) / 1e9
            elif stat == "jitter_retries":
                out[metric] = float(sum(v[1] for v in vals))
            elif stat == "columns":
                out[metric] = float(sum(vals))
            elif stat in ("melems", "mb"):
                out[metric] = sum(vals) / 1e6
            else:
                raise KeyError(f"no rule for metric {metric}")
        return out

    def call_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for s in self.spans:
            counts[s.name] = counts.get(s.name, 0) + 1
        return counts
