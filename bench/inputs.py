"""Seeded workload inputs, written straight to the documented `.sqt` layout.

The generator lives here rather than behind `sarqc gen` so that a change to
the program cannot silently change what the benchmark feeds it.

Layout of a tensor file: magic "SQTENSR1", a dtype byte (1 = f64,
2 = i32), a rank byte, rank little-endian u64 dims, then the row-major
little-endian payload.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SQTENSR1"
DTYPE_CODES = {1: np.dtype("<f8"), 2: np.dtype("<i4")}
# Quantization scheme every manifest asks for (asymmetric mode).
BITS = 4
GROUP_SIZE = 128


def write_sqt(path: Path, arr: np.ndarray) -> None:
    code = {np.dtype(np.float64): 1, np.dtype(np.int32): 2}[arr.dtype]
    arr = np.ascontiguousarray(arr, dtype=DTYPE_CODES[code])
    header = MAGIC + struct.pack("<BB", code, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    path.write_bytes(header + arr.tobytes())


def read_sqt(path: Path) -> np.ndarray:
    buf = Path(path).read_bytes()
    if buf[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    code, rank = struct.unpack_from("<BB", buf, 8)
    dims = struct.unpack_from(f"<{rank}Q", buf, 10)
    dtype = DTYPE_CODES[code]
    offset = 10 + 8 * rank
    count = int(np.prod(dims, dtype=np.int64))
    if len(buf) != offset + count * dtype.itemsize:
        raise ValueError(f"{path}: payload length does not match header")
    return np.frombuffer(buf, dtype=dtype, offset=offset).reshape(dims)


def gen_layer(rng: np.random.Generator, d_out: int, d_in: int, n: int,
              rank: int = 16, outliers: int = 8, outlier_scale: float = 8.0,
              val_fraction: float = 0.25) -> tuple[np.ndarray, np.ndarray]:
    """Weights (d_out, d_in) and activations (d_in, n).

    Activations are correlated through a rank-`rank` factor plus noise, with
    `outliers` input channels scaled up, so the activation-aware α grid has
    salient channels to protect. The held-out columns (the last
    `val_fraction` share, as the CLI splits them) get a per-channel scale
    shift, so fitting the training columns alone over-fits and the λ / γ
    selection on the validation split has something to trade off.
    """
    factor = rng.standard_normal((d_in, rank)) / np.sqrt(rank)
    x = factor @ rng.standard_normal((rank, n)) + 0.5 * rng.standard_normal((d_in, n))
    chan = np.exp(0.5 * rng.standard_normal(d_in))
    hot = rng.choice(d_in, size=outliers, replace=False)
    chan[hot] *= outlier_scale
    x *= chan[:, None]
    n_val = int(np.ceil(val_fraction * n))
    x[:, n - n_val:] *= np.exp(0.4 * rng.standard_normal(d_in))[:, None]
    w = rng.standard_normal((d_out, d_in)) / np.sqrt(d_in)
    w[:, rng.choice(d_in, size=outliers, replace=False)] *= 4.0
    return w, x


def write_manifest(out: Path, seed: int, layers: int, d_out: int, d_in: int, n: int, tag: str) -> Path:
    """Generate `layers` layers into `out` and return the manifest path."""
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i in range(layers):
        rng = np.random.default_rng([seed, i, d_out, d_in, n])
        w, x = gen_layer(rng, d_out, d_in, n)
        lid = f"{tag}_{i:03d}"
        write_sqt(out / f"{lid}.w.sqt", w)
        write_sqt(out / f"{lid}.x.sqt", x)
        entries.append({"layer_id": lid, "weights": f"{lid}.w.sqt", "calib": f"{lid}.x.sqt",
                        "d_out": d_out, "d_in": d_in, "n": n})
    doc = {"schema": 1, "layers": entries,
           "defaults": {"scheme": {"bits": BITS, "mode": "asym", "group_size": GROUP_SIZE}}}
    path = out / "manifest.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path
