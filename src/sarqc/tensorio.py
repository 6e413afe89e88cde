"""On-disk tensor format and the layer manifest.

Tensor files: 8-byte magic "SQTENSR1", one dtype byte (1 = f64, 2 = i32),
one rank byte, rank little-endian u64 dims, then the row-major payload in
little-endian order. Round trips are bit-exact.
"""

from __future__ import annotations

import json
import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SQTENSR1"
MAX_RANK = 8
_DTYPES = {1: np.dtype("<f8"), 2: np.dtype("<i4")}
_CODES = {np.dtype(np.float64): 1, np.dtype(np.int32): 2}
SCHEMA_VERSION = 1


class TensorFormatError(ValueError):
    pass


class ManifestError(ValueError):
    pass


def write_tensor(path, arr) -> None:
    arr = np.ascontiguousarray(arr)
    if arr.dtype not in _CODES:
        raise TensorFormatError(f"unsupported dtype {arr.dtype}; use float64 or int32")
    if not 1 <= arr.ndim <= MAX_RANK:
        raise TensorFormatError(f"rank must be in [1, {MAX_RANK}], got {arr.ndim}")
    code = _CODES[arr.dtype]
    header = MAGIC + struct.pack("<BB", code, arr.ndim) + struct.pack(f"<{arr.ndim}Q", *arr.shape)
    payload = arr.astype(_DTYPES[code], copy=False)  # a no-op on little-endian hosts
    with open(path, "wb") as f:
        f.write(header)
        # the array's own buffer, so writing holds no copy of the payload
        f.write(payload.reshape(-1).view(np.uint8))


def _parse_header(buf: bytes, path) -> tuple[np.dtype, tuple[int, ...], int]:
    if len(buf) < len(MAGIC) + 2:
        raise TensorFormatError(f"{path}: truncated header")
    if buf[: len(MAGIC)] != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {buf[:len(MAGIC)]!r}")
    code, rank = struct.unpack_from("<BB", buf, len(MAGIC))
    if code not in _DTYPES:
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    if not 1 <= rank <= MAX_RANK:
        raise TensorFormatError(f"{path}: bad rank {rank}")
    dims_off = len(MAGIC) + 2
    if len(buf) < dims_off + 8 * rank:
        raise TensorFormatError(f"{path}: truncated dims")
    dims = struct.unpack_from(f"<{rank}Q", buf, dims_off)
    return _DTYPES[code], tuple(int(d) for d in dims), dims_off + 8 * rank


def _read_header(f, path) -> tuple[np.dtype, tuple[int, ...], int, int]:
    """dtype, dims, payload offset and payload bytes of the open tensor file
    f, after checking the file's size against the header, from one stat and
    without reading the payload."""
    dtype, dims, offset = _parse_header(f.read(len(MAGIC) + 2 + 8 * MAX_RANK), path)
    nbytes = math.prod(dims) * dtype.itemsize
    size = os.fstat(f.fileno()).st_size
    if size != offset + nbytes:
        raise TensorFormatError(f"{path}: payload length {size - offset}, expected {nbytes}")
    return dtype, dims, offset, nbytes


def read_tensor_header(path) -> tuple[np.dtype, tuple[int, ...]]:
    """Parse dtype and shape without loading the payload. A file whose size
    does not match its header, truncated or padded, raises TensorFormatError."""
    with open(path, "rb") as f:
        dtype, dims, _, _ = _read_header(f, path)
    return dtype, dims


def read_tensor(path) -> np.ndarray:
    """Read a tensor file into a fresh array; the payload is read straight
    into the array's buffer, so no second copy of it is held."""
    with open(path, "rb") as f:
        dtype, dims, offset, nbytes = _read_header(f, path)
        arr = np.empty(dims, dtype=dtype)
        f.seek(offset)
        got = f.readinto(arr.reshape(-1).view(np.uint8))
    if got != nbytes:
        raise TensorFormatError(f"{path}: payload length {got}, expected {nbytes}")
    return arr


def write_manifest(path, layers: list[dict], defaults: dict) -> None:
    doc = {"schema": SCHEMA_VERSION, "layers": layers, "defaults": defaults}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_manifest(path) -> dict:
    """Parse and fully validate a manifest before any computation starts.

    Checks that the document, each layer entry, `defaults` and
    `defaults.scheme` are objects, id uniqueness, file existence, that the
    recorded dimensions match the tensor headers on disk and that each
    file's size matches its header; no payload is read. Returns the
    manifest document with layer paths resolved against the manifest
    directory.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: manifest is not a JSON object")
    if doc.get("schema") != SCHEMA_VERSION:
        raise ManifestError(f"{path}: unsupported schema {doc.get('schema')!r}")
    defaults = doc.setdefault("defaults", {})
    if not isinstance(defaults, dict) or not isinstance(defaults.get("scheme", {}), dict):
        raise ManifestError(f"{path}: defaults and defaults.scheme must be JSON objects")
    layers = doc.get("layers")
    if not isinstance(layers, list) or not layers:
        raise ManifestError(f"{path}: manifest has no layers")
    seen = set()
    base = path.parent
    for entry in layers:
        if not isinstance(entry, dict):
            raise ManifestError(f"{path}: layer entry {entry!r} is not a JSON object")
        for key in ("layer_id", "weights", "calib", "d_out", "d_in", "n"):
            if key not in entry:
                raise ManifestError(f"{path}: layer entry missing {key!r}")
        lid = entry["layer_id"]
        if lid in seen:
            raise ManifestError(f"{path}: duplicate layer id {lid!r}")
        seen.add(lid)
        for key, want in (("weights", (entry["d_out"], entry["d_in"])), ("calib", (entry["d_in"], entry["n"]))):
            fp = base / entry[key]
            if not fp.exists():
                raise ManifestError(f"{path}: {lid}: missing file {fp}")
            _, shape = read_tensor_header(fp)
            if shape != tuple(want):
                raise ManifestError(f"{path}: {lid}: {key} has shape {shape}, manifest says {tuple(want)}")
            entry[key] = str(fp)
    return doc
