"""Uniform quantization of weight matrices.

Weights are (d_out, d_in) float64 arrays. Quantization parameters are shared
group-wise along the input dimension of each output row; the last group may
be short. Symmetric mode uses the signed range [-(2^(N-1)-1), 2^(N-1)-1]
with zero offset; asymmetric mode the unsigned range [0, 2^N-1] with an
integer zero point. Rounding ties go half-to-even.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix

PER_CHANNEL = "per_channel"
PER_TENSOR = "per_tensor"
INT32_MAX = 2**31 - 1  # codes and zero points are stored as int32


def _integer(name: str, value) -> int:
    """value as an int through operator.index, which takes Python and numpy
    integers and refuses floats and strings; bool is refused too, although
    it is an int to Python."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class QuantScheme:
    """Bit width, symmetric/asymmetric mode, and grouping granularity."""

    bits: int = 4
    mode: str = "asymmetric"
    group_size: int | str = 128

    def __post_init__(self):
        # stored as int, so a numpy integer from a caller behaves like a Python one
        object.__setattr__(self, "bits", _integer("bits", self.bits))
        if self.bits < 2:
            raise ValueError(f"bits must be >= 2, got {self.bits}")
        if self.mode not in ("symmetric", "asymmetric"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.qmax > INT32_MAX:
            raise ValueError(f"{self.mode} {self.bits}-bit codes do not fit in int32")
        if isinstance(self.group_size, str):
            if self.group_size not in (PER_CHANNEL, PER_TENSOR):
                raise ValueError(
                    f"group_size must be an integer, {PER_CHANNEL} or {PER_TENSOR}, got {self.group_size!r}"
                )
            return
        object.__setattr__(self, "group_size", _integer("group_size", self.group_size))
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")

    @property
    def qmax(self) -> int:
        if self.mode == "symmetric":
            return 2 ** (self.bits - 1) - 1
        return 2**self.bits - 1

    @property
    def qmin(self) -> int:
        return -self.qmax if self.mode == "symmetric" else 0

    @property
    def per_tensor(self) -> bool:
        return self.group_size == PER_TENSOR

    def group_slices(self, d_in: int) -> list[slice]:
        if isinstance(self.group_size, str):
            return [slice(0, d_in)]
        g = self.group_size
        return [slice(s, min(s + g, d_in)) for s in range(0, d_in, g)]

    def group_index(self, d_in: int) -> np.ndarray:
        """Column index -> group index."""
        if isinstance(self.group_size, str):
            return np.zeros(d_in, dtype=np.int64)
        return np.arange(d_in) // self.group_size


@dataclass(frozen=True)
class QuantizedLayer:
    """Integer codes plus per-(row, group) scales/zero points and the
    reconstructed weight matrix.

    `channel_scale` is set by the scaled-candidate solver: codes/scales then
    live in the scaled weight space and `dequantized` has the per-channel
    scaling divided back out.
    """

    codes: np.ndarray
    scales: np.ndarray
    zero_points: np.ndarray
    dequantized: np.ndarray
    scheme: QuantScheme
    channel_scale: np.ndarray | None = None


# floor for a scale whose range / qmax underflows to 0 (a subnormal group)
TINY_SCALE = float(np.finfo(np.float64).smallest_subnormal)


def group_params(w, scheme: QuantScheme):
    """Per-row (scale, zero_point) for one group slice of shape (rows, g).

    A per-tensor scheme reduces over the whole array instead and returns
    its one (scale, zero_point) for every row. Constant groups are
    degenerate: they get parameters that reproduce the constant exactly
    under dequantization. A range so small that range / qmax underflows
    gets the smallest positive scale instead of 0.
    """
    w = np.atleast_2d(np.asarray(w, dtype=np.float64))
    if w.shape[1] == 0:
        raise ValueError("empty quantization group")
    rows = w.shape[0]
    axis = None if scheme.per_tensor else 1
    qmax = scheme.qmax
    if scheme.mode == "symmetric":
        amax = np.max(np.abs(w), axis=axis)
        scale = np.where(amax > 0.0, np.maximum(amax / qmax, TINY_SCALE), 1.0)
        return np.full(rows, scale), np.zeros(rows, dtype=np.int32)
    lo = np.min(w, axis=axis)
    hi = np.max(w, axis=axis)
    span = hi - lo
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.maximum(span / qmax, TINY_SCALE)
        zp_f = np.round(-lo / scale)
    const = span == 0.0
    if np.any(const):
        scale = np.where(const, np.where(lo == 0.0, 1.0, np.abs(lo)), scale)
        zp_f = np.where(const, np.where(lo < 0.0, 1.0, 0.0), zp_f)
    return np.full(rows, scale), np.full(rows, np.clip(zp_f, 0, qmax), dtype=np.int32)


def quantize_with_params(w, scale, zp, scheme: QuantScheme) -> np.ndarray:
    """Codes for w of shape (rows,) or (rows, k) given per-row parameters.

    clip(round(w / s + z), qmin, qmax), with ties to even, worked in place
    on the one temporary w / s.
    """
    w = np.asarray(w, dtype=np.float64)
    s = np.asarray(scale, dtype=np.float64)
    z = np.asarray(zp, dtype=np.float64)
    if w.ndim == 2 and s.ndim == 1:
        s = s[:, None]
        z = z[:, None]
    q = w / s
    q += z
    np.rint(q, out=q)
    np.maximum(q, scheme.qmin, out=q)
    np.minimum(q, scheme.qmax, out=q)
    return q.astype(np.int32)


def dequantize_with_params(codes, scale, zp) -> np.ndarray:
    codes = np.asarray(codes)
    s = np.asarray(scale, dtype=np.float64)
    z = np.asarray(zp, dtype=np.float64)
    if codes.ndim == 2 and s.ndim == 1:
        s = s[:, None]
        z = z[:, None]
    return s * (codes - z)


def quantize_matrix(w, scheme: QuantScheme) -> QuantizedLayer:
    """Group-wise quantization of every (row, group) slice of w."""
    w = as_matrix(w, "W")
    d_out, d_in = w.shape
    slices = scheme.group_slices(d_in)
    codes = np.empty((d_out, d_in), dtype=np.int32)
    deq = np.empty_like(w)
    scales = np.empty((d_out, len(slices)), dtype=np.float64)
    zps = np.empty((d_out, len(slices)), dtype=np.int32)
    for gi, sl in enumerate(slices):
        scale, zp = group_params(w[:, sl], scheme)
        c = quantize_with_params(w[:, sl], scale, zp, scheme)
        codes[:, sl] = c
        deq[:, sl] = dequantize_with_params(c, scale, zp)
        scales[:, gi] = scale
        zps[:, gi] = zp
    return QuantizedLayer(codes=codes, scales=scales, zero_points=zps, dequantized=deq, scheme=scheme)


def rtn(w, scheme: QuantScheme) -> QuantizedLayer:
    """Round-to-nearest baseline: plain group-wise quantization, no calibration."""
    return quantize_matrix(w, scheme)
