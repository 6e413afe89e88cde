"""Calibration losses and the joint normalized score."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix, frobenius_sq
from .saliency import SaliencyProfile


@dataclass
class LossBreakdown:
    recon: float
    sar: float
    drift: float


def _check_pair(w, w_hat):
    w = as_matrix(w, "W")
    w_hat = as_matrix(w_hat, "W_hat")
    if w.shape != w_hat.shape:
        raise ValueError(f"shape mismatch: {w.shape} vs {w_hat.shape}")
    return w, w_hat


def recon_loss(w, w_hat, x) -> float:
    """Squared Frobenius norm of the output mismatch (Ŵ - W) X."""
    w, w_hat = _check_pair(w, w_hat)
    x = as_matrix(x, "X")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"W has {w.shape[1]} input channels but X has {x.shape[0]} rows")
    return frobenius_sq((w_hat - w) @ x)


def sar_loss(w, w_hat, profile: SaliencyProfile) -> float:
    """Squared Frobenius norm of the channel-weighted weight deviation."""
    w, w_hat = _check_pair(w, w_hat)
    if profile.values.shape[0] != w.shape[1]:
        raise ValueError("saliency profile length does not match input channels")
    return frobenius_sq((w_hat - w) * profile.values[None, :])


def weight_drift(w, w_hat) -> float:
    """Squared Frobenius norm of Ŵ - W."""
    w, w_hat = _check_pair(w, w_hat)
    return frobenius_sq(w_hat - w)


def minmax_normalize(values) -> np.ndarray:
    """(v - min) / (max - min); a constant vector maps to all zeros."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1 or v.size < 2:
        raise ValueError("min-max normalization needs at least 2 values")
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    lo = v.min()
    hi = v.max()
    if hi == lo:
        return np.zeros_like(v)
    return (v - lo) / (hi - lo)


def joint_score(recon_n, sar_n, lam: float) -> np.ndarray:
    """Element-wise recon_n + λ · sar_n."""
    a = np.asarray(recon_n, dtype=np.float64)
    b = np.asarray(sar_n, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("normalized loss vectors must have equal length")
    if lam < 0.0:
        raise ValueError(f"lambda must be non-negative, got {lam}")
    return a + lam * b


def check_grid(name: str, values, lo: float, hi: float = np.inf) -> tuple[float, ...]:
    """`values` as a tuple of floats, which must be nonempty, strictly
    increasing and finite, each in [lo, hi]; a ValueError names `name`
    otherwise. A fixed value is checked as a one-entry grid."""
    grid = tuple(float(v) for v in values)
    if not grid:
        raise ValueError(f"{name} must be nonempty")
    for v in grid:
        if not (np.isfinite(v) and lo <= v <= hi):
            raise ValueError(f"{name} must be finite and in [{lo:g}, {hi:g}], got {v!r}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {grid}")
    return grid
