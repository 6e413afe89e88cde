"""Per-channel statistics, scaling vectors, and saliency profiles.

Channel j means column j of the weight matrix and row j of the cached
activation matrix. Zero statistics are floored at STAT_FLOOR so the
power-ratio constructions stay finite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import NumericalFailure, as_matrix

STAT_FLOOR = 1e-8


@dataclass(frozen=True)
class ChannelStats:
    mean_abs_x: np.ndarray
    mean_abs_w: np.ndarray
    max_abs_x: np.ndarray
    max_abs_w: np.ndarray


@dataclass(frozen=True)
class SaliencyProfile:
    """Positive per-channel weights, the diagonal of the penalty matrix."""

    values: np.ndarray
    kind: str  # "identity" | "gs" | "gbs"

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("profile values must be a nonempty vector")
        if not np.isfinite(v).all() or np.any(v <= 0.0):
            raise ValueError("profile values must be strictly positive and finite")
        if self.kind not in ("identity", "gs", "gbs"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind == "identity" and not np.all(v == 1.0):
            raise ValueError("identity profile must be all ones")
        object.__setattr__(self, "values", v)


def identity_profile(d_in: int) -> SaliencyProfile:
    return SaliencyProfile(values=np.ones(d_in), kind="identity")


def channel_stats(w, x) -> ChannelStats:
    """Mean/max absolute value per input channel, floored at STAT_FLOOR."""
    w = as_matrix(w, "W")
    x = as_matrix(x, "X")
    if w.shape[1] != x.shape[0]:
        raise ValueError(f"W has {w.shape[1]} input channels but X has {x.shape[0]} rows")
    aw = np.abs(w)
    ax = np.abs(x)
    floor = STAT_FLOOR
    return ChannelStats(
        mean_abs_x=np.maximum(ax.mean(axis=1), floor),
        mean_abs_w=np.maximum(aw.mean(axis=0), floor),
        max_abs_x=np.maximum(ax.max(axis=1), floor),
        max_abs_w=np.maximum(aw.max(axis=0), floor),
    )


def scaling_vector_gs(stats: ChannelStats, alpha: float) -> np.ndarray:
    """Candidate-generating channel scaling, normalized by the geometric
    mean of its extrema so that max(s) · min(s) = 1. Raises NumericalFailure
    when that product over- or underflows and s is not finite and positive.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    s = stats.mean_abs_x**alpha / stats.mean_abs_w ** (1.0 - alpha)
    with np.errstate(over="ignore", divide="ignore"):
        s = s / np.sqrt(s.max() * s.min())
    if not (np.isfinite(s).all() and np.all(s > 0.0)):
        raise NumericalFailure(f"scaling vector for alpha {alpha} is not finite and positive")
    return s


def saliency_vector_gs(stats: ChannelStats) -> SaliencyProfile:
    """Fixed activation-to-weight mean ratio profile."""
    return SaliencyProfile(values=stats.mean_abs_x / stats.mean_abs_w, kind="gs")


def saliency_vector_gbs(stats: ChannelStats, gamma: float) -> np.ndarray:
    """Raw power-ratio saliency mean|X|^γ / mean|W|^(1-γ), not yet normalized."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    return stats.mean_abs_x**gamma / stats.mean_abs_w ** (1.0 - gamma)


def scale_normalize_gbs(s, h_bar: float) -> SaliencyProfile:
    """Rescale s so that mean(values²) equals h_bar exactly."""
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0 or not np.isfinite(s).all() or np.any(s <= 0.0):
        raise ValueError("saliency vector must be strictly positive and finite")
    if not h_bar > 0.0:
        raise ValueError(f"h_bar must be positive, got {h_bar}")
    values = np.sqrt(h_bar) * s / np.sqrt(np.mean(s * s))
    return SaliencyProfile(values=values, kind="gbs")
