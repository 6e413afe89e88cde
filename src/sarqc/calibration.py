"""Cached layer inputs with a fixed train/validation split."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import as_matrix


@dataclass(frozen=True)
class CalibrationBatch:
    """Layer input matrix (d_in, n); the last n_val columns are held out."""

    x: np.ndarray
    n_val: int

    def __post_init__(self):
        x = as_matrix(self.x, "calibration")
        if not 1 <= self.n_val < x.shape[1]:
            raise ValueError(f"n_val must be in [1, n), got {self.n_val} of {x.shape[1]}")
        # an all-zero training split leaves nothing to calibrate on and a zero
        # Gram, whose mean diagonal cannot scale sarqc-gbs's damping; np.any
        # reduces the view without copying it
        if not np.any(x[:, : x.shape[1] - self.n_val]):
            raise ValueError("the training split of the calibration batch is all zero")
        object.__setattr__(self, "x", x)

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def d_in(self) -> int:
        return self.x.shape[0]

    @property
    def train(self) -> np.ndarray:
        return self.x[:, : self.n - self.n_val]

    @property
    def val(self) -> np.ndarray:
        return self.x[:, self.n - self.n_val :]


def clip_columns(x: np.ndarray, m_x: float) -> np.ndarray:
    """Scale each column of x in place to a 2-norm of at most m_x, by
    min(1, m_x / ‖x_j‖); returns x."""
    x *= np.minimum(1.0, m_x / np.maximum(np.linalg.norm(x, axis=0), 1e-300))[None, :]
    return x


def check_val_fraction(val_fraction: float) -> None:
    """Raise unless val_fraction lies in the open interval (0, 1); NaN does
    not. Needs no data, so the command line calls it before it writes
    anything."""
    if not 0.0 < val_fraction < 1.0:
        raise ValueError(f"val_fraction must lie in (0, 1), got {val_fraction}")


def split_batch(x, val_fraction: float = 0.25) -> CalibrationBatch:
    """Split off the last ceil(val_fraction · n) columns as validation."""
    x = as_matrix(x, "calibration")
    check_val_fraction(val_fraction)
    n = x.shape[1]
    if n < 2:
        raise ValueError("calibration batch needs at least 2 columns")
    n_val = min(n - 1, math.ceil(val_fraction * n))
    return CalibrationBatch(x=x, n_val=n_val)
