"""Grid search over channel scaling factors with a regularized selection rule.

Each candidate scales the input channels, quantizes the scaled weights, and
divides the scaling back out of the dequantized matrix. Candidates are scored
by min-max-normalized reconstruction error plus λ times the normalized
saliency-weighted drift; λ itself can be picked on a held-out validation
split. With λ = 0 the selection reduces to the plain activation-aware
reconstruction argmin.

The candidates and their raw losses do not depend on λ, only the argmin of
the joint score does, so λ selection scores the grid once and re-picks the
winner for each λ from the stored losses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import CalibrationBatch
from .linalg import as_matrix
from .objective import LossBreakdown, joint_score, minmax_normalize, recon_loss, sar_loss, weight_drift
from .quantizer import QuantizedLayer, QuantScheme, quantize_matrix
from .saliency import (
    ChannelStats,
    SaliencyProfile,
    channel_stats,
    identity_profile,
    saliency_vector_gs,
    scaling_vector_gs,
)

ALPHA_GRID_DEFAULT = tuple(k / 20 for k in range(21))
LAMBDA_GRID_GS_DEFAULT = tuple(k / 10 for k in range(1, 11))


@dataclass(frozen=True)
class GsConfig:
    scheme: QuantScheme
    alpha_grid: tuple[float, ...] = ALPHA_GRID_DEFAULT
    lam: float = 0.0
    lambda_grid: tuple[float, ...] = LAMBDA_GRID_GS_DEFAULT
    saliency_kind: str = "gs"  # "identity" | "gs"

    def __post_init__(self):
        grid = tuple(float(a) for a in self.alpha_grid)
        if len(grid) < 2 or any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("alpha_grid needs >= 2 strictly increasing entries")
        if any(not 0.0 <= a <= 1.0 for a in grid):
            raise ValueError("alpha_grid entries must lie in [0, 1]")
        lgrid = tuple(float(v) for v in self.lambda_grid)
        if not lgrid or any(v < 0.0 for v in lgrid):
            raise ValueError("lambda_grid must be nonempty with non-negative entries")
        if any(b <= a for a, b in zip(lgrid, lgrid[1:])):
            raise ValueError("lambda_grid must be strictly increasing")
        if self.lam < 0.0:
            raise ValueError("lambda must be non-negative")
        if self.saliency_kind not in ("identity", "gs"):
            raise ValueError(f"unknown saliency kind {self.saliency_kind!r}")
        object.__setattr__(self, "alpha_grid", grid)
        object.__setattr__(self, "lambda_grid", lgrid)


@dataclass
class GsResult:
    chosen_alpha: float
    chosen_lambda: float
    layer: QuantizedLayer
    losses: list[LossBreakdown]
    selected_index: int
    profile: SaliencyProfile  # the profile the sar losses were scored with
    val_losses: list[tuple[float, float]] | None = None
    candidates: tuple[QuantizedLayer, ...] = field(default=(), repr=False)  # one per α, in grid order


def candidate(w, stats: ChannelStats, alpha: float, scheme: QuantScheme) -> QuantizedLayer:
    """Quantize W with channel scaling s(α) folded in and divided back out."""
    w = as_matrix(w, "W")
    s = scaling_vector_gs(stats, alpha)
    scaled = quantize_matrix(w * s[None, :], scheme)
    deq = scaled.dequantized / s[None, :]
    return QuantizedLayer(
        codes=scaled.codes,
        scales=scaled.scales,
        zero_points=scaled.zero_points,
        dequantized=deq,
        scheme=scheme,
        channel_scale=s,
    )


def select_joint(recon_raw, sar_raw, lam: float):
    """Normalize both loss vectors over the grid and pick the argmin of the
    joint score; ties resolve to the lowest grid index."""
    recon_n = minmax_normalize(recon_raw)
    sar_n = minmax_normalize(sar_raw)
    joint = joint_score(recon_n, sar_n, lam)
    return int(np.argmin(joint)), recon_n, sar_n, joint


def _pick(alpha_grid, candidates, losses: list[LossBreakdown], profile: SaliencyProfile, lam: float) -> GsResult:
    """The grid result at λ: the joint-score winner among scored candidates."""
    selected, _, _, joint = select_joint(
        np.array([l.recon for l in losses]), np.array([l.sar for l in losses]), lam
    )
    return GsResult(
        chosen_alpha=alpha_grid[selected],
        chosen_lambda=lam,
        layer=candidates[selected],
        losses=[replace(l, joint_normalized=float(j)) for l, j in zip(losses, joint)],
        selected_index=selected,
        profile=profile,
        candidates=candidates,
    )


def run_gs(w, x, config: GsConfig) -> GsResult:
    """Full grid pass at a fixed λ over the training columns x."""
    w = as_matrix(w, "W")
    x = as_matrix(x, "X")
    stats = channel_stats(w, x)
    if config.saliency_kind == "identity":
        profile = identity_profile(w.shape[1])
    else:
        profile = saliency_vector_gs(stats)

    layers = tuple(candidate(w, stats, alpha, config.scheme) for alpha in config.alpha_grid)
    losses = [
        LossBreakdown(
            recon=recon_loss(w, ql.dequantized, x),
            sar=sar_loss(w, ql.dequantized, profile),
            drift=weight_drift(w, ql.dequantized),
        )
        for ql in layers
    ]
    return _pick(config.alpha_grid, layers, losses, profile, config.lam)


def select_lambda_gs(w, batch: CalibrationBatch, config: GsConfig) -> GsResult:
    """Pick λ from the grid by reconstruction error on the validation split;
    ties go to the smallest λ.

    One `run_gs` pass scores every α candidate on the training split; each λ
    then only re-picks the joint-score winner, and the validation loss is
    computed once per distinct winning candidate. The result equals running
    `run_gs` at every λ of the grid.
    """
    w = as_matrix(w, "W")
    scored = run_gs(w, batch.train, config)
    val_of: dict[int, float] = {}
    best: GsResult | None = None
    best_v = np.inf
    table: list[tuple[float, float]] = []
    for lam in config.lambda_grid:
        res = _pick(config.alpha_grid, scored.candidates, scored.losses, scored.profile, lam)
        if res.selected_index not in val_of:
            val_of[res.selected_index] = recon_loss(w, res.layer.dequantized, batch.val)
        v = val_of[res.selected_index]
        table.append((lam, v))
        if v < best_v:
            best, best_v = res, v
    assert best is not None
    return replace(best, val_losses=table)
