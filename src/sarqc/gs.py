"""Grid search over channel scaling factors with a regularized selection rule.

Each candidate scales the input channels, quantizes the scaled weights, and
divides the scaling back out of the dequantized matrix. Candidates are scored
by min-max-normalized reconstruction error plus λ times the normalized
saliency-weighted drift, and λ is picked from a grid on a held-out
validation split. With λ = 0 the selection reduces to the plain
activation-aware reconstruction argmin.

The candidates and their raw losses do not depend on λ, only the argmin of
the joint score does, so `run_gs` scores the α grid, fixed at
ALPHA_GRID_DEFAULT = {k/20 : k = 0..20}, once per layer and
`select_lambda_gs` re-picks the winner for each λ from the stored losses.
A fixed λ is a one-entry grid; a λ sweep scores the grid once per layer
and passes it to one `select_lambda_gs` call per row. The candidates are
independent, so `run_gs` scores them through `forks.map_trials`; each
process builds, scores and drops one candidate at a time, and only the
(recon, sar) pairs come back. `candidate` is deterministic, so each
distinct winner is rebuilt with the same bytes. Peak memory is a few
W-sized arrays per process, not one per candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calibration import CalibrationBatch
from .forks import map_trials, never
from .linalg import as_matrix
from .objective import joint_score, minmax_normalize, recon_loss, sar_loss
from .quantizer import QuantizedLayer, QuantScheme, quantize_matrix
from .saliency import (
    ChannelStats,
    SaliencyProfile,
    channel_stats,
    identity_profile,
    saliency_vector_gs,
    scaling_vector_gs,
)

ALPHA_GRID_DEFAULT = tuple(k / 20 for k in range(21))  # the α grid every run scores
LAMBDA_GRID_GS_DEFAULT = tuple(k / 10 for k in range(1, 11))


@dataclass(frozen=True)
class GsGrid:
    """The λ-independent grid pass: the channel statistics the candidates are
    built from, the profile the sar losses were scored with, and each α
    candidate's raw recon and sar losses on the training columns, in grid
    order. `candidate(w, stats, α, scheme)` rebuilds any candidate."""

    stats: ChannelStats
    profile: SaliencyProfile
    recon: np.ndarray
    sar: np.ndarray


@dataclass
class GsResult:
    chosen_alpha: float
    chosen_lambda: float
    layer: QuantizedLayer
    profile: SaliencyProfile  # the profile the sar losses were scored with
    val_losses: list[tuple[float, float]]  # (λ, validation recon of its winner), in grid order


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


def run_gs(w, x, scheme: QuantScheme, saliency_kind: str) -> GsGrid:
    """Build each candidate of ALPHA_GRID_DEFAULT, score its recon loss on
    the training columns x and its sar loss under the profile of
    `saliency_kind` ("gs" or "identity"), and drop it; none of this
    depends on λ. The candidates are scored through `forks.map_trials`, each
    process on a CPU of its own."""
    w = as_matrix(w, "W")
    x = as_matrix(x, "X")
    stats = channel_stats(w, x)
    if saliency_kind == "identity":
        profile = identity_profile(w.shape[1])
    else:
        profile = saliency_vector_gs(stats)

    def score(t: int) -> tuple[float, float]:
        deq = candidate(w, stats, ALPHA_GRID_DEFAULT[t], scheme).dequantized
        return recon_loss(w, deq, x), sar_loss(w, deq, profile)

    pairs = map_trials(score, len(ALPHA_GRID_DEFAULT), never, place=True)  # a short map, and no LAPACK in it
    recon, sar = (np.array(v, dtype=np.float64) for v in zip(*pairs))
    return GsGrid(stats=stats, profile=profile, recon=recon, sar=sar)


def select_lambda_gs(
    w, batch: CalibrationBatch, scheme: QuantScheme, lambda_grid: tuple[float, ...], grid: GsGrid
) -> GsResult:
    """Pick λ from `lambda_grid` by reconstruction error on the validation
    split; ties go to the smallest λ. A fixed λ is a one-entry grid. The
    grid is used as given: `harness.solutions` checks it.

    `grid` is the `run_gs` pass of W on the training split under `scheme`;
    each λ only re-picks the joint-score winner from its losses, so one
    pass serves any number of calls. Each distinct winner is rebuilt once,
    in the order the λ grid first picks it, to score its validation loss;
    only the best so far is kept.
    """
    w = as_matrix(w, "W")
    winners = [select_joint(grid.recon, grid.sar, lam)[0] for lam in lambda_grid]
    val_of = {}
    best = None
    for i in dict.fromkeys(winners):
        layer = candidate(w, grid.stats, ALPHA_GRID_DEFAULT[i], scheme)
        val_of[i] = recon_loss(w, layer.dequantized, batch.val)
        if best is None or val_of[i] < val_of[best[0]]:  # strictly: the first minimum stays
            best = (i, layer)
        del layer  # before the next winner is built
    table = [(lam, val_of[i]) for lam, i in zip(lambda_grid, winners)]
    i, layer = best
    lam = lambda_grid[winners.index(i)]  # the table's first minimum, so ties go to the smallest λ
    return GsResult(ALPHA_GRID_DEFAULT[i], lam, layer, grid.profile, table)
