"""Method dispatch, synthetic layers, calibration batches, and desk-scale
experiments.

`solutions` wires each method name to its solver and yields one solved layer
per λ entry; `solve` is its one-entry case. It is the one place where the
hyperparameters are defaulted and checked, and the solvers take plain
values. The command line, the sweeps and the studies all go through it. A
GS sweep scores the layer's α grid once for all its rows; a GBS sweep
takes the channel statistics once and builds and factors each row's Gram
in place, so one d_in×d_in array is live at a time. `layer_losses` scores a solved layer. `sweep_lambda` traces the
drift/reconstruction trade-off of a solver over a regularization grid with
held-out risk per point; `calib_size_study` compares the λ = 0 baseline
against hyperparameter-selected runs as the calibration set shrinks under a
covariance shift.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .calibration import CalibrationBatch, clip_columns, split_batch
from .gbs import (
    BLOCK_DEFAULT,
    GAMMA_GRID_DEFAULT,
    LAMBDA_GRID_GBS_DEFAULT,
    build_curvature,
    profile_for,
    run_gbs,
    select_hparams_gbs,
)
from .gs import LAMBDA_GRID_GS_DEFAULT, run_gs, select_lambda_gs
from .linalg import gram
from .objective import LossBreakdown, check_grid, recon_loss, sar_loss, weight_drift
from .quantizer import QuantizedLayer, QuantScheme, rtn
from .saliency import SaliencyProfile, channel_stats, identity_profile
from .seeds import substream

UNCLIPPED = 1e18  # column-norm cap large enough to never bind
METHODS = ("rtn", "awq", "gptq", "sarqc-gs", "sarqc-gbs")
SWEEP_METHODS = {"gs": "sarqc-gs", "gbs": "sarqc-gbs"}
GAMMA_FIXED_DEFAULT = 0.5  # γ of a fixed-λ sarqc-gbs run when none is given
# rank and strength of the low-rank activation directions the synthetic
# problems share between calibration and held-out batches
CORR_RANK = 8
CORR_STRENGTH = 2.0


class FactorReport(NamedTuple):
    """What a GBS layer reports of its curvature factor; the d×d factor
    itself is dropped once the layer is solved."""

    jitter: float
    retries: int
    min_pivot: float


@dataclass(frozen=True)
class Solution:
    """A solved layer, the saliency profile its solver used, the chosen
    hyperparameters (None where the method has none) and the curvature
    factor report of the GBS methods."""

    layer: QuantizedLayer
    profile: SaliencyProfile
    lam: float | None = None
    gamma: float | None = None
    alpha: float | None = None
    factor: FactorReport | None = None


def solutions(
    method: str,
    w,
    batch: CalibrationBatch,
    scheme: QuantScheme,
    lams,
    *,
    gamma: float | None = None,
    lambda_grid=None,
    gamma_grid=None,
    block: int = BLOCK_DEFAULT,
    saliency: str = "saliency",
) -> Iterator[Solution]:
    """Quantize one layer with one of METHODS, once per entry of `lams`,
    yielding a Solution for each in order.

    awq and gptq are the λ = 0, identity-profile cases of sarqc-gs and
    sarqc-gbs. A numeric entry is a fixed λ: sarqc-gs picks α at that one λ
    and sarqc-gbs runs once with γ = `gamma` (default GAMMA_FIXED_DEFAULT).
    A None entry selects λ (and γ for sarqc-gbs) on the validation split
    from `lambda_grid` / `gamma_grid`, the paper's grids when None.
    `saliency="identity"` replaces the saliency profile with the identity.

    Every hyperparameter is checked here, for every method, whether the
    method reads it or not, so a bad value raises one ValueError that names
    it: λ entries finite and ≥ 0 (in any order, as a sweep's are), γ in
    [0, 1], both grids strictly increasing within those bounds, `block` ≥ 1
    and `saliency` "saliency" or "identity".

    The α grid of sarqc-gs does not depend on λ, so it is scored once for
    all entries, and so are the channel statistics of sarqc-gbs. Each
    sarqc-gbs entry builds and factors its own Gram in place, so one
    d_in×d_in array is live at a time.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    lams = tuple(None if lam is None else check_grid("lambda", (lam,), 0.0)[0] for lam in lams)
    if gamma is not None:
        check_grid("gamma", (gamma,), 0.0, 1.0)
    if lambda_grid is None:
        lambda_grid = LAMBDA_GRID_GS_DEFAULT if method in ("awq", "sarqc-gs") else LAMBDA_GRID_GBS_DEFAULT
    lambda_grid = check_grid("lambda_grid", lambda_grid, 0.0)
    gamma_grid = check_grid("gamma_grid", GAMMA_GRID_DEFAULT if gamma_grid is None else gamma_grid, 0.0, 1.0)
    if block < 1:
        raise ValueError(f"block must be at least 1, got {block}")
    if saliency not in ("saliency", "identity"):
        raise ValueError(f"saliency must be 'saliency' or 'identity', got {saliency!r}")

    if method == "rtn":
        for _ in lams:
            yield Solution(rtn(w, scheme), identity_profile(w.shape[1]))
        return
    if method in ("awq", "gptq"):
        lams, saliency = (0.0,) * len(lams), "identity"
    if method in ("awq", "sarqc-gs"):
        if not lams:
            return
        # the α candidates and their losses are shared by every entry
        grid = run_gs(w, batch.train, scheme, "identity" if saliency == "identity" else "gs")
        for lam in lams:
            res = select_lambda_gs(w, batch, scheme, lambda_grid if lam is None else (lam,), grid)
            yield Solution(res.layer, res.profile, lam=res.chosen_lambda, alpha=res.chosen_alpha)
        return
    if method in ("gptq", "sarqc-gbs"):
        kind = "identity" if saliency == "identity" else "gbs"
        stats = channel_stats(w, batch.train) if kind == "gbs" else None
        for lam in lams:
            # one Gram per entry; selection reads its leading block
            g0 = gram(batch.train)
            if lam is None:
                sel = select_hparams_gbs(w, batch, scheme, g0, stats, lambda_grid, gamma_grid, kind, block)
                lam, gam = sel.lam, sel.gamma
            else:
                gam = (gamma if gamma is not None else GAMMA_FIXED_DEFAULT) if kind == "gbs" else None
            prof = profile_for(stats, kind, gam, g0)
            # the factor is built in G0's buffer, so G0 is not read after this.
            # Neither G0 nor the factor is referenced here once run_gbs has it:
            # the pass gets the list's only reference, so it can free M before
            # it builds its outputs
            holder = [build_curvature(g0, prof, lam, context="full layer", overwrite_g=True)]
            del g0
            report = FactorReport(holder[0].jitter, holder[0].retries, holder[0].min_pivot)
            layer = run_gbs(w, holder.pop(), scheme, block)
            yield Solution(layer, prof, lam=float(lam), gamma=gam, factor=report)


def solve(
    method: str,
    w,
    batch: CalibrationBatch,
    scheme: QuantScheme,
    *,
    lam: float | None = None,
    gamma: float | None = None,
    lambda_grid=None,
    gamma_grid=None,
    block: int = BLOCK_DEFAULT,
    saliency: str = "saliency",
) -> Solution:
    """Quantize one layer with one of METHODS: the one-entry case of
    `solutions`, at the fixed `lam` or, when None, with λ selected."""
    return next(
        solutions(
            method,
            w,
            batch,
            scheme,
            (lam,),
            gamma=gamma,
            lambda_grid=lambda_grid,
            gamma_grid=gamma_grid,
            block=block,
            saliency=saliency,
        )
    )


@dataclass(frozen=True)
class SynthLayerSpec:
    d_out: int
    d_in: int
    outlier_channels: int = 0
    outlier_scale: float = 1.0
    weight_std: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.d_out < 1 or self.d_in < 1:
            raise ValueError("layer dimensions must be positive")
        if not 0 <= self.outlier_channels <= self.d_in:
            raise ValueError("outlier_channels must not exceed d_in")
        if self.outlier_scale < 1.0 or self.weight_std <= 0.0:
            raise ValueError("scales must be positive (outlier_scale >= 1)")


def outlier_channel_indices(spec: SynthLayerSpec) -> np.ndarray:
    """Channels designated as outliers, fixed by the spec seed."""
    if spec.outlier_channels == 0:
        return np.empty(0, dtype=np.int64)
    rng = substream(spec.seed, "layer-outliers")
    return np.sort(rng.choice(spec.d_in, size=spec.outlier_channels, replace=False))


def gen_layer(spec: SynthLayerSpec) -> np.ndarray:
    """Gaussian weight matrix with designated channels scaled up."""
    rng = substream(spec.seed, "layer-weights")
    w = rng.normal(0.0, spec.weight_std, size=(spec.d_out, spec.d_in))
    idx = outlier_channel_indices(spec)
    if idx.size:
        w[:, idx] *= spec.outlier_scale
    return w


def activation_factor(d_in: int, rank: int, strength: float, seed: int) -> np.ndarray:
    """Fixed low-rank mixing for correlated activations, covariance I + FFᵀ.

    Derived from the layer seed so calibration and held-out batches share
    the same base distribution.
    """
    if rank < 1 or strength <= 0.0:
        raise ValueError("rank must be >= 1 and strength positive")
    rng = substream(seed, "cov-factor")
    return strength * rng.standard_normal((d_in, rank)) / math.sqrt(rank)


def gen_calibration(
    d_in: int,
    n: int,
    m_x: float,
    seed: int,
    *,
    val_fraction: float = 0.25,
    cov_diag: np.ndarray | None = None,
    cov_factor: np.ndarray | None = None,
    stream: str = "calibration",
) -> CalibrationBatch:
    """I.i.d. Gaussian columns, rescaled so every column 2-norm is <= m_x.

    `cov_factor` adds shared low-rank directions (columns drawn from
    N(0, I + FFᵀ)); `cov_diag` then scales the per-channel standard
    deviations, which is how the scarcity study models calibration shift.
    """
    if n < 2:
        raise ValueError("calibration batch needs at least 2 columns")
    if m_x <= 0.0:
        raise ValueError("m_x must be positive")
    rng = substream(seed, stream)
    x = rng.standard_normal((d_in, n))
    if cov_factor is not None:
        f = np.asarray(cov_factor, dtype=np.float64)
        if f.ndim != 2 or f.shape[0] != d_in:
            raise ValueError("cov_factor must have d_in rows")
        x += f @ rng.standard_normal((f.shape[1], n))
    if cov_diag is not None:
        cd = np.asarray(cov_diag, dtype=np.float64)
        if cd.shape != (d_in,) or np.any(cd <= 0.0):
            raise ValueError("cov_diag must be a positive vector of length d_in")
        x *= np.sqrt(cd)[:, None]
    return split_batch(clip_columns(x, m_x), val_fraction)


@dataclass(frozen=True)
class SweepRecord:
    lam: float
    gamma: float | None
    recon: float
    sar: float
    drift: float
    heldout_risk: float
    method: str
    seed: int


def heldout_risk(w, layer: QuantizedLayer, x_heldout) -> float:
    """Mean squared output deviation per held-out column: the
    reconstruction loss on `x_heldout` divided by its column count."""
    return recon_loss(w, layer.dequantized, x_heldout) / np.shape(x_heldout)[1]


def layer_losses(w, sol: Solution, x_train, x_heldout) -> tuple[LossBreakdown, float]:
    """Reconstruction loss on the training columns, sar loss under the
    solver's profile, drift, and held-out risk of a solved layer.

    The identity profile is all ones and scaling by 1.0 is exact, so its
    sar loss is the drift, bit for bit, and is not computed twice."""
    w_hat = sol.layer.dequantized
    drift = weight_drift(w, w_hat)
    sar = drift if sol.profile.kind == "identity" else sar_loss(w, w_hat, sol.profile)
    losses = LossBreakdown(recon=recon_loss(w, w_hat, x_train), sar=sar, drift=drift)
    return losses, heldout_risk(w, sol.layer, x_heldout)


def sweep_layer(
    w,
    batch: CalibrationBatch,
    x_heldout,
    scheme: QuantScheme,
    method: str,
    lambda_grid,
    *,
    gamma: float | None = None,
    block_size: int = BLOCK_DEFAULT,
    seed: int = 0,
) -> list[SweepRecord]:
    """One record per λ: a fixed-λ solve of one layer by `method` ("gs" or
    "gbs"), scored by `layer_losses`. The rows come from one `solutions`
    pass, so a GS sweep scores the α grid once for the layer."""
    if method not in SWEEP_METHODS:
        raise ValueError(f"unknown sweep method {method!r}")
    lams = tuple(float(lam) for lam in lambda_grid)
    records = []
    rows = solutions(SWEEP_METHODS[method], w, batch, scheme, lams, gamma=gamma, block=block_size)
    for lam, sol in zip(lams, rows):
        losses, risk = layer_losses(w, sol, batch.train, x_heldout)
        records.append(
            SweepRecord(
                lam=lam,
                gamma=sol.gamma,
                recon=losses.recon,
                sar=losses.sar,
                drift=losses.drift,
                heldout_risk=risk,
                method=method,
                seed=seed,
            )
        )
    return records


def _seeded_problem(
    spec: SynthLayerSpec,
    seed: int,
    n_calib: int,
    n_heldout: int,
    m_x: float,
    corr_rank: int,
    corr_strength: float,
    **calib_kw,
) -> tuple[np.ndarray, CalibrationBatch, np.ndarray]:
    """The layer of `spec` at `seed`, a calibration batch of n_calib columns
    (`calib_kw` goes to its `gen_calibration`) and n_heldout held-out
    columns. Both batches share the seed's low-rank activation factor;
    `corr_strength` 0 leaves it out."""
    w = gen_layer(replace(spec, seed=seed))
    factor = activation_factor(spec.d_in, corr_rank, corr_strength, seed) if corr_strength > 0.0 else None
    batch = gen_calibration(spec.d_in, n_calib, m_x, seed, cov_factor=factor, **calib_kw)
    heldout = gen_calibration(spec.d_in, n_heldout, m_x, seed, cov_factor=factor, stream="heldout")
    return w, batch, heldout.x


def sweep_lambda(
    spec: SynthLayerSpec,
    scheme: QuantScheme,
    method: str,
    lambda_grid,
    seeds,
    *,
    n_calib: int = 192,
    n_heldout: int = 512,
    m_x: float = UNCLIPPED,
    gamma: float | None = None,
    block_size: int = BLOCK_DEFAULT,
    val_fraction: float = 0.25,
    corr_rank: int = CORR_RANK,
    corr_strength: float = CORR_STRENGTH,
) -> list[SweepRecord]:
    """Quantize at every (seed, λ) and record the trade-off plus held-out
    risk; output is sorted by (seed, λ).

    recon/sar are the calibration-objective values the solver trades off
    (held-out reconstruction is heldout_risk times the batch size, so
    recording it twice would be redundant); drift is data-free. Activations
    share seeded low-rank correlated directions between the calibration and
    held-out batches.
    """
    if len(tuple(lambda_grid)) == 0:
        raise ValueError("lambda grid must be nonempty")
    records = []
    for seed in seeds:
        w, batch, heldout = _seeded_problem(
            spec, int(seed), n_calib, n_heldout, m_x, corr_rank, corr_strength, val_fraction=val_fraction
        )
        records += sweep_layer(
            w, batch, heldout, scheme, method, lambda_grid, gamma=gamma, block_size=block_size, seed=int(seed)
        )
    records.sort(key=lambda r: (r.seed, r.lam))
    return records


def calib_size_study(
    spec: SynthLayerSpec,
    scheme: QuantScheme,
    sizes,
    *,
    seeds=range(20),
    n_heldout: int = 1024,
) -> list[dict]:
    """Median held-out risk of the λ = 0 baseline vs hyperparameter-selected
    runs for each calibration size.

    Calibration columns are unclipped and drawn from a per-channel perturbed
    covariance (diagonal scaled by 1 + u, u uniform in [-0.3, 0.3]) while
    the held-out batch uses the base covariance.
    """
    sizes = list(sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("sizes must be ascending")
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    rows = []
    for size in sizes:
        base_risks = []
        sel_risks = []
        for seed in seeds:
            u = substream(int(seed), "covshift", size).uniform(-0.3, 0.3, spec.d_in)
            w, batch, heldout = _seeded_problem(
                spec,
                int(seed),
                int(size),
                n_heldout,
                UNCLIPPED,
                CORR_RANK,
                CORR_STRENGTH,
                cov_diag=1.0 + u,
                stream=f"calib-{size}",
            )
            # both methods solve on the same training columns
            for method, risks in (("gptq", base_risks), ("sarqc-gbs", sel_risks)):
                risks.append(heldout_risk(w, solve(method, w, batch, scheme).layer, heldout))
        rows.append(
            {
                "size": int(size),
                "baseline_median": float(np.median(base_risks)),
                "selected_median": float(np.median(sel_risks)),
            }
        )
    return rows
