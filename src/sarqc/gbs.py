"""Gram-based sequential quantization with regularized curvature.

The curvature G = XXᵀ + λ·diag(s²) replaces the plain Gram matrix; columns
are quantized left to right and the committed error of each column is
compensated into the later ones through rows of M = chol(G⁻¹)ᵀ. Updates
inside a block are applied immediately, trailing columns get one batched
update per block. λ = 0 recovers the undamped Gram-only pass.

The pass works on a transposed (d_in, d_out) copy of W, so each column it
quantizes and each in-block update is a contiguous row; each quantized row
is overwritten with its dequantized values, and the outputs are transposed
back to the (d_out, ·) layout one at a time. The arithmetic, including the
orientation of the per-block products, is that of a (d_out, d_in) pass, so
the bytes do not depend on the layout.

Group quantization parameters are frozen from the working matrix at the
moment a group's first column is reached and are held fixed for the rest of
the pass, so the per-coordinate quantizer stays affine during compensation.

Callers build the Gram G0 = XXᵀ and the channel statistics of a layer once
and pass them to `profile_for` (h̄ is the mean diagonal of G0) and
`build_curvature`. `select_hparams_gbs` only picks (λ, γ), reading the
leading block of the layer's G0 and the leading entries of its statistics;
`harness.solutions` runs the full layer with the same G0 and statistics,
builds the full-layer factor in G0's buffer once nothing reads G0 again,
and hands `run_gbs` its only reference to that factor, so the pass frees
M before it builds its outputs.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import NamedTuple

import numpy as np

from .calibration import CalibrationBatch
from .linalg import NumericalFailure, TriangularFactor, as_matrix, chol_upper_of_inverse, scaled_mean
from .objective import recon_loss
from .quantizer import QuantizedLayer, QuantScheme, group_params
from .saliency import ChannelStats, SaliencyProfile, identity_profile, saliency_vector_gbs, scale_normalize_gbs

LAMBDA_GRID_GBS_DEFAULT = (0.25, 0.5, 0.75)
GAMMA_GRID_DEFAULT = (0.1, 0.15, 0.35, 0.5)
BLOCK_DEFAULT = 128  # columns per block of the sequential pass
# selection runs on the first max(SUBSET_MIN, ceil(SUBSET_FRACTION · d_in)) channels
SUBSET_FRACTION = 0.25
SUBSET_MIN = 32


def h_bar_of_gram(g0: np.ndarray) -> float:
    """h̄, the mean diagonal of the Gram G0, by `scaled_mean`, so a diagonal
    whose sum overflows still gives the finite mean; NumericalFailure when
    the mean itself is not finite."""
    h_bar = scaled_mean(np.diag(g0))
    if not math.isfinite(h_bar):
        raise NumericalFailure(f"mean diagonal of the {g0.shape} Gram matrix is not finite")
    return h_bar


def build_curvature(
    g0, profile: SaliencyProfile, lam: float, *, context: str = "curvature", overwrite_g: bool = False
) -> TriangularFactor:
    """The inverse-Cholesky factor of G = G0 + λ·diag(s²), for the Gram
    G0 = XXᵀ of the training activations.

    The profile must already be scale-normalized; an identity profile is
    normalized internally with the mean Gram diagonal, so identity + λ is
    plain isotropic damping of magnitude λ·h̄. G itself is never built:
    the damping λ·s² is the `shift` that chol_upper_of_inverse adds while
    filling its one working array, which is G0's own buffer with
    `overwrite_g` (G0 must not be read again).
    """
    if profile.values.shape[0] != g0.shape[0]:
        raise ValueError("profile length does not match input channels")
    if not (math.isfinite(lam) and lam >= 0.0):
        raise ValueError(f"lambda must be finite and non-negative, got {lam}")
    if lam == 0.0:
        return chol_upper_of_inverse(g0, context=context, overwrite_g=overwrite_g)
    if profile.kind == "identity":
        h_bar = h_bar_of_gram(g0)
        if not h_bar > 0.0:
            raise ValueError("cannot scale-normalize: mean Gram diagonal is not positive")
        profile = scale_normalize_gbs(np.ones(g0.shape[0]), h_bar)
    return chol_upper_of_inverse(g0, shift=lam * profile.values**2, context=context, overwrite_g=overwrite_g)


def run_gbs(w, factor: TriangularFactor, scheme: QuantScheme, block_size: int = BLOCK_DEFAULT) -> QuantizedLayer:
    """Blockwise sequential quantization with closed-form compensation,
    given the upper factor M of the inverse curvature.

    M is read only in the column loop, and the pass drops its own
    references to it before it builds the outputs. A caller that hands
    over its only reference (for example `run_gbs(w, holder.pop(), …)`)
    lets the pass free M at that point, so M does not sit beside the
    outputs."""
    w = as_matrix(w, "W")
    d_out, d_in = w.shape
    m = factor.data
    if d_in == 0:
        raise ValueError("layer has no input channels")
    if m.shape[0] != d_in:
        raise ValueError(f"curvature dim {m.shape[0]} does not match d_in {d_in}")
    if block_size < 1:
        raise ValueError("block_size must be >= 1")

    slices = scheme.group_slices(d_in)
    groups = scheme.group_index(d_in).tolist()
    qmin, qmax = scheme.qmin, scheme.qmax
    # transposed working copy: column j of W is the contiguous row u[j],
    # which holds column j of the dequantized layer once j is quantized
    codes = np.empty((d_in, d_out), dtype=np.int32)
    scales = np.empty((len(slices), d_out))
    zps = np.empty((len(slices), d_out), dtype=np.int32)
    # per-column buffers: the quantizer's float codes, then the dequantized
    # column, and the error row; the rank-1 update of the rest of the block
    # goes through `scratch`
    q = np.empty(d_out)
    e = np.empty(d_out)
    scratch = np.empty((min(block_size, d_in), d_out))
    gi_cur = -1

    u = w.T.copy()
    for i in range(0, d_in, block_size):
        i_end = min(i + block_size, d_in)
        e_blk = np.empty((d_out, i_end - i))
        for j in range(i, i_end):
            gi = groups[j]
            if gi != gi_cur:  # groups are visited in order; j is the first column of group gi
                sl = slices[gi]
                g_slice = u[sl]
                if sl.stop > i_end and j > i:
                    # group columns past the block boundary are missing the
                    # pending updates from columns [i, j); fold them in so
                    # group parameters are block-size independent
                    g_slice = g_slice.copy()
                    g_slice[i_end - sl.start :] -= (e_blk[:, : j - i] @ m[i:j, i_end : sl.stop]).T
                scales[gi], zps[gi] = group_params(g_slice.T, scheme)
                gi_cur = gi
                s = scales[gi]
                zf = zps[gi].astype(np.float64)
            # quantize_with_params and dequantize_with_params, written out on
            # the buffers: clip(rint(u / s + z)), then s · (codes − z) read
            # from the int codes, which hold +0 where rint gave −0.0
            np.divide(u[j], s, out=q)
            q += zf
            np.rint(q, out=q)
            np.maximum(q, qmin, out=q)
            np.minimum(q, qmax, out=q)
            codes[j] = q
            np.subtract(codes[j], zf, out=q)
            q *= s
            np.subtract(u[j], q, out=e)
            u[j] = q
            e /= m[j, j]
            e_blk[:, j - i] = e
            # row j itself is not read again, so the update starts below it
            n = i_end - j - 1
            if n:
                # copying e and scaling it in place is cheaper than the
                # broadcast product, and the products commute: same bytes
                upd = scratch[:n]
                upd[...] = e
                upd *= m[j, j + 1 : i_end, None]
                u[j + 1 : i_end] -= upd
        if i_end < d_in:
            # the fold is the (d_out, ·) GEMM, transposed; m[…].T @ e_blk.T
            # sums in another order and moves bytes
            u[i_end:] -= (e_blk @ m[i:i_end, i_end:]).T
    # M is not read again: with the caller's reference handed over, it is
    # freed here, before the outputs are built
    del factor, m, q, e, scratch
    # each transposed output replaces its source before the next is built
    codes = np.ascontiguousarray(codes.T)
    qhat = np.ascontiguousarray(u.T)
    del u
    scales, zps = np.ascontiguousarray(scales.T), np.ascontiguousarray(zps.T)
    return QuantizedLayer(codes=codes, scales=scales, zero_points=zps, dequantized=qhat, scheme=scheme)


def profile_for(stats: ChannelStats | None, kind: str, gamma: float | None, g0: np.ndarray) -> SaliencyProfile:
    """Scale-normalized saliency profile from the channel statistics of the
    weights and activations; g0 is the Gram XXᵀ of those activations, whose
    mean diagonal sets the scale. The identity kind reads only d_in from g0."""
    if kind == "identity":
        return identity_profile(g0.shape[0])
    if gamma is None:
        raise ValueError("gamma is required for the gbs saliency profile")
    if stats is None:
        raise ValueError("channel statistics are required for the gbs saliency profile")
    raw = saliency_vector_gbs(stats, gamma)
    return scale_normalize_gbs(raw, h_bar_of_gram(g0))


class HparamSelection(NamedTuple):
    lam: float
    gamma: float | None
    val_table: tuple[tuple[float, float | None, float], ...]


def select_hparams_gbs(
    w,
    batch: CalibrationBatch,
    scheme: QuantScheme,
    g0: np.ndarray,
    stats: ChannelStats | None,
    lambda_grid: tuple[float, ...],
    gamma_grid: tuple[float, ...],
    saliency_kind: str,
    block_size: int,
) -> HparamSelection:
    """Search (λ, γ) over the two grids on a contiguous low-index channel
    subset of k channels; the identity `saliency_kind` has no γ and searches
    λ alone. The grids are used as given: `harness.solutions` checks them.

    g0 is the Gram of the full training split and stats the channel
    statistics of W and that split (None for the identity kind). The
    subset reads their leading k×k block and first k entries, which are
    what the subset's own Gram and statistics would be, so neither is
    recomputed. One profile per γ is built and shared across the λ grid.
    Each pair is scored by reconstruction error on the validation split
    restricted to the subset channels; ties go to the smallest λ, then the
    smallest γ. The full layer is not run here: the caller applies the
    winning pair with the full training split.
    """
    w = as_matrix(w, "W")
    d_in = w.shape[1]
    if batch.d_in != d_in:
        raise ValueError("calibration batch does not match layer input width")
    if g0.shape != (d_in, d_in):
        raise ValueError("Gram does not match layer input width")
    k = min(d_in, max(SUBSET_MIN, math.ceil(SUBSET_FRACTION * d_in)))
    w_sub = w[:, :k]
    x_val_sub = batch.val[:k, :]
    g0_sub = g0[:k, :k]
    stats_sub = None if stats is None else ChannelStats(*(getattr(stats, f.name)[:k] for f in fields(stats)))
    gammas: tuple[float | None, ...]
    gammas = gamma_grid if saliency_kind == "gbs" else (None,)

    profiles = {gamma: profile_for(stats_sub, saliency_kind, gamma, g0_sub) for gamma in gammas}
    best: tuple[float, float | None] | None = None
    best_v = np.inf
    table: list[tuple[float, float | None, float]] = []
    for lam in lambda_grid:
        for gamma in gammas:
            factor = build_curvature(g0_sub, profiles[gamma], lam, context="hparam subset")
            ql = run_gbs(w_sub, factor, scheme, block_size)
            v = recon_loss(w_sub, ql.dequantized, x_val_sub)
            table.append((lam, gamma, v))
            if v < best_v:
                best, best_v = (lam, gamma), v
    assert best is not None
    return HparamSelection(lam=best[0], gamma=best[1], val_table=tuple(table))
