"""Gram-based sequential quantization with regularized curvature.

The curvature G = XXᵀ + λ·diag(s²) replaces the plain Gram matrix; columns
are quantized left to right and the committed error of each column is
compensated into the later ones through rows of M = chol(G⁻¹)ᵀ. A column
inside a block takes the updates of the block's earlier columns when the
pass reaches it; trailing columns get one batched update per block. λ = 0
recovers the undamped Gram-only pass.

The pass works on a copy of W in W's own (d_out, d_in) layout, which
becomes the dequantized output. Each block's columns are copied into a
tile where each of them is a contiguous row, quantized there, and written
back with their codes; the fold into the later columns is one GEMM with a
contiguous subtract. A column's pending in-block updates are subtracted as
one in-order chain (`_subtract_in_order`), so each entry gets the same
rounded products subtracted in the same order as when every rank-1 update
is applied at once: the bytes are those of the eager pass, which
tests/test_gbs.py keeps as `run_gbs_column_layout`. A GEMV over the
block's errors would sum in another order and move them.

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
M before it returns.
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


def _subtract_in_order(row, m_col, errs, stack) -> None:
    """row ← row − fl(errs[0]·m_col[0]) − fl(errs[1]·m_col[1]) − …, one
    subtraction at a time from left to right, so each entry gets the bytes
    of the rank-1 updates it stands for applied one by one; a GEMV would sum
    in another order. `stack` is scratch of at least len(m_col) + 1 rows."""
    k = len(m_col)
    stack[0] = row
    prods = stack[1 : k + 1]
    # filling the column and scaling it in place is cheaper than the
    # broadcast product, and the products commute: same bytes
    prods[...] = m_col[:, None]
    prods *= errs
    np.subtract.reduce(stack[: k + 1], axis=0, out=row)


def run_gbs(w, factor: TriangularFactor, scheme: QuantScheme, block_size: int = BLOCK_DEFAULT) -> QuantizedLayer:
    """Blockwise sequential quantization with closed-form compensation,
    given the upper factor M of the inverse curvature.

    The pass works on a copy of W in W's own (d_out, d_in) layout, which
    becomes the dequantized output, and fills the codes in place. Each
    block's columns are copied into a (block, d_out) tile whose contiguous
    rows the column loop quantizes; the dequantized tile and its codes are
    written back and the later columns get one GEMM fold per block.

    Inside a block, column r takes the pending updates of columns [c, r)
    when the loop reaches it, as one left-to-right subtraction chain, so
    each entry gets the same rounded products subtracted in the same order
    as when every update is applied eagerly: the bytes do not depend on
    when an update is applied. A group's first column first brings the
    group's rows in the block up to date, so its parameters see the same
    values.

    M is read only in the column loop, and the pass drops its own
    references to it before it returns; no W-sized array is built after the
    last fold. A caller that hands over its only reference (for example
    `run_gbs(w, holder.pop(), …)`) lets the pass free M there."""
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
    qmin, qmax = float(scheme.qmin), float(scheme.qmax)
    mdiag = m.diagonal().tolist()
    # the working copy: columns left of the current block hold the
    # dequantized layer, columns right of it W with every fold so far
    a = np.array(w, order="C")
    codes = np.empty((d_out, d_in), dtype=np.int32)
    scales = np.empty((d_out, len(slices)))
    zps = np.empty((d_out, len(slices)), dtype=np.int32)
    # per-block buffers: the block's columns as rows, their codes, their
    # errors, the subtraction chain's scratch, and the quantizer's float
    # codes, then the dequantized column. The errors are copied into the
    # chain's scratch, idle by then, as the C-ordered (d_out, b) operand of
    # a fold; an F-ordered one moves bytes
    b = min(block_size, d_in)
    tile = np.empty((b, d_out))
    ctile = np.empty((b, d_out), dtype=np.int32)
    errs = np.empty((b, d_out))
    stack = np.empty((b, d_out))
    e_blk = stack.reshape(d_out, b)
    q = np.empty(d_out)
    gi_cur = -1

    for i in range(0, d_in, block_size):
        i_end = min(i + block_size, d_in)
        n = i_end - i
        tile[:n] = a[:, i:i_end].T
        # the tile rows of the current group hold the updates of columns [i, c)
        c = i
        for r in range(i, i_end):
            t = r - i
            gi = groups[r]
            if gi != gi_cur:  # groups are visited in order; r is the first column of group gi
                sl = slices[gi]
                if r == i:
                    # nothing in this block is updated yet: the tile is a's copy
                    g = a[:, sl]
                else:
                    # the group's rows in this block take the updates of
                    # columns [i, r) now, so its parameters see their values
                    for rr in range(r, min(sl.stop, i_end)):
                        _subtract_in_order(tile[rr - i], m[i:r, rr], errs[:t], stack)
                    c = r
                    if sl.stop > i_end:
                        # group columns past the block boundary are missing
                        # the pending updates from columns [i, r); fold them
                        # in so group parameters are block-size independent
                        e_blk[:, :t] = errs[:t].T
                        g = np.empty((d_out, sl.stop - r))
                        g[:, : n - t] = tile[t:n].T
                        np.subtract(a[:, i_end : sl.stop], e_blk[:, :t] @ m[i:r, i_end : sl.stop], out=g[:, n - t :])
                    else:
                        g = tile[t : sl.stop - i].T
                s, z = group_params(g, scheme)
                scales[:, gi], zps[:, gi] = s, z
                zf = z.astype(np.float64)
                gi_cur = gi
            row = tile[t]
            if r > c:
                _subtract_in_order(row, m[c:r, r], errs[c - i : t], stack)
            # quantize_with_params and dequantize_with_params, written out on
            # the buffers: clip(rint(u / s + z)), then s · (codes − z) read
            # from the int codes, which hold +0 where rint gave −0.0
            np.divide(row, s, out=q)
            q += zf
            np.rint(q, out=q)
            q.clip(qmin, qmax, out=q)
            ct = ctile[t]
            ct[...] = q
            np.subtract(ct, zf, out=q)
            q *= s
            e = errs[t]
            np.subtract(row, q, out=e)
            row[...] = q
            e /= mdiag[r]
        a[:, i:i_end] = tile[:n].T
        codes[:, i:i_end] = ctile[:n].T
        if i_end < d_in:
            e_blk[...] = errs.T
            a[:, i_end:] -= e_blk @ m[i:i_end, i_end:]
    # M is not read again: with the caller's reference handed over, it is
    # freed here
    del factor, m
    return QuantizedLayer(codes=codes, scales=scales, zero_points=zps, dequantized=a, scheme=scheme)


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
