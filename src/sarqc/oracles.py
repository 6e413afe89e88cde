"""Independent brute-force verifiers for the solver machinery.

Everything here takes the dumb-but-obviously-correct route: reduced linear
systems solved by LAPACK's own Cholesky solve (dpotrf, then dpotrs), with
no jitter, instead of factor tricks; a plain unblocked sequential reference
pass; and Monte Carlo coverage of the finite-class concentration bound,
against each class member's exact true risk. The production solvers are
checked against these paths, never the other way around. Each named suite
spreads its trials over forked workers (`forks.map_trials`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .calibration import clip_columns
from .forks import map_trials, never
from .linalg import TriangularFactor, _lapack, as_matrix, chol_upper_of_inverse, gram
from .quantizer import (
    QuantizedLayer,
    QuantScheme,
    dequantize_with_params,
    group_params,
    quantize_with_params,
)
from .seeds import substream


class PreconditionError(ValueError):
    """The claimed constrained minimizer is not actually one."""


# ---------------------------------------------------------------------------
# Single-coordinate compensation


def oracle_row_update(w_row, g, j: int, qhat_j: float):
    """Exact constrained minimizer of ½ΔᵀGΔ subject to Δ_j = -(w_j - qhat_j).

    Independent path: eliminate coordinate j and solve the reduced SPD
    system for the remaining coordinates with LAPACK's Cholesky solve, the
    dpotrf and dpotrs calls of scipy's cho_factor(lower=True) and
    cho_solve, with no jitter: a reduced block that is not positive
    definite raises LinAlgError. Returns (delta, objective).
    """
    w = np.asarray(w_row, dtype=np.float64)
    g = as_matrix(g, "G")
    d = w.shape[0]
    if g.shape != (d, d):
        raise ValueError("G must be square with the row length")
    if not 0 <= j < d:
        raise ValueError(f"coordinate {j} out of range")
    e = float(w[j] - qhat_j)
    delta = np.zeros(d)
    delta[j] = -e
    rest = [k for k in range(d) if k != j]
    if rest:
        lapack = _lapack()
        c, info = lapack.dpotrf(g[np.ix_(rest, rest)], lower=1, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}-th leading minor of the reduced block is not positive definite")
        if info < 0:
            raise ValueError(f"illegal argument {-info} to potrf")
        x, info = lapack.dpotrs(c, g[rest, j], lower=1)
        if info != 0:
            raise ValueError(f"illegal argument {-info} to potrs")
        delta[rest] = e * x
    obj = 0.5 * float(delta @ g @ delta)
    return delta, obj


def closed_form_row_update(w_row, g, j: int, qhat_j: float, *, flip_sign: bool = False):
    """Inverse-curvature closed form: Δ = -(e / (G⁻¹)_jj) · (G⁻¹)_:,j.

    `flip_sign` is a test-only fault hook that negates the update.
    """
    w = np.asarray(w_row, dtype=np.float64)
    g = as_matrix(g, "G")
    d = w.shape[0]
    if not 0 <= j < d:
        raise ValueError(f"coordinate {j} out of range")
    e = float(w[j] - qhat_j)
    m = chol_upper_of_inverse(g, context="closed form").data
    ginv = m.T @ m
    sign = -1.0 if flip_sign else 1.0
    delta = -sign * (e / ginv[j, j]) * ginv[:, j]
    obj = e * e / (2.0 * ginv[j, j])
    return delta, obj


# ---------------------------------------------------------------------------
# Supportedness of constrained minimizers on a finite frontier


@dataclass(frozen=True)
class FiniteCandidate:
    id: str
    risk: float
    dist: float

    def __post_init__(self):
        if not (math.isfinite(self.risk) and math.isfinite(self.dist)):
            raise ValueError("risk and dist must be finite")
        if self.risk < 0.0 or self.dist < 0.0:
            raise ValueError("risk and dist must be non-negative")


@dataclass(frozen=True)
class LambdaInterval:
    lambda_min: float
    lambda_max: float  # may be +inf
    supported: bool


def _find(candidates: Sequence[FiniteCandidate], chosen_id: str) -> FiniteCandidate:
    for c in candidates:
        if c.id == chosen_id:
            return c
    raise ValueError(f"chosen id {chosen_id!r} not among candidates")


def lambda_interval(candidates: Sequence[FiniteCandidate], chosen_id: str, r_sq: float) -> LambdaInterval:
    """Admissible penalty-strength interval for a fixed constrained minimizer.

    Farther candidates impose lower bounds, closer candidates upper bounds;
    empty sets follow the -inf / +inf conventions.
    """
    chosen = _find(candidates, chosen_id)
    if chosen.dist > r_sq:
        raise PreconditionError(f"chosen candidate violates dist <= {r_sq}")
    for c in candidates:
        if c.dist <= r_sq and c.risk < chosen.risk:
            raise PreconditionError(f"candidate {c.id!r} is feasible with lower risk")
    lower = [
        (chosen.risk - c.risk) / (c.dist - chosen.dist)
        for c in candidates
        if c.dist > chosen.dist
    ]
    upper = [
        (c.risk - chosen.risk) / (chosen.dist - c.dist)
        for c in candidates
        if c.dist < chosen.dist
    ]
    lam_min = max(0.0, max(lower)) if lower else 0.0
    lam_max = min(upper) if upper else math.inf
    return LambdaInterval(lambda_min=lam_min, lambda_max=lam_max, supported=lam_min <= lam_max)


# relative: scores are non-negative and rounded twice, so two that tie
# exactly can differ by an ulp or two of the best score, more than an
# absolute 1e-12 once that score reaches a few thousand
PENALIZED_TIE_TOL = 1e-12


def penalized_argmin(candidates: Sequence[FiniteCandidate], lam: float) -> set[str]:
    """Ids attaining the minimum of risk + λ·dist, with ties within
    PENALIZED_TIE_TOL·max(1, best score)."""
    scores = {c.id: c.risk + lam * c.dist for c in candidates}
    best = min(scores.values())
    cutoff = best + PENALIZED_TIE_TOL * max(1.0, best)
    return {cid for cid, s in scores.items() if s <= cutoff}


@dataclass
class SupportednessReport:
    interval: LambdaInterval
    probes: list[float]
    passed: bool
    counterexample: dict | None = None


def _probes_for(interval: LambdaInterval) -> list[float]:
    lo, hi = interval.lambda_min, interval.lambda_max
    probes = [0.0, lo]
    if lo > 0.0:
        probes.append(0.5 * lo)
    if math.isfinite(hi):
        probes.append(hi)
        if interval.supported:
            probes.append(0.5 * (lo + hi))
        probes.extend([1.5 * hi + 0.1, 2.0 * hi + 1.0])
    else:
        probes.extend([lo + 1.0, lo + 100.0, 1e6])
    return sorted(set(probes))


def verify_supportedness(
    candidates: Sequence[FiniteCandidate],
    chosen_id: str,
    r_sq: float,
    lambda_probe_grid: Sequence[float] | None = None,
    *,
    collapse_interval: bool = False,
) -> SupportednessReport:
    """Check membership of the chosen candidate in the penalized argmin set
    against the interval prediction, probe by probe. Without a probe grid,
    the probes are the interval's ends, midpoints and points past them.

    `collapse_interval` is a test-only fault hook that replaces the computed
    interval by its lower end alone."""
    interval = lambda_interval(candidates, chosen_id, r_sq)
    if collapse_interval:
        interval = LambdaInterval(interval.lambda_min, interval.lambda_min, True)
    probes = _probes_for(interval) if lambda_probe_grid is None else [float(v) for v in lambda_probe_grid]
    for lam in probes:
        if lam < 0.0 or not math.isfinite(lam):
            raise ValueError("probe values must be finite and non-negative")
        member = chosen_id in penalized_argmin(candidates, lam)
        expected = interval.lambda_min <= lam <= interval.lambda_max
        if member != expected:
            return SupportednessReport(
                interval=interval,
                probes=probes,
                passed=False,
                counterexample={
                    "lambda": lam,
                    "member": member,
                    "expected": expected,
                    "interval": [interval.lambda_min, interval.lambda_max],
                    "candidates": [(c.id, c.risk, c.dist) for c in candidates],
                    "chosen": chosen_id,
                    "r_sq": r_sq,
                },
            )
    return SupportednessReport(interval=interval, probes=probes, passed=True)


# ---------------------------------------------------------------------------
# Finite-class concentration coverage


def hoeffding_bound(r: float, m_x: float, class_size: int, n: int, delta: float) -> float:
    """Uniform deviation bound R²·M_X²·sqrt(log(2K/δ) / (2n))."""
    if r < 0.0 or m_x <= 0.0 or class_size < 1 or n < 1 or not 0.0 < delta < 1.0:
        raise ValueError("invalid bound parameters")
    return r * r * m_x * m_x * math.sqrt(math.log(2.0 * class_size / delta) / (2.0 * n))


def _clipped_second_moment(d: int, m_x: float) -> float:
    """c with E[x̃x̃ᵀ] = c·I for x ~ N(0, I_d) clipped to ‖x̃‖ ≤ m_x.

    Clipping changes only the norm, so by rotational symmetry
    c = E[min(Q, m_x²)]/d with Q ~ χ²_d, which is
    P(χ²_{d+2} ≤ m_x²) + (m_x²/d)·(1 − P(χ²_d ≤ m_x²)).
    P(χ²_k ≤ 2y) is the regularized lower incomplete gamma P(k/2, y). It
    starts from P(1/2, y) = erf(√y) for odd d and P(1, y) = 1 − e^{−y} for
    even d, and steps up with P(a+1, y) = P(a, y) − yᵃe^{−y}/Γ(a+1); each
    step subtracts a term from a value already small where y is small, so
    no step cancels against 1.
    """
    y = 0.5 * m_x * m_x
    if d % 2:
        a, p, t = 0.5, math.erf(math.sqrt(y)), 2.0 * math.sqrt(y / math.pi) * math.exp(-y)
    else:
        a, p, t = 1.0, -math.expm1(-y), y * math.exp(-y)
    while a < 0.5 * d:  # invariant: p = P(a, y), t = yᵃe^{−y}/Γ(a+1)
        p -= t
        a += 1.0
        t *= y / a
    return (p - t) + (m_x * m_x / d) * (1.0 - p)


@dataclass
class CoverageReport:
    trials: int
    violations: int
    violation_rate: float
    bound: float
    threshold: float
    c: float
    # mean of risk_cal/‖Δ‖²_F over every member of every trial and its z
    # score against c; None when R = 0 leaves every Δ zero
    ratio_mean: float | None
    z: float | None
    passed: bool


def hoeffding_check(
    d_in: int,
    r: float,
    m_x: float,
    n: int,
    delta: float,
    class_size: int,
    trials: int,
    *,
    seed: int = 0,
    zero_bound: bool = False,
) -> CoverageReport:
    """Monte Carlo coverage of the uniform deviation bound over a random
    finite class of weight perturbations, HOEFFDING_D_OUT × d_in, with
    bounded Frobenius norm.

    Each trial draws the class and n norm-clipped Gaussian calibration
    columns. A member Δ's true risk is exact: E[‖Δx̃‖²] = c·‖Δ‖_F², with c
    from `_clipped_second_moment`. A trial violates when some member's
    calibration risk is farther than the bound from its true risk; the
    pass threshold allows δ plus three binomial standard deviations of the
    violation rate.

    The check also tests c itself: risk_cal/‖Δ‖²_F has mean c, so the mean
    over every member of every trial is compared with c. The K members of a
    trial share one calibration draw, so the standard error is taken over
    the per-trial means, and the check fails when |z| > HOEFFDING_BIAS_Z_MAX.

    `zero_bound` is a test-only fault hook that checks against a bound of
    0 in place of the Hoeffding bound, which every trial violates.
    """
    if d_in < 1 or r < 0.0 or m_x <= 0.0 or n < 2 or class_size < 1:
        raise ValueError("invalid check parameters")
    if trials < HOEFFDING_MIN_TRIALS:
        raise ValueError(f"coverage estimate needs at least {HOEFFDING_MIN_TRIALS} trials")
    bound = 0.0 if zero_bound else hoeffding_bound(r, m_x, class_size, n, delta)
    c = _clipped_second_moment(d_in, m_x)

    def trial(t: int):
        """(whether trial t violates the bound, its mean risk_cal/‖Δ‖²_F or None when R = 0)"""
        rng = substream(seed, "hoeffding", t)
        deltas = rng.standard_normal((class_size, HOEFFDING_D_OUT * d_in))
        norms = np.linalg.norm(deltas, axis=1)
        deltas *= np.minimum(1.0, r / np.maximum(norms, 1e-300))[:, None]
        stacked = deltas.reshape(class_size * HOEFFDING_D_OUT, d_in)

        x_cal = clip_columns(rng.standard_normal((d_in, n)), m_x)

        y_cal = stacked @ x_cal
        risk_cal = (y_cal * y_cal).reshape(class_size, HOEFFDING_D_OUT, n).sum(axis=1).mean(axis=1)
        norm_sq = (deltas * deltas).sum(axis=1)
        risk_true = c * norm_sq
        violated = bool(np.max(np.abs(risk_cal - risk_true)) > bound)
        return violated, np.mean(risk_cal / norm_sq) if r > 0.0 else None

    violations = 0
    trial_ratios = np.empty(trials)
    for t, (violated, ratio) in enumerate(map_trials(trial, trials, never)):
        violations += violated
        if r > 0.0:
            trial_ratios[t] = ratio
    rate = violations / trials
    threshold = delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)
    ratio_mean = z = None
    if r > 0.0:
        ratio_mean = float(np.mean(trial_ratios))
        z = float((ratio_mean - c) / (np.std(trial_ratios, ddof=1) / math.sqrt(trials)))
    return CoverageReport(
        trials=trials,
        violations=violations,
        violation_rate=rate,
        bound=bound,
        threshold=threshold,
        c=c,
        ratio_mean=ratio_mean,
        z=z,
        passed=rate <= threshold and (z is None or abs(z) <= HOEFFDING_BIAS_Z_MAX),
    )


# ---------------------------------------------------------------------------
# Plain sequential reference pass (unblocked)


def greedy_sequential_reference(w, factor: TriangularFactor, scheme: QuantScheme) -> QuantizedLayer:
    """Column-by-column quantize-and-compensate pass with no blocking, given
    the upper factor M of the inverse curvature, which it only reads.

    Transliterates the sequential pseudo-code directly: freeze each group's
    parameters from the working matrix when its first column is reached;
    then, column by column, quantize the working column, divide the error by
    the factor diagonal and subtract its product with the factor row from
    everything to the right. Used as the reference the blocked solver must
    reproduce bit-for-bit at λ = 0.
    """
    w = as_matrix(w, "W")
    d_out, d_in = w.shape
    m = factor.data
    if m.shape[0] != d_in:
        raise ValueError(f"curvature dim {m.shape[0]} does not match d_in {d_in}")

    slices = scheme.group_slices(d_in)
    codes = np.empty((d_out, d_in), dtype=np.int32)
    qhat = np.empty_like(w)
    scales = np.empty((d_out, len(slices)), dtype=np.float64)
    zps = np.empty((d_out, len(slices)), dtype=np.int32)

    u = w.copy()
    for gi, sl in enumerate(slices):
        scales[:, gi], zps[:, gi] = group_params(u[:, sl], scheme)
        s = scales[:, gi]
        z = zps[:, gi]
        for j in range(sl.start, sl.stop):
            c = quantize_with_params(u[:, j], s, z, scheme)
            qcol = dequantize_with_params(c, s, z)
            codes[:, j] = c
            qhat[:, j] = qcol
            e = (u[:, j] - qcol) / m[j, j]
            u[:, j:] -= e[:, None] * m[j, j:]
    return QuantizedLayer(codes=codes, scales=scales, zero_points=zps, dequantized=qhat, scheme=scheme)


# ---------------------------------------------------------------------------
# Named verification suites (used by the CLI and the acceptance tests)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    trials: int
    details: dict = field(default_factory=dict)
    counterexample: dict | None = None


# the sizes of the suites' random instances
COMPENSATION_D_MAX = 8
SUPPORTEDNESS_MAX_CANDIDATES = 16
GPTQ_EQUIV_D_IN_MAX = 64
GPTQ_EQUIV_N = 256
# the hoeffding instance: d_in, output width, radius R, input norm M_X,
# calibration size n, confidence δ and class size K; and the fewest trials
# whose violation rate the coverage check accepts
HOEFFDING_D_IN = 8
HOEFFDING_D_OUT = 4
HOEFFDING_R = 1.0
HOEFFDING_M_X = 1.0
HOEFFDING_N = 200
HOEFFDING_DELTA = 0.05
HOEFFDING_CLASS_SIZE = 16
HOEFFDING_MIN_TRIALS = 1000
# the largest |z| of the mean risk_cal/‖Δ‖²_F against c that the check accepts
HOEFFDING_BIAS_Z_MAX = 6.0


def _compensation_trial(seed: int, t: int, inject_fault: bool):
    """One random SPD instance: (delta error, objective error, a
    counterexample when either passes 1e-9, else None)."""
    rng = substream(seed, "compensation", t)
    d = int(rng.integers(2, COMPENSATION_D_MAX + 1))
    a = rng.standard_normal((d, d))
    g = a @ a.T + (0.5 + rng.uniform()) * np.eye(d)
    w = rng.standard_normal(d)
    j = int(rng.integers(d))
    qhat = w[j] + rng.uniform(-0.5, 0.5)
    delta_o, obj_o = oracle_row_update(w, g, j, qhat)
    delta_c, obj_c = closed_form_row_update(w, g, j, qhat, flip_sign=inject_fault)
    err_d = float(np.max(np.abs(delta_o - delta_c)))
    err_o = abs(obj_o - obj_c) / (1.0 + abs(obj_o))
    if err_d > 1e-9 or err_o > 1e-9:
        return err_d, err_o, {
            "trial": t,
            "G": g.tolist(),
            "w": w.tolist(),
            "j": j,
            "qhat": float(qhat),
            "delta_err": err_d,
            "obj_rel_err": err_o,
        }
    return err_d, err_o, None


def run_compensation_suite(trials: int, seed: int, *, inject_fault: bool = False) -> SuiteResult:
    """Closed-form update vs reduced-system oracle on random SPD instances.

    `inject_fault` is a test-only hook that negates the closed-form update."""
    worst_delta = 0.0
    worst_obj = 0.0
    counterexample = None
    records = map_trials(lambda t: _compensation_trial(seed, t, inject_fault), trials, lambda rec: rec[2] is not None)
    for err_d, err_o, counterexample in records:
        worst_delta = max(worst_delta, err_d)
        worst_obj = max(worst_obj, err_o)
    return SuiteResult(
        name="compensation",
        passed=counterexample is None,
        trials=trials,
        details={"max_delta_err": worst_delta, "max_obj_rel_err": worst_obj},
        counterexample=counterexample,
    )


WORKED_FRONTIER = (
    FiniteCandidate("A", 1.0, 4.0),
    FiniteCandidate("B", 0.5, 9.0),
    FiniteCandidate("C", 2.0, 1.0),
)


def _supportedness_trial(seed: int, t: int):
    """One random frontier: (whether the chosen candidate's λ interval is
    non-empty, the counterexample of a failed probe or None)."""
    rng = substream(seed, "supportedness", t)
    q = int(rng.integers(1, SUPPORTEDNESS_MAX_CANDIDATES + 1))
    if t % 2 == 0:
        risks = rng.integers(0, 21, q).astype(float)
        dists = rng.integers(0, 21, q).astype(float)
    else:
        risks = rng.uniform(0.0, 10.0, q)
        dists = rng.uniform(0.0, 10.0, q)
    cands = [FiniteCandidate(f"c{i}", float(risks[i]), float(dists[i])) for i in range(q)]
    r_sq = float(dists[int(rng.integers(q))])
    feasible = [c for c in cands if c.dist <= r_sq]
    chosen = min(feasible, key=lambda c: (c.risk, c.id))
    report = verify_supportedness(cands, chosen.id, r_sq)
    return report.interval.supported, report.counterexample


def run_supportedness_suite(trials: int, seed: int, *, inject_fault: bool = False) -> SuiteResult:
    """Interval membership <=> penalized argmin on random finite frontiers.

    Trial 0 is the fixed worked three-candidate instance; even trials use
    integer-valued losses so ties are exact, odd trials continuous ones.
    `inject_fault` is a test-only hook that collapses the worked instance's
    interval onto its lower end, so its probes inside the interval fail.
    """
    report = verify_supportedness(
        WORKED_FRONTIER, "A", 4.0, [0.05, 0.1, 0.2, 1.0 / 3.0, 0.5], collapse_interval=inject_fault
    )
    if not report.passed:
        return SuiteResult("supportedness", False, trials, counterexample=report.counterexample)
    iv = report.interval
    if not (abs(iv.lambda_min - 0.1) < 1e-12 and abs(iv.lambda_max - 1.0 / 3.0) < 1e-12 and iv.supported):
        return SuiteResult(
            "supportedness",
            False,
            trials,
            counterexample={"worked_interval": [iv.lambda_min, iv.lambda_max]},
        )

    supported_seen = 0
    counterexample = None
    records = map_trials(lambda t: _supportedness_trial(seed, t), trials, lambda rec: rec[1] is not None)
    for t, (supported, counterexample) in enumerate(records):
        supported_seen += supported
    if counterexample is not None:  # the last record stopped the run
        return SuiteResult("supportedness", False, trials, details={"trial": t}, counterexample=counterexample)
    return SuiteResult(
        "supportedness",
        True,
        trials,
        details={"supported_instances": supported_seen},
    )


def run_hoeffding_suite(trials: int, seed: int, *, inject_fault: bool = False) -> SuiteResult:
    """`hoeffding_check` on the suite's fixed instance, at least
    HOEFFDING_MIN_TRIALS trials. Its worst calibration gap, about 0.03–0.04,
    sits so far inside the bound of 0.127 that the coverage check alone
    cannot see an error in the true risk c·‖Δ‖²_F below about 0.09·‖Δ‖²_F.
    The bias check can: at 1000 trials the standard error of the mean
    ratio is about 4.7e-5 (0.04% of c ≈ 0.125), so |z| > 6 fails the suite
    once c is off by more than about 3e-4, 0.2% of c; χ²_d in place of
    χ²_{d+2} moves c by 1.3% and reads z ≈ 34.

    `inject_fault` is a test-only hook that checks against a zero bound."""
    trials = max(trials, HOEFFDING_MIN_TRIALS)
    report = hoeffding_check(
        HOEFFDING_D_IN,
        HOEFFDING_R,
        HOEFFDING_M_X,
        HOEFFDING_N,
        HOEFFDING_DELTA,
        HOEFFDING_CLASS_SIZE,
        trials,
        seed=seed,
        zero_bound=inject_fault,
    )
    return SuiteResult(
        name="hoeffding",
        passed=report.passed,
        trials=trials,
        details={
            "bound": report.bound,
            "violation_rate": report.violation_rate,
            "threshold": report.threshold,
            "c": report.c,
            "ratio_mean": report.ratio_mean,
            "z": report.z,
        },
        counterexample=None if report.passed else {"violations": report.violations, "z": report.z},
    )


def _gptq_equiv_trial(seed: int, t: int, inject_fault: bool):
    """One random layer: a counterexample when the blocked solver's bytes
    differ from the reference's, else None."""
    from .gbs import build_curvature, run_gbs
    from .saliency import identity_profile

    rng = substream(seed, "gptq-equiv", t)
    d_in = int(rng.integers(8, GPTQ_EQUIV_D_IN_MAX + 1))
    d_out = int(rng.integers(4, 33))
    w = rng.standard_normal((d_out, d_in))
    x = rng.standard_normal((d_in, GPTQ_EQUIV_N))
    mode = "symmetric" if rng.integers(2) else "asymmetric"
    group: int | str = [16, 32, "per_channel"][int(rng.integers(3))]
    scheme = QuantScheme(bits=int(rng.integers(3, 5)), mode=mode, group_size=group)

    factor = build_curvature(gram(x), identity_profile(d_in), 0.0)
    solver = run_gbs(w, factor, scheme, block_size=128)
    ref = greedy_sequential_reference(w, factor, scheme)
    if inject_fault:
        solver.codes[0, 0] ^= 1
    # bytes, not values: a −0.0 in place of +0.0 is a difference
    if all(
        getattr(solver, f).tobytes() == getattr(ref, f).tobytes()
        for f in ("codes", "scales", "zero_points", "dequantized")
    ):
        return None
    return {
        "trial": t,
        "d_in": d_in,
        "d_out": d_out,
        "scheme": {"bits": scheme.bits, "mode": mode, "group_size": group},
        "code_mismatches": int(np.sum(solver.codes != ref.codes)),
    }


def run_gptq_equiv_suite(trials: int, seed: int, *, inject_fault: bool = False) -> SuiteResult:
    """Blocked solver at λ = 0 vs the unblocked reference, bit for bit:
    codes, scales, zero points and dequantized weights. Both passes read the
    one λ = 0 factor of each trial's Gram.

    `inject_fault` is a test-only hook that changes one solver code before
    the comparison."""
    counterexample = None
    records = map_trials(lambda t: _gptq_equiv_trial(seed, t, inject_fault), trials, lambda rec: rec is not None)
    for counterexample in records:  # only the last record, which stops the run, can be one
        pass
    return SuiteResult(name="gptq-equiv", passed=counterexample is None, trials=trials, counterexample=counterexample)
