"""Bias / sample-variance / computational-variance decomposition.

For a fixed training sample, the excess risk of the mini-batch iterate
splits (in expectation over the index draws) into three parts measured
in L2 of a surrogate input measure:

* bias: squared distance between the population iterate (exact targets,
  surrogate measure) and the true regression function;
* sample variance: squared distance between the batch iterate (noisy
  sample) and the population iterate;
* computational variance: expected squared distance between the
  mini-batch iterate and the batch iterate, estimated over independent
  index plans.

The decomposition inequality
``total <= 2 bias^2 + 2 sample_var^2 + comp_var^2`` holds exactly in
expectation; the Monte Carlo report checks it with a 5 standard-error
allowance, where the standard error is taken of the per-trial
difference (total_r - comp_var_r), the exact quantity whose sampling
fluctuation can break the inequality.

All cross-backend distances are computed by evaluating both hypotheses
on the surrogate points; coefficient vectors over different anchor sets
are never subtracted. The regression function stands in for its
projection onto the model class, which is exact in the full-rank
euclidean mode and for universal kernels such as the Gaussian; for
other kernels the reported bias also contains the (constant in t)
approximation mismatch.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .iterations import (
    normalize_checkpoints,
    run_batch_gm,
    run_population,
    run_sgm_trials,
    sample_index_plan,
)
from .kernels import KernelSpec, cross_matrix
from .rng import mix_seed
from .schedules import StepSchedule, passes
from .spaces import AnchorSet, HypothesisVector, mean_square_error

_SLACK = 1e-12


@dataclass(frozen=True)
class DecompositionReport:
    """Per-checkpoint error terms with Monte Carlo standard errors.

    ``total_se`` is the standard error of the total; ``combined_se`` is
    the standard error of (total - comp_var) over trials and feeds the
    inequality flag ``ineq_ok``.
    """

    checkpoints: tuple
    passes: tuple
    bias_sq: np.ndarray
    sample_var_sq: np.ndarray
    comp_var_sq: np.ndarray
    total: np.ndarray
    total_se: np.ndarray
    combined_se: np.ndarray
    ineq_ok: tuple
    r_trials: int
    config: dict

    def row(self, i: int) -> dict:
        return {
            "t": self.checkpoints[i],
            "pass": self.passes[i],
            "bias_sq": float(self.bias_sq[i]),
            "sample_var_sq": float(self.sample_var_sq[i]),
            "comp_var_sq": float(self.comp_var_sq[i]),
            "total": float(self.total[i]),
            "total_se": float(self.total_se[i]),
            "ineq_ok": bool(self.ineq_ok[i]),
        }

    def rows(self) -> list:
        return [self.row(i) for i in range(len(self.checkpoints))]

    def total_minimizer(self) -> int:
        """Checkpoint with the smallest total error (first on ties)."""
        return self.checkpoints[int(np.argmin(self.total))]

    def to_json_dict(self) -> dict:
        return {
            "config": self.config,
            "r_trials": self.r_trials,
            "combined_se": [float(v) for v in self.combined_se],
            "rows": self.rows(),
        }

    def to_csv(self, path) -> None:
        cols = ["t", "pass", "bias_sq", "sample_var_sq", "comp_var_sq", "total", "total_se", "ineq_ok"]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            if self.config:
                fh.write("# config: " + json.dumps(self.config, sort_keys=True) + "\n")
            writer = csv.DictWriter(fh, fieldnames=cols)
            writer.writeheader()
            for row in self.rows():
                writer.writerow(row)


def excess_risk(h: HypothesisVector, surrogate, f_true) -> float:
    """Mean squared gap to the true regression function over the
    surrogate points (an :class:`AnchorSet` or a point array): the L2
    proxy for risk minus its infimum."""
    pts = surrogate.points if isinstance(surrogate, AnchorSet) else np.asarray(surrogate, float)
    return mean_square_error(h, pts, f_true(pts))


def h_norm_error(h: HypothesisVector, w_star) -> float:
    """Squared H-norm distance to a known minimizer (euclidean only)."""
    if h.backend != "euclidean":
        raise ValueError("H-norm error requires a known minimizer; only the "
                         "euclidean backend exposes one")
    w = np.asarray(w_star, dtype=np.float64).reshape(-1)
    if w.shape[0] != h.coeffs.shape[0]:
        raise ValueError(f"minimizer has length {w.shape[0]}, hypothesis {h.coeffs.shape[0]}")
    diff = h.coeffs - w
    return float(diff @ diff)


def effective_dimension(eigenvalues, lam: float) -> float:
    """sum_i sigma_i / (sigma_i + lam); nonincreasing in lam."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    eigs = np.asarray(eigenvalues, dtype=np.float64).reshape(-1)
    if np.any(eigs < 0):
        raise ValueError("eigenvalues must be nonnegative")
    return float(np.sum(eigs / (eigs + lam)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(error) against ln(m)."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int
    excluded: tuple = ()


def fit_rate(pairs) -> RateFit:
    """Ordinary least squares on (ln m, ln error).

    Pairs with nonpositive error are excluded (and reported); at least
    three positive pairs must remain.
    """
    kept, dropped = [], []
    for m, err in pairs:
        (kept if err > 0 else dropped).append((float(m), float(err)))
    if len(kept) < 3:
        raise ValueError(
            f"rate fitting needs >= 3 positive-error pairs, got {len(kept)}"
        )
    log_m = np.log([m for m, _ in kept])
    log_e = np.log([e for _, e in kept])
    slope, intercept = np.polyfit(log_m, log_e, 1)
    fitted = slope * log_m + intercept
    ss_res = float(np.sum((log_e - fitted) ** 2))
    ss_tot = float(np.sum((log_e - np.mean(log_e)) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-300 else 0.0
    else:
        r2 = min(max(1.0 - ss_res / ss_tot, 0.0), 1.0)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_used=len(kept),
        excluded=tuple(m for m, _ in dropped),
    )


def _deterministic_terms(sample, surrogate, f_true, kernel, schedule, T, cps):
    """What both reports share: the surrogate targets, the training
    context, the matrix taking training coefficients to surrogate values,
    the batch iterate's surrogate values, bias^2 and sample variance^2."""
    pts = surrogate.points if isinstance(surrogate, AnchorSet) else np.asarray(surrogate, float)
    f_vals = np.asarray(f_true(pts), dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(f_vals)):
        raise ValueError("f_true produced non-finite values on the surrogate")
    if kernel is None:
        ctx, eval_mat = None, pts.reshape(pts.shape[0], -1)
        pop_vals = run_population(pts, f_true, schedule, T, cps).values(eval_mat)
    else:
        ctx = AnchorSet.build(kernel, sample.x, check_psd=None)
        surr_run = (
            surrogate
            if isinstance(surrogate, AnchorSet)
            else AnchorSet.build(kernel, pts, check_psd=False)
        )
        eval_mat = cross_matrix(kernel, pts, sample.x)
        # population expansions are anchored on the surrogate itself
        pop_vals = run_population(surr_run, f_true, schedule, T, cps).values(surr_run.gram.values)
    batch_vals = run_batch_gm(sample, ctx, schedule, T, cps).values(eval_mat)
    bias_sq = np.mean((pop_vals - f_vals[None, :]) ** 2, axis=1)
    sample_var_sq = np.mean((batch_vals - pop_vals) ** 2, axis=1)
    return f_vals, ctx, eval_mat, batch_vals, bias_sq, sample_var_sq


def decompose(
    sample: Sample,
    surrogate,
    f_true,
    kernel: KernelSpec | None,
    schedule: StepSchedule,
    b: int,
    T: int,
    R: int,
    base_seed: int,
    checkpoints=None,
) -> DecompositionReport:
    """Estimate the three-term decomposition along one training run.

    Runs the population iteration once on the surrogate, the batch
    iteration once on the sample, and R mini-batch runs whose plans use
    seeds ``mix_seed(base_seed, r)`` for r = 0..R-1. ``kernel=None``
    selects the euclidean backend, in which case ``surrogate`` is a
    coordinate array. The R trials advance together through
    :func:`run_sgm_trials`.
    """
    if R < 2:
        raise ValueError(f"need at least 2 trials for standard errors, got {R}")
    cps = normalize_checkpoints(checkpoints, T)
    f_vals, ctx, eval_mat, batch_vals, bias_sq, sample_var_sq = _deterministic_terms(
        sample, surrogate, f_true, kernel, schedule, T, cps)

    plans = [sample_index_plan(sample.m, b, T, mix_seed(base_seed, r)) for r in range(R)]
    # every trial's value at every surrogate point, (n_cp, R, N)
    vals = run_sgm_trials(sample, ctx, schedule, plans, cps) @ eval_mat.T
    sq = vals - f_vals
    tot_trials = np.square(sq, out=sq).mean(axis=2).T  # (R, n_cp)
    np.subtract(vals, batch_vals[:, None, :], out=sq)
    comp_trials = np.square(sq, out=sq).mean(axis=2).T

    comp_var_sq = comp_trials.mean(axis=0)
    total = tot_trials.mean(axis=0)
    total_se = tot_trials.std(axis=0, ddof=1) / math.sqrt(R)
    combined_se = (tot_trials - comp_trials).std(axis=0, ddof=1) / math.sqrt(R)

    rhs = 2.0 * bias_sq + 2.0 * sample_var_sq + comp_var_sq + 5.0 * combined_se
    ineq_ok = tuple(
        bool(total[i] <= rhs[i] + _SLACK * max(1.0, rhs[i])) for i in range(len(cps))
    )
    return DecompositionReport(
        checkpoints=cps,
        passes=tuple(passes(b, t, sample.m) for t in cps),
        bias_sq=bias_sq,
        sample_var_sq=sample_var_sq,
        comp_var_sq=comp_var_sq,
        total=total,
        total_se=total_se,
        combined_se=combined_se,
        ineq_ok=ineq_ok,
        r_trials=R,
        config={},
    )


def decompose_batch(
    sample: Sample,
    surrogate,
    f_true,
    kernel: KernelSpec | None,
    schedule: StepSchedule,
    T: int,
    checkpoints=None,
) -> DecompositionReport:
    """Two-term report for the deterministic batch iteration.

    Same schema as :func:`decompose` with zero computational variance
    and zero standard errors; the total is the exact squared gap of the
    batch iterate to the regression function.
    """
    cps = normalize_checkpoints(checkpoints, T)
    f_vals, _, _, batch_vals, bias_sq, sample_var_sq = _deterministic_terms(
        sample, surrogate, f_true, kernel, schedule, T, cps)
    n_cp = len(cps)
    total = np.mean((batch_vals - f_vals[None, :]) ** 2, axis=1)
    zeros = np.zeros(n_cp)
    rhs = 2.0 * bias_sq + 2.0 * sample_var_sq
    ineq_ok = tuple(
        bool(total[i] <= rhs[i] + _SLACK * max(1.0, rhs[i])) for i in range(n_cp)
    )
    return DecompositionReport(
        checkpoints=cps,
        passes=cps,
        bias_sq=bias_sq,
        sample_var_sq=sample_var_sq,
        comp_var_sq=zeros,
        total=total,
        total_se=zeros,
        combined_se=zeros,
        ineq_ok=ineq_ok,
        r_trials=0,
        config={},
    )


@dataclass(frozen=True)
class UnbiasednessReport:
    """Gap between the trial-averaged mini-batch iterate and the batch
    iterate, with its Monte Carlo tolerance."""

    deviation: float
    trace_variance: float
    bound: float
    r_trials: int
    t: int

    @property
    def passed(self) -> bool:
        return self.deviation <= self.bound + 1e-15


def unbiasedness_check(
    sample: Sample,
    schedule: StepSchedule,
    b: int,
    t: int,
    R: int,
    base_seed: int,
    ctx: AnchorSet | None = None,
) -> UnbiasednessReport:
    """Check that averaging SGM over index plans recovers batch GM.

    ``t`` is the iterate subscript: the first iterate (t = 1) is the
    shared zero initialization, and iterate t has taken t - 1 gradient
    steps. Computes the H-norm of (mean over R trials of iterate t)
    minus the batch iterate, the empirical trace variance
    (1/(R-1)) sum_r ||w_r - mean||_H^2, and the 4-sigma verdict
    ``deviation <= 4 sqrt(trace_variance / R)``.
    """
    if R < 100:
        raise ValueError(f"unbiasedness check needs R >= 100 trials, got {R}")
    if t < 1:
        raise ValueError(f"iterate subscript must be >= 1, got {t}")
    steps = t - 1
    if steps == 0:
        # both processes are still at their common zero initialization
        return UnbiasednessReport(
            deviation=0.0, trace_variance=0.0, bound=0.0, r_trials=R, t=t
        )
    plans = [sample_index_plan(sample.m, b, steps, mix_seed(base_seed, r)) for r in range(R)]
    coeffs = run_sgm_trials(sample, ctx, schedule, plans, (steps,))[0]
    batch = run_batch_gm(sample, ctx, schedule, steps, checkpoints=(steps,)).final.coeffs
    # anchoring the mean on the first trial keeps identical trials exact
    mean = coeffs[0] + (coeffs - coeffs[0]).mean(axis=0)
    centered = coeffs - mean
    dev = mean - batch
    if ctx is None:
        dev_norm = float(np.sqrt(dev @ dev))
        trace_var = float(np.sum(centered**2) / (R - 1))
    else:
        gram = ctx.gram.values
        dev_norm = float(np.sqrt(max(dev @ (gram @ dev), 0.0)))
        trace_var = float(max(np.sum(centered * (centered @ gram)), 0.0) / (R - 1))
    bound = 4.0 * math.sqrt(trace_var / R)
    return UnbiasednessReport(
        deviation=dev_norm,
        trace_variance=trace_var,
        bound=bound,
        r_trials=R,
        t=t,
    )
