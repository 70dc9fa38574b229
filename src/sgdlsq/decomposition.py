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

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .iterations import (
    normalize_checkpoints,
    run_batch_gm,
    run_population,
    run_sgm_trials,
    sample_index_table,
)
from .kernels import KernelSpec, build_gram
from .rng import mix_seed
from .schedules import StepSchedule, passes
from .spaces import Trajectory, feature_matrix, predict, prediction_errors

_SLACK = 1e-12

# Trials whose surrogate values one product forms in the reduction: the
# scratch is two (_TRIAL_CHUNK, N) blocks, whatever R.
_TRIAL_CHUNK = 8


@dataclass(frozen=True)
class DecompositionReport:
    """Per-checkpoint error terms with Monte Carlo standard errors.

    ``total_se`` is the standard error of the total; ``combined_se`` is
    the standard error of (total - comp_var) over trials and feeds the
    inequality flag :attr:`ineq_ok`.
    """

    checkpoints: tuple
    passes: tuple
    bias_sq: np.ndarray
    sample_var_sq: np.ndarray
    comp_var_sq: np.ndarray
    total: np.ndarray
    total_se: np.ndarray
    combined_se: np.ndarray
    r_trials: int

    @property
    def ineq_ok(self) -> tuple:
        """Per checkpoint, whether total <= 2 bias^2 + 2 sample_var^2 +
        comp_var^2 + 5 combined_se, up to _SLACK relative; a batch report's
        zero comp_var^2 and combined_se leave 2 bias^2 + 2 sample_var^2."""
        rhs = 2.0 * self.bias_sq + 2.0 * self.sample_var_sq + self.comp_var_sq \
            + 5.0 * self.combined_se
        return tuple((self.total <= rhs + _SLACK * np.maximum(1.0, rhs)).tolist())

    def row(self, i: int) -> dict:
        return {
            "t": self.checkpoints[i],
            "pass": self.passes[i],
            "bias_sq": float(self.bias_sq[i]),
            "sample_var_sq": float(self.sample_var_sq[i]),
            "comp_var_sq": float(self.comp_var_sq[i]),
            "total": float(self.total[i]),
            "total_se": float(self.total_se[i]),
            "ineq_ok": self.ineq_ok[i],
        }

    def rows(self) -> list:
        return [self.row(i) for i in range(len(self.checkpoints))]

    def total_minimizer(self) -> int:
        """Checkpoint with the smallest total error (first on ties)."""
        return self.checkpoints[int(np.argmin(self.total))]


def excess_risk(h: Trajectory, surrogate, f_true) -> np.ndarray:
    """Mean squared gap to the true regression function over the
    surrogate points, one per checkpoint of ``h``: the L2 proxy for risk
    minus its infimum."""
    pts = np.asarray(surrogate, float)
    return prediction_errors(predict(h, pts), f_true(pts))


def h_norm_error(h: Trajectory, w_star) -> np.ndarray:
    """Squared H-norm distance to a known minimizer, one per checkpoint
    of ``h`` (euclidean only)."""
    if h.backend != "euclidean":
        raise ValueError("H-norm error requires a known minimizer; only the "
                         "euclidean backend exposes one")
    w = np.asarray(w_star, dtype=np.float64).reshape(-1)
    if w.shape[0] != h.coeffs.shape[1]:
        raise ValueError(f"minimizer has length {w.shape[0]}, hypothesis {h.coeffs.shape[1]}")
    return np.square(h.coeffs - w).sum(axis=1)


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
    three positive pairs must remain, at two or more distinct m, or the
    slope is not determined.
    """
    kept, dropped = [], []
    for m, err in pairs:
        (kept if err > 0 else dropped).append((float(m), float(err)))
    if len(kept) < 3:
        raise ValueError(
            f"rate fitting needs >= 3 positive-error pairs, got {len(kept)}"
        )
    if len({m for m, _ in kept}) < 2:
        raise ValueError(f"rate fitting needs >= 2 distinct m, got only m = {kept[0][0]:g}")
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
    """What both reports share: the surrogate targets, the matrix taking
    training coefficients to surrogate values, the batch iterate's
    surrogate values, bias^2 and sample variance^2."""
    pts = np.asarray(surrogate, float)
    f_vals = np.asarray(f_true(pts), dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(f_vals)):
        raise ValueError("f_true produced non-finite values on the surrogate")
    pop_vals = predict(run_population(pts, kernel, f_true, schedule, T, cps), pts)
    batch = run_batch_gm(sample, kernel, schedule, T, cps)
    eval_mat = feature_matrix(batch, pts)
    batch_vals = batch.values(eval_mat)
    return (f_vals, eval_mat, batch_vals, prediction_errors(pop_vals, f_vals),
            prediction_errors(batch_vals, pop_vals))


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
    selects the euclidean backend. ``surrogate`` is the array of
    surrogate points for either backend. The R trials advance together
    through :func:`run_sgm_trials`.

    No N x N surrogate Gram is built unless the population's step loop
    runs: its factor reads k kernel rows and its surrogate values are
    formed a tile of K at a time (:func:`~sgdlsq.spaces.predict`). The
    trials run on one (T, R, b) index table (:func:`sample_index_table`),
    and their surrogate values are formed and reduced one checkpoint and
    ``_TRIAL_CHUNK`` trials at a time into reused buffers, so the scratch
    memory is O(_TRIAL_CHUNK N) whatever R and the number of checkpoints.
    The terms stay within 1e-12 relative of evaluating every checkpoint
    in one stacked product.
    """
    if R < 2:
        raise ValueError(f"need at least 2 trials for standard errors, got {R}")
    cps = normalize_checkpoints(checkpoints, T)
    f_vals, eval_mat, batch_vals, bias_sq, sample_var_sq = _deterministic_terms(
        sample, surrogate, f_true, kernel, schedule, T, cps)

    seeds = [mix_seed(base_seed, r) for r in range(R)]
    # (n_cp, R, w); the index table lives only while the trials run
    block = run_sgm_trials(sample, kernel, schedule, sample_index_table(sample.m, b, T, seeds),
                           cps)
    # one chunk of one checkpoint's trial values
    vals = np.empty((min(R, _TRIAL_CHUNK), eval_mat.shape[0]))
    sq = np.empty_like(vals)
    tot_trials = np.empty((R, len(cps)))
    comp_trials = np.empty((R, len(cps)))
    for i in range(len(cps)):
        for lo in range(0, R, len(vals)):
            hi = min(lo + len(vals), R)
            v, d = vals[:hi - lo], sq[:hi - lo]
            np.matmul(block[i, lo:hi], eval_mat.T, out=v)
            np.subtract(v, f_vals, out=d)
            tot_trials[lo:hi, i] = np.square(d, out=d).mean(axis=1)
            np.subtract(v, batch_vals[i], out=d)
            comp_trials[lo:hi, i] = np.square(d, out=d).mean(axis=1)

    comp_var_sq = comp_trials.mean(axis=0)
    total = tot_trials.mean(axis=0)
    total_se = tot_trials.std(axis=0, ddof=1) / math.sqrt(R)
    combined_se = (tot_trials - comp_trials).std(axis=0, ddof=1) / math.sqrt(R)
    return DecompositionReport(
        checkpoints=cps,
        passes=tuple(passes(b, t, sample.m) for t in cps),
        bias_sq=bias_sq,
        sample_var_sq=sample_var_sq,
        comp_var_sq=comp_var_sq,
        total=total,
        total_se=total_se,
        combined_se=combined_se,
        r_trials=R,
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
    f_vals, _, batch_vals, bias_sq, sample_var_sq = _deterministic_terms(
        sample, surrogate, f_true, kernel, schedule, T, cps)
    zeros = np.zeros(len(cps))
    return DecompositionReport(
        checkpoints=cps,
        passes=cps,
        bias_sq=bias_sq,
        sample_var_sq=sample_var_sq,
        comp_var_sq=zeros,
        total=prediction_errors(batch_vals, f_vals),
        total_se=zeros,
        combined_se=zeros,
        r_trials=0,
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
    ctx: KernelSpec | None = None,
) -> UnbiasednessReport:
    """Check that averaging SGM over index plans recovers batch GM.

    ``t`` is the iterate subscript: the first iterate (t = 1) is the
    shared zero initialization, and iterate t has taken t - 1 gradient
    steps. Computes the H-norm of (mean over R trials of iterate t)
    minus the batch iterate, the empirical trace variance
    (1/(R-1)) sum_r ||w_r - mean||_H^2, and the 4-sigma verdict
    ``deviation <= 4 sqrt(trace_variance / R)``. With a kernel ``ctx``
    the H-norms read the sample's Gram, built for this check.
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
    table = sample_index_table(sample.m, b, steps, [mix_seed(base_seed, r) for r in range(R)])
    coeffs = run_sgm_trials(sample, ctx, schedule, table, (steps,))[0]
    batch = run_batch_gm(sample, ctx, schedule, steps, checkpoints=(steps,)).coeffs[0]
    # anchoring the mean on the first trial keeps identical trials exact
    mean = coeffs[0] + (coeffs - coeffs[0]).mean(axis=0)
    centered = coeffs - mean
    dev = mean - batch
    if ctx is None:
        dev_norm = float(np.sqrt(dev @ dev))
        trace_var = float(np.sum(centered**2) / (R - 1))
    else:
        gram = build_gram(ctx, sample.x, check_psd=False).values
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
