"""The three iterative processes: mini-batch SGM, batch GM, population GD.

All three start from the zero element and share the step-size law from
:mod:`sgdlsq.schedules`. Conventions used throughout:

* "Checkpoint t" stores the hypothesis after exactly t gradient steps
  (so checkpoint 1 is the state after the first update). The state
  before any update is the zero element and is not stored. A run
  returns its checkpoints as one :class:`Trajectory` block, one row
  of coefficients per checkpoint.
* Mini-batch indices are sampled i.i.d. uniformly with replacement from
  the whole sample, pre-drawn into an :class:`IndexPlan`, so a run is a
  pure function of its inputs and every rerun is bit-identical.
* A single run is inherently sequential; independent runs (distinct
  plans) advance in lockstep as one block (:func:`run_sgm_trials`).
  Single-point (b = 1) runs advance a block of steps per triangular
  solve over their inputs or a low-rank factor of the Gram, within
  1e-12 relative of the step loop, which runs where they cannot.
* Batch GM is computed in closed form as a spectral filter of a
  factor of the Gram or of the euclidean inputs; its step loop runs
  only as the fallback, when the factor is over budget or the iterate
  could grow (:func:`run_batch_gm`).
* The population iteration is batch GM on the noiseless surrogate
  sample (:func:`run_population`).

Averaging the mini-batch iterate over many independent index plans
recovers the batch iterate at every step: conditioned on the sample,
the expectation of each sampled gradient is the full-sample gradient,
and the recursion preserves this identity (see
:func:`sgdlsq.decomposition.unbiasedness_check`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import Sample
from .errors import DimensionMismatch, DivergenceError
from .kernels import KernelSpec, build_gram
from .rng import make_rng
from .schedules import StepSchedule, passes
from .spaces import AnchorSet, HypothesisVector

_DIVERGENCE_LIMIT = 1e12

# Bytes of per-trial data (stacked Grams or inputs plus one step's rows)
# run_sgm_trials holds at once: eight m=1024 Grams; more trials run in chunks.
_STACK_BYTES = 64 << 20

# Steps per triangular solve on the blocked single-point SGM path: the
# batched LU costs O(B^3) per block, and 16 measured fastest (64 slower).
_BLOCK = 16

# A blocked kernel run reads its residuals off phi z, with z = phi^T a
# carried step by step and phi phi^T ~= K. Over long runs the
# coefficients drift in K's null space and the rounding of both adds up,
# so the run is kept only where phi z matches the Gram's K a to this
# relative bound at every checkpoint. Across 197 random linear and
# gaussian runs (m <= 120, T <= 40000) the blocked values were at most
# 1.8 times this check from the step loop's.
_FACTOR_TOL = 1e-13


@dataclass(frozen=True)
class IndexPlan:
    """Pre-drawn mini-batch indices: row t-1 holds the b draws of step t.

    Entries are 0-based positions into the sample. The table is fully
    determined by (m, b, T, seed) through a Philox stream.
    """

    m: int
    b: int
    T: int
    indices: np.ndarray

    def __post_init__(self):
        if self.indices.shape != (self.T, self.b):
            raise DimensionMismatch("index table rows", self.T, self.indices.shape[0])
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.m):
            raise ValueError("index plan entries must lie in [0, m)")


def sample_index_plan(m: int, b: int, T: int, seed: int) -> IndexPlan:
    """Draw the T x b table of i.i.d. uniform indices for one run."""
    if not 1 <= b <= m:
        raise ValueError(f"mini-batch size {b} out of range [1, {m}]")
    if T < 1:
        raise ValueError(f"iteration count must be >= 1, got {T}")
    idx = make_rng(seed).integers(0, m, size=(T, b), dtype=np.int64)
    idx.setflags(write=False)
    return IndexPlan(m=m, b=b, T=T, indices=idx)


@dataclass(frozen=True)
class Trajectory:
    """The iterates at an increasing sequence of step counts, as one
    read-only (n_cp, w) block: row i holds the coordinates (euclidean)
    or the expansion coefficients over ``anchors`` (kernel) after
    ``checkpoints[i]`` steps. ``anchors`` is None for euclidean runs."""

    checkpoints: tuple
    coeffs: np.ndarray
    passes: tuple
    anchors: AnchorSet | None = None

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=np.float64).view()
        if coeffs.ndim != 2:
            raise ValueError(f"coefficients must form an (n_cp, w) block, got {coeffs.shape}")
        if len(coeffs) != len(self.checkpoints):
            raise DimensionMismatch("checkpoints vs coefficient rows",
                                    len(self.checkpoints), len(coeffs))
        if self.anchors is not None and coeffs.shape[1] != self.anchors.n:
            raise DimensionMismatch("coefficients vs anchor set", self.anchors.n, coeffs.shape[1])
        if any(b >= a for a, b in zip(self.checkpoints[1:], self.checkpoints)):
            raise ValueError("checkpoints must be strictly increasing")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("hypothesis coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def backend(self) -> str:
        return "euclidean" if self.anchors is None else "kernel"

    @property
    def final(self) -> HypothesisVector:
        return self.vector_at(self.checkpoints[-1])

    def vector_at(self, t: int) -> HypothesisVector:
        try:
            i = self.checkpoints.index(t)
        except ValueError:
            raise KeyError(f"no checkpoint at t={t}") from None
        return HypothesisVector(self.coeffs[i], self.anchors)

    def values(self, features) -> np.ndarray:
        """Row i is ``features @ coeffs[i]``, (n_cp, n), for a feature
        matrix of this trajectory (:func:`~sgdlsq.spaces.feature_matrix`).
        One matrix-vector product per row, so each row equals
        :func:`~sgdlsq.spaces.predict` of its vector bit for bit; the
        single product ``coeffs @ features.T`` differs in the last bits."""
        return np.matmul(features, self.coeffs[:, :, None])[..., 0]


def normalize_checkpoints(checkpoints, T: int) -> tuple:
    """Sorted unique checkpoints within [1, T]; default is just (T,)."""
    if T < 1:
        raise ValueError(f"iteration count must be >= 1, got {T}")
    if checkpoints is None:
        return (int(T),)
    cps = sorted({int(c) for c in checkpoints})
    if not cps:
        raise ValueError("need at least one checkpoint")
    if cps[0] < 1 or cps[-1] > T:
        raise ValueError(f"checkpoints must lie in [1, {T}], got {cps[0]}..{cps[-1]}")
    return tuple(cps)


def log_checkpoints(T: int, count: int = 30) -> tuple:
    """About ``count`` log-spaced step counts from 1 to T inclusive."""
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    grid = np.unique(np.geomspace(1, T, num=min(count, T)).round().astype(int))
    return tuple(int(v) for v in grid)


def _as_matrix(x):
    return x[:, None] if x.ndim == 1 else x


def _kernel_ctx(sample: Sample, ctx: AnchorSet) -> np.ndarray:
    if ctx.n != sample.m:
        raise DimensionMismatch("anchor set vs sample", sample.m, ctx.n)
    if not np.array_equal(ctx.points, sample.x):
        raise ValueError("kernel runs anchor the iterate on the sample points; "
                         "the anchor set must be built from sample.x")
    return ctx.gram.values


def run_sgm_trials(samples, ctx, schedule: StepSchedule, plans, checkpoints=None) -> np.ndarray:
    """Mini-batch SGM over R index plans at once.

    ``samples`` is one :class:`Sample` shared by all trials or one per
    plan. ``ctx`` is ``None`` (euclidean), an :class:`AnchorSet` on the
    shared sample's points, or a :class:`KernelSpec` with per-trial
    samples, whose Grams (or inputs) are stacked in chunks of trials
    within ``_STACK_BYTES``. Returns the checkpoint iterates,
    (n_cp, R, w) with w = m (kernel) or d (euclidean).

    With b = 1 a trial runs on the blocked path (:func:`_blocked_sgm`),
    ``_BLOCK`` steps per triangular solve, when it has a feature matrix
    (:func:`_step_features`: its inputs, or a pivoted-Cholesky factor of
    its Gram within the rank budget) on which every step keeps
    eta_t ||phi_j||^2 <= 1. It stays within 1e-12 relative of the step
    loop, not bit for bit. Every other trial, every blocked trial whose
    iterate bound could reach half the divergence limit, and every
    blocked kernel trial whose values phi z stray from the Gram's K a
    (``_FACTOR_TOL``) runs the lockstep step loop from step 0: each step gathers the sampled rows
    of those trials as one (R, b, w) block and contracts it with the
    (R, w) iterate block. Either way trial r follows a single run on
    plan r bit for bit. Divergence raises ``DivergenceError(t, "trial r")``
    for the earliest diverging step t and the lowest trial r diverging
    at it, both as the step loop finds them.
    """
    plans = list(plans)
    stacked = not isinstance(samples, Sample)
    samples = list(samples) if stacked else [samples]
    if not plans or (stacked and len(samples) != len(plans)):
        raise ValueError(f"need one sample per index plan, got {len(samples)} for {len(plans)}")
    R, m, b, T = len(plans), samples[0].m, plans[0].b, plans[0].T
    if any((p.m, p.b, p.T) != (m, b, T) for p in plans) or any(s.m != m for s in samples):
        raise ValueError("index plans and samples must share the sample size, b and T")
    kernel = ctx is not None
    if kernel and stacked != isinstance(ctx, KernelSpec):
        raise ValueError("per-trial samples take a KernelSpec, a shared sample an AnchorSet")
    if not stacked:
        src, ys = _kernel_ctx(samples[0], ctx) if kernel else _as_matrix(samples[0].x), samples[0].y
    w = m if kernel else samples[0].dim
    cps = normalize_checkpoints(checkpoints, T)
    cp_pos = {t: i for i, t in enumerate(cps)}
    etas = schedule.etas(T) / b
    idx = np.stack([p.indices for p in plans], axis=1)  # (T, R, b)
    out = np.empty((len(cps), R, w))
    chunk = max(1, _STACK_BYTES // (8 * w * (b + (m if stacked else 0))))
    diverged = None
    for lo in range(0, R, chunk):
        trials = np.arange(lo, min(lo + chunk, R))
        if stacked:
            src = np.empty((len(trials), m, w))
            for j, r in enumerate(trials):
                x = samples[r].x
                src[j] = build_gram(ctx, x, check_psd=False).values if kernel else _as_matrix(x)
            ys = np.concatenate([samples[r].y for r in trials])
        # positions in the chunk of the trials left to the step loop
        loop = np.arange(len(trials))
        if b == 1:
            loop = _run_blocked(src, ys, idx[:, lo:lo + len(trials), 0], kernel, etas, cps, out,
                                trials)
        if not loop.size:
            continue
        sel = trials[loop]
        own = idx[:, sel] if len(sel) < len(trials) else idx[:, lo:lo + len(sel)]  # no copy
        # picks[t - 1] locates each trial's sampled coefficients in
        # A.ravel(), rows[t - 1] its sampled rows in the chunk's samples
        picks = own + (np.arange(len(sel)) * m)[:, None]
        rows = own + (loop * m)[:, None] if stacked else own
        flat_src = src.reshape(-1, w)
        A = np.zeros((len(sel), w))
        a = A.reshape(-1)
        for t in range(1, T + 1 if diverged is None else diverged[0]):
            P = flat_src[rows[t - 1]]
            resid = np.matmul(P, A[:, :, None])[..., 0] - ys[rows[t - 1]]
            if kernel:
                np.subtract.at(a, picks[t - 1], etas[t - 1] * resid)
                # only the sampled coefficients can change, so checking
                # them keeps the divergence guard O(b) per trial
                guard = np.abs(a[picks[t - 1]])
            else:
                A -= etas[t - 1] * np.matmul(P.transpose(0, 2, 1), resid[:, :, None])[..., 0]
                guard = np.abs(A)
            if not guard.max() <= _DIVERGENCE_LIMIT:  # also catches nan
                diverged = t, int(sel[np.argmax(~(guard <= _DIVERGENCE_LIMIT).all(axis=1))])
                break
            if t in cp_pos:
                out[cp_pos[t], sel] = A
    if diverged is not None:
        raise DivergenceError(diverged[0], f"trial {diverged[1]}")
    return out


def _step_features(mat, kernel, etas):
    """The feature rows phi (m, k) a single-point trial runs on blocked:
    its inputs, or for a kernel the rows of L from the pivoted-Cholesky
    factor K ~= L L^T (as batch GM cuts it) when its rank is within
    :func:`_factor_budget`. None when there is no such factor or when
    eta_1 ||phi_j||^2 > 1 for some row: the step condition keeps every
    entry of the block systems at most 1, so their LU never pivots."""
    if kernel:
        m = len(mat)
        rows = _pivoted_cholesky(mat, _factor_budget(len(etas), m, m, quarters=2))
        if rows is None:
            return None
        mat = np.ascontiguousarray(rows.T)
    if etas[0] * np.einsum("ij,ij->i", mat, mat).max() > 1:
        return None
    return mat


def _run_blocked(src, ys, sampled, kernel, etas, cps, out, trials):
    """Runs the chunk's trials that have step features (one shared
    ``src`` or one per trial, stacked) on :func:`_blocked_sgm`, in groups
    of equal feature width, and writes their checkpoints into
    ``out[:, trials]``. Returns the positions in the chunk left to the
    step loop: no features, a bound on the iterate, sum_t |eta_t rho_t|
    (times max|X| for euclidean), over half the limit, or (kernel) sample
    values phi z off the Gram's K a by more than ``_FACTOR_TOL``."""
    m = src.shape[-2]
    shared = src.ndim == 2
    feats = [_step_features(s, kernel, etas) for s in ([src] if shared else src)]
    groups, loop = {}, []
    for j in range(len(trials)):
        f = feats[0 if shared else j]
        if f is None:
            loop.append(j)
        else:
            groups.setdefault(f.shape[1], []).append(j)
    for members in map(np.array, groups.values()):
        # group trial j's point r is row r + j m of stacked samples and
        # coefficient r + j m of the flattened coefficient block
        shift = (np.arange(len(members)) * m)[:, None]
        if shared:  # the group is the whole chunk, on one sample's rows
            phi, y, rows = feats[0], ys, sampled
        else:  # the rows already carry the shift
            phi = np.concatenate([feats[j] for j in members])
            y = ys.reshape(-1, m)[members].reshape(-1)
            rows, shift = sampled[:, members] + shift.T, 0
        coef, zs, reach = _blocked_sgm(phi, y, rows, shift if kernel else None, m, etas, cps)
        if not kernel:
            reach *= np.abs(phi).reshape(-1, m * phi.shape[1]).max(axis=1)
        ok = reach < _DIVERGENCE_LIMIT / 2  # also false for nan
        for j in np.flatnonzero(ok) if kernel else ():
            gram, f = (src, feats[0]) if shared else (src[members[j]], feats[members[j]])
            vals = coef[:, j] @ gram
            ok[j] = np.abs(zs[:, j] @ f.T - vals).max() <= _FACTOR_TOL * np.abs(vals).max()
        out[:, trials[members[ok]]] = coef[:, ok]
        loop.extend(members[~ok])
    return np.sort(np.array(loop, dtype=np.int64))


def _blocked_sgm(phi, ys, rows, shift, width, etas, cps):
    """Single-point SGM for g trials on feature rows ``phi``, ``_BLOCK``
    steps per triangular solve.

    The iterate is z = phi^T a (kernel, K ~= phi phi^T, a the
    coefficients) or the coordinates (euclidean, phi = X). In a block of
    B steps with sampled rows P (B, k), the residuals rho solve the unit
    lower-triangular (Gauss-Seidel) system
    (I + tril(P P^T, -1) diag(eta)) rho = P z - y, and then
    z <- z - eta_1 rho_1 P_1 - ... - eta_B rho_B P_B, subtracted in step
    order as the loop does, so a zero input feature stays exactly zero
    (a sum would go pairwise where it runs along a contiguous axis, as
    for one feature and one trial). ``rows`` (T, g) gives each step's
    row of ``phi`` and ``ys`` per trial; for a kernel, row + ``shift``
    (g, 1) is its coefficient in the flattened (g, width) block
    (``shift`` is None for euclidean, whose iterate is z). Blocks are cut
    at the checkpoints. Returns the checkpoint iterates (n_cp, g, w),
    the checkpoint z (n_cp, g, k) and, per trial, sum_t |eta_t rho_t|,
    which bounds every |a| (and, times max|X|, every |z|) along the run.
    """
    T, g = rows.shape
    z = np.zeros((g, phi.shape[1]))
    coef = z if shift is None else np.zeros((g, width))
    out = np.empty((len(cps),) + coef.shape)
    zs = out if shift is None else np.empty((len(cps),) + z.shape)
    reach = np.zeros(g)
    lower, eye = np.tri(_BLOCK, k=-1), np.eye(_BLOCK)
    # z and the block's updates, reduced by subtraction in step order
    updates = np.empty((_BLOCK + 1,) + z.shape)
    edges = sorted({0, T, *cps})
    # a trial that diverges here is rerun by the step loop
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            for t0 in range(lo, hi, _BLOCK):
                t1 = min(t0 + _BLOCK, hi)
                n, eta, at = t1 - t0, etas[t0:t1], rows[t0:t1].T
                P = phi[at]
                system = np.matmul(P, P.transpose(0, 2, 1))
                system *= lower[:n, :n] * eta
                system += eye[:n, :n]
                r0 = np.matmul(P, z[:, :, None]) - ys[at][:, :, None]
                u = np.linalg.solve(system, r0)[..., 0] * eta
                updates[0] = z
                np.multiply(u.T[:, :, None], P.transpose(1, 0, 2), out=updates[1:n + 1])
                np.subtract.reduce(updates[:n + 1], axis=0, out=z)
                if shift is not None:
                    np.subtract.at(coef.reshape(-1), at + shift, u)
                reach += np.abs(u).sum(axis=1)
            if i < len(cps):
                out[i], zs[i] = coef, z
    return out, zs, reach


def run_sgm(
    sample: Sample,
    ctx: AnchorSet | None,
    schedule: StepSchedule,
    plan: IndexPlan,
    checkpoints=None,
) -> Trajectory:
    """Mini-batch stochastic gradient run over a pre-drawn index plan.

    Step t updates with the averaged residual gradient of its b sampled
    points. With ``ctx=None`` the iterate is a coordinate vector over
    ``sample.x``; with an anchor set (built on the sample points) it is
    a kernel expansion and only the b sampled coefficients change per
    step, at O(m b) cost from the gathered Gram rows. This is the
    single-plan case of :func:`run_sgm_trials`.
    """
    cps = normalize_checkpoints(checkpoints, plan.T)
    try:
        block = run_sgm_trials(sample, ctx, schedule, [plan], cps)
    except DivergenceError as exc:
        backend = "euclidean" if ctx is None else "kernel"
        raise DivergenceError(exc.iteration, f"sgm/{backend}") from None
    return Trajectory(cps, block[:, 0], tuple(passes(plan.b, t, sample.m) for t in cps), ctx)


def _pivoted_cholesky(gram, max_rank):
    """Rows (k, N) of L^T with gram ~= L L^T, pivoting on the largest
    residual diagonal until it sums to <= 1e-15 trace; None when that
    takes more than max_rank pivots."""
    resid = np.diagonal(gram).copy()
    tol = 1e-15 * resid.sum()
    # pages of the buffer become resident only as rows are written
    rows = np.empty((max_rank, len(resid)))
    for k in range(max_rank):
        if resid.sum() <= tol:
            return rows[:k]
        p = int(np.argmax(resid))
        rows[k] = (gram[p] - rows[:k, p] @ rows[:k]) / np.sqrt(resid[p])
        resid -= rows[k] ** 2
    return rows if resid.sum() <= tol else None


def _factor_budget(T, n, step_cost, quarters=7):
    """Largest rank k of a factor worth building in place of T loop steps
    of step_cost multiply-adds each, when the factor and its use cost
    ``quarters`` k^2 n / 4 multiply-adds.

    Batch GM counts 7: k^2 n / 2 for the pivots, k^2 n for L^T L and k^3
    for its eigh, which is at most k^2 n / 4 because k <= n / 4 also keeps
    the factor at a quarter of an n x n Gram. Single-point SGM counts the
    pivots alone, 2. The factor may cost a quarter of the loop, so pivots
    given up at the budget have spent a fourteenth of it (batch GM) or a
    quarter (SGM). An operation count, not a measurement.
    """
    return min(n // 4, math.isqrt(int(T) * step_cost // (quarters * n)))


def _gm_steps(grad, w, etas, cp_pos, out, where):
    """The batch-GM step loop w <- w - eta_t grad(w) (eta_t already over
    m), in place; writes w at step t into row ``cp_pos[t]`` of ``out``.
    Raises ``DivergenceError(t, where)`` at the first step where
    max|w| > 1e12."""
    for t, eta in enumerate(etas, 1):
        w -= eta * grad(w)
        if not np.abs(w).max() <= _DIVERGENCE_LIMIT:  # also catches nan
            raise DivergenceError(t, where)
        if t in cp_pos:
            out[cp_pos[t]] = w


def run_batch_gm(
    sample: Sample,
    ctx: AnchorSet | None,
    schedule: StepSchedule,
    T: int,
    checkpoints=None,
) -> Trajectory:
    """Deterministic full-gradient run on the empirical risk.

    Computed in closed form as a spectral filter of a factor K ~= L L^T
    of the Gram on ``sample.x`` (kernel: pivoted Cholesky, cut once the
    residual diagonal sums to <= 1e-15 trace; euclidean: L = X). With
    L = U S W^T and lam = S^2, the kernel iterate at step t is
    c_t = s_t y + U diag(d_t) U^T y, s_t = sum_{l<=t} eta_l/m and
    d_t = (1 - eta_t lam/m) d_{t-1} - (eta_t lam/m) s_{t-1}, d_0 = 0; the
    s_t y term carries the part of y outside the range of K. (W, lam)
    are the eigenpairs of L^T L, so c_t = s_t y + L W diag(d_t/lam) W^T L^T y.
    The euclidean iterate is w_t = W diag(q_t) W^T X^T y with
    q_t = (1 - eta_t lam/m) q_{t-1} + eta_t/m, q_0 = 0, whose terms do
    not cancel as those of X^T c_t do (an error growing linearly in T).

    The filter runs only when (1) the factor's rank is within
    :func:`_factor_budget`, an operation count against the loop's;
    (2) eta_1 lam_max/m <= 2, so every |1 - eta_t lam/m| <= 1 (the
    schedule is non-increasing) and ||c_t||_2 <= s_T ||y||_2, or
    ||w_t||_2 <= sqrt(lam_max) s_T ||y||_2 for euclidean; and (3) that
    bound is at most half the divergence limit, so no step could raise.
    Otherwise the step loop runs and raises
    ``DivergenceError(t, "batch/<backend>")`` at the first diverging step.
    """
    cps = normalize_checkpoints(checkpoints, T)
    cp_pos = {t: i for i, t in enumerate(cps)}
    kernel = ctx is not None
    m, y = sample.m, sample.y
    etas = schedule.etas(T) / m
    if kernel:
        gram = _kernel_ctx(sample, ctx)
        rows = _pivoted_cholesky(gram, _factor_budget(T, m, m * m))
    else:
        x = _as_matrix(sample.x)
        rows = x.T if x.shape[1] <= _factor_budget(T, m, 2 * m * x.shape[1]) else None
    out = np.empty((len(cps), m if kernel else x.shape[1]))
    if rows is not None:
        lam, w = np.linalg.eigh(rows @ rows.T)
        lam_max = lam.max(initial=0.0)
        reach = etas.sum() * np.linalg.norm(y) * (1.0 if kernel else np.sqrt(lam_max))
    if rows is None or etas[0] * lam_max > 2 or reach > _DIVERGENCE_LIMIT / 2:
        grad = (lambda c: gram @ c - y) if kernel else (lambda v: x.T @ (x @ v - y))
        where = "batch/kernel" if kernel else "batch/euclidean"
        _gm_steps(grad, np.zeros(out.shape[1]), etas, cp_pos, out, where)
    else:
        proj = w.T @ (rows @ y)
        s = 0.0
        h = np.zeros_like(lam)
        for t, eta in enumerate(etas, 1):
            if kernel:
                h = (1 - eta * lam) * h - eta * s
                s += eta
            else:
                h = (1 - eta * lam) * h + eta
            if t in cp_pos:
                out[cp_pos[t]] = s * y + (w @ (h * proj)) @ rows if kernel else w @ (h * proj)
    return Trajectory(cps, out, cps, ctx)  # each step is one pass over the sample


def run_population(
    surrogate,
    f_true,
    schedule: StepSchedule,
    T: int,
    checkpoints=None,
) -> Trajectory:
    """Idealized gradient run against exact targets on a surrogate measure:
    :func:`run_batch_gm` on the noiseless sample (points, f).

    ``surrogate`` is an :class:`AnchorSet` (kernel backend; the iterate
    is an expansion over the surrogate points) or a plain coordinate
    array (euclidean backend). ``f_true`` must be vectorized: it maps
    the surrogate points to their exact target values f. A divergence
    is reported as ``population/<backend>``.
    """
    kernel = isinstance(surrogate, AnchorSet)
    backend = "kernel" if kernel else "euclidean"
    pts = surrogate.points if kernel else np.asarray(surrogate, dtype=np.float64)
    sample = Sample(pts, np.asarray(f_true(pts), dtype=np.float64).reshape(-1))
    try:
        return run_batch_gm(sample, surrogate if kernel else None, schedule, T, checkpoints)
    except DivergenceError as exc:
        raise DivergenceError(exc.iteration, f"population/{backend}") from None
