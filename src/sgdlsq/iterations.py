"""The three iterative processes: mini-batch SGM, batch GM, population GD.

All three start from the zero element and share the step-size law from
:mod:`sgdlsq.schedules`. Conventions used throughout:

* "Checkpoint t" stores the hypothesis after exactly t gradient steps
  (so checkpoint 1 is the state after the first update). The state
  before any update is the zero element and is not stored. A run
  returns its checkpoints as one :class:`Trajectory` block, one row
  of coefficients per checkpoint.
* Mini-batch indices are sampled i.i.d. uniformly with replacement from
  the whole sample, pre-drawn into a (T, R, b) index table, one column
  per run (:func:`sample_index_table`; an :class:`IndexPlan` is one
  column), so a run is a pure function of its inputs and every rerun is
  bit-identical.
* A single run is inherently sequential; independent runs (distinct
  plans) advance in lockstep as one block (:func:`run_sgm_trials`) on one
  engine. Single-point (b = 1) runs take a block of steps per triangular
  solve over their Gram's rows or their inputs, within 1e-12 relative of
  the step loop, which is the same engine at block length 1.
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
from .errors import DivergenceError
from .kernels import KernelSpec, build_gram, cross_matrix, kernel_diagonal
from .rng import make_rng
from .schedules import StepSchedule
from .spaces import AnchorSet, Trajectory

# Bound on max|w| (euclidean) or max|a| times the Gram's largest diagonal
# (kernel, see _coef_scale) past which a run counts as diverged.
_DIVERGENCE_LIMIT = 1e12

# Bytes of per-trial data (stacked Grams or inputs plus one step's rows)
# run_sgm_trials holds at once: eight m=1024 Grams; more trials run in chunks.
_STACK_BYTES = 64 << 20

# Steps per triangular solve on the blocked single-point SGM path: the
# batched LU costs O(B^3) per block, and 16 measured fastest (64 slower).
_BLOCK = 16

@dataclass(frozen=True)
class IndexPlan:
    """Pre-drawn mini-batch indices: row t-1 holds the b draws of step t.

    Entries are 0-based positions into the sample; a drawn plan's are
    fully determined by (m, b, T, seed) through a Philox stream. Only the
    shape is checked here: a run checks the entries (:func:`_check_table`).
    """

    m: int
    b: int
    T: int
    indices: np.ndarray

    def __post_init__(self):
        if self.indices.shape != (self.T, self.b):
            raise ValueError(f"index table: expected shape (T, b) = {(self.T, self.b)}, "
                             f"got {self.indices.shape}")


def _index_dtype(m):
    """int32 holds every index below m <= 2^31; the engine casts each
    block's indices to intp before it adds any offset."""
    return np.int32 if m <= 2**31 else np.int64


def sample_index_plan(m: int, b: int, T: int, seed: int) -> IndexPlan:
    """The T x b plan of i.i.d. uniform indices for one run: the one
    column of ``sample_index_table(m, b, T, [seed])``."""
    return IndexPlan(m, b, T, sample_index_table(m, b, T, [seed])[:, 0])


def sample_index_table(m: int, b: int, T: int, seeds) -> np.ndarray:
    """The read-only (T, R, b) index table of R runs, one per seed: column
    r holds the T x b draws of ``make_rng(seeds[r])``, drawn as int64 and
    stored as :func:`_index_dtype` (int32 for m <= 2^31). Trial r of
    :func:`run_sgm_trials` on the table equals :func:`run_sgm` on
    ``sample_index_plan(m, b, T, seeds[r])``."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    if not 1 <= b <= m:
        raise ValueError(f"mini-batch size {b} out of range [1, {m}]")
    if T < 1:
        raise ValueError(f"iteration count must be >= 1, got {T}")
    table = np.empty((T, len(seeds), b), _index_dtype(m))
    for r, seed in enumerate(seeds):
        table[:, r] = make_rng(seed).integers(0, m, size=(T, b), dtype=np.int64)
    table.setflags(write=False)
    return table


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
    if count < 1:
        raise ValueError(f"checkpoint count must be >= 1, got {count}")
    # not np.unique, which imports numpy.ma (about 10-20 ms) on first use
    return tuple(sorted(set(np.geomspace(1, T, num=min(count, T)).round().astype(int).tolist())))


def _as_matrix(x):
    return x[:, None] if x.ndim == 1 else x


def _gram_rows(ctx, x):
    """What a step reads a point's row from: the Gram of ``x`` under the
    kernel ``ctx``, built for the caller alone, or the inputs as rows."""
    return _as_matrix(x) if ctx is None else build_gram(ctx, x, check_psd=False).values


def _check_ctx(ctx):
    """Refuse a ``ctx`` that is neither None (euclidean) nor a kernel."""
    if ctx is not None and not isinstance(ctx, KernelSpec):
        raise TypeError(f"ctx must be None or a KernelSpec, got {type(ctx).__name__}")


def _anchors(ctx, sample):
    """A kernel run's anchor set, the sample points; None for euclidean."""
    return None if ctx is None else AnchorSet(sample.x, ctx)


def _coef_scale(gram):
    """Largest diagonal K(x_i, x_i) of a Gram, or of each Gram of a
    stack (R, m, m). Kernel coefficients a scale like y / K(x, x), so the
    divergence guard reads max|a| times this, in the units of y; a
    gaussian Gram's is 1, which leaves its guard as max|a|."""
    return np.diagonal(gram, axis1=-2, axis2=-1).max(axis=-1)


def run_sgm_trials(samples, ctx, schedule: StepSchedule, table, checkpoints=None) -> np.ndarray:
    """Mini-batch SGM over R index plans at once.

    ``table`` is the (T, R, b) index table of the R runs, read in place:
    one :func:`sample_index_table` draw, or one plan's indices as a
    (T, 1, b) view (:func:`run_sgm`). ``samples`` is one :class:`Sample`
    shared by all trials or one per plan, whose Grams (or inputs) are
    then stacked in chunks of trials within ``_STACK_BYTES``. ``ctx`` is
    ``None`` (euclidean) or the :class:`KernelSpec` whose iterates are
    expansions over each trial's sample points; any other ``ctx`` raises
    ``TypeError``. The run builds the Grams it reads and frees them on
    return, so a Gram lives only while SGM reads it. Besides its Grams,
    the index table and the returned block, the run holds O(R b w): each
    block of steps gathers its sampled rows into one buffer per chunk,
    and the checkpoints are written straight into the returned block. Returns
    the checkpoint iterates, (n_cp, R, w) with w = m (kernel) or d
    (euclidean).

    One engine, :func:`_sgm_steps`, runs every trial. A b = 1 trial takes
    ``_BLOCK`` steps per triangular solve on its Gram's rows or inputs, in
    chunks of at most ``_BLOCK`` kernel trials, when every step keeps
    eta_t K_jj <= 1 (eta_t ||x_j||^2 <= 1) and a kernel sample holds more
    than one point; it stays within 1e-12 relative of the step loop. Every
    other trial, and a blocked one whose iterate bound could reach half
    the divergence limit (rerun from step 0), takes block length 1: the
    lockstep step loop, which contracts each step's sampled rows, one
    (R, b, w) block, with the (R, w) iterate block. Trial r follows a
    single run on plan r bit for bit. Divergence raises
    ``DivergenceError(t, "trial r")`` for the earliest diverging step t and
    the lowest trial r diverging at it, as the step loop finds them.
    """
    _check_ctx(ctx)
    stacked = not isinstance(samples, Sample)
    samples = list(samples) if stacked else [samples]
    if not samples:
        raise ValueError("need one sample per index plan, got none")
    m = samples[0].m
    _check_table(table, m)
    T, R, b = table.shape
    if not R or (stacked and len(samples) != R):
        raise ValueError(f"need one sample per index plan, got {len(samples)} for {R}")
    if any(s.m != m for s in samples):
        raise ValueError("index plans and samples must share the sample size, b and T")
    kernel = ctx is not None
    if not stacked:
        ys = samples[0].y
        src = _gram_rows(ctx, samples[0].x)
    w = m if kernel else samples[0].dim
    cps = normalize_checkpoints(checkpoints, T)
    etas = schedule.etas(T) / b
    out = np.empty((len(cps), R, w))
    chunk = max(1, _STACK_BYTES // (8 * w * (b + (m if stacked else 0))))
    if kernel and b == 1:  # a block gathers _BLOCK Gram rows per trial
        chunk = min(chunk, _BLOCK)
    diverged = None
    for lo in range(0, R, chunk):
        hi = min(lo + chunk, R)
        if stacked:
            src = np.empty((hi - lo, m, w))
            for j, s in enumerate(samples[lo:hi]):
                src[j] = _gram_rows(ctx, s.x)
            ys = np.concatenate([s.y for s in samples[lo:hi]])
        # each trial's largest K_jj (||x_j||^2): the step condition keeps
        # every entry of the block systems at most 1, so their LU never pivots
        top = np.broadcast_to(_coef_scale(src) if kernel
                              else np.einsum("...ij,...ij->...i", src, src).max(axis=-1), hi - lo)
        chunk_args = (src.reshape(-1, w), ys, table[:, lo:hi], m if stacked else 0, kernel, etas,
                      cps, out[:, lo:hi])
        # a kernel trial on one point takes the step loop, which is then
        # batch GM bit for bit, as the decomposition needs
        blocked = (b == 1 and _BLOCK > 1 and not (kernel and m == 1)) & (etas[0] * top <= 1)
        loop = ~blocked
        if blocked.any():
            # reach times the Gram's largest diagonal (max|X|) bounds the guard
            scale = top if kernel else np.broadcast_to(np.abs(src).max(axis=(-2, -1)), hi - lo)
            reach = _sgm_steps(*chunk_args, np.flatnonzero(blocked), block=_BLOCK)
            loop[blocked] = ~(reach * scale[blocked] < _DIVERGENCE_LIMIT / 2)  # also for nan
        if loop.any():
            sel = np.flatnonzero(loop)
            trip = _sgm_steps(*chunk_args, sel, block=1, scale=top[sel, None])
            if trip is not None:  # the earliest step, then the lowest trial
                diverged = min(diverged or (T + 1,), (trip[0], lo + int(sel[trip[1]])))
    if diverged is not None:
        raise DivergenceError(diverged[0], f"trial {diverged[1]}")
    return out


def _check_table(table, m):
    """Refuse an index table that is not an integer (T, R, b) block of
    positions in [0, m) with T >= 1 and 1 <= b <= m."""
    if (not isinstance(table, np.ndarray) or table.ndim != 3 or table.dtype.kind not in "iu"
            or table.shape[0] < 1 or not 1 <= table.shape[2] <= m):
        got = f"{table.dtype} {table.shape}" if isinstance(table, np.ndarray) else type(table)
        raise ValueError(f"need an integer (T, R, b) index table with T >= 1 and "
                         f"1 <= b <= {m}, got {got}")
    if table.size and (table.min() < 0 or table.max() >= m):
        raise ValueError(f"index table entries must lie in [0, {m})")


def _sgm_steps(phi, ys, rows, stride, kernel, etas, cps, out, members, block, scale=None):
    """SGM for the trials ``members`` of a chunk, ``block`` steps per
    gather of their sampled rows.

    ``phi`` holds the chunk's Gram rows (kernel) or input rows
    (euclidean), shared or one set per trial ``stride`` rows apart, and
    ``ys`` their targets; ``rows`` is the chunk's (T, g, b) index table
    and ``out`` its (n_cp, g, w) part of the result, which receives the
    members' checkpoints. In a block of B steps, cut at the checkpoints,
    with sampled rows P and points J, the residuals rho solve the unit
    lower-triangular (Gauss-Seidel) system (I + tril(G, -1) diag(eta))
    rho = P v - y, v the iterate and eta the steps' eta_t / b. For a
    kernel G = K[J, J], read off ``phi`` in one flat take, and the
    coefficients take a[J] -= eta rho by ``np.subtract.at``; for euclidean
    G = P P^T, and the coordinates v lose eta_1 rho_1 P_1, ...,
    eta_B rho_B P_B in step order, so a zero input feature leaves the
    others as they are (a sum along a contiguous axis, as for one feature
    and one trial, goes pairwise). B > 1 takes b = 1. At B = 1 the system
    is the identity and this is the step loop: the euclidean update is
    v -= eta P^T rho, and each step's guard, max|v| (kernel: the sampled
    |a| times ``scale``), is checked against the divergence limit.

    Returns, for B > 1, per member sum_t |eta_t rho_t|, which bounds
    every |a| (and, times max|X|, every |v|) along the run; for B = 1,
    None or, where a guard trips, its step t and the lowest position in
    ``members`` tripping at t, where it stopped.
    """
    T, _, b = rows.shape
    g = len(members)
    w = phi.shape[1]
    cols = members if g < rows.shape[1] else slice(None)
    # a block's indices + offset locate its rows in phi, + pick_off its
    # coefficients in a, formed per block: no (T, g, b) table of positions
    offset = (members * stride)[:, None] if stride else 0
    v = np.zeros((g, w))
    a = v.reshape(-1)
    pick_off = (np.arange(g) * w)[:, None]
    # v, then a block's sampled rows in step order, which become the
    # euclidean updates in place; at B = 1 only a step's rows, (g, b, w)
    updates = np.empty((block * b + 1, g, w) if block > 1 else (g, b, w))
    lower, eye = np.tri(block, k=-1), np.eye(block)
    reach = np.zeros(g)
    edges = sorted({0, T, *cps})
    # a blocked trial whose reach trips is rerun at block length 1
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            for t0 in range(lo, hi, block):
                eta = etas[t0:min(t0 + block, hi)]
                n = len(eta)
                # one cast per block; each gather and add would cast int32 indices
                at = rows[t0, cols] if block == 1 else rows[t0:t0 + n, cols, 0].T
                at = at.astype(np.intp, copy=False)
                grow = at + offset
                # "clip" gathers into updates directly ("raise" buffers); rows are in range
                if block == 1:
                    P = np.take(phi, grow, axis=0, out=updates, mode="clip")
                else:
                    sampled = np.take(phi, grow.T, axis=0, out=updates[1:n + 1], mode="clip")
                    P = sampled.transpose(1, 0, 2)
                resid = np.matmul(P, v[:, :, None])[..., 0] - ys[grow]
                if block > 1:
                    system = (np.take(phi.ravel(), grow[..., None] * w + at[:, None], mode="clip")
                              if kernel else np.matmul(P, P.transpose(0, 2, 1)))
                    system *= lower[:n, :n] * eta
                    system += eye[:n, :n]
                    resid = np.linalg.solve(system, resid[:, :, None])[..., 0]
                u = resid * eta
                if kernel:
                    picks = at + pick_off
                    np.subtract.at(a, picks, u)
                elif block > 1:
                    updates[0] = v
                    sampled *= u.T[:, :, None]
                    np.subtract.reduce(updates[:n + 1], axis=0, out=v)
                else:
                    v -= eta * np.matmul(P.transpose(0, 2, 1), resid[:, :, None])[..., 0]
                if block > 1:
                    reach += np.abs(u).sum(axis=1)
                else:
                    # only sampled coefficients change: an O(b) kernel guard per trial
                    guard = np.abs(a[picks]) * scale if kernel else np.abs(v)
                    if not guard.max() <= _DIVERGENCE_LIMIT:  # also catches nan
                        return t0 + 1, int(np.argmax(~(guard <= _DIVERGENCE_LIMIT).all(axis=1)))
            if i < len(cps):
                out[i, cols] = v
    return reach if block > 1 else None


def run_sgm(
    sample: Sample,
    ctx: KernelSpec | None,
    schedule: StepSchedule,
    plan: IndexPlan,
    checkpoints=None,
) -> Trajectory:
    """Mini-batch stochastic gradient run over a pre-drawn index plan.

    Step t updates with the averaged residual gradient of its b sampled
    points. With ``ctx=None`` the iterate is a coordinate vector over
    ``sample.x``; with a kernel it is an expansion over the sample points
    and only the b sampled coefficients change per step, at O(m b) cost
    from the gathered Gram rows. This is the single-plan case of
    :func:`run_sgm_trials`.
    """
    cps = normalize_checkpoints(checkpoints, plan.T)
    try:
        block = run_sgm_trials(sample, ctx, schedule, plan.indices[:, None], cps)
    except DivergenceError as exc:
        backend = "euclidean" if ctx is None else "kernel"
        raise DivergenceError(exc.iteration, f"sgm/{backend}") from None
    return Trajectory(cps, block[:, 0], _anchors(ctx, sample))


def _pivoted_cholesky(kernel: KernelSpec, points, max_rank):
    """Rows (k, N) of L^T with K ~= L L^T for the Gram K of ``points``,
    pivoting on the largest residual diagonal until it sums to <= 1e-15
    trace; None when that takes more than max_rank pivots. The diagonal
    and the k pivot rows are read from the kernel, never all N rows."""
    resid = kernel_diagonal(kernel, points)
    tol = 1e-15 * resid.sum()
    # pages of the buffer become resident only as rows are written
    rows = np.empty((max_rank, len(resid)))
    for k in range(max_rank):
        if resid.sum() <= tol:
            return rows[:k]
        p = int(np.argmax(resid))
        pivot = cross_matrix(kernel, points[p:p + 1], points)[0]
        rows[k] = (pivot - rows[:k, p] @ rows[:k]) / np.sqrt(resid[p])
        resid -= rows[k] ** 2
    return rows if resid.sum() <= tol else None


def _factor_budget(T, n, step_cost):
    """Largest rank k of a factor worth building for batch GM in place of
    T loop steps of step_cost multiply-adds each, when the factor and its
    use cost 7 k^2 n / 4 multiply-adds: k^2 n / 2 for the pivots, k^2 n
    for L^T L and k^3 for its eigh, which is at most k^2 n / 4 because
    k <= n / 4 also keeps the factor at a quarter of an n x n Gram. The
    factor may cost a quarter of the loop, so pivots given up at the
    budget have spent a fourteenth of it. An operation count, not a
    measurement.
    """
    return min(n // 4, math.isqrt(int(T) * step_cost // (7 * n)))


def _gm_steps(grad, w, etas, cp_pos, out, where, scale):
    """The batch-GM step loop w <- w - eta_t grad(w) (eta_t already over
    m), in place; writes w at step t into row ``cp_pos[t]`` of ``out``.
    Raises ``DivergenceError(t, where)`` at the first step where
    max|w| times ``scale`` (:func:`_coef_scale` for kernels) > 1e12."""
    for t, eta in enumerate(etas, 1):
        w -= eta * grad(w)
        if not np.abs(w).max() * scale <= _DIVERGENCE_LIMIT:  # also catches nan
            raise DivergenceError(t, where)
        if t in cp_pos:
            out[cp_pos[t]] = w


def run_batch_gm(
    sample: Sample,
    ctx: KernelSpec | None,
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
    bound (for kernels times the Gram's largest diagonal, as the loop's
    guard reads it) is at most half the divergence limit, so no step
    could raise.
    Otherwise the step loop runs and raises
    ``DivergenceError(t, "batch/<backend>")`` at the first diverging step.
    The factor reads k kernel rows and the kernel diagonal, so only the
    loop builds a Gram, which it frees on return.

    Accuracy: the kernel filter's sample values K c_t stay within
    10 s_T lam_max eps max|y| of a step loop run in extended precision,
    lam_max the Gram's largest eigenvalue and eps the float64 epsilon;
    the float64 loop errs by the same order. Relative to the values this
    is 10 s_T lam_max eps wherever they are of the size of y, as at
    T = 8000 in the tests (up to 3e-12), and more where they are far
    smaller: the factor's backward error, about eps ||K||, times the
    filter's sensitivity s_T.
    """
    _check_ctx(ctx)
    cps = normalize_checkpoints(checkpoints, T)
    cp_pos = {t: i for i, t in enumerate(cps)}
    kernel = ctx is not None
    m, y = sample.m, sample.y
    etas = schedule.etas(T) / m
    if kernel:
        scale = kernel_diagonal(ctx, sample.x).max()
        rows = _pivoted_cholesky(ctx, sample.x, _factor_budget(T, m, m * m))
    else:
        x = _as_matrix(sample.x)
        rows = x.T if x.shape[1] <= _factor_budget(T, m, 2 * m * x.shape[1]) else None
        scale = 1.0
    out = np.empty((len(cps), m if kernel else x.shape[1]))
    if rows is not None:
        lam, w = np.linalg.eigh(rows @ rows.T)
        lam_max = lam.max(initial=0.0)
        reach = etas.sum() * np.linalg.norm(y) * (scale if kernel else np.sqrt(lam_max))
    if rows is None or etas[0] * lam_max > 2 or reach > _DIVERGENCE_LIMIT / 2:
        if kernel:
            gram = _gram_rows(ctx, sample.x)
        grad = (lambda c: gram @ c - y) if kernel else (lambda v: x.T @ (x @ v - y))
        where = "batch/kernel" if kernel else "batch/euclidean"
        _gm_steps(grad, np.zeros(out.shape[1]), etas, cp_pos, out, where, scale)
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
    return Trajectory(cps, out, _anchors(ctx, sample))


def run_population(
    surrogate,
    ctx: KernelSpec | None,
    f_true,
    schedule: StepSchedule,
    T: int,
    checkpoints=None,
) -> Trajectory:
    """Idealized gradient run against exact targets on a surrogate measure:
    :func:`run_batch_gm` on the noiseless sample (points, f).

    ``surrogate`` holds the surrogate points; with a kernel ``ctx`` the
    iterate is an expansion over them. The filter builds no Gram; the
    step loop builds one for its run. ``f_true`` must be vectorized: it
    maps the surrogate points to their exact target values f. A
    divergence is reported as ``population/<backend>``.
    """
    pts = np.asarray(surrogate, dtype=np.float64)
    sample = Sample(pts, np.asarray(f_true(pts), dtype=np.float64).reshape(-1))
    try:
        return run_batch_gm(sample, ctx, schedule, T, checkpoints)
    except DivergenceError as exc:
        backend = "euclidean" if ctx is None else "kernel"
        raise DivergenceError(exc.iteration, f"population/{backend}") from None
