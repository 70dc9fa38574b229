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
  solve over their Gram's rows or their inputs, within 1e-12 relative
  of the step loop, which runs where they cannot.
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


def _check_plan_shape(m, b, T):
    if not 1 <= b <= m:
        raise ValueError(f"mini-batch size {b} out of range [1, {m}]")
    if T < 1:
        raise ValueError(f"iteration count must be >= 1, got {T}")


def sample_index_plan(m: int, b: int, T: int, seed: int) -> IndexPlan:
    """Draw the T x b table of i.i.d. uniform indices for one run."""
    _check_plan_shape(m, b, T)
    idx = make_rng(seed).integers(0, m, size=(T, b), dtype=np.int64)
    idx.setflags(write=False)
    return IndexPlan(m=m, b=b, T=T, indices=idx)


def sample_index_table(m: int, b: int, T: int, seeds) -> np.ndarray:
    """The read-only (T, R, b) index table of R runs, one per seed: column
    r holds the draws of ``sample_index_plan(m, b, T, seeds[r])``, so
    trial r of :func:`run_sgm_trials` on the table equals :func:`run_sgm`
    on that plan. The entries are int32 when R m < 2^31 (every offset the
    engine adds to an index stays below R m), else int64: half the bytes
    of R plans."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("need at least one seed")
    _check_plan_shape(m, b, T)
    table = np.empty((T, len(seeds), b), np.int32 if len(seeds) * m < 2**31 else np.int64)
    for r, seed in enumerate(seeds):
        table[:, r] = sample_index_plan(m, b, T, seed).indices
    table.setflags(write=False)
    return table


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
    if count < 1:
        raise ValueError(f"checkpoint count must be >= 1, got {count}")
    # not np.unique, which imports numpy.ma (about 10-20 ms) on first use
    return tuple(sorted(set(np.geomspace(1, T, num=min(count, T)).round().astype(int).tolist())))


def _as_matrix(x):
    return x[:, None] if x.ndim == 1 else x


def _check_anchors(sample: Sample, ctx: AnchorSet) -> AnchorSet:
    if ctx.n != sample.m:
        raise DimensionMismatch("anchor set vs sample", sample.m, ctx.n)
    if not np.array_equal(ctx.points, sample.x):
        raise ValueError("kernel runs anchor the iterate on the sample points; "
                         "the anchor set must be built from sample.x")
    return ctx


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
    shared by all trials or one per plan. ``ctx`` is ``None``
    (euclidean), an :class:`AnchorSet` on the shared sample's points, or
    a :class:`KernelSpec` with per-trial samples, whose Grams (or
    inputs) are stacked in chunks of trials within ``_STACK_BYTES``. The
    run reads an anchor set's Gram where the set holds one; for a lazy
    set (:meth:`AnchorSet.lazy`) it builds its own, with the checks of
    ``AnchorSet.build(check_psd=False)``, and frees it on return, so the
    Gram lives only while SGM reads it. Besides its Grams, the index
    table and the returned block, the run holds O(R b w): the step loop
    gathers every step's sampled rows into one buffer per chunk, and a
    blocked run writes its checkpoints straight into the returned block.
    Returns the checkpoint iterates, (n_cp, R, w) with w = m (kernel) or
    d (euclidean).

    With b = 1 a trial runs on the blocked path (:func:`_blocked_sgm`),
    ``_BLOCK`` steps per triangular solve on its Gram's rows or its
    inputs, in chunks of at most ``_BLOCK`` kernel trials, when every
    step keeps eta_t K_jj <= 1 (or eta_t ||x_j||^2 <= 1) and a kernel
    sample holds more than one point. It stays within 1e-12 relative of
    the step loop, not bit for bit. Every other trial, and every blocked
    trial whose iterate bound could reach half the divergence limit,
    runs the lockstep step loop from step 0: each step gathers the
    sampled rows of those trials as one (R, b, w) block and contracts it
    with the (R, w) iterate block. Either way trial r follows a single
    run on plan r bit for bit. Divergence raises
    ``DivergenceError(t, "trial r")`` for the earliest diverging step t
    and the lowest trial r diverging at it, both as the step loop finds
    them.
    """
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
    if kernel and stacked != isinstance(ctx, KernelSpec):
        raise ValueError("per-trial samples take a KernelSpec, a shared sample an AnchorSet")
    if not stacked:
        ys = samples[0].y
        # a lazy set's Gram is built for this run only and freed on return
        src = (_check_anchors(samples[0], ctx).gram_values(keep=False) if kernel
               else _as_matrix(samples[0].x))
    w = m if kernel else samples[0].dim
    cps = normalize_checkpoints(checkpoints, T)
    cp_pos = {t: i for i, t in enumerate(cps)}
    etas = schedule.etas(T) / b
    out = np.empty((len(cps), R, w))
    chunk = max(1, _STACK_BYTES // (8 * w * (b + (m if stacked else 0))))
    if kernel and b == 1:  # a block gathers _BLOCK Gram rows per trial
        chunk = min(chunk, _BLOCK)
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
            loop = _run_blocked(src, ys, table[:, lo:lo + len(trials), 0], kernel, etas, cps, out,
                                trials)
        if not loop.size:
            continue
        sel = trials[loop]
        cols = sel if len(sel) < len(trials) else slice(lo, lo + len(sel))
        # table[t - 1, cols] + pick_off locates each trial's sampled
        # coefficients in A.ravel(), + row_off its sampled rows in the
        # chunk's samples; both per step, so no (T, R, b) table of positions
        # is formed
        pick_off = (np.arange(len(sel)) * m)[:, None]
        row_off = (loop * m)[:, None] if stacked else 0
        flat_src = src.reshape(-1, w)
        if kernel:
            scale = _coef_scale(src)[loop, None] if stacked else _coef_scale(src)
        A = np.zeros((len(sel), w))
        a = A.reshape(-1)
        # each step's sampled rows, gathered into one buffer for the chunk
        P = np.empty((len(sel), b, w))
        for t in range(1, T + 1 if diverged is None else diverged[0]):
            # one cast per step; each gather and add would cast int32 indices
            at = table[t - 1, cols].astype(np.intp, copy=False)
            rows = at + row_off
            # "clip" writes into P directly ("raise" buffers); _check_table
            # has put every row in range
            np.take(flat_src, rows, axis=0, out=P, mode="clip")
            resid = np.matmul(P, A[:, :, None])[..., 0] - ys[rows]
            if kernel:
                picks = at + pick_off
                np.subtract.at(a, picks, etas[t - 1] * resid)
                # only the sampled coefficients can change, so checking
                # them keeps the divergence guard O(b) per trial
                guard = np.abs(a[picks]) * scale
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


def _run_blocked(src, ys, sampled, kernel, etas, cps, out, trials):
    """Runs the chunk's trials (one shared ``src`` or one per trial,
    stacked) on :func:`_blocked_sgm` where every step keeps
    eta_t K_jj <= 1 (kernel) or eta_t ||x_j||^2 <= 1 (euclidean), and
    writes their checkpoints into ``out[:, trials]``. The step condition
    keeps every entry of the block systems at most 1, so their LU never
    pivots. Returns the positions in the chunk left to the step loop:
    those whose steps do not keep it, kernel trials on a single point (the
    loop is then bit for bit batch GM's, as the decomposition needs), and
    those whose bound on the iterate, sum_t |eta_t rho_t| times the Gram's
    largest diagonal (max|X| for euclidean), reaches half the limit."""
    m, w = src.shape[-2:]
    top = _coef_scale(src) if kernel else np.einsum("...ij,...ij->...i", src, src).max(axis=-1)
    loop = np.broadcast_to((etas[0] * top > 1) | (kernel and m == 1), len(trials)).copy()
    members = np.flatnonzero(~loop)
    if not members.size:
        return np.flatnonzero(loop)
    scale = np.broadcast_to(top if kernel else np.abs(src).max(axis=(-2, -1)),
                            len(trials))[members]
    # trial j's point r is row r + j m of stacked samples
    offset = (members * m)[:, None] if src.ndim == 3 else 0
    whole = len(members) == len(trials)
    # a whole chunk runs straight into its columns of out; a trial
    # dropped below is rewritten there by the step loop
    dest = out[:, trials[0]:trials[-1] + 1] if whole else None
    coef, reach = _blocked_sgm(src.reshape(-1, w), ys, sampled if whole else sampled[:, members],
                               offset, kernel, etas, cps, dest)
    ok = reach * scale < _DIVERGENCE_LIMIT / 2  # also false for nan
    if not whole:
        out[:, trials[members[ok]]] = coef[:, ok]
    loop[members[~ok]] = True
    return np.flatnonzero(loop)


def _blocked_sgm(phi, ys, rows, offset, kernel, etas, cps, out=None):
    """Single-point SGM for g trials on feature rows ``phi``, ``_BLOCK``
    steps per triangular solve.

    ``phi`` holds the trials' Gram rows (kernel) or input rows
    (euclidean), and ``ys`` their targets; step t of trial i samples row
    ``rows[t - 1, i] + offset[i]`` of both, and for a kernel coefficient
    ``rows[t - 1, i]`` of its iterate. In a block of B steps with sampled
    rows P (B, w) and sampled points J the residuals rho solve the unit
    lower-triangular (Gauss-Seidel) system (I + tril(G, -1) diag(eta)) rho
    = P v - y, with v the iterate: for a kernel G = K[J, J], read off
    ``phi`` in one flat take, v the coefficients a and then
    a[J] <- a[J] - eta rho, subtracted step by step as the loop does; for
    euclidean G = P P^T, v the coordinates and then
    v <- v - eta_1 rho_1 P_1 - ... - eta_B rho_B P_B, subtracted in step
    order, so a zero input feature stays exactly zero (a sum would go
    pairwise where it runs along a contiguous axis, as for one feature and
    one trial). Blocks are cut at the checkpoints. Returns the checkpoint
    iterates (n_cp, g, w), written into ``out`` where it is given, and
    per trial sum_t |eta_t rho_t|, which bounds every |a| (and, times
    max|X|, every |v|) along the run.
    """
    T, g = rows.shape
    w = phi.shape[1]
    flat = phi.reshape(-1) if kernel else None
    v = np.zeros((g, w))
    if out is None:
        out = np.empty((len(cps), g, w))
    reach = np.zeros(g)
    pick_off = (np.arange(g) * w)[:, None]
    lower, eye = np.tri(_BLOCK, k=-1), np.eye(_BLOCK)
    # v, then the block's sampled rows, which (euclidean) become its
    # updates in place; reduced by subtraction in step order
    updates = np.empty((_BLOCK + 1, g, w))
    edges = sorted({0, T, *cps})
    # a trial that diverges here is rerun by the step loop
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
            for t0 in range(lo, hi, _BLOCK):
                t1 = min(t0 + _BLOCK, hi)
                n, eta = t1 - t0, etas[t0:t1]
                at = rows[t0:t1].T.astype(np.intp)
                grow = at + offset
                # "clip" writes into out directly ("raise" buffers); rows are in range
                sampled = np.take(phi, grow.T, axis=0, out=updates[1:n + 1], mode="clip")
                P = sampled.transpose(1, 0, 2)
                if kernel:
                    system = np.take(flat, grow[:, :, None] * w + at[:, None, :], mode="clip")
                else:
                    system = np.matmul(P, P.transpose(0, 2, 1))
                system *= lower[:n, :n] * eta
                system += eye[:n, :n]
                r0 = np.matmul(P, v[:, :, None]) - ys[grow][:, :, None]
                u = np.linalg.solve(system, r0)[..., 0] * eta
                if kernel:
                    np.subtract.at(v.reshape(-1), at + pick_off, u)
                else:
                    updates[0] = v
                    sampled *= u.T[:, :, None]
                    np.subtract.reduce(updates[:n + 1], axis=0, out=v)
                reach += np.abs(u).sum(axis=1)
            if i < len(cps):
                out[i] = v
    return out, reach


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
        block = run_sgm_trials(sample, ctx, schedule, plan.indices[:, None], cps)
    except DivergenceError as exc:
        backend = "euclidean" if ctx is None else "kernel"
        raise DivergenceError(exc.iteration, f"sgm/{backend}") from None
    return Trajectory(cps, block[:, 0], tuple(passes(plan.b, t, sample.m) for t in cps), ctx)


def _pivoted_cholesky(gram, max_rank):
    """Rows (k, N) of L^T with K ~= L L^T, pivoting on the largest
    residual diagonal until it sums to <= 1e-15 trace; None when that
    takes more than max_rank pivots. ``gram`` is K itself or an
    :class:`AnchorSet`, whose rows and diagonal come from the kernel
    while its Gram is unbuilt: k rows of K, never all N."""
    if isinstance(gram, AnchorSet):
        resid, row = gram.diagonal().copy(), gram.row
    else:
        resid, row = np.diagonal(gram).copy(), gram.__getitem__
    tol = 1e-15 * resid.sum()
    # pages of the buffer become resident only as rows are written
    rows = np.empty((max_rank, len(resid)))
    for k in range(max_rank):
        if resid.sum() <= tol:
            return rows[:k]
        p = int(np.argmax(resid))
        rows[k] = (row(p) - rows[:k, p] @ rows[:k]) / np.sqrt(resid[p])
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
    bound (for kernels times the Gram's largest diagonal, as the loop's
    guard reads it) is at most half the divergence limit, so no step
    could raise.
    Otherwise the step loop runs and raises
    ``DivergenceError(t, "batch/<backend>")`` at the first diverging step.
    The factor reads k rows and the diagonal of ``ctx``, so a lazy
    :class:`AnchorSet` builds its Gram only for the loop.

    Accuracy: the kernel filter's sample values K c_t stay within
    10 s_T lam_max eps max|y| of a step loop run in extended precision,
    lam_max the Gram's largest eigenvalue and eps the float64 epsilon;
    the float64 loop errs by the same order. Relative to the values this
    is 10 s_T lam_max eps wherever they are of the size of y, as at
    T = 8000 in the tests (up to 3e-12), and more where they are far
    smaller: the factor's backward error, about eps ||K||, times the
    filter's sensitivity s_T.
    """
    cps = normalize_checkpoints(checkpoints, T)
    cp_pos = {t: i for i, t in enumerate(cps)}
    kernel = ctx is not None
    m, y = sample.m, sample.y
    etas = schedule.etas(T) / m
    if kernel:
        scale = _check_anchors(sample, ctx).diagonal().max()
        rows = _pivoted_cholesky(ctx, _factor_budget(T, m, m * m))
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
            gram = ctx.gram_values()
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
    array (euclidean backend). On a lazy anchor set (:meth:`AnchorSet.lazy`)
    the filter builds no Gram; the step loop builds and keeps it.
    ``f_true`` must be vectorized: it maps the surrogate points to their
    exact target values f. A divergence is reported as
    ``population/<backend>``.
    """
    kernel = isinstance(surrogate, AnchorSet)
    backend = "kernel" if kernel else "euclidean"
    pts = surrogate.points if kernel else np.asarray(surrogate, dtype=np.float64)
    sample = Sample(pts, np.asarray(f_true(pts), dtype=np.float64).reshape(-1))
    try:
        return run_batch_gm(sample, surrogate if kernel else None, schedule, T, checkpoints)
    except DivergenceError as exc:
        raise DivergenceError(exc.iteration, f"population/{backend}") from None
