import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlsq import (
    AnchorSet,
    DimensionMismatch,
    DivergenceError,
    KernelSpec,
    Sample,
    StepSchedule,
    gen_linear_attainable,
    gen_synthetic_abs,
    kappa_sq,
    log_checkpoints,
    make_rng,
    mean_square_error,
    mix_seed,
    predict,
    recipe,
    run_batch_gm,
    run_population,
    run_sgm,
    run_sgm_trials,
    sample_index_plan,
)
from sgdlsq import iterations
from sgdlsq.iterations import Trajectory
from sgdlsq.spaces import feature_matrix

GAUSS = KernelSpec("gaussian", sigma=0.2)


class TestIndexPlan:
    def test_single_point_sample(self):
        plan = sample_index_plan(1, 1, 20, seed=5)
        np.testing.assert_array_equal(plan.indices, np.zeros((20, 1), dtype=np.int64))

    def test_determinism(self):
        a = sample_index_plan(10, 2, 5, seed=42)
        b = sample_index_plan(10, 2, 5, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)
        c = sample_index_plan(10, 2, 5, seed=43)
        assert not np.array_equal(a.indices, c.indices)

    def test_batch_size_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            sample_index_plan(10, 11, 5, seed=0)
        with pytest.raises(ValueError, match="out of range"):
            sample_index_plan(10, 0, 5, seed=0)

    def test_marginal_uniformity(self):
        """Frequency oracle: each index count of a (m=100, b=1, T=1e5)
        plan stays within 5 binomial standard deviations of T/m."""
        m, T = 100, 100_000
        plan = sample_index_plan(m, 1, T, seed=123)
        counts = np.bincount(plan.indices.ravel(), minlength=m)
        expected = T / m
        sd = np.sqrt(T * (1 / m) * (1 - 1 / m))
        assert np.all(np.abs(counts - expected) <= 5 * sd)

    def test_immutable(self):
        plan = sample_index_plan(10, 2, 5, seed=1)
        with pytest.raises(ValueError):
            plan.indices[0, 0] = 3


class TestTrajectory:
    def test_refuses_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            Trajectory((1, 2, 3), np.zeros((2, 4)), (1, 2, 3))
        assert err.value.expected == 3 and err.value.got == 2

    def test_refuses_non_increasing_checkpoints(self):
        for cps in ((2, 1), (3, 3)):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(cps, np.zeros((2, 1)), cps)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, bad):
        coeffs = np.zeros((3, 2))
        coeffs[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory((1, 2, 3), coeffs, (1, 2, 3))

    def test_refuses_width_other_than_the_anchor_count(self):
        anchors = AnchorSet.build(GAUSS, [0.0, 0.5, 1.0])
        with pytest.raises(DimensionMismatch):
            Trajectory((1,), np.zeros((1, 2)), (1,), anchors)

    def test_coeffs_are_read_only(self):
        block = np.ones((2, 3))
        traj = Trajectory((1, 2), block, (1, 2))
        with pytest.raises(ValueError):
            traj.coeffs[0, 0] = 5.0
        with pytest.raises(ValueError):
            traj.final.coeffs[0] = 5.0
        block[0, 0] = 2.0  # the caller's array stays writable

    def test_vector_at_missing_checkpoint(self):
        traj = Trajectory((1, 4), np.zeros((2, 1)), (1, 4))
        assert traj.vector_at(4).backend == "euclidean"
        with pytest.raises(KeyError, match="t=2"):
            traj.vector_at(2)

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.booleans(), d=st.integers(1, 4), n_train=st.integers(1, 60),
           n_pts=st.integers(1, 80), n_cp=st.integers(1, 10), seed=st.integers(0, 2**32))
    def test_values_rows_equal_predict(self, kernel, d, n_train, n_pts, n_cp, seed):
        """Each row of values() equals predict of its vector bit for bit,
        on both backends; the single product coeffs @ F.T would not."""
        rng = make_rng(seed)
        anchors = AnchorSet.build(GAUSS, rng.random((n_train, d)), check_psd=False) \
            if kernel else None
        cps = tuple(range(1, n_cp + 1))
        traj = Trajectory(cps, rng.standard_normal((n_cp, n_train if kernel else d)), cps,
                          anchors)
        xs = rng.random((n_pts, d))
        vals = traj.values(feature_matrix(traj, xs))
        assert vals.shape == (n_cp, n_pts)
        for i, t in enumerate(cps):
            np.testing.assert_array_equal(vals[i], predict(traj.vector_at(t), xs))


def _kernel_sgm_oracle(sample, gram, etas, plan):
    """Dense reference recursion: w_{t+1} = w_t - (eta_t/b) * sum over the
    batch of (prediction - target) times the point's representer,
    written out coefficient by coefficient."""
    m = sample.m
    alpha = np.zeros(m)
    for t in range(plan.T):
        grad = np.zeros(m)
        for j in plan.indices[t]:
            pred = float(gram[j] @ alpha)
            grad[j] += pred - sample.y[j]
        alpha = alpha - (etas[t] / plan.b) * grad
    return alpha


class TestRunSgm:
    def test_zero_targets_fixed_point(self):
        sample = gen_synthetic_abs(8, seed=0, noise_sd=0.0)
        sample = Sample(x=sample.x, y=np.zeros(8))
        ctx = AnchorSet.build(GAUSS, sample.x)
        plan = sample_index_plan(8, 2, 30, seed=1)
        traj = run_sgm(sample, ctx, StepSchedule(0.5), plan, checkpoints=(1, 10, 30))
        np.testing.assert_array_equal(traj.coeffs, np.zeros((3, 8)))

    def test_scalar_hand_recurrence(self):
        # d=1, single point (x, y) = (1, 1), eta = 0.5: w moves halfway
        # to 1 each step
        sample = Sample(x=np.array([1.0]), y=np.array([1.0]))
        plan = sample_index_plan(1, 1, 3, seed=0)
        traj = run_sgm(sample, None, StepSchedule(0.5), plan, checkpoints=(1, 2, 3))
        np.testing.assert_allclose(traj.coeffs[:, 0], [0.5, 0.75, 0.875], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_kernel_path_matches_dense_oracle(self, seed, b):
        sample = gen_synthetic_abs(8, seed=seed)
        ctx = AnchorSet.build(GAUSS, sample.x)
        plan = sample_index_plan(8, b, 40, seed=seed + 100)
        sch = StepSchedule(0.3, 0.25)
        traj = run_sgm(sample, ctx, sch, plan, checkpoints=(40,))
        oracle = _kernel_sgm_oracle(sample, ctx.gram.values, sch.etas(40), plan)
        np.testing.assert_allclose(traj.final.coeffs, oracle, rtol=1e-12, atol=1e-14)

    def test_bit_identical_reruns(self):
        sample = gen_synthetic_abs(16, seed=2)
        ctx = AnchorSet.build(GAUSS, sample.x)
        plan = sample_index_plan(16, 4, 50, seed=9)
        sch = StepSchedule(0.1)
        a = run_sgm(sample, ctx, sch, plan, checkpoints=(50,))
        b = run_sgm(sample, ctx, sch, plan, checkpoints=(50,))
        assert np.array_equal(a.final.coeffs, b.final.coeffs)

    def test_sec9_configuration_smoke(self):
        """m=100 sample, b=10, eta=1/(8 sqrt(m)): finite iterates and a
        training error that ends below where it starts."""
        m = 100
        sample = gen_synthetic_abs(m, seed=7)
        ctx = AnchorSet.build(GAUSS, sample.x)
        b = 10
        sch = StepSchedule(1.0 / (8 * np.sqrt(m)), 0.0, kappa_sq(GAUSS))
        plan = sample_index_plan(m, b, 300, seed=3)
        traj = run_sgm(sample, ctx, sch, plan, checkpoints=log_checkpoints(300, 10))
        errs = [mean_square_error(traj.vector_at(t), sample.x, sample.y)
                for t in traj.checkpoints]
        assert np.all(np.isfinite(errs))
        assert errs[-1] < errs[0]

    def test_divergence_reports_iteration(self):
        sample = Sample(x=np.array([1.0]), y=np.array([1.0]))
        plan = sample_index_plan(1, 1, 200, seed=0)
        with pytest.raises(DivergenceError) as err:
            run_sgm(sample, None, StepSchedule(4.0), plan)
        assert err.value.iteration >= 1

    def test_plan_sample_mismatch(self):
        sample = gen_synthetic_abs(5, seed=0)
        plan = sample_index_plan(6, 1, 3, seed=0)
        with pytest.raises(ValueError):
            run_sgm(sample, None, StepSchedule(0.1), plan)

    def test_checkpoint_passes(self):
        sample = gen_synthetic_abs(10, seed=0)
        plan = sample_index_plan(10, 3, 20, seed=0)
        traj = run_sgm(sample, None, StepSchedule(0.01), plan, checkpoints=(1, 7, 20))
        assert traj.passes == (1, 3, 6)  # ceil(3t/10)


class TestRunBatchGm:
    def test_zero_targets(self):
        sample = Sample(x=np.array([0.2, 0.8]), y=np.zeros(2))
        traj = run_batch_gm(sample, None, StepSchedule(0.5), 10, checkpoints=(10,))
        np.testing.assert_array_equal(traj.final.coeffs, [0.0])

    def test_two_point_hand_gradient(self):
        # points {1, 1}, targets {0, 1}, eta = 1: first step lands on the
        # least-squares mean 0.5 and stays there
        sample = Sample(x=np.array([1.0, 1.0]), y=np.array([0.0, 1.0]))
        traj = run_batch_gm(sample, None, StepSchedule(1.0), 3, checkpoints=(1, 2, 3))
        np.testing.assert_allclose(traj.coeffs[:, 0], [0.5, 0.5, 0.5], rtol=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_step_matches_mean_gradient_oracle(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12, 3)) * 0.4
        y = rng.standard_normal(12)
        sample = Sample(x=x, y=y)
        eta = 0.2
        traj = run_batch_gm(sample, None, StepSchedule(eta), 1, checkpoints=(1,))
        # hand gradient at w = 0: -(eta/m) * sum_i (0 - y_i) x_i
        oracle = eta * (x.T @ y) / 12
        np.testing.assert_allclose(traj.final.coeffs, oracle, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kernelized", [False, True])
    def test_training_mse_nonincreasing_within_step_limit(self, kernelized):
        """Descent sanity: with eta * kappa^2 <= 1 the batch iteration
        cannot increase the training error (convex quadratic, small step)."""
        sample = gen_synthetic_abs(30, seed=4)
        ctx = AnchorSet.build(GAUSS, sample.x) if kernelized else None
        sch = StepSchedule(1.0, 0.0, kappa_sq(GAUSS))  # eta * kappa^2 = 1
        traj = run_batch_gm(sample, ctx, sch, 60, checkpoints=tuple(range(1, 61)))
        errs = np.array([mean_square_error(traj.vector_at(t), sample.x, sample.y)
                         for t in traj.checkpoints])
        assert np.all(np.diff(errs) <= 1e-12 * np.maximum(1.0, errs[:-1]))


class TestRunPopulation:
    def test_zero_target(self):
        traj = run_population(np.linspace(0, 1, 20), lambda x: np.zeros_like(x),
                              StepSchedule(0.5), 10, checkpoints=(10,))
        np.testing.assert_array_equal(traj.final.coeffs, [0.0])

    def test_single_point_hand_recurrence(self):
        traj = run_population(
            np.array([1.0]),
            lambda x: np.full_like(np.atleast_1d(x), 2.0),
            StepSchedule(0.5),
            3,
            checkpoints=(1, 2, 3),
        )
        np.testing.assert_allclose(traj.coeffs[:, 0], [1.0, 1.5, 1.75], rtol=1e-15)

    def test_kernel_surrogate_runs_and_is_deterministic(self):
        rng = np.random.default_rng(0)
        anchors = AnchorSet.build(GAUSS, rng.random(50))
        f = lambda x: np.abs(x - 0.5) - 0.5
        sch = StepSchedule(0.25)
        a = run_population(anchors, f, sch, 40, checkpoints=(40,))
        b = run_population(anchors, f, sch, 40, checkpoints=(40,))
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert a.backend == "kernel"


def _surrogate_case(kind, n, d, seed):
    """A surrogate point set, its run context (None for euclidean) and
    the matrix taking an iterate's coefficients to surrogate values."""
    rng = make_rng(seed)
    if kind == "euclidean":
        pts = rng.random((n, d)) if d > 1 else rng.random(n)
        return pts, None, iterations._as_matrix(pts).T, kappa_sq(KernelSpec("linear"), pts)
    spec = KernelSpec(kind, sigma=0.2 if kind == "gaussian" else None)
    ctx = AnchorSet.build(spec, rng.random(n), check_psd=False)
    return ctx.points, ctx, ctx.gram.values, kappa_sq(spec, ctx.points)


def _target(pts):
    return np.abs(iterations._as_matrix(pts).sum(axis=1) - 0.5) - 0.5


def _noisy(pts, seed, scale=1.0):
    """Targets plus unit noise, so y has a part outside the range of K."""
    return scale * (_target(pts) + make_rng(seed).standard_normal(len(pts)))


def _assert_rel(got, want, rtol):
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _batch_loop(sample, gram, etas, cps):
    """Batch GM as two plain whole-matrix step loops, the reference the
    spectral filter and its fallback are checked against."""
    m = sample.m
    out = []
    if gram is None:
        x = iterations._as_matrix(sample.x)
        w = np.zeros(x.shape[1])
        for t in range(1, len(etas) + 1):
            resid = x @ w - sample.y
            w -= (etas[t - 1] / m) * (x.T @ resid)
            if not np.all(np.isfinite(w)) or np.max(np.abs(w)) > 1e12:
                raise DivergenceError(t, "batch/euclidean")
            if t in cps:
                out.append(w.copy())
    else:
        alpha = np.zeros(m)
        for t in range(1, len(etas) + 1):
            alpha -= (etas[t - 1] / m) * (gram @ alpha - sample.y)
            if not np.all(np.isfinite(alpha)) or np.max(np.abs(alpha)) > 1e12:
                raise DivergenceError(t, "batch/kernel")
            if t in cps:
                out.append(alpha.copy())
    return np.array(out)


_CASES = dict(
    kind=st.sampled_from(["gaussian", "sobolev", "linear", "euclidean"]),
    n=st.integers(1, 200),
    d=st.integers(1, 4),
    T=st.integers(1, 400),
    eta1=st.floats(0.01, 1.99),
    theta=st.floats(0.0, 0.9, exclude_max=True),
    seed=st.integers(0, 2**32),
)


class TestPopulationFilter:
    """Batch GM runs as a spectral filter, with the step loop as its
    fallback; the population iteration is batch GM on the noiseless
    surrogate sample."""

    @settings(max_examples=60, deadline=None)
    @given(**_CASES)
    def test_matches_batch_gm_on_surrogate_sample(self, kind, n, d, T, eta1, theta, seed):
        """run_population equals run_batch_gm on Sample(pts, f(pts)) bit
        for bit, for both backends and the three kernels."""
        pts, ctx, _, k_sq = _surrogate_case(kind, n, d, seed)
        sch = StepSchedule(eta1, theta, k_sq)
        cps = log_checkpoints(T, 8)
        pop = run_population(pts if ctx is None else ctx, _target, sch, T, cps)
        ref = run_batch_gm(Sample(pts, _target(pts)), ctx, sch, T, cps)
        assert (pop.checkpoints, pop.passes, pop.backend) == (ref.checkpoints, ref.passes,
                                                              ref.backend)
        np.testing.assert_array_equal(pop.coeffs, ref.coeffs)

    @settings(max_examples=80, deadline=None)
    @given(**_CASES)
    @example(kind="linear", n=1, d=1, T=1, eta1=1.0, theta=0.0, seed=143)  # kappa^2 = 1.2e-13
    def test_batch_filter_matches_step_loop_on_noisy_samples(self, kind, n, d, T, eta1, theta,
                                                             seed):
        """run_batch_gm equals the step loop it replaced to 1e-12 relative,
        in the coefficients and in the sample values, on noisy targets (y
        not in the range of K), for both backends and the three kernels.
        Where the fallback runs (full-rank sobolev Grams exceed the factor
        budget; gaussian ones reach rank ~20, so the filter runs from
        N ~ 85) it is equal bit for bit. T stays <= 400: the kernel
        filter's c_t = s_t y + U diag(d_t) U^T y has two terms that
        cancel, so its error grows about linearly in T at every step
        size, not only where eta_t lam / N nears 2 (in the values, up to
        4e-12 at T = 8000 for gaussian N = 200, against 6e-13 for the
        loop). The euclidean filter carries no such cancellation; see
        test_long_euclidean_filter_matches_extended_precision_loop."""
        pts, ctx, to_vals, k_sq = _surrogate_case(kind, n, d, seed)
        sample = Sample(pts, _noisy(pts, seed))
        sch = StepSchedule(eta1, theta, k_sq)
        cps = log_checkpoints(T, 8)
        with mock.patch.object(iterations, "_gm_steps", wraps=iterations._gm_steps) as loop:
            got = run_batch_gm(sample, ctx, sch, T, cps).coeffs
        want = _batch_loop(sample, None if ctx is None else to_vals, sch.etas(T), set(cps))
        if loop.called:
            np.testing.assert_array_equal(got, want)
        _assert_rel(got, want, 1e-12)
        _assert_rel(got @ to_vals, want @ to_vals, 1e-12)

    @pytest.mark.parametrize("eta1", [0.3, 1.0, 1.9])
    def test_long_euclidean_filter_matches_extended_precision_loop(self, eta1):
        """At T = 8000 the euclidean filter w_t = W diag(q_t) W^T X^T y
        stays within 1e-13 of the step loop run in extended precision;
        forming X^T c_t instead cancels two terms and drifts to ~1e-12."""
        pts, _, _, k_sq = _surrogate_case("euclidean", 200, 3, seed=1)
        sample = Sample(pts, _noisy(pts, 2))
        sch = StepSchedule(eta1, 0.0, k_sq)
        cps = log_checkpoints(8000, 8)
        with mock.patch.object(iterations, "_gm_steps", side_effect=AssertionError("loop ran")):
            got = run_batch_gm(sample, None, sch, 8000, cps).coeffs
        x, y = pts.astype(np.longdouble), sample.y.astype(np.longdouble)
        w, want = np.zeros(3, dtype=np.longdouble), []
        for t, eta in enumerate((sch.etas(8000) / 200).astype(np.longdouble), 1):
            w -= eta * (x.T @ (x @ w - y))
            if t in cps:
                want.append(w.copy())
        _assert_rel(got, np.array(want, dtype=np.float64), 1e-13)

    @pytest.mark.parametrize("kind", ["gaussian", "euclidean"])
    def test_unstable_step_falls_back_and_raises_at_the_loop_step(self, kind):
        """eta_1 lam_max / N > 2: the loop runs and its divergence is
        reported as the population's, at the same step."""
        pts, ctx, _, k_sq = _surrogate_case(kind, 40, 2, seed=3)
        sch = StepSchedule(6.0, 0.0, k_sq)
        with pytest.raises(DivergenceError) as loop:
            run_batch_gm(Sample(pts, _target(pts)), ctx, sch, 400)
        backend = "euclidean" if ctx is None else "kernel"
        with pytest.raises(DivergenceError, match=f"population/{backend}") as err:
            run_population(pts if ctx is None else ctx, _target, sch, 400)
        assert err.value.iteration == loop.value.iteration

    def test_norm_bound_over_the_limit_takes_the_loop(self):
        """eta_1 lam_max / m <= 2 and the rank is within budget, but
        s_T ||y|| is above the divergence limit: the filter cannot rule
        out a raise, so the loop runs and raises at the reference loop's
        step."""
        pts, ctx, gram, k_sq = _surrogate_case("gaussian", 200, 1, seed=8)
        sample = Sample(pts, _noisy(pts, 8, scale=1e11))
        sch = StepSchedule(1.0, 0.0, k_sq)
        assert sch.etas(1)[0] * np.linalg.eigvalsh(gram).max() / 200 <= 2
        assert iterations._pivoted_cholesky(gram, iterations._factor_budget(2000, 200, 200**2)) \
            is not None
        with pytest.raises(DivergenceError) as ref:
            _batch_loop(sample, gram, sch.etas(2000), set())
        with mock.patch.object(iterations, "_gm_steps", wraps=iterations._gm_steps) as loop, \
                pytest.raises(DivergenceError, match="batch/kernel") as err:
            run_batch_gm(sample, ctx, sch, 2000)
        assert loop.called
        assert err.value.iteration == ref.value.iteration

    @pytest.mark.parametrize("n, T", [(200, 5), (40, 20000)])
    def test_full_rank_gram_is_the_loop(self, n, T):
        """A full-rank sobolev Gram needs more pivots than the factor
        budget allows: by cost for small T, and by the n/4 memory cap for
        long runs. The loop runs: equal bit for bit."""
        pts, ctx, _, k_sq = _surrogate_case("sobolev", n, 1, seed=4)
        budget = iterations._factor_budget(T, n, n * n)
        assert iterations._pivoted_cholesky(ctx.gram.values, budget) is None
        sch = StepSchedule(0.5, 0.3, k_sq)
        sample = Sample(pts, _noisy(pts, 4))
        got = run_batch_gm(sample, ctx, sch, T, range(1, T + 1))
        np.testing.assert_array_equal(got.coeffs, _batch_loop(sample, ctx.gram.values,
                                                                sch.etas(T), set(range(1, T + 1))))

    def test_wide_euclidean_inputs_with_short_run_are_the_loop(self):
        """d far above N: X^T X (d x d) and its eigh would cost far more
        than two short loop steps, so the loop runs: equal bit for bit."""
        pts, _, _, k_sq = _surrogate_case("euclidean", 20, 2000, seed=6)
        sch = StepSchedule(0.5, 0.0, k_sq)
        sample = Sample(pts, _noisy(pts, 6))
        got = run_batch_gm(sample, None, sch, 2, (1, 2))
        np.testing.assert_array_equal(got.coeffs, _batch_loop(sample, None, sch.etas(2), {1, 2}))

    @pytest.mark.parametrize("kind, d", [("gaussian", 1), ("linear", 1), ("euclidean", 3)])
    def test_low_rank_surrogate_takes_the_filter(self, kind, d):
        """Low-rank factors within budget run no step loop at all."""
        pts, ctx, gram, k_sq = _surrogate_case(kind, 200, d, seed=7)
        sample = Sample(pts, _noisy(pts, 7))
        sch = StepSchedule(1.0, 0.2, k_sq)
        cps = log_checkpoints(1000, 8)
        with mock.patch.object(iterations, "_gm_steps", side_effect=AssertionError("loop ran")):
            got = run_batch_gm(sample, ctx, sch, 1000, cps)
        want = _batch_loop(sample, None if ctx is None else gram, sch.etas(1000), set(cps))
        _assert_rel(got.coeffs, want, 1e-12)


class TestUnbiasednessSmall:
    def test_mean_over_plans_approaches_batch_iterate(self):
        """Monte Carlo oracle at modest R: the trial-averaged SGM iterate
        agrees with batch GM within 4 estimated standard errors."""
        m, t, R = 8, 16, 400
        sample = gen_synthetic_abs(m, seed=10)
        sch = StepSchedule(1.0 / (8 * m))
        batch = run_batch_gm(sample, None, sch, t, checkpoints=(t,)).final.coeffs
        acc = np.zeros((R, 1))
        for r in range(R):
            plan = sample_index_plan(m, 1, t, seed=5000 + r)
            acc[r] = run_sgm(sample, None, sch, plan, checkpoints=(t,)).final.coeffs
        dev = np.linalg.norm(acc.mean(axis=0) - batch)
        trace_var = np.sum((acc - acc.mean(axis=0)) ** 2) / (R - 1)
        assert dev <= 4 * np.sqrt(trace_var / R)


def _sequential_sgm(sample, gram, etas, plan, cps):
    """The one-plan-at-a-time step loop that the lockstep engine replaced,
    kept as a bit-for-bit reference."""
    x = sample.x[:, None] if sample.x.ndim == 1 else sample.x
    w = np.zeros(sample.m if gram is not None else x.shape[1])
    out = []
    for t in range(1, plan.T + 1):
        batch = plan.indices[t - 1]
        if gram is not None:
            resid = gram[batch] @ w - sample.y[batch]
            np.subtract.at(w, batch, (etas[t - 1] / plan.b) * resid)
        else:
            xb = x[batch]
            w -= (etas[t - 1] / plan.b) * (xb.T @ (xb @ w - sample.y[batch]))
        if t in cps:
            out.append(w.copy())
    return np.array(out)


def _trial_sample(kernel, m, seed):
    if kernel:
        return gen_synthetic_abs(m, seed=seed, noise_sd=1.0)
    return gen_linear_attainable(m, 3, [0.6, -0.3, 0.2], noise_sd=0.5, seed=seed)[0]


class TestLockstepTrials:
    @settings(max_examples=80, deadline=None)
    @given(
        kernel=st.booleans(),
        stacked=st.booleans(),
        m=st.integers(1, 12),
        b_frac=st.floats(0.0, 1.0),
        R=st.integers(1, 5),
        T=st.integers(1, 30),
        seed=st.integers(0, 2**32),
        eta1=st.floats(0.01, 0.3),
        theta=st.floats(0.0, 0.5),
        budget=st.sampled_from([1, 2048, iterations._STACK_BYTES]),
        data=st.data(),
    )
    def test_each_trial_equals_its_single_run(self, kernel, stacked, m, b_frac, R, T,
                                              seed, eta1, theta, budget, data):
        """Trial r of the lockstep run equals run_sgm on plan r bit for
        bit, for both backends, shared and stacked samples, chunked
        (budget 1 or 2048 bytes) or not. It equals the replaced sequential
        loop bit for bit, or to 1e-12 relative where the blocked b = 1
        path ran."""
        b = 1 + int(b_frac * (m - 1))
        cps = tuple(sorted(data.draw(st.sets(st.integers(1, T), min_size=1))))
        samples = [_trial_sample(kernel, m, mix_seed(seed, r if stacked else 0))
                   for r in range(R)]
        plans = [sample_index_plan(m, b, T, mix_seed(seed + 1, r)) for r in range(R)]
        sch = StepSchedule(eta1, theta)
        ctxs = [AnchorSet.build(GAUSS, s.x, check_psd=False) if kernel else None
                for s in samples]
        if stacked:
            engine_in, engine_ctx = samples, GAUSS if kernel else None
        else:
            engine_in, engine_ctx = samples[0], ctxs[0]
        with mock.patch.object(iterations, "_STACK_BYTES", budget):
            block = run_sgm_trials(engine_in, engine_ctx, sch, plans, cps)
        assert block.shape == (len(cps), R, m if kernel else 3)
        for r in range(R):
            ctx = ctxs[r] if stacked else ctxs[0]
            with mock.patch.object(iterations, "_blocked_sgm",
                                   wraps=iterations._blocked_sgm) as blocked:
                single = run_sgm(samples[r], ctx, sch, plans[r], cps)
            np.testing.assert_array_equal(block[:, r], single.coeffs)
            gram = ctx.gram.values if kernel else None
            ref = _sequential_sgm(samples[r], gram, sch.etas(T), plans[r], set(cps))
            if blocked.called:
                _assert_rel(block[:, r], ref, 1e-12)
            else:
                np.testing.assert_array_equal(block[:, r], ref)

    @pytest.mark.parametrize("budget", [1, iterations._STACK_BYTES])
    def test_divergence_names_earliest_step_then_lowest_trial(self, budget, monkeypatch):
        """One dominant point makes a sampled step unstable; trials
        diverge at different steps, and a later trial first. The engine
        reports the earliest step and, among trials diverging there, the
        lowest index: exactly what run_sgm raises alone for that plan."""
        x = np.array([[1.0, 0.0], [0.01, 0.0], [0.0, 0.01],
                      [0.01, 0.01], [0.0, 0.005], [0.005, 0.0]])
        sample = Sample(x=x, y=np.ones(6))
        sch = StepSchedule(4.0)
        plans = [sample_index_plan(6, 1, 400, seed=70 + r) for r in range(6)]
        first = {}
        for r, plan in enumerate(plans):
            with pytest.raises(DivergenceError) as err:
                run_sgm(sample, None, sch, plan)
            first[r] = err.value.iteration
        t_min = min(first.values())
        r_min = min(r for r, t in first.items() if t == t_min)
        assert r_min > 0 and first[0] > t_min  # the sequential order would name trial 0
        monkeypatch.setattr(iterations, "_STACK_BYTES", budget)
        with pytest.raises(DivergenceError) as err:
            run_sgm_trials(sample, None, sch, plans)
        assert err.value.iteration == t_min
        assert re.search(r"trial (\d+)", str(err.value)).group(1) == str(r_min)

    def test_rejects_inconsistent_plans_and_contexts(self):
        sample = gen_synthetic_abs(6, seed=1)
        sch = StepSchedule(0.1)
        with pytest.raises(ValueError, match="must share"):
            run_sgm_trials(sample, None, sch, [sample_index_plan(6, 1, 5, 0),
                                               sample_index_plan(6, 2, 5, 1)])
        with pytest.raises(ValueError, match="one sample per index plan"):
            run_sgm_trials([sample], None, sch, [sample_index_plan(6, 1, 5, r) for r in (0, 1)])
        with pytest.raises(ValueError, match="one sample per index plan"):
            run_sgm_trials(sample, None, sch, [])
        with pytest.raises(ValueError, match="KernelSpec"):
            run_sgm_trials([sample], AnchorSet.build(GAUSS, sample.x), sch,
                           [sample_index_plan(6, 1, 5, 0)])


_WIDE = KernelSpec("gaussian", sigma=1.0)  # rank 9 from m ~ 40 on [0, 1]
_SPECS = {"gaussian": _WIDE, "sobolev": KernelSpec("sobolev"), "linear": KernelSpec("linear")}


def _b1_sample(kind, m, d, seed, spread=1.0, scale=1.0):
    """Points in [0, spread] (euclidean: [0, spread]^d) with noisy targets."""
    rng = make_rng(seed)
    pts = spread * (rng.random(m) if kind != "euclidean" or d == 1 else rng.random((m, d)))
    return Sample(pts, _noisy(pts, seed + 1, scale))


def _b1_reference(sample, kind, sch, plan, cps):
    """The step loop on one plan and the matrix taking its coefficients
    to sample values."""
    if kind == "euclidean":
        gram, to_vals = None, iterations._as_matrix(sample.x).T
    else:
        gram = to_vals = AnchorSet.build(_SPECS[kind], sample.x, check_psd=False).gram.values
    return _sequential_sgm(sample, gram, sch.etas(plan.T), plan, set(cps)), to_vals


class TestBlockedSgm:
    """b = 1 runs advance _BLOCK steps per triangular solve over the
    inputs or a low-rank Gram factor, within 1e-12 relative of the step
    loop; the loop runs instead where there is no such factor or the
    iterate bound could reach half the divergence limit."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "sobolev", "linear", "euclidean"]),
           stacked=st.booleans(), m=st.integers(1, 90), d=st.integers(1, 3),
           R=st.integers(1, 3), T=st.integers(1, 400), eta1=st.floats(0.01, 1.0),
           theta=st.floats(0.0, 0.9, exclude_max=True), seed=st.integers(0, 2**32),
           data=st.data())
    def test_matches_step_loop(self, kind, stacked, m, d, R, T, eta1, theta, seed, data):
        """Coefficients and sample values stay within 1e-12 of the step
        loop, for the three kernels and euclidean inputs, shared and
        stacked samples, with checkpoints that cut blocks; each trial
        equals its single run bit for bit."""
        cps = sorted(data.draw(st.sets(st.integers(1, T), min_size=1, max_size=8)))
        samples = [_b1_sample(kind, m, d, mix_seed(seed, r if stacked else 0))
                   for r in range(R)]
        spec = None if kind == "euclidean" else _SPECS[kind]
        k_sq = kappa_sq(spec or KernelSpec("linear"), np.concatenate([s.x for s in samples]))
        sch = StepSchedule(eta1, theta, k_sq)
        plans = [sample_index_plan(m, 1, T, mix_seed(seed + 1, r)) for r in range(R)]
        ctxs = [spec and AnchorSet.build(spec, s.x, check_psd=False) for s in samples]
        if stacked:
            block = run_sgm_trials(samples, spec, sch, plans, cps)
        else:
            block = run_sgm_trials(samples[0], ctxs[0], sch, plans, cps)
        for r in range(R):
            s = samples[r if stacked else 0]
            single = run_sgm(s, ctxs[r if stacked else 0], sch, plans[r], cps)
            np.testing.assert_array_equal(block[:, r], single.coeffs)
            ref, to_vals = _b1_reference(s, kind, sch, plans[r], cps)
            _assert_rel(block[:, r], ref, 1e-12)
            _assert_rel(block[:, r] @ to_vals, ref @ to_vals, 1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "linear", "euclidean"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_low_rank_and_euclidean_runs_are_blocked(self, kind, stacked):
        """Long b = 1 runs with a factor within budget (or inputs) take
        the blocked path for every trial and keep the 1e-12 contract."""
        m, T, R = 120, 3000, 3
        samples = [_b1_sample(kind, m, 3, 10 + (r if stacked else 0)) for r in range(R)]
        spec = None if kind == "euclidean" else _SPECS[kind]
        sch = StepSchedule(0.5, 0.1, kappa_sq(spec or KernelSpec("linear"),
                                             np.concatenate([s.x for s in samples])))
        plans = [sample_index_plan(m, 1, T, 40 + r) for r in range(R)]
        cps = log_checkpoints(T, 20)
        engine = (samples, spec) if stacked else (
            samples[0], spec and AnchorSet.build(spec, samples[0].x, check_psd=False))
        with mock.patch.object(iterations, "_blocked_sgm", wraps=iterations._blocked_sgm) as blk:
            block = run_sgm_trials(*engine, sch, plans, cps)
        assert sum(call.args[2].shape[1] for call in blk.call_args_list) == R
        for r in range(R):
            ref, to_vals = _b1_reference(samples[r if stacked else 0], kind, sch, plans[r], cps)
            _assert_rel(block[:, r], ref, 1e-12)
            _assert_rel(block[:, r] @ to_vals, ref @ to_vals, 1e-12)

    @pytest.mark.parametrize("case, kept", [
        (("linear", 15, 0.9, 30000), False),
        (("linear", 5, 0.95, 30000), False),
        (("gaussian", 80, 0.9, 30000), False),
        (("C3", 512, None, None), True),
    ], ids=["linear-m15", "linear-m5", "gaussian-m80", "C3-m512"])
    def test_long_kernel_runs_keep_the_contract(self, case, kept):
        """Over long runs the coefficients drift in K's null space, where
        the factor's phi phi^T and K differ by rounding: on these linear
        and gaussian runs the blocked values phi z end 2e-12 to 5e-12
        from the loop's, so the check against K a drops them for the
        loop. A C3 run as in ``rates`` (gaussian, sigma = 0.2, eta = 1/(8m),
        T = m^(3/2)) keeps its blocked result. Either way it is within 1e-12 of the loop."""
        kind, m, eta1, T = case
        if kind == "C3":
            rec = recipe("C3", m)
            sample, spec = gen_synthetic_abs(m, seed=92, noise_sd=1.0), GAUSS
            sch, T = rec.schedule, rec.t_star
        else:
            sample, spec = _b1_sample(kind, m, 1, 90), _SPECS[kind]
            sch = StepSchedule(eta1, 0.0, kappa_sq(spec, sample.x))
        ctx = AnchorSet.build(spec, sample.x, check_psd=False)
        plan = sample_index_plan(m, 1, T, 91)
        cps = log_checkpoints(T, 10)
        real, runs = iterations._blocked_sgm, []
        with mock.patch.object(iterations, "_blocked_sgm",
                               side_effect=lambda *args: runs.append(real(*args)) or runs[-1]):
            got = run_sgm(sample, ctx, sch, plan, cps).coeffs
        [(blocked, _, _)] = runs
        assert np.array_equal(got, blocked[:, 0]) == kept
        gram = ctx.gram.values
        ref = _sequential_sgm(sample, gram, sch.etas(T), plan, set(cps))
        _assert_rel(got, ref, 1e-12)
        _assert_rel(got @ gram, ref @ gram, 1e-12)

    def test_stacked_factors_of_different_ranks(self):
        """Trials whose Gram factors differ in rank run in one group per
        rank, and each equals its single run bit for bit."""
        m, T = 60, 600
        samples = [_b1_sample("gaussian", m, 1, 20 + r, spread=0.02 if r % 2 else 1.0)
                   for r in range(4)]
        sch = StepSchedule(0.5, 0.0, 1.0)
        ranks = {iterations._step_features(AnchorSet.build(_WIDE, s.x).gram.values, True,
                                           sch.etas(T)).shape[1] for s in samples}
        assert len(ranks) == 2
        plans = [sample_index_plan(m, 1, T, 50 + r) for r in range(4)]
        cps = (7, 100, T)
        block = run_sgm_trials(samples, _WIDE, sch, plans, cps)
        for r, (s, plan) in enumerate(zip(samples, plans)):
            ctx = AnchorSet.build(_WIDE, s.x)
            np.testing.assert_array_equal(block[:, r], run_sgm(s, ctx, sch, plan, cps).coeffs)
            ref, gram = _b1_reference(s, "gaussian", sch, plan, cps)
            _assert_rel(block[:, r] @ gram, ref @ gram, 1e-12)

    def test_full_rank_sobolev_gram_is_the_loop(self):
        """A full-rank Gram has no factor within the rank budget: the
        step loop runs, equal to it bit for bit."""
        m, T = 40, 20000
        sample = _b1_sample("sobolev", m, 1, 30)
        ctx = AnchorSet.build(_SPECS["sobolev"], sample.x)
        sch = StepSchedule(0.5, 0.0, 0.25)
        plan = sample_index_plan(m, 1, T, 31)
        cps = log_checkpoints(T, 10)
        with mock.patch.object(iterations, "_blocked_sgm",
                               side_effect=AssertionError("blocked ran")):
            got = run_sgm(sample, ctx, sch, plan, cps)
        ref, _ = _b1_reference(sample, "sobolev", sch, plan, cps)
        np.testing.assert_array_equal(got.coeffs, ref)

    @pytest.mark.parametrize("kind", ["linear", "euclidean"])
    def test_stable_run_whose_reach_trips_returns_the_loop(self, kind):
        """Targets near 1e10: no iterate nears the divergence limit, but
        the reach bound sum_t |eta_t rho_t| exceeds half of it, so the
        blocked result is dropped and the loop's is returned."""
        sample = _b1_sample(kind, 50, 2, 60, scale=1e10)
        spec = None if kind == "euclidean" else _SPECS[kind]
        ctx = spec and AnchorSet.build(spec, sample.x)
        sch = StepSchedule(0.5, 0.0, kappa_sq(KernelSpec("linear"), sample.x))
        plan = sample_index_plan(50, 1, 500, 61)
        real, runs = iterations._blocked_sgm, []
        with mock.patch.object(iterations, "_blocked_sgm",
                               side_effect=lambda *args: runs.append(real(*args)) or runs[-1]):
            got = run_sgm(sample, ctx, sch, plan, (100, 500))
        [(_, _, reach)] = runs
        assert reach.max() * (1.0 if spec else np.abs(sample.x).max()) >= 5e11
        ref, _ = _b1_reference(sample, kind, sch, plan, (100, 500))
        assert np.abs(ref).max() < 1e12
        np.testing.assert_array_equal(got.coeffs, ref)

    def test_divergence_after_a_blocked_pass_names_the_loop_step(self):
        """Targets near 1e13 with a stable step: the blocked pass trips
        the reach bound, and the loop it falls back to raises at the step
        and trial the loop alone raises at."""
        samples = [_b1_sample("euclidean", 30, 2, 70 + r, scale=10.0 ** (12 + r % 2))
                   for r in range(4)]
        sch = StepSchedule(0.9, 0.0, kappa_sq(KernelSpec("linear"),
                                             np.concatenate([s.x for s in samples])))
        plans = [sample_index_plan(30, 1, 300, 80 + r) for r in range(4)]
        with mock.patch.object(iterations, "_step_features", return_value=None), \
                pytest.raises(DivergenceError) as loop:
            run_sgm_trials(samples, None, sch, plans)
        with mock.patch.object(iterations, "_blocked_sgm", wraps=iterations._blocked_sgm) as blk, \
                pytest.raises(DivergenceError) as err:
            run_sgm_trials(samples, None, sch, plans)
        assert blk.called
        assert (err.value.iteration, str(err.value)) == (loop.value.iteration, str(loop.value))
