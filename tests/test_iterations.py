import dataclasses
import itertools
import math
import re
import tracemalloc
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
    abs_target,
    build_gram,
    gen_linear_attainable,
    gen_synthetic_abs,
    kappa_sq,
    log_checkpoints,
    make_rng,
    mix_seed,
    predict,
    prediction_errors,
    recipe,
    run_batch_gm,
    run_population,
    run_sgm,
    run_sgm_trials,
    sample_index_plan,
    sample_index_table,
    unbiasedness_check,
)
from sgdlsq import iterations, spaces
from sgdlsq.data import _as_points
from sgdlsq.iterations import IndexPlan
from sgdlsq.kernels import kernel_diagonal
from sgdlsq.spaces import Trajectory, feature_matrix

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

    @pytest.mark.parametrize("shape", [(5, 3), (4, 2), (10,)])
    def test_wrong_table_shape_names_both_shapes(self, shape):
        want = re.escape(f"expected shape (T, b) = (5, 2), got {shape}")
        with pytest.raises(ValueError, match=want):
            IndexPlan(m=10, b=2, T=5, indices=np.zeros(shape, dtype=np.int32))

    def test_run_checks_a_hand_made_plans_entries(self):
        """A plan checks only its shape; the run that reads it refuses an
        entry past the sample, as it does for any index table."""
        indices = np.zeros((5, 2), dtype=np.int32)
        indices[2, 1] = 10
        plan = IndexPlan(m=10, b=2, T=5, indices=indices)
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 10\)"):
            run_sgm(gen_synthetic_abs(10, seed=1), None, StepSchedule(0.1), plan)


class TestLogCheckpoints:
    def test_equals_unique_of_the_rounded_grid(self):
        for T, count in itertools.product([1, 2, 3, 7, 50, 300, 5000, 123_457],
                                          [1, 2, 8, 10, 30, 100]):
            grid = log_checkpoints(T, count)
            want = np.unique(np.geomspace(1, T, num=min(count, T)).round().astype(int))
            assert type(grid) is tuple and all(type(v) is int for v in grid)
            assert grid == tuple(want.tolist())

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_a_count_below_one(self, count):
        with pytest.raises(ValueError, match=f"checkpoint count must be >= 1, got {count}"):
            log_checkpoints(50, count)


class TestIndexTable:
    """One (T, R, b) table for R runs: column r holds the draws of
    sample_index_plan(m, b, T, seeds[r])."""

    def test_columns_are_the_plans_draws(self):
        seeds = [mix_seed(3, r) for r in range(5)]
        table = sample_index_table(40, 3, 70, seeds)
        assert table.shape == (70, 5, 3) and table.dtype == np.int32
        for r, seed in enumerate(seeds):
            np.testing.assert_array_equal(table[:, r], sample_index_plan(40, 3, 70, seed).indices)
        with pytest.raises(ValueError):
            table[0, 0, 0] = 1

    def test_int32_while_every_index_fits(self):
        """Plans and tables are int32 while every index m - 1 fits, at
        m <= 2^31 however many runs (the engine casts each block to intp
        before adding an offset r m), else int64; the draws are the int64
        draws either way."""
        for m, dtype in ((2**31, np.int32), (2**31 + 1, np.int64)):
            plan = sample_index_plan(m, 1, 3, 2)
            table = sample_index_table(m, 1, 3, [1, 2])
            assert plan.indices.dtype == table.dtype == dtype
            np.testing.assert_array_equal(
                plan.indices, make_rng(2).integers(0, m, size=(3, 1), dtype=np.int64))
            np.testing.assert_array_equal(table[:, 1], plan.indices)

    def test_rejects_what_a_plan_rejects(self):
        with pytest.raises(ValueError, match="out of range"):
            sample_index_table(10, 11, 5, [0])
        with pytest.raises(ValueError, match="iteration count"):
            sample_index_table(10, 1, 0, [0])
        with pytest.raises(ValueError, match="at least one seed"):
            sample_index_table(10, 1, 5, [])

    def test_engine_rejects_bad_tables(self):
        sample = gen_synthetic_abs(6, seed=1)
        sch = StepSchedule(0.1)
        table = sample_index_table(6, 2, 5, [0, 1])
        with pytest.raises(ValueError, match="one sample per index plan"):
            run_sgm_trials([sample], None, sch, table)
        for bad in (table[..., 0], table.astype(float), table[:0], np.full((5, 2, 7), 0),
                    [sample_index_plan(6, 2, 5, 0)]):
            with pytest.raises(ValueError, match=r"\(T, R, b\) index table"):
                run_sgm_trials(sample, None, sch, bad)
        for entry in (-1, 6):
            off = table.copy()
            off[3, 1, 0] = entry
            with pytest.raises(ValueError, match=r"entries must lie in \[0, 6\)"):
                run_sgm_trials(sample, None, sch, off)


class TestTrajectory:
    def test_refuses_row_count_mismatch(self):
        with pytest.raises(DimensionMismatch) as err:
            Trajectory((1, 2, 3), np.zeros((2, 4)))
        assert err.value.expected == 3 and err.value.got == 2

    def test_refuses_non_increasing_checkpoints(self):
        for cps in ((2, 1), (3, 3)):
            with pytest.raises(ValueError, match="strictly increasing"):
                Trajectory(cps, np.zeros((2, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, bad):
        coeffs = np.zeros((3, 2))
        coeffs[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Trajectory((1, 2, 3), coeffs)

    def test_refuses_width_other_than_the_anchor_count(self):
        anchors = AnchorSet.build(GAUSS, [0.0, 0.5, 1.0])
        with pytest.raises(DimensionMismatch):
            Trajectory((1,), np.zeros((1, 2)), anchors)

    def test_coeffs_are_read_only(self):
        block = np.ones((2, 3))
        traj = Trajectory((1, 2), block)
        with pytest.raises(ValueError):
            traj.coeffs[0, 0] = 5.0
        with pytest.raises(ValueError):
            traj.final.coeffs[0, 0] = 5.0
        block[0, 0] = 2.0  # the caller's array stays writable

    def test_vector_at_missing_checkpoint(self):
        traj = Trajectory((1, 4), np.zeros((2, 1)))
        assert traj.vector_at(4).backend == "euclidean"
        with pytest.raises(KeyError, match="t=2"):
            traj.vector_at(2)

    @settings(max_examples=60, deadline=None)
    @given(kernel=st.booleans(), d=st.integers(1, 4), n_train=st.integers(1, 60),
           n_pts=st.integers(1, 80), n_cp=st.integers(1, 10), seed=st.integers(0, 2**32))
    def test_values_rows_equal_predict(self, kernel, d, n_train, n_pts, n_cp, seed):
        """Each row of values() equals predict of its one-checkpoint
        trajectory bit for bit, on both backends, so a row's values do not
        depend on the other rows; the single product coeffs @ F.T would
        not give that. These draws fit one of predict's tiles."""
        rng = make_rng(seed)
        anchors = AnchorSet.build(GAUSS, rng.random((n_train, d)), check_psd=False) \
            if kernel else None
        cps = tuple(range(1, n_cp + 1))
        traj = Trajectory(cps, rng.standard_normal((n_cp, n_train if kernel else d)), anchors)
        xs = rng.random((n_pts, d))
        assert len(spaces._product_tiles(n_pts, n_train)) == 2
        vals = traj.values(feature_matrix(traj, xs))
        assert vals.shape == (n_cp, n_pts)
        for i, t in enumerate(cps):
            np.testing.assert_array_equal(vals[i], predict(traj.vector_at(t), xs)[0])

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 4), n_train=st.integers(1, 60), n_pts=st.integers(257, 600),
           n_cp=st.integers(1, 10), seed=st.integers(0, 2**32))
    def test_tiled_rows_equal_predict(self, d, n_train, n_pts, n_cp, seed):
        """Over several of predict's tiles, each row of predict equals
        predict of its one-checkpoint trajectory bit for bit, and each row
        of values() the values() of it, so neither depends on the other
        rows."""
        rng = make_rng(seed)
        anchors = AnchorSet.build(GAUSS, rng.random((n_train, d)), check_psd=False)
        cps = tuple(range(1, n_cp + 1))
        traj = Trajectory(cps, rng.standard_normal((n_cp, n_train)), anchors)
        xs = rng.random((n_pts, d))
        assert len(spaces._product_tiles(n_pts, n_train)) > 2
        vals = traj.values(feature_matrix(traj, xs))
        tiled = predict(traj, xs)
        assert vals.shape == tiled.shape == (n_cp, n_pts)
        for i, t in enumerate(cps):
            one = traj.vector_at(t)
            np.testing.assert_array_equal(vals[i], one.values(feature_matrix(one, xs))[0])
            np.testing.assert_array_equal(tiled[i], predict(one, xs)[0])


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
        plan = sample_index_plan(8, 2, 30, seed=1)
        traj = run_sgm(sample, GAUSS, StepSchedule(0.5), plan, checkpoints=(1, 10, 30))
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
        plan = sample_index_plan(8, b, 40, seed=seed + 100)
        sch = StepSchedule(0.3, 0.25)
        traj = run_sgm(sample, GAUSS, sch, plan, checkpoints=(40,))
        oracle = _kernel_sgm_oracle(sample, build_gram(GAUSS, sample.x).values, sch.etas(40), plan)
        np.testing.assert_allclose(traj.final.coeffs[0], oracle, rtol=1e-12, atol=1e-14)

    def test_bit_identical_reruns(self):
        sample = gen_synthetic_abs(16, seed=2)
        plan = sample_index_plan(16, 4, 50, seed=9)
        sch = StepSchedule(0.1)
        a = run_sgm(sample, GAUSS, sch, plan, checkpoints=(50,))
        b = run_sgm(sample, GAUSS, sch, plan, checkpoints=(50,))
        assert np.array_equal(a.final.coeffs, b.final.coeffs)

    def test_sec9_configuration_smoke(self):
        """m=100 sample, b=10, eta=1/(8 sqrt(m)): finite iterates and a
        training error that ends below where it starts."""
        m = 100
        sample = gen_synthetic_abs(m, seed=7)
        b = 10
        sch = StepSchedule(1.0 / (8 * np.sqrt(m)), 0.0, kappa_sq(GAUSS))
        plan = sample_index_plan(m, b, 300, seed=3)
        traj = run_sgm(sample, GAUSS, sch, plan, checkpoints=log_checkpoints(300, 10))
        errs = prediction_errors(predict(traj, sample.x), sample.y)
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


class TestRunBatchGm:
    def test_zero_targets(self):
        sample = Sample(x=np.array([0.2, 0.8]), y=np.zeros(2))
        traj = run_batch_gm(sample, None, StepSchedule(0.5), 10, checkpoints=(10,))
        np.testing.assert_array_equal(traj.final.coeffs, [[0.0]])

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
        np.testing.assert_allclose(traj.final.coeffs[0], oracle, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kernelized", [False, True])
    def test_training_mse_nonincreasing_within_step_limit(self, kernelized):
        """Descent sanity: with eta * kappa^2 <= 1 the batch iteration
        cannot increase the training error (convex quadratic, small step)."""
        sample = gen_synthetic_abs(30, seed=4)
        ctx = GAUSS if kernelized else None
        sch = StepSchedule(1.0, 0.0, kappa_sq(GAUSS))  # eta * kappa^2 = 1
        traj = run_batch_gm(sample, ctx, sch, 60, checkpoints=tuple(range(1, 61)))
        errs = prediction_errors(predict(traj, sample.x), sample.y)
        assert np.all(np.diff(errs) <= 1e-12 * np.maximum(1.0, errs[:-1]))


class TestRunPopulation:
    def test_zero_target(self):
        traj = run_population(np.linspace(0, 1, 20), None, lambda x: np.zeros_like(x),
                              StepSchedule(0.5), 10, checkpoints=(10,))
        np.testing.assert_array_equal(traj.final.coeffs, [[0.0]])

    def test_single_point_hand_recurrence(self):
        traj = run_population(
            np.array([1.0]),
            None,
            lambda x: np.full_like(np.atleast_1d(x), 2.0),
            StepSchedule(0.5),
            3,
            checkpoints=(1, 2, 3),
        )
        np.testing.assert_allclose(traj.coeffs[:, 0], [1.0, 1.5, 1.75], rtol=1e-15)

    def test_kernel_surrogate_runs_and_is_deterministic(self):
        pts = np.random.default_rng(0).random(50)
        f = lambda x: np.abs(x - 0.5) - 0.5
        sch = StepSchedule(0.25)
        a = run_population(pts, GAUSS, f, sch, 40, checkpoints=(40,))
        b = run_population(pts, GAUSS, f, sch, 40, checkpoints=(40,))
        assert np.array_equal(a.final.coeffs, b.final.coeffs)
        assert a.backend == "kernel"
        np.testing.assert_array_equal(a.anchors.points, pts)  # anchored on the surrogate


def _surrogate_case(kind, n, d, seed):
    """A surrogate point set, its kernel (None for euclidean) and the
    matrix taking an iterate's coefficients to surrogate values."""
    rng = make_rng(seed)
    if kind == "euclidean":
        pts = rng.random((n, d)) if d > 1 else rng.random(n)
        return pts, None, _as_points(pts).T, kappa_sq(KernelSpec("linear"), pts)
    spec = KernelSpec(kind, sigma=0.2 if kind == "gaussian" else None)
    pts = rng.random(n)
    return pts, spec, build_gram(spec, pts, check_psd=False).values, kappa_sq(spec, pts)


def _target(pts):
    return np.abs(_as_points(pts).sum(axis=1) - 0.5) - 0.5


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
        x = _as_points(sample.x)
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


class TestKernelGuardScale:
    """Kernel coefficients scale like y / K(x, x). On points within 1e-7
    of 0 with labels of order 1 they pass 1e12 while the sample values
    stay of order 1; the guard reads max|a| times the Gram's largest
    diagonal, on every path."""

    def _case(self):
        s = gen_synthetic_abs(40, seed=7)
        sample = Sample(s.x * 1e-7, s.y)
        spec = KernelSpec("linear")
        return sample, spec, StepSchedule(0.5, 0.0, kappa_sq(spec, sample.x))

    @pytest.mark.parametrize("b", [1, 2], ids=["blocked", "lockstep"])
    def test_sgm_runs(self, b):
        sample, ctx, sch = self._case()
        traj = run_sgm(sample, ctx, sch, sample_index_plan(40, b, 50, seed=3), (10, 50))
        assert np.abs(traj.coeffs).max() > 1e12
        assert np.abs(traj.values(build_gram(ctx, sample.x).values)).max() < 10

    def test_batch_filter_and_loop_run(self):
        sample, ctx, sch = self._case()
        filt = run_batch_gm(sample, ctx, sch, 50, (10, 50))
        with mock.patch.object(iterations, "_pivoted_cholesky", return_value=None):
            loop = run_batch_gm(sample, ctx, sch, 50, (10, 50))
        assert np.abs(loop.coeffs).max() > 1e12
        gram = build_gram(ctx, sample.x).values
        _assert_rel(filt.values(gram), loop.values(gram), 1e-12)


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
        pop = run_population(pts, ctx, _target, sch, T, cps)
        ref = run_batch_gm(Sample(pts, _target(pts)), ctx, sch, T, cps)
        assert (pop.checkpoints, pop.backend) == (ref.checkpoints, ref.backend)
        np.testing.assert_array_equal(pop.coeffs, ref.coeffs)

    @settings(max_examples=80, deadline=None)
    @given(**_CASES)
    @example(kind="linear", n=1, d=1, T=1, eta1=1.0, theta=0.0, seed=143)  # kappa^2 = 1.2e-13
    # values far smaller than y: 1.1e-12 relative apart, within the stated bound
    @example(kind="linear", n=132, d=1, T=45, eta1=1.0, theta=0.0, seed=856190)
    def test_batch_filter_matches_step_loop_on_noisy_samples(self, kind, n, d, T, eta1, theta,
                                                             seed):
        """run_batch_gm equals the step loop it replaced to 1e-12 relative
        in the coefficients, and in the sample values to 1e-12 relative or,
        for kernels where it is larger, to the bound run_batch_gm states,
        10 s_T lam_max eps max|y| (values far smaller than y, as where y
        lies mostly outside the range of a low-rank K, carry the factor's
        rounding at the scale of y), on noisy targets (y not in the range
        of K), for both backends and the three kernels.
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
        want_vals = want @ to_vals
        tol = 1e-12 * np.max(np.abs(want_vals))
        if ctx is not None:
            s_T = sch.etas(T).sum() / n
            lam_max = np.linalg.eigvalsh(to_vals)[-1]
            tol = max(tol, 10 * s_T * lam_max * np.finfo(float).eps * np.max(np.abs(sample.y)))
        assert np.max(np.abs(got @ to_vals - want_vals)) <= tol

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
            run_population(pts, ctx, _target, sch, 400)
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
        budget = iterations._factor_budget(2000, 200, 200**2)
        assert iterations._pivoted_cholesky(ctx, pts, budget) is not None
        with pytest.raises(DivergenceError) as ref:
            _batch_loop(sample, gram, sch.etas(2000), set())
        with mock.patch.object(iterations, "_gm_steps", wraps=iterations._gm_steps) as loop, \
                pytest.raises(DivergenceError, match="batch/kernel") as err:
            run_batch_gm(sample, ctx, sch, 2000)
        assert loop.called
        assert err.value.iteration == ref.value.iteration

    def test_factor_rank_is_capped_at_a_quarter_of_the_points(self):
        """Where the operation count would allow a larger rank, n // 4
        binds, so the factor stays within a quarter of an n x n Gram."""
        n, T = 200, 10**6
        assert math.isqrt(T * n * n // (7 * n)) > n // 4
        assert iterations._factor_budget(T, n, n * n) == n // 4

    @pytest.mark.parametrize("n, T", [(200, 5), (40, 20000)])
    def test_full_rank_gram_is_the_loop(self, n, T):
        """A full-rank sobolev Gram needs more pivots than the factor
        budget allows: by cost for small T, and by the n/4 memory cap for
        long runs. The loop runs: equal bit for bit."""
        pts, ctx, gram, k_sq = _surrogate_case("sobolev", n, 1, seed=4)
        budget = iterations._factor_budget(T, n, n * n)
        assert iterations._pivoted_cholesky(ctx, pts, budget) is None
        sch = StepSchedule(0.5, 0.3, k_sq)
        sample = Sample(pts, _noisy(pts, 4))
        got = run_batch_gm(sample, ctx, sch, T, range(1, T + 1))
        np.testing.assert_array_equal(got.coeffs, _batch_loop(sample, gram, sch.etas(T),
                                                                set(range(1, T + 1))))

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

    @pytest.mark.parametrize("kind", ["gaussian", "linear"])
    def test_long_kernel_filter_meets_its_stated_bound(self, kind):
        """At T = 8000 and eta_1 in {0.3, 1, 1.9} the kernel filter's
        sample values stay within 10 s_T lam_max eps relative of the step
        loop run in extended precision, the bound run_batch_gm states
        (they read up to 3 s_T lam_max eps here, the float64 loop about
        0.5). The three loops advance as the columns of one block."""
        pts, ctx, gram, k_sq = _surrogate_case(kind, 200, 1, seed=1)
        sample = Sample(pts, _noisy(pts, 2))
        cps = log_checkpoints(8000, 8)
        schedules = [StepSchedule(eta1, 0.0, k_sq) for eta1 in (0.3, 1.0, 1.9)]
        with mock.patch.object(iterations, "_gm_steps", side_effect=AssertionError("loop ran")):
            got = [run_batch_gm(sample, ctx, sch, 8000, cps).coeffs @ gram for sch in schedules]
        etas = np.array([sch.etas(8000) for sch in schedules]).T / 200  # (T, 3)
        k, y = gram.astype(np.longdouble), sample.y.astype(np.longdouble)[:, None]
        a, want = np.zeros((200, 3), dtype=np.longdouble), []
        for t, eta in enumerate(etas.astype(np.longdouble), 1):
            a -= eta * (np.dot(k, a) - y)  # np.dot: matmul is 3x slower on long doubles
            if t in cps:
                want.append(np.dot(k, a))
        want = np.array(want, dtype=np.float64)  # (n_cp, 200, 3)
        bounds = 10 * etas.sum(axis=0) * np.linalg.eigvalsh(gram).max() * np.finfo(float).eps
        for j, rtol in enumerate(bounds):
            _assert_rel(got[j], want[:, :, j], rtol)


def _gram_free_case(kind, n, d, seed):
    """A kernel and its surrogate points: d-dimensional for gaussian and
    linear kernels when d > 1, scalar otherwise. A d-dimensional gaussian
    has sigma = 1, low enough in rank for the filter to run."""
    multi = d > 1 and kind != "sobolev"
    sigma = 1.0 if multi else 0.2
    spec = KernelSpec(kind, sigma=sigma if kind == "gaussian" else None)
    rng = make_rng(seed)
    return spec, rng.random((n, d)) if multi else rng.random(n)


def _population_values(spec, pts, sch, T, cps):
    """A population run on ``pts`` under ``spec``, whether its step loop
    ran, and its surrogate values: by predict's tiles of K, and from the
    Gram."""
    with mock.patch.object(iterations, "_gm_steps", wraps=iterations._gm_steps) as loop:
        traj = run_population(pts, spec, _target, sch, T, cps)
    gram = build_gram(spec, pts, check_psd=False).values
    return traj, loop.called, predict(traj, pts), traj.values(gram), gram


class TestGramFreePopulation:
    """The population filter pivots on kernel rows and its values are
    formed by tiles of K; a Gram is built only where the step loop runs,
    for that run alone, and then the run is the reference loop's bit for
    bit."""

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "sobolev", "linear"]), n=st.integers(1, 300),
           d=st.integers(1, 3), T=st.integers(1, 400), eta1=st.floats(0.01, 1.99),
           theta=st.floats(0.0, 0.9, exclude_max=True), seed=st.integers(0, 2**32))
    def test_values_match_the_built_gram(self, kind, n, d, T, eta1, theta, seed):
        """The values by tiles of K are within 1e-12 of those from the
        Gram build_gram builds; where the loop ran, on that Gram, the
        coefficients are the reference loop's bit for bit."""
        spec, pts = _gram_free_case(kind, n, d, seed)
        sch = StepSchedule(eta1, theta, kappa_sq(spec, pts))
        cps = log_checkpoints(T, 8)
        traj, ran, got, want, gram = _population_values(spec, pts, sch, T, cps)
        if ran:
            np.testing.assert_array_equal(
                traj.coeffs, _batch_loop(Sample(pts, _target(pts)), gram, sch.etas(T), set(cps)))
        _assert_rel(got, want, 1e-12)

    def test_filter_reads_kernel_rows_and_tiles(self):
        """A factor of rank k (about 20) of 2000 points reads k kernel
        rows, and predict forms the values one cross matrix per tile, the
        fewest tiles of at most 2^17 floats; no Gram is built."""
        spec, pts = _gram_free_case("gaussian", 2000, 1, seed=5)
        k = len(iterations._pivoted_cholesky(spec, pts,
                                             iterations._factor_budget(60, 2000, 2000**2)))
        sch = StepSchedule(1 / 8, 0.0, 1.0)
        cross = iterations.cross_matrix
        with mock.patch.object(iterations, "cross_matrix", wraps=cross) as rows, \
                mock.patch.object(spaces, "cross_matrix", wraps=cross) as tiles, \
                mock.patch.object(iterations, "build_gram", side_effect=AssertionError("Gram")):
            traj = run_population(pts, spec, _target, sch, 60, (20, 60))
            assert tiles.call_count == 0
            predict(traj, pts)
        assert rows.call_count == k < 30
        assert tiles.call_count == -(-2000 // (spaces._PRODUCT_FLOATS // 2000)) == 31

    def test_full_rank_sobolev_builds_the_gram(self):
        """A full-rank sobolev surrogate exceeds the factor budget: the
        loop runs on the Gram it builds for the run, bit for bit the
        reference loop, and the values by tiles equal the Gram's."""
        spec, pts = _gram_free_case("sobolev", 200, 1, seed=4)
        sch = StepSchedule(0.5, 0.3, 0.25)
        traj, ran, got, want, gram = _population_values(spec, pts, sch, 5, (1, 3, 5))
        assert ran
        np.testing.assert_array_equal(
            traj.coeffs, _batch_loop(Sample(pts, _target(pts)), gram, sch.etas(5), {1, 3, 5}))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("kind", ["gaussian", "sobolev"])
    def test_growth_raises_at_the_same_step(self, kind):
        """eta_1 lam_max / N > 2: the loop runs on the Gram it builds and
        raises at batch GM's step on the noiseless sample, as the
        population's."""
        spec, pts = _gram_free_case(kind, 40, 1, seed=3)
        sch = StepSchedule(6.0 if kind == "gaussian" else 40.0, 0.0, kappa_sq(spec, pts))
        with pytest.raises(DivergenceError) as batch:
            run_batch_gm(Sample(pts, _target(pts)), spec, sch, 400)
        with pytest.raises(DivergenceError, match="population/kernel") as err:
            run_population(pts, spec, _target, sch, 400)
        assert err.value.iteration == batch.value.iteration


class TestCtxType:
    @pytest.mark.parametrize("entry", ["run_sgm", "run_sgm_trials", "run_batch_gm",
                                       "run_population", "unbiasedness_check"])
    def test_ctx_other_than_a_kernel_is_refused_by_name(self, entry):
        """An anchor set or a kernel name as ``ctx`` is a TypeError naming
        ctx and the type it got, before any run starts."""
        sample = gen_synthetic_abs(8, seed=0)
        sch = StepSchedule(0.1)
        call = {
            "run_sgm": lambda ctx: run_sgm(sample, ctx, sch, sample_index_plan(8, 1, 5, 0)),
            "run_sgm_trials": lambda ctx: run_sgm_trials(sample, ctx, sch,
                                                         sample_index_table(8, 1, 5, [0, 1])),
            "run_batch_gm": lambda ctx: run_batch_gm(sample, ctx, sch, 5),
            "run_population": lambda ctx: run_population(sample.x, ctx, abs_target, sch, 5),
            "unbiasedness_check": lambda ctx: unbiasedness_check(sample, sch, 1, 3, 100, 0, ctx),
        }[entry]
        for ctx, name in ((AnchorSet(sample.x, GAUSS), "AnchorSet"), ("gaussian", "str")):
            with pytest.raises(TypeError, match=f"^ctx must be None or a KernelSpec, got {name}$"):
                call(ctx)


class TestUnbiasednessSmall:
    def test_mean_over_plans_approaches_batch_iterate(self):
        """Monte Carlo oracle at modest R: the trial-averaged SGM iterate
        agrees with batch GM within 4 estimated standard errors."""
        m, t, R = 8, 16, 400
        sample = gen_synthetic_abs(m, seed=10)
        sch = StepSchedule(1.0 / (8 * m))
        batch = run_batch_gm(sample, None, sch, t, checkpoints=(t,)).coeffs[0]
        acc = np.zeros((R, 1))
        for r in range(R):
            plan = sample_index_plan(m, 1, t, seed=5000 + r)
            acc[r] = run_sgm(sample, None, sch, plan, checkpoints=(t,)).coeffs[0]
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


def _plans_and_table(m, b, T, seeds):
    """R plans, for runs one at a time, and their index table, for the
    lockstep engine."""
    seeds = list(seeds)
    return [sample_index_plan(m, b, T, s) for s in seeds], sample_index_table(m, b, T, seeds)


def _block_lengths(engine):
    """The block length of each call a spy on the SGM engine saw."""
    return [call.kwargs["block"] for call in engine.call_args_list]


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
        plans, table = _plans_and_table(m, b, T, (mix_seed(seed + 1, r) for r in range(R)))
        sch = StepSchedule(eta1, theta)
        ctx = GAUSS if kernel else None
        with mock.patch.object(iterations, "_STACK_BYTES", budget):
            block = run_sgm_trials(samples if stacked else samples[0], ctx, sch, table, cps)
        assert block.shape == (len(cps), R, m if kernel else 3)
        for r in range(R):
            with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
                single = run_sgm(samples[r], ctx, sch, plans[r], cps)
            np.testing.assert_array_equal(block[:, r], single.coeffs)
            gram = build_gram(GAUSS, samples[r].x, check_psd=False).values if kernel else None
            ref = _sequential_sgm(samples[r], gram, sch.etas(T), plans[r], set(cps))
            if iterations._BLOCK in _block_lengths(eng):
                _assert_rel(block[:, r], ref, 1e-12)
            else:
                np.testing.assert_array_equal(block[:, r], ref)

    @pytest.mark.parametrize("budget", [1, iterations._STACK_BYTES])
    def test_divergence_names_earliest_step_then_lowest_trial(self, budget, monkeypatch):
        """One dominant point makes a sampled step unstable; trials
        diverge at different steps, and a later trial first. The engine
        reports the earliest step and, among trials diverging there, the
        lowest index: exactly what run_sgm raises alone for that plan.
        Euclidean with b = 1, and a linear kernel with b = 2, each in one
        chunk and in chunks of one trial (budget 1)."""
        x = np.array([[1.0, 0.0], [0.01, 0.0], [0.0, 0.01],
                      [0.01, 0.01], [0.0, 0.005], [0.005, 0.0]])
        sample = Sample(x=x, y=np.ones(6))
        for ctx, b, eta1 in ((None, 1, 4.0), (KernelSpec("linear"), 2, 6.0)):
            sch = StepSchedule(eta1)
            plans, table = _plans_and_table(6, b, 400, range(70, 76))
            first = {}
            for r, plan in enumerate(plans):
                with pytest.raises(DivergenceError) as err:
                    run_sgm(sample, ctx, sch, plan)
                first[r] = err.value.iteration
            t_min = min(first.values())
            r_min = min(r for r, t in first.items() if t == t_min)
            assert r_min > 0 and first[0] > t_min  # the sequential order would name trial 0
            with monkeypatch.context() as patch:
                patch.setattr(iterations, "_STACK_BYTES", budget)
                with pytest.raises(DivergenceError) as err:
                    run_sgm_trials(sample, ctx, sch, table)
            assert err.value.iteration == t_min
            assert re.search(r"trial (\d+)", str(err.value)).group(1) == str(r_min)

    @pytest.mark.parametrize("kernel", [False, True], ids=["euclidean", "kernel"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["shared", "stacked"])
    @pytest.mark.parametrize("m, b", [(30, 1), (30, 4), (1, 1)])
    def test_every_run_goes_through_the_one_engine(self, kernel, stacked, m, b):
        """Every checkpoint of every trial is written by _sgm_steps, for
        b = 1 and b > 1, both backends, shared and stacked samples: an
        engine that writes its block length in place of iterates leaves
        nothing else in the result. b = 1 takes _BLOCK steps per gather
        (a kernel on one point, one), and b > 1 one."""
        R, T, cps = 20, 40, (5, 40)
        samples = [_trial_sample(kernel, m, r if stacked else 0) for r in range(R)]
        table = sample_index_table(m, b, T, range(R))

        def engine(*args, block, scale=None):
            out, members = args[7:9]
            out[:, members] = block
            return np.zeros(len(members)) if block > 1 else None

        with mock.patch.object(iterations, "_sgm_steps", side_effect=engine) as eng:
            block = run_sgm_trials(samples if stacked else samples[0], GAUSS if kernel else None,
                                   StepSchedule(0.01), table, cps)
        length = iterations._BLOCK if b == 1 and not (kernel and m == 1) else 1
        assert set(_block_lengths(eng)) == {length}
        np.testing.assert_array_equal(block, np.full(block.shape, length))

    def test_rejects_inconsistent_plans_and_contexts(self):
        sample = gen_synthetic_abs(6, seed=1)
        sch = StepSchedule(0.1)
        table = sample_index_table(6, 1, 5, [0, 1])
        with pytest.raises(ValueError, match="must share"):
            run_sgm_trials([sample, gen_synthetic_abs(7, seed=2)], None, sch, table)
        with pytest.raises(ValueError, match="one sample per index plan"):
            run_sgm_trials([sample], None, sch, table)
        with pytest.raises(ValueError, match="one sample per index plan"):
            run_sgm_trials(sample, None, sch, table[:, :0])


_WIDE = KernelSpec("gaussian", sigma=1.0)  # rank 9 from m ~ 40 on [0, 1]
_SPECS = {"gaussian": _WIDE, "sobolev": KernelSpec("sobolev"), "linear": KernelSpec("linear")}


def _b1_sample(kind, m, d, seed, scale=1.0):
    """Points in [0, 1] (euclidean: [0, 1]^d) with noisy targets."""
    rng = make_rng(seed)
    pts = rng.random(m) if kind != "euclidean" or d == 1 else rng.random((m, d))
    return Sample(pts, _noisy(pts, seed + 1, scale))


def _b1_reference(sample, kind, sch, plan, cps):
    """The step loop on one plan and the matrix taking its coefficients
    to sample values."""
    if kind == "euclidean":
        gram, to_vals = None, _as_points(sample.x).T
    else:
        gram = to_vals = build_gram(_SPECS[kind], sample.x, check_psd=False).values
    return _sequential_sgm(sample, gram, sch.etas(plan.T), plan, set(cps)), to_vals


class TestBlockedSgm:
    """b = 1 runs advance _BLOCK steps per triangular solve over the
    Gram's rows or the inputs, within 1e-12 relative of the step loop;
    the loop runs instead where the iterate bound could reach half the
    divergence limit."""

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
        equals its single run bit for bit. Both sides' sample values are
        formed in extended precision: on a linear Gram with m = 70 and
        T = 127 they are of order 2e-4 against coefficients of order 0.65,
        and a float64 product rounds at the scale of the coefficients (a
        gap of 2.2e-16 against 2.0e-17 in extended precision)."""
        cps = sorted(data.draw(st.sets(st.integers(1, T), min_size=1, max_size=8)))
        samples = [_b1_sample(kind, m, d, mix_seed(seed, r if stacked else 0))
                   for r in range(R)]
        spec = None if kind == "euclidean" else _SPECS[kind]
        k_sq = kappa_sq(spec or KernelSpec("linear"), np.concatenate([s.x for s in samples]))
        sch = StepSchedule(eta1, theta, k_sq)
        plans, table = _plans_and_table(m, 1, T, (mix_seed(seed + 1, r) for r in range(R)))
        block = run_sgm_trials(samples if stacked else samples[0], spec, sch, table, cps)
        for r in range(R):
            s = samples[r if stacked else 0]
            single = run_sgm(s, spec, sch, plans[r], cps)
            np.testing.assert_array_equal(block[:, r], single.coeffs)
            ref, to_vals = _b1_reference(s, kind, sch, plans[r], cps)
            _assert_rel(block[:, r], ref, 1e-12)
            ext = to_vals.astype(np.longdouble)
            _assert_rel(block[:, r].astype(np.longdouble) @ ext, ref.astype(np.longdouble) @ ext,
                        1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "linear", "euclidean"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_low_rank_and_euclidean_runs_are_blocked(self, kind, stacked):
        """Long b = 1 runs on a Gram or on inputs take the blocked path
        for every trial and keep the 1e-12 contract."""
        m, T, R = 120, 3000, 3
        samples = [_b1_sample(kind, m, 3, 10 + (r if stacked else 0)) for r in range(R)]
        spec = None if kind == "euclidean" else _SPECS[kind]
        sch = StepSchedule(0.5, 0.1, kappa_sq(spec or KernelSpec("linear"),
                                             np.concatenate([s.x for s in samples])))
        plans, table = _plans_and_table(m, 1, T, range(40, 40 + R))
        cps = log_checkpoints(T, 20)
        with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
            block = run_sgm_trials(samples if stacked else samples[0], spec, sch, table, cps)
        assert set(_block_lengths(eng)) == {iterations._BLOCK}  # no trial rerun
        assert sum(len(call.args[8]) for call in eng.call_args_list) == R  # the calls' trials
        for r in range(R):
            ref, to_vals = _b1_reference(samples[r if stacked else 0], kind, sch, plans[r], cps)
            _assert_rel(block[:, r], ref, 1e-12)
            _assert_rel(block[:, r] @ to_vals, ref @ to_vals, 1e-12)

    @pytest.mark.parametrize("case", [
        ("linear", 15, 0.9, 30000),
        ("linear", 5, 0.95, 30000),
        ("gaussian", 80, 0.9, 30000),
        ("C3", 512, None, None),
    ], ids=["linear-m15", "linear-m5", "gaussian-m80", "C3-m512"])
    def test_long_kernel_runs_keep_the_contract(self, case):
        """Long linear and gaussian runs, whose coefficients drift far in
        K's null space, and a C3 run as in ``rates`` (gaussian,
        sigma = 0.2, eta = 1/(8m), T = m^(3/2)) return their one blocked
        pass, within 1e-12 of the loop. Both sides' sample values K a are
        formed in extended precision: on gaussian-m80 max|a| is 742
        against max|K a| of 1.37, so a float64 product adds rounding of
        the size of the gap between the two runs."""
        kind, m, eta1, T = case
        if kind == "C3":
            rec = recipe("C3", m)
            sample, spec = gen_synthetic_abs(m, seed=92, noise_sd=1.0), GAUSS
            sch, T = rec.schedule, rec.t_star
        else:
            sample, spec = _b1_sample(kind, m, 1, 90), _SPECS[kind]
            sch = StepSchedule(eta1, 0.0, kappa_sq(spec, sample.x))
        plan = sample_index_plan(m, 1, T, 91)
        cps = log_checkpoints(T, 10)
        real, runs = iterations._sgm_steps, []

        def spy(*args, **kwargs):
            # the engine writes its checkpoints into the run's output
            # block, which a rerun at block length 1 would rewrite
            result = real(*args, **kwargs)
            runs.append((kwargs["block"], args[7].copy()))
            return result

        with mock.patch.object(iterations, "_sgm_steps", side_effect=spy):
            got = run_sgm(sample, spec, sch, plan, cps).coeffs
        [(length, blocked)] = runs
        assert length == iterations._BLOCK
        np.testing.assert_array_equal(got, blocked[:, 0])
        gram = build_gram(spec, sample.x, check_psd=False).values
        ref = _sequential_sgm(sample, gram, sch.etas(T), plan, set(cps))
        _assert_rel(got, ref, 1e-12)
        ext = gram.astype(np.longdouble)
        _assert_rel(got.astype(np.longdouble) @ ext, ref.astype(np.longdouble) @ ext, 1e-12)

    def test_full_rank_sobolev_gram_is_the_loop(self):
        """A full-rank Gram, which no low-rank factor fits, runs blocked
        on its own rows too: its result is the blocked pass, within
        1e-12 of the step loop in coefficients and sample values."""
        m, T = 40, 20000
        sample = _b1_sample("sobolev", m, 1, 30)
        sch = StepSchedule(0.5, 0.0, 0.25)
        plan = sample_index_plan(m, 1, T, 31)
        cps = log_checkpoints(T, 10)
        with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
            got = run_sgm(sample, _SPECS["sobolev"], sch, plan, cps)
        assert _block_lengths(eng) == [iterations._BLOCK]
        ref, gram = _b1_reference(sample, "sobolev", sch, plan, cps)
        _assert_rel(got.coeffs, ref, 1e-12)
        _assert_rel(got.coeffs @ gram, ref @ gram, 1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "euclidean"])
    def test_step_past_one_over_the_diagonal_is_the_loop(self, kind):
        """eta_1 max K_jj = 1.5 (euclidean: eta_1 max ||x_j||^2), within
        the (1, 2] where single steps still contract but a block system's
        entries may pass 1 and its LU may pivot: the trial takes the step
        loop and equals its block-length-1 run bit for bit."""
        sample = _b1_sample(kind, 30, 2, 50)
        spec = _SPECS.get(kind)
        sch = StepSchedule(1.5, 0.0, kappa_sq(spec or KernelSpec("linear"), sample.x))
        plan = sample_index_plan(30, 1, 400, 51)
        with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
            got = run_sgm(sample, spec, sch, plan, (50, 400))
        assert _block_lengths(eng) == [1]
        with mock.patch.object(iterations, "_BLOCK", 1):
            loop = run_sgm(sample, spec, sch, plan, (50, 400))
        np.testing.assert_array_equal(got.coeffs, loop.coeffs)

    @pytest.mark.parametrize("kind", ["linear", "euclidean"])
    def test_stable_run_whose_reach_trips_returns_the_loop(self, kind):
        """Targets near 1e10: no iterate nears the divergence limit, but
        the reach bound sum_t |eta_t rho_t| exceeds half of it, so the
        blocked result is dropped and the loop's is returned."""
        sample = _b1_sample(kind, 50, 2, 60, scale=1e10)
        spec = None if kind == "euclidean" else _SPECS[kind]
        sch = StepSchedule(0.5, 0.0, kappa_sq(KernelSpec("linear"), sample.x))
        plan = sample_index_plan(50, 1, 500, 61)
        real, runs = iterations._sgm_steps, []

        def spy(*args, **kwargs):
            runs.append((kwargs["block"], real(*args, **kwargs)))
            return runs[-1][1]

        with mock.patch.object(iterations, "_sgm_steps", side_effect=spy):
            got = run_sgm(sample, spec, sch, plan, (100, 500))
        # the blocked pass, then its rerun at block length 1
        [(blocked, reach), (rerun, trip)] = runs
        assert (blocked, rerun, trip) == (iterations._BLOCK, 1, None)
        scale = kernel_diagonal(spec, sample.x).max() if spec else np.abs(sample.x).max()
        assert reach.max() * scale >= 5e11
        ref, _ = _b1_reference(sample, kind, sch, plan, (100, 500))
        assert np.abs(ref).max() < 1e12
        np.testing.assert_array_equal(got.coeffs, ref)

    def test_divergence_after_a_blocked_pass_names_the_loop_step(self):
        """Targets near 1e13 with a stable step, on euclidean inputs and
        on a linear Gram: the blocked pass trips the reach bound, and the
        loop it falls back to raises at the step and trial the loop alone
        raises at."""
        table = sample_index_table(30, 1, 300, range(80, 84))
        for kind in ("euclidean", "linear"):
            samples = [_b1_sample(kind, 30, 2, 70 + r, scale=10.0 ** (12 + r % 2))
                       for r in range(4)]
            spec = _SPECS.get(kind)
            sch = StepSchedule(0.9, 0.0, kappa_sq(KernelSpec("linear"),
                                                 np.concatenate([s.x for s in samples])))
            # every trial on the step loop
            with mock.patch.object(iterations, "_BLOCK", 1), \
                    pytest.raises(DivergenceError) as loop:
                run_sgm_trials(samples, spec, sch, table)
            with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng, \
                    pytest.raises(DivergenceError) as err:
                run_sgm_trials(samples, spec, sch, table)
            assert _block_lengths(eng)[0] == iterations._BLOCK
            assert (err.value.iteration, str(err.value)) == (loop.value.iteration, str(loop.value))


class TestSgmMemory:
    """run_sgm_trials builds the Grams it reads for the length of the run;
    beyond its Grams it holds O(R b w) per step."""

    def test_lazy_set_builds_one_gram_for_the_run_only(self):
        """A kernel run builds one Gram, for the run alone, and anchors its
        trajectory on an anchor set of the sample points, which holds none."""
        sample = gen_synthetic_abs(60, seed=8)
        plan = sample_index_plan(60, 6, 80, seed=9)
        sch = StepSchedule(0.5)
        with mock.patch.object(iterations, "build_gram", wraps=iterations.build_gram) as built:
            got = run_sgm(sample, GAUSS, sch, plan, (10, 80))
        assert built.call_count == 1
        assert built.call_args.kwargs == {"check_psd": False}
        assert (got.anchors.kernel, [f.name for f in dataclasses.fields(got.anchors)]) == \
            (GAUSS, ["points", "kernel"])
        np.testing.assert_array_equal(got.anchors.points, sample.x)
        gram = build_gram(GAUSS, sample.x, check_psd=False).values
        want = _sequential_sgm(sample, gram, sch.etas(80), plan, {10, 80})
        np.testing.assert_array_equal(got.coeffs, want)

    def test_scratch_above_the_gram_is_per_step(self):
        """One plan's (T, b) index table is read in place, and each step
        forms its own sampled rows and coefficient positions, so at
        m = 200, b = 20, T = 20000 (a 1.6 MB int32 table) the traced peak
        of a kernel run, less the Gram it builds, stays under
        800 000 bytes, a quarter of the table as int64; copying the table
        into (T, R, b) position tables took two int64 tables more. (Tracing
        every allocation makes this run about 15 times slower than an
        untraced one.)"""
        m, b, T = 200, 20, 20_000
        sample = gen_synthetic_abs(m, seed=4)
        plan = sample_index_plan(m, b, T, seed=5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_sgm_trials(sample, GAUSS, StepSchedule(0.5), plan.indices[:, None], (T,))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert plan.indices.nbytes == 1_600_000
        assert peak - 8 * m * m < 800_000

    def test_step_loop_gathers_into_one_buffer(self):
        """The b > 1 step loop gathers each step's sampled Gram rows into
        one (R, b, m) buffer made once per chunk: at m = 400 and b = 100
        the traced peak of a run, less the Gram it builds, stays under 1.5
        such blocks. A fresh gather per step held two blocks while the old
        one was rebound."""
        m, b, T = 400, 100, 40
        sample = gen_synthetic_abs(m, seed=4)
        plan = sample_index_plan(m, b, T, seed=5)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            got = run_sgm(sample, GAUSS, StepSchedule(0.5), plan, (T,))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak - 8 * m * m < 1.5 * 8 * b * m
        want = _sequential_sgm(sample, build_gram(GAUSS, sample.x, check_psd=False).values,
                               StepSchedule(0.5).etas(T), plan, {T})
        np.testing.assert_array_equal(got.coeffs, want)

    def test_table_is_read_in_place(self):
        """sec9-sgm's trials (m = 100, R = 50, T = 5000, b = 1, 24
        checkpoints) on their index table: the blocked path writes the
        checkpoints into the returned block and keeps no per-checkpoint
        copy of its iterate, so the traced peak, less the Gram the run
        builds, stays within 0.6 MB of the 1 MB block (0.43 MB over it).
        Stacking 50 int64 plans alone took 2 MB more; gathering the Gram
        rows of all 50 trials in one chunk, not ``_BLOCK`` = 16 per chunk,
        took 1.2 MB over the block."""
        m, R, T = 100, 50, 5000
        sample = gen_synthetic_abs(m, seed=3)
        table = sample_index_table(m, 1, T, [mix_seed(9, r) for r in range(R)])
        cps = log_checkpoints(T, 25)
        with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                block = run_sgm_trials(sample, GAUSS, StepSchedule(1 / 800), table, cps)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert _block_lengths(eng) == [iterations._BLOCK] * -(-R // iterations._BLOCK)
        assert eng.call_count == 4 and block.base is None
        assert block.nbytes == len(cps) * R * m * 8 == 960_000
        assert peak - 8 * m * m <= block.nbytes + 600_000


_LINEAR = KernelSpec("linear")


class TestLinearKernelIsEuclidean:
    """Under the linear kernel K = X X^T a kernel iterate a is the
    euclidean iterate w = X^T a, so the two backends predict the same
    values: each is the other's oracle."""

    @settings(max_examples=100, deadline=None)
    @given(m=st.integers(1, 59), d=st.integers(1, 5), scalar=st.booleans(),
           T=st.integers(1, 400), theta=st.sampled_from([0.0, 0.3]),
           b=st.integers(1, 4), blocked=st.booleans(), loop=st.booleans(),
           seed=st.integers(0, 2**32))
    @example(m=59, d=2, scalar=False, T=400, theta=0.0, b=1, blocked=True, loop=False, seed=0)
    def test_backends_predict_alike(self, m, d, scalar, T, theta, b, blocked, loop, seed):
        """The predictions of run_sgm_trials (the blocked b = 1 path at
        eta_1 K_jj <= 0.9, the step loop at 1.5), run_batch_gm and
        run_population (the spectral filter, or the step loop where the
        factor budget is 0) agree within 1e-12 of the largest value or
        target. A 1-D array of scalar inputs stands for d = 1 half the
        time. Not of the largest value alone: the kernel filter's sample
        values err by up to about s_T lam_max eps max|y| (run_batch_gm),
        and with d = 1 and targets nearly orthogonal to x they are about
        1e-3 of y (at m = 4, T = 342, eta_1 = 1.5, 4.6e-11 of the largest
        value, 1.8e-14 of the largest target)."""
        rng = make_rng(seed)
        x = rng.standard_normal((m, d))
        surrogate = x[rng.integers(0, m, 40)] * rng.random((40, 1))  # within the norm bound
        if d == 1 and scalar:
            x, surrogate = x[:, 0], surrogate[:, 0]
        sample = Sample(x, _target(x) + rng.standard_normal(m))
        b = min(b, m)
        sch = StepSchedule(0.9 if blocked else 1.5, theta, kappa_sq(_LINEAR, x))
        cps = log_checkpoints(T, 6)
        table = sample_index_table(m, b, T, [seed, seed + 1])
        values = {}
        for ctx in (_LINEAR, None):
            with mock.patch.object(iterations, "_sgm_steps", wraps=iterations._sgm_steps) as eng:
                trials = run_sgm_trials(sample, ctx, sch, table, cps)
            assert (iterations._BLOCK in _block_lengths(eng)) == \
                (blocked and b == 1 and (m > 1 or ctx is None))
            anchors = None if ctx is None else AnchorSet(x, ctx)
            values[ctx] = [predict(Trajectory(cps, trials[:, r], anchors), x) for r in range(2)]
            with mock.patch.object(iterations, "_factor_budget",
                                   **({"return_value": 0} if loop
                                      else {"wraps": iterations._factor_budget})):
                values[ctx] += [predict(run_batch_gm(sample, ctx, sch, T, cps), x),
                                predict(run_population(surrogate, ctx, _target, sch, T, cps),
                                        surrogate)]
        targets = [sample.y] * 3 + [_target(surrogate)]
        for kernel, euclidean, y in zip(values[_LINEAR], values[None], targets):
            scale = max(np.abs(euclidean).max(), np.abs(y).max())
            assert np.max(np.abs(kernel - euclidean)) <= 1e-12 * scale
