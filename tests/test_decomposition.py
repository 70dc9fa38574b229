import dataclasses
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from sgdlsq import (
    AnchorSet,
    KernelSpec,
    Sample,
    StepSchedule,
    abs_target,
    build_gram,
    decompose,
    decompose_batch,
    euclidean_vector,
    excess_risk,
    fit_rate,
    gen_linear_attainable,
    gen_synthetic_abs,
    h_norm_error,
    kernel_vector,
    mix_seed,
    predict,
    run_batch_gm,
    run_population,
    run_sgm,
    sample_index_plan,
    unbiasedness_check,
)
from sgdlsq import decomposition, iterations

GAUSS = KernelSpec("gaussian", sigma=0.2)


class TestExcessRisk:
    def test_exact_reproduction_is_zero(self):
        w = euclidean_vector([1.0, -2.0])
        pts = np.random.default_rng(0).standard_normal((50, 2))
        assert excess_risk(w, pts, lambda x: x @ np.array([1.0, -2.0])) == 0.0

    def test_zero_hypothesis_kinked_target(self):
        # f(x) = |x - 1/2| - 1/2 at {0, 0.25, 0.5} is {0, -0.25, -0.5}
        pts = np.array([[0.0], [0.25], [0.5]])
        got = excess_risk(euclidean_vector([0.0]), pts, lambda x: abs_target(x[:, 0]))
        np.testing.assert_allclose(got, 0.3125 / 3, rtol=1e-14)

    def test_empty_surrogate(self):
        with pytest.raises(ValueError):
            excess_risk(euclidean_vector([0.0]), np.empty((0, 1)), lambda x: x)


class TestHNormError:
    def test_at_truth(self):
        assert h_norm_error(euclidean_vector([1.0, 2.0]), [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert h_norm_error(euclidean_vector([1.0, 0.0]), [0.0, 1.0]) == 2.0

    def test_kernel_backend_rejected(self):
        anchors = AnchorSet.build(GAUSS, [0.1, 0.9])
        h = kernel_vector([1.0, 0.0], anchors)
        with pytest.raises(ValueError, match="known minimizer"):
            h_norm_error(h, [0.0, 0.0])


class TestFitRate:
    def test_exact_half_power(self):
        fit = fit_rate([(m, 3 * m**-0.5) for m in (64, 128, 256)])
        np.testing.assert_allclose(fit.slope, -0.5, atol=1e-12)
        assert fit.r_squared == pytest.approx(1.0)

    def test_exact_inverse_power(self):
        fit = fit_rate([(m, 3.0 / m) for m in (64, 128, 256, 512)])
        np.testing.assert_allclose(fit.slope, -1.0, atol=1e-12)

    def test_nonpositive_errors_excluded(self):
        fit = fit_rate([(64, 1.0), (128, 0.5), (256, 0.25), (512, 0.0)])
        assert fit.n_used == 3
        assert fit.excluded == (512.0,)

    def test_too_few_points(self):
        """Fewer than three positive pairs, or a single m, whose slope
        no fit determines."""
        for pairs in ([(64, 1.0), (128, 0.0), (256, -1.0)], [(16, 0.1), (16, 0.2), (16, 0.3)]):
            with pytest.raises(ValueError):
                fit_rate(pairs)


def _population_bias_curve(x_hat, w_star, schedule, T):
    """Population run plus its per-step distance to the target, measured
    on the surrogate itself."""
    traj = run_population(x_hat, None, lambda p: p @ w_star, schedule, T, tuple(range(1, T + 1)))
    resid = traj.values(x_hat) - x_hat @ w_star
    return traj, np.sqrt(np.mean(resid**2, axis=1))


def _source_constant(x_hat, w_star, zeta):
    """R_zeta = ||L^-zeta f||: exact by eigendecomposition of the
    surrogate covariance (full rank required)."""
    cov = x_hat.T @ x_hat / x_hat.shape[0]
    s, v = np.linalg.eigh(cov)
    proj = v.T @ w_star
    return math.sqrt(float(np.sum(s ** (1.0 - 2.0 * zeta) * proj**2)))


class TestPopulationBiasBound:
    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    @pytest.mark.parametrize("d,seed", [(2, 0), (5, 1)])
    def test_bias_bounded_by_source_decay(self, zeta, d, seed):
        """bias after t steps <= R_zeta (zeta / (2 sum_{j<=t} eta_j))^zeta
        on full-rank euclidean instances."""
        rng = np.random.default_rng(seed)
        x_hat = rng.standard_normal((300, d))
        norms = np.linalg.norm(x_hat, axis=1)
        x_hat[norms > 1] /= norms[norms > 1, None]
        w_star = rng.standard_normal(d)
        sch = StepSchedule(0.5, 0.25)  # eta_1 = 0.5 <= 1/kappa^2 with kappa = 1
        T = 200
        _, bias = _population_bias_curve(x_hat, w_star, sch, T)
        r_const = _source_constant(x_hat, w_star, zeta)
        eta_cum = np.cumsum(sch.etas(T))
        bound = r_const * (zeta / (2.0 * eta_cum)) ** zeta
        assert np.all(bias <= bound + 1e-12)

    @pytest.mark.parametrize("zeta", [0.5, 1.0])
    def test_iterate_norm_bounded(self, zeta):
        """||mu_t||_H <= R_zeta * kappa^(2 zeta - 1) with kappa = 1."""
        rng = np.random.default_rng(3)
        x_hat = rng.standard_normal((200, 4))
        norms = np.linalg.norm(x_hat, axis=1)
        x_hat[norms > 1] /= norms[norms > 1, None]
        w_star = rng.standard_normal(4)
        traj = run_population(x_hat, None, lambda p: p @ w_star, StepSchedule(0.8), 150,
                              tuple(range(1, 151)))
        r_const = _source_constant(x_hat, w_star, zeta)
        assert np.all(np.linalg.norm(traj.coeffs, axis=1) <= r_const + 1e-10)

    def test_bias_monotone_for_constant_step(self):
        rng = np.random.default_rng(4)
        x_hat = rng.random(120)
        traj = run_population(x_hat, GAUSS, abs_target, StepSchedule(1.0), 80,
                              tuple(range(1, 81)))
        f_vals = abs_target(x_hat)
        bias = np.mean((traj.values(build_gram(GAUSS, x_hat).values) - f_vals) ** 2, axis=1)
        diffs = np.diff(bias)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(bias[:-1])))


@pytest.fixture(scope="module")
def small_kernel_report():
    sample = gen_synthetic_abs(30, seed=21, noise_sd=1.0)
    surr = np.random.default_rng(2).random(200)
    sch = StepSchedule(1.0 / 16)
    return decompose(
        sample, surr, abs_target, GAUSS, sch,
        b=5, T=60, R=12, base_seed=777, checkpoints=(1, 2, 5, 10, 20, 40, 60),
    )


class TestDecompose:
    def test_terms_nonnegative(self, small_kernel_report):
        rep = small_kernel_report
        for arr in (rep.bias_sq, rep.sample_var_sq, rep.comp_var_sq, rep.total):
            assert np.all(arr >= 0)

    def test_inequality_holds_everywhere(self, small_kernel_report):
        assert all(small_kernel_report.ineq_ok)

    def test_inequality_is_derived_from_the_terms(self, small_kernel_report):
        """ineq_ok is no field but a property of the report's terms: a
        total at 2 bias^2 + 2 sample_var^2 + comp_var^2 + 5 combined_se
        plus the 1e-12 relative slack passes, and one ulp-scale step past
        it fails."""
        rep = small_kernel_report
        assert "ineq_ok" not in {f.name for f in dataclasses.fields(rep)}
        rhs = 2 * rep.bias_sq + 2 * rep.sample_var_sq + rep.comp_var_sq + 5 * rep.combined_se
        edge = rhs + 1e-12 * np.maximum(1.0, rhs)
        assert dataclasses.replace(rep, total=edge).ineq_ok == (True,) * len(rhs)
        past = dataclasses.replace(rep, total=edge * (1 + 1e-15) + 1e-300)
        assert past.ineq_ok == (False,) * len(rhs)
        assert [row["ineq_ok"] for row in past.rows()] == [False] * len(rhs)

    def test_bias_nonincreasing(self, small_kernel_report):
        b = small_kernel_report.bias_sq
        assert np.all(np.diff(b) <= 1e-12 * np.maximum(1.0, b[:-1]))

    def test_noiseless_realizable_bias_shrinks(self):
        """Linearly realizable data with the sample reused as surrogate:
        the population run drives its error toward zero, so the final
        bias is far below the first-step bias."""
        sample, w_star = gen_linear_attainable(40, 3, [0.8, -0.4, 0.2], noise_sd=0.0, seed=5)
        rep = decompose(
            sample, sample.x, lambda p: p @ w_star, None, StepSchedule(0.5),
            b=4, T=150, R=6, base_seed=11, checkpoints=(1, 150),
        )
        assert rep.bias_sq[-1] < rep.bias_sq[0]
        assert rep.bias_sq[-1] < 1e-3 * rep.bias_sq[0]
        assert all(rep.ineq_ok)

    def test_degenerate_single_point_has_zero_comp_var(self):
        """With m = 1 every draw picks the same point, so the sampled run
        coincides with the batch run exactly."""
        sample = Sample(x=np.array([0.4]), y=np.array([1.0]))
        surr = np.linspace(0, 1, 50)
        rep = decompose(
            sample, surr, abs_target, GAUSS, StepSchedule(0.25),
            b=1, T=30, R=4, base_seed=3, checkpoints=(1, 10, 30),
        )
        np.testing.assert_array_equal(rep.comp_var_sq, np.zeros(3))
        np.testing.assert_array_equal(rep.total_se, np.zeros(3))
        assert all(rep.ineq_ok)

    def test_full_batch_sampling_shrinks_comp_var(self):
        sample = gen_synthetic_abs(16, seed=9)
        surr = np.random.default_rng(8).random(100)
        sch = StepSchedule(1.0 / 16)
        common = dict(T=40, R=16, base_seed=55, checkpoints=(40,))
        rep_b1 = decompose(sample, surr, abs_target, GAUSS, sch, b=1, **common)
        rep_bm = decompose(sample, surr, abs_target, GAUSS, sch, b=16, **common)
        assert rep_bm.comp_var_sq[0] < 0.5 * rep_b1.comp_var_sq[0]

    @pytest.mark.parametrize("kernel,cps", [
        pytest.param(kernel, cps, id=f"{name}{suffix}")
        for suffix, cps in [("", (5, 12, 25)), ("-dense", tuple(range(1, 26))), ("-single", (25,))]
        for name, kernel in [("kernel", GAUSS), ("euclidean", None)]
    ])
    def test_matches_per_trial_loop(self, kernel, cps):
        """The lockstep trials and the per-checkpoint reduction of their
        surrogate values give the terms of the one-run-at-a-time
        computation, to 1e-12 relative (each checkpoint's values come
        from one matrix product per chunk of trials instead of one per
        trial vector), on a few checkpoints, on every step and on a
        single one."""
        if kernel is None:
            sample, w_star = gen_linear_attainable(20, 3, [0.5, -0.2, 0.1], noise_sd=0.3, seed=4)
            surr = np.random.default_rng(3).standard_normal((90, 3)) / 2
            f_true = lambda p: p @ w_star
        else:
            sample, f_true = gen_synthetic_abs(12, seed=31), abs_target
            surr = np.random.default_rng(1).random(60)
        sch = StepSchedule(0.05)
        rep = decompose(sample, surr, f_true, kernel, sch, b=3, T=25, R=8, base_seed=42,
                        checkpoints=cps)
        batch = run_batch_gm(sample, kernel, sch, 25, cps)
        f_vals = f_true(surr)
        comp, tot = [], []
        for r in range(8):
            plan = sample_index_plan(12 if kernel else 20, 3, 25, mix_seed(42, r))
            traj = run_sgm(sample, kernel, sch, plan, cps)
            vals = np.array([predict(traj.vector_at(t), surr) for t in cps])
            base = np.array([predict(batch.vector_at(t), surr) for t in cps])
            comp.append(np.mean((vals - base) ** 2, axis=1))
            tot.append(np.mean((vals - f_vals) ** 2, axis=1))
        np.testing.assert_allclose(rep.comp_var_sq, np.mean(comp, axis=0), rtol=1e-12)
        np.testing.assert_allclose(rep.total, np.mean(tot, axis=0), rtol=1e-12)
        np.testing.assert_allclose(rep.total_se, np.std(tot, axis=0, ddof=1) / math.sqrt(8),
                                   rtol=1e-10)

    def test_requires_two_trials(self):
        sample = gen_synthetic_abs(5, seed=0)
        with pytest.raises(ValueError):
            decompose(sample, sample.x, abs_target, None, StepSchedule(0.1),
                      b=1, T=5, R=1, base_seed=0)

    def test_trial_divergence_names_trial_and_iteration(self):
        """One dominant point makes the per-draw step unstable while the
        averaged (batch and population) operators stay contractive, so
        only a sampled trial can blow up."""
        from sgdlsq import DivergenceError

        x = np.array([[1.0, 0.0], [0.01, 0.0], [0.0, 0.01],
                      [0.01, 0.01], [0.0, 0.005], [0.005, 0.0]])
        sample = Sample(x=x, y=np.ones(6))
        with pytest.raises(DivergenceError) as err:
            decompose(sample, x, lambda p: np.zeros(p.shape[0]), None,
                      StepSchedule(4.0), b=1, T=400, R=3, base_seed=2)
        assert "trial" in str(err.value)
        assert err.value.iteration >= 1

    def test_scratch_memory_does_not_grow_with_checkpoints(self):
        """Every step a checkpoint: the trials' surrogate values are
        reduced one checkpoint at a time, so the traced peak stays well
        below one (n_cp, R, N) float64 block. numpy's data buffers are
        traced by tracemalloc, so the bound holds on any machine."""
        sample = gen_synthetic_abs(30, seed=2)
        surr = np.random.default_rng(6).random(1000)
        T = R = 40
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            rep = decompose(sample, surr, abs_target, GAUSS, StepSchedule(1 / 30), b=1,
                            T=T, R=R, base_seed=8, checkpoints=range(1, T + 1))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(rep.checkpoints) == T
        assert peak < len(rep.checkpoints) * R * len(surr) * 8 / 2

    def test_filter_path_builds_no_surrogate_gram(self):
        """On the population filter's path decompose holds no N x N
        surrogate matrix: the factor reads its pivots' kernel rows and the
        values are formed a tile of K at a time, so the traced peak stays
        below a quarter of one N x N float64 Gram."""
        sample = gen_synthetic_abs(30, seed=2)
        surr = np.random.default_rng(6).random(1500)
        with mock.patch.object(iterations, "_gm_steps", wraps=iterations._gm_steps) as loop:
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                rep = decompose(sample, surr, abs_target, GAUSS, StepSchedule(1 / 30), b=1,
                                T=20, R=4, base_seed=8, checkpoints=(5, 10, 20))
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
        assert all(len(call.args[1]) == sample.m for call in loop.call_args_list)  # not N
        assert all(rep.ineq_ok)
        assert peak < len(surr) ** 2 * 8 / 4

    def test_scratch_memory_does_not_grow_with_trials(self):
        """The trials' surrogate values are reduced _TRIAL_CHUNK trials at
        a time: on a euclidean run with N = 5000 surrogate points, where no
        other block is of size R N, the traced peak stays under 1 MB for
        R = 16 and for R = 128, where one (R, N) float64 block is 5.1 MB."""
        sample, w = gen_linear_attainable(30, 2, [0.5, -0.2], noise_sd=0.3, seed=4)
        surr = np.random.default_rng(3).standard_normal((5000, 2))
        for R in (16, 128):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                decompose(sample, surr, lambda p: p @ w, None, StepSchedule(0.05), b=1, T=40,
                          R=R, base_seed=8, checkpoints=(5, 20, 40))
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < 1_000_000

    @pytest.mark.parametrize("kernel", [GAUSS, None], ids=["kernel", "euclidean"])
    def test_terms_do_not_depend_on_the_trial_chunk(self, kernel):
        """Chunks of 1, 3 or all 11 trials give the same terms to 1e-12
        relative: each trial's values are one row of a matrix product."""
        if kernel is None:
            sample, w = gen_linear_attainable(20, 3, [0.5, -0.2, 0.1], noise_sd=0.3, seed=4)
            surr, f_true = np.random.default_rng(3).standard_normal((90, 3)), lambda p: p @ w
        else:
            sample, f_true = gen_synthetic_abs(12, seed=31), abs_target
            surr = np.random.default_rng(1).random(60)
        reports = []
        for chunk in (1, 3, 11):
            with mock.patch.object(decomposition, "_TRIAL_CHUNK", chunk):
                reports.append(decompose(sample, surr, f_true, kernel, StepSchedule(0.05), b=2,
                                         T=25, R=11, base_seed=42, checkpoints=(3, 10, 25)))
        for rep in reports[:2]:
            for name in ("comp_var_sq", "total", "total_se", "combined_se"):
                np.testing.assert_allclose(getattr(rep, name), getattr(reports[2], name),
                                           rtol=1e-12, atol=1e-300)


class TestDecomposeBatch:
    def test_schema_and_exact_inequality(self):
        sample = gen_synthetic_abs(25, seed=13)
        surr = np.random.default_rng(4).random(150)
        rep = decompose_batch(sample, surr, abs_target, GAUSS, StepSchedule(0.125), 40,
                              checkpoints=(1, 10, 40))
        assert rep.r_trials == 0
        np.testing.assert_array_equal(rep.comp_var_sq, np.zeros(3))
        assert all(rep.ineq_ok)


class TestUnbiasednessCheck:
    def test_step_one_is_exact(self):
        sample = gen_synthetic_abs(6, seed=2)
        rep = unbiasedness_check(sample, StepSchedule(0.02), b=1, t=1, R=100, base_seed=5)
        assert rep.deviation == 0.0
        assert rep.passed

    def test_single_point_sample_is_exact(self):
        sample = Sample(x=np.array([0.7]), y=np.array([2.0]))
        rep = unbiasedness_check(sample, StepSchedule(0.1), b=1, t=12, R=100, base_seed=1)
        assert rep.deviation == 0.0
        assert rep.trace_variance == 0.0
        assert rep.passed

    def test_kernel_backend_four_sigma(self):
        sample = gen_synthetic_abs(10, seed=14)
        rep = unbiasedness_check(sample, StepSchedule(1.0 / 80), b=2, t=24, R=300,
                                 base_seed=9, ctx=GAUSS)
        assert rep.passed
        assert rep.bound == pytest.approx(4 * math.sqrt(rep.trace_variance / 300))

    def test_r_floor_enforced(self):
        sample = gen_synthetic_abs(4, seed=0)
        with pytest.raises(ValueError):
            unbiasedness_check(sample, StepSchedule(0.1), b=1, t=4, R=50, base_seed=0)
