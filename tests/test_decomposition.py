import math

import numpy as np
import pytest

from sgdlsq import (
    AnchorSet,
    KernelSpec,
    Sample,
    StepSchedule,
    abs_target,
    decompose,
    decompose_batch,
    effective_dimension,
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
from sgdlsq.bounds import fsum

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


class TestEffectiveDimension:
    def test_large_lambda_limit(self):
        eigs = np.array([1.0, 0.3, 0.01])
        assert effective_dimension(eigs, 1e12 * eigs.max()) <= 1e-6

    def test_hand_value(self):
        np.testing.assert_allclose(
            effective_dimension([1.0, 0.5], 0.5), 1 / 1.5 + 0.5 / 1.0, rtol=1e-15
        )

    def test_polynomial_spectrum_against_fsum_oracle(self):
        i = np.arange(1, 4097, dtype=np.float64)
        eigs = i**-2.0
        lam = 0.01
        oracle = fsum(eigs / (eigs + lam))
        np.testing.assert_allclose(effective_dimension(eigs, lam), oracle, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_in_lambda_and_below_rank(self, seed):
        rng = np.random.default_rng(seed)
        eigs = rng.random(30)
        lams = np.geomspace(1e-4, 10, 12)
        vals = [effective_dimension(eigs, lam) for lam in lams]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] <= 30

    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            effective_dimension([1.0], 0.0)


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
        with pytest.raises(ValueError):
            fit_rate([(64, 1.0), (128, 0.0), (256, -1.0)])


def _population_bias_curve(x_hat, w_star, schedule, T):
    """Population run plus its per-step distance to the target, measured
    on the surrogate itself."""
    traj = run_population(x_hat, lambda p: p @ w_star, schedule, T, tuple(range(1, T + 1)))
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
        traj = run_population(x_hat, lambda p: p @ w_star, StepSchedule(0.8), 150,
                              tuple(range(1, 151)))
        r_const = _source_constant(x_hat, w_star, zeta)
        assert np.all(np.linalg.norm(traj.coeffs, axis=1) <= r_const + 1e-10)

    def test_bias_monotone_for_constant_step(self):
        rng = np.random.default_rng(4)
        x_hat = rng.random(120)
        anchors = AnchorSet.build(GAUSS, x_hat)
        traj = run_population(anchors, abs_target, StepSchedule(1.0), 80,
                              tuple(range(1, 81)))
        f_vals = abs_target(x_hat)
        bias = np.mean((traj.values(anchors.gram.values) - f_vals) ** 2, axis=1)
        diffs = np.diff(bias)
        assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(bias[:-1])))


@pytest.fixture(scope="module")
def small_kernel_report():
    sample = gen_synthetic_abs(30, seed=21, noise_sd=1.0)
    surr = AnchorSet.build(GAUSS, np.random.default_rng(2).random(200), check_psd=False)
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

    def test_bias_nonincreasing(self, small_kernel_report):
        b = small_kernel_report.bias_sq
        assert np.all(np.diff(b) <= 1e-12 * np.maximum(1.0, b[:-1]))

    def test_csv_schema(self, small_kernel_report, tmp_path):
        path = tmp_path / "report.csv"
        small_kernel_report.to_csv(path)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "t,pass,bias_sq,sample_var_sq,comp_var_sq,total,total_se,ineq_ok"
        assert len(lines) == 1 + 7

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
        surr = AnchorSet.build(GAUSS, np.linspace(0, 1, 50), check_psd=False)
        rep = decompose(
            sample, surr, abs_target, GAUSS, StepSchedule(0.25),
            b=1, T=30, R=4, base_seed=3, checkpoints=(1, 10, 30),
        )
        np.testing.assert_array_equal(rep.comp_var_sq, np.zeros(3))
        np.testing.assert_array_equal(rep.total_se, np.zeros(3))
        assert all(rep.ineq_ok)

    def test_full_batch_sampling_shrinks_comp_var(self):
        sample = gen_synthetic_abs(16, seed=9)
        surr = AnchorSet.build(GAUSS, np.random.default_rng(8).random(100), check_psd=False)
        sch = StepSchedule(1.0 / 16)
        common = dict(T=40, R=16, base_seed=55, checkpoints=(40,))
        rep_b1 = decompose(sample, surr, abs_target, GAUSS, sch, b=1, **common)
        rep_bm = decompose(sample, surr, abs_target, GAUSS, sch, b=16, **common)
        assert rep_bm.comp_var_sq[0] < 0.5 * rep_b1.comp_var_sq[0]

    @pytest.mark.parametrize("kernel", [GAUSS, None], ids=["kernel", "euclidean"])
    def test_matches_per_trial_loop(self, kernel):
        """The lockstep trials and the one-shot evaluation of every
        checkpoint give the terms of the one-run-at-a-time computation,
        to 1e-12 relative (the surrogate values come from one matrix
        product instead of one per checkpoint vector)."""
        if kernel is None:
            sample, w_star = gen_linear_attainable(20, 3, [0.5, -0.2, 0.1], noise_sd=0.3, seed=4)
            surr = np.random.default_rng(3).standard_normal((90, 3)) / 2
            f_true = lambda p: p @ w_star
        else:
            sample, f_true = gen_synthetic_abs(12, seed=31), abs_target
            surr = np.random.default_rng(1).random(60)
        sch = StepSchedule(0.05)
        cps = (5, 12, 25)
        rep = decompose(sample, surr, f_true, kernel, sch, b=3, T=25, R=8, base_seed=42,
                        checkpoints=cps)
        ctx = None if kernel is None else AnchorSet.build(kernel, sample.x)
        batch = run_batch_gm(sample, ctx, sch, 25, cps)
        f_vals = f_true(surr)
        comp, tot = [], []
        for r in range(8):
            plan = sample_index_plan(12 if kernel else 20, 3, 25, mix_seed(42, r))
            traj = run_sgm(sample, ctx, sch, plan, cps)
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


class TestDecomposeBatch:
    def test_schema_and_exact_inequality(self):
        sample = gen_synthetic_abs(25, seed=13)
        surr = AnchorSet.build(GAUSS, np.random.default_rng(4).random(150), check_psd=False)
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
        ctx = AnchorSet.build(GAUSS, sample.x)
        rep = unbiasedness_check(sample, StepSchedule(1.0 / 80), b=2, t=24, R=300,
                                 base_seed=9, ctx=ctx)
        assert rep.passed
        assert rep.bound == pytest.approx(4 * math.sqrt(rep.trace_variance / 300))

    def test_r_floor_enforced(self):
        sample = gen_synthetic_abs(4, seed=0)
        with pytest.raises(ValueError):
            unbiasedness_check(sample, StepSchedule(0.1), b=1, t=4, R=50, base_seed=0)
