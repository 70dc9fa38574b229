import math

import numpy as np
import pytest

from sgdlsq import (
    StepSchedule,
    acceptance_sweep,
    check_contraction_bound,
    check_convolution_bound,
    check_sum_bounds,
    verdicts_to_csv,
)
from sgdlsq.bounds import fsum, log_spaced_ts, sweep_contraction


class TestRangeConventions:
    def test_fsum_is_compensated(self):
        # a classic cancellation case that plain accumulation gets wrong
        vals = [1e16, 1.0, -1e16]
        assert fsum(vals) == 1.0


class TestSumBounds:
    def test_theta_zero_exact(self):
        lower, upper = check_sum_bounds(0.0, 5)
        assert lower.bound == 5.0  # brute sum
        assert lower.lhs == 2.5
        assert lower.passed and upper.passed

    def test_theta_half_t4(self):
        lower, upper = check_sum_bounds(0.5, 4)
        np.testing.assert_allclose(lower.bound, 2.78446, atol=5e-6)
        assert lower.lhs == pytest.approx(1.0)
        # the classical two-sided envelope also holds: sum <= t^(1-theta)/(1-theta)
        assert lower.bound <= 4.0 ** 0.5 / 0.5 + 1e-12
        assert lower.passed and upper.passed

    def test_theta_two_log_upper_only(self):
        verdicts = check_sum_bounds(2.0, 10)
        assert len(verdicts) == 1
        v = verdicts[0]
        np.testing.assert_allclose(v.bound, 1 + math.log(10), rtol=1e-12)
        np.testing.assert_allclose(v.lhs, 1.54977, atol=5e-6)
        assert v.passed

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 0.9])
    @pytest.mark.parametrize("t", [1, 2, 10, 1000])
    def test_classical_envelope(self, theta, t):
        total = fsum(np.arange(1, t + 1, dtype=np.float64) ** (-theta))
        assert t ** (1 - theta) / 2 <= total + 1e-12
        assert total <= t ** (1 - theta) / (1 - theta) + 1e-12


class TestConvolutionBound:
    def test_q1_t3_hand_sum(self):
        v = check_convolution_bound(1.0, 3)
        assert v.lhs == pytest.approx(1.0)
        np.testing.assert_allclose(v.bound, (2 / 3) * (1 + math.log(3)), rtol=1e-12)
        assert v.passed

    def test_q0_t3_hand_sum(self):
        v = check_convolution_bound(0.0, 3)
        assert v.lhs == pytest.approx(1.5)
        np.testing.assert_allclose(v.bound, 2 * (1 + math.log(3)), rtol=1e-12)
        assert v.passed

    def test_requires_t_at_least_3(self):
        with pytest.raises(ValueError):
            check_convolution_bound(1.0, 2)

    @pytest.mark.parametrize("q", [-1.0, 0.0, 0.5, 1.0, 2.0])
    def test_sweep_to_1e4(self, q):
        for t in log_spaced_ts(10_000, count=12, t_min=3):
            assert check_convolution_bound(q, t).passed


class TestContractionBound:
    def test_hand_product(self):
        v = check_contraction_bound([1.0, 0.5], StepSchedule(0.5), 1.0, 0, 2)
        assert v.lhs == pytest.approx(0.28125)
        assert v.bound == pytest.approx(1 / math.e)
        assert v.passed

    def test_zero_eigenvalue_contributes_nothing(self):
        v = check_contraction_bound([0.0, 0.3], StepSchedule(1.0), 2.0, 1, 2)
        prod_contrib = (1 - 0.3) * 0.3**2  # the sigma = 0.3 branch
        assert v.lhs == pytest.approx(prod_contrib)

    def test_k_equals_t_minus_1_single_factor(self):
        sch = StepSchedule(0.8)
        v = check_contraction_bound([0.9], sch, 0.5, 4, 5)
        assert v.lhs == pytest.approx((1 - 0.8 * 0.9) * 0.9**0.5)
        assert v.bound == pytest.approx((0.5 / (math.e * 0.8)) ** 0.5)

    def test_step_precondition_enforced(self):
        with pytest.raises(ValueError, match="precondition"):
            check_contraction_bound([2.0], StepSchedule(1.0), 1.0, 0, 3)

    def test_random_spectrum_sweep(self):
        verdicts = sweep_contraction(n_spectra=100, seed=17)
        assert len(verdicts) > 1000
        assert all(v.passed for v in verdicts)


class TestAcceptanceSweep:
    def test_all_pass_and_csv_schema(self, tmp_path):
        verdicts = acceptance_sweep(t_max=300)
        assert all(v.passed for v in verdicts)
        path = tmp_path / "verdicts.csv"
        verdicts_to_csv(verdicts, path)
        header = path.read_text().splitlines()[0]
        assert header == "lemma,params,lhs,bound,slack,pass"

    def test_verdict_slack_sign_convention(self):
        v = check_convolution_bound(1.0, 3)
        assert v.slack == v.bound - v.lhs
        assert v.passed == (v.slack >= -1e-12 * max(1.0, abs(v.bound)))
