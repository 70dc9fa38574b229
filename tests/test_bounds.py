import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (
    StepSchedule,
    acceptance_sweep,
    check_contraction_bound,
    check_convolution_bound,
    check_sum_bounds,
    make_rng,
    verdicts_to_csv,
)
from sgdlsq.bounds import LemmaVerdict, fsum, log_spaced_ts, sweep_contraction


def _bits(verdicts):
    """Each verdict as (lemma, params in order, lhs and bound bit patterns)."""
    return [(v.lemma, list(v.params.items()), v.lhs.hex(), v.bound.hex()) for v in verdicts]


def _contraction_points(n_spectra, zetas, thetas, t_max, seed, dim):
    """sweep_contraction's points, in its order, as the arguments
    (eigs, schedule, zeta, k, t) of check_contraction_bound."""
    rng = make_rng(seed)
    ts = log_spaced_ts(t_max, count=6, t_min=2)
    out = []
    for _ in range(n_spectra):
        eigs = rng.random(dim) * (1.0 - 1e-9) + 1e-9
        for theta in thetas:
            schedule = StepSchedule(eta1=1.0, theta=theta, kappa_sq=1.0)
            for zeta in zetas:
                for t in ts:
                    for k in (0, t // 2):
                        out.append((eigs, schedule, zeta, k, t))
    return out


def _textbook_contraction(eigs, schedule, zeta, k, t):
    """The contraction verdict by its formula, out of place: the reference
    the sweep and the one-point check are held to."""
    etas = schedule.etas(t)[k:t]
    lhs = float(np.max(np.prod(1.0 - np.outer(eigs, etas), axis=1) * eigs**zeta))
    return LemmaVerdict(
        "contraction",
        {"zeta": zeta, "k": k, "t": t, "theta": schedule.theta, "eta1": schedule.eta1},
        lhs, (zeta / (math.e * fsum(etas))) ** zeta)


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


class TestGroupedContractionSweep:
    """sweep_contraction, grouped per (theta, t, k) cut, and the one-point
    check_contraction_bound, one cut of one spectrum, equal the textbook
    formula verdict for verdict, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(n_spectra=st.integers(0, 12), dim=st.integers(1, 30), t_max=st.integers(2, 300),
           seed=st.integers(0, 2**63),
           zetas=st.lists(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]),
                          min_size=1, max_size=4, unique=True),
           thetas=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=3))
    def test_equals_the_one_point_checks(self, n_spectra, dim, t_max, seed, zetas, thetas):
        points = _contraction_points(n_spectra, tuple(zetas), tuple(thetas), t_max, seed, dim)
        want = _bits([_textbook_contraction(*p) for p in points])
        assert _bits([check_contraction_bound(*p) for p in points]) == want
        args = (n_spectra, tuple(zetas), tuple(thetas), t_max, seed, dim)
        assert _bits(sweep_contraction(*args)) == want

    def test_no_spectra_is_empty(self):
        assert sweep_contraction(n_spectra=0) == []

    def test_empty_spectrum_is_refused(self):
        with pytest.raises(ValueError, match="at least one eigenvalue"):
            sweep_contraction(n_spectra=3, dim=0)

    def test_nonpositive_zeta_is_refused(self):
        with pytest.raises(ValueError, match="zeta must be > 0"):
            sweep_contraction(n_spectra=2, zetas=(1.0, 0.0))
        # a nan zeta, which gave a nan verdict, is refused by name too
        with pytest.raises(ValueError, match="zeta must be > 0, got nan"):
            sweep_contraction(n_spectra=2, zetas=(float("nan"),))
        with pytest.raises(ValueError, match="zeta must be > 0, got nan"):
            check_contraction_bound([0.5], StepSchedule(0.5), float("nan"), 0, 3)


    def test_factors_live_in_one_buffer(self):
        """The default sweep (100 spectra of 24, cuts up to t - k = 200)
        forms each cut's factors in place in one 3.84 MB buffer, freed
        before the verdicts are built: the traced peak stays under 4.5 MB,
        where two out-of-place temporaries took 7.7 MB."""
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            verdicts = sweep_contraction()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert len(verdicts) == 100 * 2 * 3 * 12
        assert peak <= 4_500_000


class TestLogSpacedTs:
    def test_equals_unique_of_the_rounded_grid(self):
        for t_max, count, t_min in itertools.product(
                [1, 2, 3, 7, 50, 200, 500, 10_000, 123_457], [1, 2, 6, 25, 100], [1, 2, 3]):
            if t_max < t_min:
                with pytest.raises(ValueError):
                    log_spaced_ts(t_max, count, t_min)
                continue
            grid = log_spaced_ts(t_max, count, t_min)
            want = np.unique(np.geomspace(t_min, t_max, num=count).round().astype(int))
            assert type(grid) is list and all(type(v) is int for v in grid)
            assert grid == want.tolist()

    @pytest.mark.parametrize("count", [0, -3])
    def test_rejects_a_count_below_one(self, count):
        with pytest.raises(ValueError, match=f"grid point count must be >= 1, got {count}"):
            log_spaced_ts(100, count)


class TestAcceptanceSweep:
    def test_all_pass_and_csv_schema(self, tmp_path):
        verdicts = acceptance_sweep(t_max=300)
        assert all(v.passed for v in verdicts)
        path = tmp_path / "verdicts.csv"
        verdicts_to_csv(verdicts, path)
        header = path.read_text().splitlines()[0]
        assert header == "lemma,params,lhs,bound,slack,pass"

    def test_csv_equals_csv_writer(self, tmp_path):
        """The CSV is byte for byte what csv.writer writes for each
        verdict's fields: params that compare equal but print differently
        (0.0 and -0.0; 1, 1.0 and True) keep their own text, fields with
        commas, quotes or line breaks are quoted, and nan/inf values and
        failing verdicts print as repr and False."""
        nan, inf = float("nan"), float("inf")
        params = [{"theta": 0.0, "t": 1}, {"theta": -0.0, "t": 1.0}, {"theta": 0.0, "t": True},
                  {"theta": 0.0, "t": 1}, {}, {"note": 'a,"b"', "s": "x\ny"}, {"q": (1, 2)}]
        values = [(0.5, 1.0), (nan, 1.0), (1.0, inf), (-inf, -inf), (2.0, 1.0), (1.0, nan)]
        verdicts = [LemmaVerdict(lemma, dict(p), lhs, bound)
                    for lemma in ("sum-lower", "odd,lemma")
                    for p in params for lhs, bound in values]
        verdicts += sweep_contraction(n_spectra=2, t_max=20)
        path = tmp_path / "verdicts.csv"
        verdicts_to_csv(verdicts, path)
        ref = io.StringIO(newline="")
        writer = csv.writer(ref)
        writer.writerow(["lemma", "params", "lhs", "bound", "slack", "pass"])
        for v in verdicts:
            text = ";".join(f"{key}={val}" for key, val in v.params.items())
            writer.writerow([v.lemma, text, repr(v.lhs), repr(v.bound), repr(v.slack), v.passed])
        got = path.read_bytes()
        assert got == ref.getvalue().encode("utf-8")
        assert b"theta=-0.0;t=1.0" in got and b"theta=0.0;t=True" in got

    def test_verdict_slack_sign_convention(self):
        v = check_convolution_bound(1.0, 3)
        assert v.slack == v.bound - v.lhs
        assert v.passed == (v.slack >= -1e-12 * max(1.0, abs(v.bound)))
