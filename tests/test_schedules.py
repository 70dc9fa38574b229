import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from sgdlsq import (
    RECIPE_IDS,
    StepSchedule,
    passes,
    recipe,
    recipe_table,
    validate_schedule,
)


class TestStepSchedule:
    def test_constant(self):
        sch = StepSchedule(1.0, 0.0, 1.0)
        assert all(sch.eta(t) == 1.0 for t in (1, 5, 1000))

    def test_decaying_value(self):
        assert StepSchedule(0.5, 0.5, 1.0).eta(4) == pytest.approx(0.25, abs=1e-15)

    def test_sec9_simple_sgm_setting(self):
        # eta_t = 1/(8m) at m=100 corresponds to eta1 = 1/800, theta = 0
        sch = StepSchedule(1.0 / 800, 0.0, 1.0)
        assert sch.eta(1) == sch.eta(999) == 1.0 / 800

    def test_kappa_normalization(self):
        sch = StepSchedule(0.5, 0.0, 0.25)
        assert sch.eta(1) == 2.0

    @pytest.mark.parametrize("theta", [0.0, 0.3, 0.99])
    def test_monotone_nonincreasing(self, theta):
        etas = StepSchedule(0.7, theta).etas(200)
        assert np.all(np.diff(etas) <= 0)
        assert np.all(etas > 0)

    def test_any_positive_kappa_is_accepted(self):
        """A linear kernel's kappa^2 = max x^2 over points near 0."""
        assert StepSchedule(0.5, 0.0, 1.2e-13).eta(1) == 0.5 / 1.2e-13

    def test_invalid_parameters(self):
        for bad in ({"eta1": 0.0}, {"eta1": -1.0}, {"theta": 1.0}, {"theta": -0.1},
                    {"kappa_sq": 0.0}, {"kappa_sq": -1.0}, {"kappa_sq": float("nan")},
                    {"kappa_sq": 1e-320}):
            with pytest.raises(ValueError):
                StepSchedule(**{"eta1": 0.5, "theta": 0.0, **bad})


class TestValidateSchedule:
    def test_ok_case(self):
        chk = validate_schedule(StepSchedule(0.001), 1000)
        assert chk.ok and chk.ratio < 1

    def test_warning_case(self):
        chk = validate_schedule(StepSchedule(0.02), 1000)
        assert not chk.ok
        assert chk.ratio == pytest.approx(0.02 * 8 * (math.log(1000) + 1), rel=1e-12)
        assert chk.ratio == pytest.approx(1.265, abs=5e-4)

    def test_tiny_step_always_ok(self):
        assert validate_schedule(StepSchedule(1e-12), 10**6).ok

    def test_requires_t_at_least_3(self):
        with pytest.raises(ValueError):
            validate_schedule(StepSchedule(0.1), 2)


class TestPasses:
    def test_values(self):
        assert passes(1, 100, 100) == 1
        assert passes(1, 250, 100) == 3
        assert passes(10, 10, 100) == 1
        assert passes(3, 7, 10) == 3  # ceil(21/10)

    def test_exact_integer_arithmetic_large(self):
        # large enough that float ceiling would be unreliable
        assert passes(3, 10**15 + 1, 3) == 10**15 + 1
        assert passes(1, 10**15 + 1, 10**15) == 2


class TestRecipes:
    def test_c3_reference_point(self):
        r = recipe("C3", 100, zeta=0.5, gamma=1.0, c_eta=0.125)
        assert (r.b, r.t_star) == (1, 1000)
        assert r.schedule.eta1 == pytest.approx(0.00125, abs=1e-18)
        assert r.schedule.theta == 0.0

    def test_c6_reference_point(self):
        r = recipe("C6", 100, zeta=0.5, gamma=1.0)
        assert (r.b, r.t_star) == (10, 10)

    def test_c7_log_step(self):
        r = recipe("C7", 100)
        assert r.b == 100
        assert r.schedule.eta1 == pytest.approx(0.125 / math.log(100), rel=1e-12)

    def test_c4_matches_sqrt_choices(self):
        r = recipe("C4", 100, zeta=0.5, gamma=1.0, c_eta=0.125)
        assert r.b == 10
        assert r.schedule.eta1 == pytest.approx(0.125 / 10, rel=1e-12)
        assert r.t_star == 100  # m^(1/2 + 1/2)

    def test_bgm_branches(self):
        assert recipe("BGM", 100).t_star == 10
        assert recipe("BGM", 100).schedule.eta1 == 0.125
        # non-attainable side needs epsilon
        with pytest.raises(ValueError, match="regime requires epsilon"):
            recipe("BGM", 100, zeta=0.2, gamma=0.5)
        r = recipe("BGM", 100, zeta=0.2, gamma=0.5, eps=0.5)
        assert r.t_star == 10  # ceil(100^0.5)

    def test_c11_c12_branches(self):
        assert recipe("C11", 100).t_star == 1000
        # alpha = 0.8 <= 1: T* = ceil(m^(2 - eps)) = ceil(100^1.5)
        assert recipe("C11", 100, zeta=0.2, gamma=0.4, eps=0.5).t_star == 1000
        assert recipe("C12", 100).t_star == 100
        with pytest.raises(ValueError, match="regime requires epsilon"):
            recipe("C12", 100, zeta=0.2, gamma=0.4)

    def test_b_family(self):
        r1 = recipe("B1", 100, zeta=0.4, gamma=0.9)
        # alpha = 1.7 > 1: eta1 = c * m^(-0.8/1.7), T* = ceil(m^(1.8/1.7))
        assert r1.schedule.eta1 == pytest.approx(0.125 * 100 ** (-0.8 / 1.7), rel=1e-12)
        assert r1.t_star == math.ceil(100 ** (1.8 / 1.7) - 1e-9)
        r2 = recipe("B2", 100, zeta=0.4, gamma=0.9)
        assert r2.b == math.ceil(100 ** (0.8 / 1.7) - 1e-9)
        r3 = recipe("B3", 100, zeta=0.4, gamma=0.9)
        assert r3.b == 100 and r3.t_star == r2.t_star

    @pytest.mark.parametrize("rid", RECIPE_IDS)
    def test_recipe_is_pure(self, rid):
        kwargs = dict(m=64, zeta=0.5, gamma=1.0, eps=0.3, c_eta=0.125)
        assert recipe(rid, **kwargs) == recipe(rid, **kwargs)

    @pytest.mark.parametrize("rid", RECIPE_IDS)
    @pytest.mark.parametrize("m", [10, 100, 1000])
    def test_b_in_range_and_tstar_positive(self, rid, m):
        r = recipe(rid, m, zeta=0.5, gamma=1.0, eps=0.3)
        assert 1 <= r.b <= m
        assert r.t_star >= 1
        assert r.passes >= 1

    @pytest.mark.parametrize("rid", ["C3", "C4"])
    @pytest.mark.parametrize("m", [64, 100, 256, 1000])
    def test_pass_counts_track_m_to_inverse_alpha(self, rid, m):
        """Both single-point and sqrt-batch settings consume about
        m^(1/(2 zeta + gamma)) passes, within ceiling effects."""
        zeta, gamma = 0.5, 1.0
        r = recipe(rid, m, zeta=zeta, gamma=gamma)
        target = m ** (1.0 / (2 * zeta + gamma))
        assert abs(r.passes - math.ceil(target)) <= 1

    def test_json_field_names(self):
        row = recipe("C3", 100).to_json_dict()
        assert set(row) == {"corollary", "b", "eta1", "theta", "t_star", "passes", "regime"}

    def test_table_covers_all_ids(self):
        table = recipe_table(100, eps=0.3)
        assert [r.corollary for r in table] == list(RECIPE_IDS)

    def test_table_at_one_point_leaves_out_the_log_m_recipes(self):
        table = recipe_table(1, eps=0.3)
        assert [r.corollary for r in table] == ["C3", "C4", "C5", "BGM", "C11", "C12", "B1"]
        with pytest.raises(ValueError, match="requires epsilon"):
            recipe_table(1, zeta=0.2, gamma=0.4)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            recipe("C3", 100, zeta=0.0)
        with pytest.raises(ValueError):
            recipe("C3", 100, gamma=1.5)
        with pytest.raises(ValueError):
            recipe("C3", 100, c_eta=0.0)
        with pytest.raises(ValueError):
            recipe("XX", 100)


# the ids the rule derives, each with the law it follows and the power of
# m in t_star at alpha' = 1, before eps is taken off
_RULE = {"C11": ("C3", lambda zeta: 2.0), "C12": ("C4", lambda zeta: 1.5),
         "B1": ("C5", lambda zeta: 1.0 + 2.0 * zeta), "B2": ("C6", lambda zeta: 1.0),
         "B3": ("C7", lambda zeta: 1.0), "BGM": ("BGM", lambda zeta: 1.0)}

_draws = dict(m=st.integers(2, 10**6), eps=st.floats(1e-3, 0.999),
                 c_eta=st.floats(1e-3, 10.0))


class TestRecipeRule:
    """C11, C12, B1, B2, B3 and BGM are C3..C7 and BGM at max(alpha, 1)."""

    @given(zeta=st.floats(1e-3, 3.0), gamma=st.floats(1e-3, 1.0), **_draws)
    def test_above_one_each_id_is_its_law(self, m, zeta, gamma, eps, c_eta):
        assume(2.0 * zeta + gamma > 1)
        for rid, (law, _) in _RULE.items():
            rec = recipe(rid, m, zeta=zeta, gamma=gamma, eps=eps, c_eta=c_eta)
            assert dataclasses.replace(rec, corollary=law) == recipe(
                law, m, zeta=zeta, gamma=gamma, eps=eps, c_eta=c_eta)

    @given(zeta=st.floats(1e-3, 0.499), gamma=st.floats(1e-3, 1.0), **_draws)
    def test_at_most_one_t_star_loses_eps(self, m, zeta, gamma, eps, c_eta):
        assume(2.0 * zeta + gamma <= 1)
        for rid, (_, power) in _RULE.items():
            rec = recipe(rid, m, zeta=zeta, gamma=gamma, eps=eps, c_eta=c_eta)
            assert rec.t_star == max(1, math.ceil(m ** (power(zeta) - eps) - 1e-9)), rid


# (b, eta1.hex(), t_star) of each id in RECIPE_IDS order, at c_eta = 1/8,
# keyed by (zeta, gamma, eps, m), as the per-id formulas gave them
_PINNED = {
    (0.5, 1.0, None, 2): [
        (1, "0x1.0000000000000p-4", 3), (2, "0x1.6a09e667f3bccp-4", 2),
        (1, "0x1.6a09e667f3bcdp-4", 2), (2, "0x1.71547652b82fep-3", 2),
        (2, "0x1.71547652b82fep-3", 2), (2, "0x1.0000000000000p-3", 2),
        (1, "0x1.0000000000000p-4", 3), (2, "0x1.6a09e667f3bccp-4", 2),
        (1, "0x1.6a09e667f3bcdp-4", 2), (2, "0x1.71547652b82fep-3", 2),
        (2, "0x1.71547652b82fep-3", 2),
    ],
    (0.5, 1.0, None, 1000): [
        (1, "0x1.0624dd2f1a9fcp-13", 31623), (32, "0x1.030dc4ea03a72p-8", 1000),
        (1, "0x1.030dc4ea03a72p-8", 1000), (32, "0x1.287a7636f435fp-6", 32),
        (1000, "0x1.287a7636f435fp-6", 32), (1000, "0x1.0000000000000p-3", 32),
        (1, "0x1.0624dd2f1a9fcp-13", 31623), (32, "0x1.030dc4ea03a72p-8", 1000),
        (1, "0x1.030dc4ea03a72p-8", 1000), (32, "0x1.287a7636f435fp-6", 32),
        (1000, "0x1.287a7636f435fp-6", 32),
    ],
    (0.25, 0.5, 0.3, 2): [
        (1, "0x1.0000000000000p-4", 4), (2, "0x1.6a09e667f3bccp-4", 3),
        (1, "0x1.6a09e667f3bcdp-4", 3), (2, "0x1.71547652b82fep-3", 2),
        (2, "0x1.71547652b82fep-3", 2), (2, "0x1.0000000000000p-3", 2),
        (1, "0x1.0000000000000p-4", 4), (2, "0x1.6a09e667f3bccp-4", 3),
        (1, "0x1.6a09e667f3bcdp-4", 3), (2, "0x1.71547652b82fep-3", 2),
        (2, "0x1.71547652b82fep-3", 2),
    ],
    (0.25, 0.5, 0.3, 1000): [
        (1, "0x1.0624dd2f1a9fcp-13", 1000000), (32, "0x1.030dc4ea03a72p-8", 31623),
        (1, "0x1.030dc4ea03a72p-8", 31623), (32, "0x1.287a7636f435fp-6", 1000),
        (1000, "0x1.287a7636f435fp-6", 1000), (1000, "0x1.0000000000000p-3", 126),
        (1, "0x1.0624dd2f1a9fcp-13", 125893), (32, "0x1.030dc4ea03a72p-8", 3982),
        (1, "0x1.030dc4ea03a72p-8", 3982), (32, "0x1.287a7636f435fp-6", 126),
        (1000, "0x1.287a7636f435fp-6", 126),
    ],
    (0.2, 0.4, 0.3, 2): [
        (1, "0x1.0000000000000p-4", 5), (2, "0x1.6a09e667f3bccp-4", 4),
        (1, "0x1.6a09e667f3bcdp-4", 4), (2, "0x1.71547652b82fep-3", 3),
        (2, "0x1.71547652b82fep-3", 3), (2, "0x1.0000000000000p-3", 2),
        (1, "0x1.0000000000000p-4", 4), (2, "0x1.6a09e667f3bccp-4", 3),
        (1, "0x1.8406003b2ae5cp-4", 3), (2, "0x1.71547652b82fep-3", 2),
        (2, "0x1.71547652b82fep-3", 2),
    ],
    (0.2, 0.4, 0.3, 1000): [
        (1, "0x1.0624dd2f1a9fcp-13", 5623414), (32, "0x1.030dc4ea03a72p-8", 177828),
        (1, "0x1.030dc4ea03a72p-8", 177828), (32, "0x1.287a7636f435fp-6", 5624),
        (1000, "0x1.287a7636f435fp-6", 5624), (1000, "0x1.0000000000000p-3", 126),
        (1, "0x1.0624dd2f1a9fcp-13", 125893), (32, "0x1.030dc4ea03a72p-8", 3982),
        (1, "0x1.0270ac3f8a9f9p-7", 1996), (16, "0x1.287a7636f435fp-6", 126),
        (1000, "0x1.287a7636f435fp-6", 126),
    ],
}


@pytest.mark.parametrize("key", list(_PINNED))
def test_recipes_equal_their_pinned_values(key):
    zeta, gamma, eps, m = key
    recipes = [recipe(rid, m, zeta=zeta, gamma=gamma, eps=eps) for rid in RECIPE_IDS]
    assert [(r.b, r.schedule.eta1.hex(), r.t_star) for r in recipes] == _PINNED[key]
