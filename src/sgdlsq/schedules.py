"""Step-size laws, their sanity check, pass counting, and parameter recipes.

The step-size law is eta_t = eta1 * kappa_sq^-1 * t^-theta with
theta in [0, 1), so ``eta1`` is expressed in units of the inverse
input-norm bound. ``validate_schedule`` compares a fixed-step schedule
against the 1 / (8 (ln T + 1)) envelope under which the convergence
analysis operates; it warns rather than rejects, since larger steps can
still converge on easy problems.

``recipe`` instantiates the named (mini-batch size, step law, stopping
iteration) settings that make early stopping rate-optimal for given
regularity ``zeta`` and capacity decay ``gamma``. The proportionality
constant hidden in each "about equal" choice is a single knob ``c_eta``
defaulting to 1/8. Logarithms are natural. The confidence level of the
underlying high-probability statements has no runtime effect and is
intentionally not a parameter.
"""

import math
from dataclasses import dataclass

import numpy as np

RECIPE_IDS = ("C3", "C4", "C5", "C6", "C7", "BGM", "C11", "C12", "B1", "B2", "B3")
# the recipes whose step size scales with 1/ln m, undefined at m = 1
_LOG_M_IDS = ("C6", "C7", "B2", "B3")


@dataclass(frozen=True)
class StepSchedule:
    """eta_t = eta1 / kappa_sq * t^-theta for t >= 1."""

    eta1: float
    theta: float = 0.0
    kappa_sq: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.eta1) and self.eta1 > 0):
            raise ValueError(f"eta1 must be positive and finite, got {self.eta1}")
        if not (0.0 <= self.theta < 1.0):
            raise ValueError(f"theta must lie in [0, 1), got {self.theta}")
        # any positive bound on K(x, x) will do: points near 0 give a
        # linear kernel's kappa^2 far below 1
        if not (0 < self.kappa_sq < math.inf
                and math.isfinite(float(self.eta1) / float(self.kappa_sq))):
            raise ValueError(f"kappa_sq must be positive with eta1 / kappa_sq finite, "
                             f"got {self.kappa_sq}")

    def etas(self, T: int) -> np.ndarray:
        """Vector (eta_1, ..., eta_T)."""
        t = np.arange(1, T + 1, dtype=np.float64)
        return self.eta1 / self.kappa_sq * t ** (-self.theta)


@dataclass(frozen=True)
class ScheduleCheck:
    ok: bool
    eta1: float
    limit: float
    ratio: float
    message: str


def validate_schedule(schedule: StepSchedule, T: int) -> ScheduleCheck:
    """Advisory check of eta1 against 1 / (8 (ln T + 1)).

    Never rejects; a ratio above 1 means the schedule exceeds the
    envelope assumed by the worst-case analysis.
    """
    if T < 3:
        raise ValueError(f"validation assumes T >= 3, got {T}")
    limit = 1.0 / (8.0 * (math.log(T) + 1.0))
    ratio = schedule.eta1 / limit
    if ratio <= 1.0:
        msg = f"ok: eta1={schedule.eta1:.6g} within limit {limit:.6g}"
        return ScheduleCheck(True, schedule.eta1, limit, ratio, msg)
    msg = (
        f"warning: eta1={schedule.eta1:.6g} exceeds 1/(8(ln T + 1))={limit:.6g} "
        f"(ratio {ratio:.4g}); convergence is not guaranteed in the worst case"
    )
    return ScheduleCheck(False, schedule.eta1, limit, ratio, msg)


def passes(b: int, t: int, m: int) -> int:
    """Data passes consumed after t iterations with mini-batch size b:
    ceil(b t / m), in exact integer arithmetic."""
    if b < 1 or t < 1 or m < 1:
        raise ValueError(f"passes needs b, t, m >= 1, got b={b}, t={t}, m={m}")
    return -((-b * t) // m)


def _ceil_guarded(x: float) -> int:
    """Integer ceiling with a 1e-9 guard against representation error."""
    return max(1, math.ceil(x - 1e-9))


@dataclass(frozen=True)
class Recipe:
    """A (mini-batch size, step schedule, stopping iteration) setting."""

    corollary: str
    b: int
    schedule: StepSchedule
    t_star: int
    m: int
    regime: str

    def __post_init__(self):
        if not (1 <= self.b <= self.m):
            raise ValueError(f"mini-batch size {self.b} out of range [1, {self.m}]")
        if self.t_star < 1:
            raise ValueError(f"t_star must be >= 1, got {self.t_star}")

    @property
    def passes(self) -> int:
        return passes(self.b, self.t_star, self.m)

    @property
    def is_batch(self) -> bool:
        """BGM, the one recipe that runs the deterministic full-gradient
        iteration instead of sampled mini-batches."""
        return self.corollary == "BGM"

    def to_json_dict(self) -> dict:
        return {
            "corollary": self.corollary,
            "b": self.b,
            "eta1": self.schedule.eta1,
            "theta": self.schedule.theta,
            "t_star": self.t_star,
            "passes": self.passes,
            "regime": self.regime,
        }


# the attainable-case laws: (b, eta1, power of m in t_star) from
# (m, zeta, alpha, c_eta); keep each expression's operation order, since a
# reordered one can differ by an ulp and the recipes' bits are pinned
_LAWS = {
    "C3": lambda m, zeta, alpha, c: (1, c / float(m), 1.0 + 1.0 / alpha),
    "C4": lambda m, zeta, alpha, c: (_ceil_guarded(math.sqrt(m)), c / math.sqrt(m),
                                     1.0 / alpha + 0.5),
    "C5": lambda m, zeta, alpha, c: (1, c * float(m) ** (-2.0 * zeta / alpha),
                                     (2.0 * zeta + 1.0) / alpha),
    "C6": lambda m, zeta, alpha, c: (_ceil_guarded(float(m) ** (2.0 * zeta / alpha)),
                                     c / math.log(m), 1.0 / alpha),
    "C7": lambda m, zeta, alpha, c: (m, c / math.log(m), 1.0 / alpha),
    "BGM": lambda m, zeta, alpha, c: (m, c, 1.0 / alpha),
}
# the rule: these ids follow a law at alpha' = max(alpha, 1), which holds
# for any 2 zeta + gamma; where alpha <= 1, t_star's power of m loses eps
_RULE = {"C11": "C3", "C12": "C4", "B1": "C5", "B2": "C6", "B3": "C7", "BGM": "BGM"}


def recipe(
    rid: str,
    m: int,
    zeta: float = 0.5,
    gamma: float = 1.0,
    eps: float | None = None,
    c_eta: float = 0.125,
    kappa_sq: float = 1.0,
) -> Recipe:
    """Instantiate one named parameter recipe for sample size ``m``.

    C3..C7 are the attainable-case laws at alpha = 2*zeta + gamma. C11,
    C12, B1..B3 and BGM follow C3..C7 and BGM at max(alpha, 1), so only
    they consult ``eps``, and require it where alpha <= 1. All step laws
    here are constant in t (theta = 0).
    """
    if rid not in RECIPE_IDS:
        raise ValueError(f"unknown recipe id {rid!r}, expected one of {RECIPE_IDS}")
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m}")
    if not zeta > 0:  # also refuses nan
        raise ValueError(f"zeta must be > 0, got {zeta}")
    if not (0 < gamma <= 1):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if not c_eta > 0:
        raise ValueError(f"c_eta must be > 0, got {c_eta}")
    if eps is not None and not (0 < eps < 1):
        raise ValueError(f"eps must lie in (0, 1), got {eps}")

    alpha = 2.0 * zeta + gamma
    if rid in _LOG_M_IDS and math.log(m) <= 0:
        raise ValueError(f"recipe {rid} needs m >= 2 (its step size scales with 1/ln m)")
    clamped = rid in _RULE and not alpha > 1  # the regime label's test, nan alike
    b, eta1, power = _LAWS[_RULE.get(rid, rid)](m, zeta, 1.0 if clamped else alpha, c_eta)
    if clamped:
        if eps is None:
            raise ValueError(f"recipe {rid}: regime requires epsilon (2*zeta + gamma <= 1)")
        power -= eps
    t_star = _ceil_guarded(float(m) ** power)

    regime = "{},{}".format(
        "attainable" if zeta >= 0.5 else "non-attainable",
        "2zeta+gamma>1" if alpha > 1 else "2zeta+gamma<=1",
    )
    sched = StepSchedule(eta1=eta1, theta=0.0, kappa_sq=kappa_sq)
    return Recipe(corollary=rid, b=b, schedule=sched, t_star=t_star, m=m, regime=regime)


def recipe_table(
    m: int,
    zeta: float = 0.5,
    gamma: float = 1.0,
    eps: float | None = None,
    c_eta: float = 0.125,
) -> list[Recipe]:
    """The recipes defined at sample size ``m``, in ``RECIPE_IDS`` order: at
    m = 1 those whose step size scales with 1/ln m (C6, C7, B2, B3) are
    left out. Parameters no recipe accepts, or a missing ``eps`` where the
    regime needs it, still raise."""
    return [recipe(rid, m, zeta=zeta, gamma=gamma, eps=eps, c_eta=c_eta)
            for rid in RECIPE_IDS if m != 1 or rid not in _LOG_M_IDS]
