"""Numeric verification of the closed-form estimates the step-size and
stopping analysis relies on.

Each check computes a brute-force left-hand side with compensated
summation and compares it against its closed-form bound. These are
regression tests for arithmetic conventions (natural logarithms, index
ranges, the empty-sum and empty-product conventions), not runtime
guards: a failing verdict means the implementation and the analysis
disagree about a deterministic fact.

Check ids:

* ``sum-lower``: t^(1-theta) / 2 <= sum_{k<=t} k^-theta, theta in [0, 1).
* ``sum-upper-log``: sum_{k<=t} k^-theta <= t^max(1-theta,0) (1 + ln t).
* ``convolution``: sum_{k<t} k^-q / (t-k) <= 2 t^-min(q,1) (1 + ln t), t >= 3.
* ``contraction``: max_sigma prod_{l=k+1..t}(1 - eta_l sigma) sigma^zeta
  <= (zeta / (e * sum_{l=k+1..t} eta_l))^zeta for a nonnegative spectrum
  with eta_1 * max(sigma) <= 1.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import make_rng
from .schedules import StepSchedule

_PASS_TOL = 1e-12


def fsum(values):
    """Exactly rounded sum of an iterable or array of floats."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    return math.fsum(values)


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of one inequality check: passes iff lhs <= bound up to
    a 1e-12 relative slack."""

    lemma: str
    params: dict
    lhs: float
    bound: float

    @property
    def slack(self) -> float:
        return self.bound - self.lhs

    @property
    def passed(self) -> bool:
        return _passes(self.slack, self.bound)


def _passes(slack, bound) -> bool:
    return slack >= -_PASS_TOL * max(1.0, abs(bound))


def check_sum_bounds(theta: float, t: int):
    """Verdicts for the power-sum estimates at one (theta, t) point.

    Returns a list: the ``sum-lower`` verdict (only when theta is in
    [0, 1), its range of validity) followed by the ``sum-upper-log``
    verdict (any real theta).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    k = np.arange(1, t + 1, dtype=np.float64)
    total = fsum(k ** (-theta))
    out = []
    if 0.0 <= theta < 1.0:
        out.append(
            LemmaVerdict(
                lemma="sum-lower",
                params={"theta": theta, "t": t},
                lhs=t ** (1.0 - theta) / 2.0,
                bound=total,
            )
        )
    out.append(
        LemmaVerdict(
            lemma="sum-upper-log",
            params={"theta": theta, "t": t},
            lhs=total,
            bound=t ** max(1.0 - theta, 0.0) * (1.0 + math.log(t)),
        )
    )
    return out


def check_convolution_bound(q: float, t: int) -> LemmaVerdict:
    """Verdict for the convolution sum estimate at one (q, t) point."""
    if t < 3:
        raise ValueError(f"the convolution estimate needs t >= 3, got {t}")
    k = np.arange(1, t, dtype=np.float64)
    total = fsum(k ** (-q) / (t - k))
    return LemmaVerdict(
        lemma="convolution",
        params={"q": q, "t": t},
        lhs=total,
        bound=2.0 * t ** (-min(q, 1.0)) * (1.0 + math.log(t)),
    )


def _check_contraction_inputs(eigs, schedule, zetas, cuts):
    """The preconditions of the contraction estimate for spectra ``eigs``
    (one per row of a block, or a single one), each zeta and each cut (t, k)."""
    if eigs.shape[-1] == 0:
        raise ValueError("need at least one eigenvalue")
    if np.any(eigs < 0):
        raise ValueError("eigenvalues must be nonnegative")
    for zeta in zetas:
        if not zeta > 0:  # also refuses nan
            raise ValueError(f"zeta must be > 0, got {zeta}")
    for t, k in cuts:
        if not 0 <= k <= t - 1:
            raise ValueError(f"need 0 <= k <= t-1, got k={k}, t={t}")
    eta_top = schedule.etas(1)[0] * float(np.max(eigs))
    if eta_top > 1.0 + 1e-12:
        raise ValueError(f"step-size precondition violated: eta_1 * max(eig) = {eta_top:.6g} > 1")


def check_contraction_bound(
    eigs, schedule: StepSchedule, zeta: float, k: int, t: int
) -> LemmaVerdict:
    """Verdict for the spectral contraction estimate.

    ``eigs`` is the (nonnegative) spectrum of a compact positive
    operator; the product over steps l = k+1 .. t uses the schedule's
    eta_l, and an empty product (never reached here since k <= t-1)
    would be 1 by convention. One cut of :func:`_contraction_grid`.
    """
    eigs = np.asarray(eigs, dtype=np.float64).reshape(-1)
    _check_contraction_inputs(eigs, schedule, (zeta,), ((t, k),))
    lhs, bound = _contraction_grid(eigs[None], [schedule], (zeta,), [(t, k)])
    return LemmaVerdict(
        lemma="contraction",
        params={"zeta": zeta, "k": k, "t": t, "theta": schedule.theta, "eta1": schedule.eta1},
        lhs=float(lhs[0, 0, 0, 0]),
        bound=float(bound[0, 0, 0]),
    )


def log_spaced_ts(t_max: int, count: int = 25, t_min: int = 1) -> list:
    """Distinct integer grid points from t_min to t_max, log spaced."""
    if t_max < t_min:
        raise ValueError(f"t_max must be >= {t_min}, got {t_max}")
    if count < 1:
        raise ValueError(f"grid point count must be >= 1, got {count}")
    # not np.unique, which imports numpy.ma (about 10-20 ms) on first use
    return sorted(set(np.geomspace(t_min, t_max, num=count).round().astype(int).tolist()))


def sweep_contraction(
    n_spectra: int = 100,
    zetas=(0.5, 1.0, 2.0),
    thetas=(0.0, 0.5),
    t_max: int = 200,
    seed: int = 7,
    dim: int = 24,
) -> list:
    """Random-spectrum sweep: spectra in (0, 1], several (k, t) cuts.

    Grouped per cut: for each theta and (t, k) one (n_spectra, dim, t-k)
    product, formed in place in one buffer (:func:`_contraction_grid`),
    gives every spectrum's contraction factors, and each zeta one max
    over that block. The verdicts equal
    :func:`check_contraction_bound` on each (spectrum, theta, zeta, t, k)
    bit for bit, in that order.
    """
    rng = make_rng(seed)
    ts = log_spaced_ts(t_max, count=6, t_min=2)
    cuts = [(t, k) for t in ts for k in (0, t // 2)]
    zetas, thetas = tuple(zetas), tuple(thetas)
    if n_spectra <= 0 or not (zetas and thetas):
        return []
    # one Philox stream, as n_spectra draws of dim values
    spectra = rng.random((n_spectra, dim)) * (1.0 - 1e-9) + 1e-9
    # eta_1 * max(eig) <= 1 holds since spectra live in (0, 1]
    schedules = [StepSchedule(eta1=1.0, theta=theta, kappa_sq=1.0) for theta in thetas]
    for schedule in schedules:
        _check_contraction_inputs(spectra, schedule, zetas, cuts)
    lhs, bound = _contraction_grid(spectra, schedules, zetas, cuts)
    return [
        LemmaVerdict(
            lemma="contraction",
            params={"zeta": zeta, "k": k, "t": t, "theta": schedule.theta,
                    "eta1": schedule.eta1},
            lhs=lhs_ijc,
            bound=bound_ijc,
        )
        for lhs_s in lhs.tolist()
        for schedule, lhs_i, bound_i in zip(schedules, lhs_s, bound.tolist())
        for zeta, lhs_ij, bound_ij in zip(zetas, lhs_i, bound_i)
        for (t, k), lhs_ijc, bound_ijc in zip(cuts, lhs_ij, bound_ij)
    ]


def _contraction_grid(spectra, schedules, zetas, cuts):
    """The sweep's left-hand sides, (n_spectra, theta, zeta, cut), and
    bounds, (theta, zeta, cut). The factors 1 - sigma eta_l of each cut
    are formed in place in one buffer, sized for the longest cut and
    freed on return."""
    powers = [spectra**zeta for zeta in zetas]
    lhs = np.empty((len(spectra), len(schedules), len(zetas), len(cuts)))
    bound = np.empty(lhs.shape[1:])
    buf = np.empty(spectra.size * max(t - k for t, k in cuts))
    for i, schedule in enumerate(schedules):
        for c, (t, k) in enumerate(cuts):
            etas = schedule.etas(t)[k:t]
            # contiguous, as the out-of-place product was
            factors = buf[:spectra.size * len(etas)].reshape(spectra.shape + etas.shape)
            np.multiply(spectra[:, :, None], etas, out=factors)
            prods = np.prod(np.subtract(1.0, factors, out=factors), axis=2)
            eta_total = fsum(etas)
            for j, zeta in enumerate(zetas):
                lhs[:, i, j, c] = np.max(prods * powers[j], axis=1)
                bound[i, j, c] = (zeta / (math.e * eta_total)) ** zeta
    return lhs, bound


def _csv_field(text):
    """``text`` as ``csv.writer`` writes it by default: in quotes, with
    each quote doubled, if it holds a comma, a quote or a line break."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def verdicts_to_csv(verdicts, path) -> None:
    """Write verdicts as CSV: lemma, params, lhs, bound, slack, pass.

    One formatted line per verdict, byte for byte what ``csv.writer``
    writes (CRLF line ends, minimal quoting), with ``slack`` and ``pass``
    as :class:`LemmaVerdict` computes them.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("lemma,params,lhs,bound,slack,pass\r\n")
        for v in verdicts:
            text = ";".join([f"{k}={val}" for k, val in v.params.items()])
            lhs, bound = v.lhs, v.bound
            slack = bound - lhs
            fh.write(f"{_csv_field(v.lemma)},{_csv_field(text)},{lhs!r},{bound!r},{slack!r},"
                     f"{_passes(slack, bound)}\r\n")


def acceptance_sweep(t_max: int = 10_000) -> list:
    """The shipped regression grid; every verdict must pass."""
    ts = log_spaced_ts(t_max)
    thetas = [round(0.1 * i, 1) for i in range(10)]
    qs = [-1.0, 0.0, 0.5, 1.0, 2.0]
    sums = [v for theta in thetas for t in ts for v in check_sum_bounds(theta, t)]
    convolutions = [check_convolution_bound(q, t) for q in qs for t in ts if t >= 3]
    return sums + convolutions + sweep_contraction()
