"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and
asserts the same condition, so the suite doubles as a checklist:

 1. deterministic bound sweep, zero failures
 2. plan-averaged mini-batch run matches the batch run (4 sigma)
 3. decomposition inequality on the bundled replica, bias monotone,
    sampling term negligible at the total-error minimizer
 4. population bias decay bound, zero violations up to t = 1000
 5. single-point-batch learning-curve slope in [-0.75, -0.30]
 6. full-batch learning-curve slope in the same band, risk within 2x
    of the sampled method at matched sample size
 7. sqrt-batch and single-point settings within 1.5x at their own
    stopping iterations
 8. squared norm distance to the generating vector strictly decreasing
    in m, fitted slope below -0.15
 9. best-checkpoint test misclassification of the three bundled batch
    sizes within 0.03 of one another
"""

import math
import time

import numpy as np
import pytest

from sgdlsq import (
    KernelSpec,
    Sample,
    StepSchedule,
    Trajectory,
    abs_target,
    acceptance_sweep,
    cross_matrix,
    decompose,
    fit_rate,
    gen_linear_attainable,
    gen_synthetic_abs,
    h_norm_error,
    load_csv,
    log_checkpoints,
    minmax_scale,
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
    save_csv,
    split,
    unbiasedness_check,
)

GAUSS = KernelSpec("gaussian", sigma=0.2)
M_GRID = (64, 128, 256, 512, 1024)


def _report(number, ok, detail):
    print(f"[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def shared_surrogate():
    """2000 uniform surrogate points reused by every risk measurement."""
    return np.random.Generator(np.random.Philox(99)).random(2000)


def _risk_at_tstar(rid, m, trials, base_seed, surrogate):
    """Mean excess risk of one recipe at its own stopping iteration,
    averaged over fresh samples (and index plans where applicable)."""
    rec = recipe(rid, m, zeta=0.5, gamma=1.0, c_eta=0.125)
    streams = [mix_seed(base_seed, trial) for trial in range(trials)]
    samples = [gen_synthetic_abs(m, seed=mix_seed(s, 0), noise_sd=1.0) for s in streams]
    if rec.is_batch:
        finals = [run_batch_gm(s, GAUSS, rec.schedule, rec.t_star, (rec.t_star,)).coeffs[0]
                  for s in samples]
    else:
        table = sample_index_table(m, rec.b, rec.t_star, [mix_seed(s, 1) for s in streams])
        finals = run_sgm_trials(samples, GAUSS, rec.schedule, table, (rec.t_star,))[0]
    f_surr = abs_target(surrogate)
    risks = [np.mean((cross_matrix(GAUSS, surrogate, s.x) @ c - f_surr) ** 2)
             for s, c in zip(samples, finals)]
    return float(np.mean(risks))


@pytest.fixture(scope="module")
def c3_risks(shared_surrogate):
    start = time.perf_counter()
    risks = [
        _risk_at_tstar("C3", m, 20, mix_seed(1, mi), shared_surrogate)
        for mi, m in enumerate(M_GRID)
    ]
    return risks, time.perf_counter() - start


@pytest.fixture(scope="module")
def bgm_risks(shared_surrogate):
    # same per-m sample streams as the C3 runs, for a paired comparison
    return [
        _risk_at_tstar("BGM", m, 20, mix_seed(1, mi), shared_surrogate)
        for mi, m in enumerate(M_GRID)
    ]


def test_criterion_1_bound_sweep_all_pass():
    start = time.perf_counter()
    verdicts = acceptance_sweep(t_max=10_000)
    elapsed = time.perf_counter() - start
    failures = [v for v in verdicts if not v.passed]
    ok = _report(
        1,
        len(failures) == 0 and elapsed < 60,
        f"{len(verdicts)} checks, {len(failures)} failures, {elapsed:.1f}s",
    )
    assert ok, failures[:5]


def test_criterion_2_plan_average_matches_batch_run():
    m = 16
    sample = gen_synthetic_abs(m, seed=mix_seed(501, 0), noise_sd=1.0)
    start = time.perf_counter()
    rep = unbiasedness_check(
        sample,
        StepSchedule(1.0 / (8 * m)),
        b=1,
        t=64,
        R=4000,
        base_seed=mix_seed(501, 1),
        ctx=GAUSS,
    )
    elapsed = time.perf_counter() - start
    ok = _report(
        2,
        rep.passed and elapsed < 30,
        f"deviation {rep.deviation:.3e} <= bound {rep.bound:.3e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_3_decomposition_inequality_and_negligible_sampling_term():
    m = 100
    sample = gen_synthetic_abs(m, seed=mix_seed(2024, 0), noise_sd=1.0)
    surr = np.random.Generator(np.random.Philox(mix_seed(2024, 1))).random(2000)
    start = time.perf_counter()
    rep = decompose(
        sample,
        surr,
        abs_target,
        GAUSS,
        StepSchedule(1.0 / (8 * math.sqrt(m))),
        b=10,
        T=500,
        R=50,
        base_seed=mix_seed(2024, 2),
        checkpoints=log_checkpoints(500, 25),
    )
    elapsed = time.perf_counter() - start
    ineq = all(rep.ineq_ok)
    diffs = np.diff(rep.bias_sq)
    bias_monotone = bool(np.all(diffs <= 1e-12 * np.maximum(1.0, rep.bias_sq[:-1])))
    i_min = rep.checkpoints.index(rep.total_minimizer())
    ratio = rep.comp_var_sq[i_min] / (rep.bias_sq[i_min] + rep.sample_var_sq[i_min])
    negligible = ratio <= 0.1
    ok = _report(
        3,
        ineq and bias_monotone and negligible and elapsed < 120,
        f"ineq everywhere={ineq}, bias monotone={bias_monotone}, "
        f"sampling/(bias+sample)={ratio:.3f} at t={rep.total_minimizer()}, {elapsed:.1f}s",
    )
    assert ok


def _source_constant(x_hat, w_star, zeta):
    cov = x_hat.T @ x_hat / x_hat.shape[0]
    s, v = np.linalg.eigh(cov)
    proj = v.T @ w_star
    return math.sqrt(float(np.sum(s ** (1.0 - 2.0 * zeta) * proj**2)))


def test_criterion_4_population_bias_decay_bound():
    T = 1000
    violations = 0
    checked = 0
    for d, seed, theta in ((2, 0, 0.0), (5, 1, 0.3), (8, 2, 0.0)):
        rng = np.random.Generator(np.random.Philox(seed))
        x_hat = rng.standard_normal((400, d))
        norms = np.linalg.norm(x_hat, axis=1)
        x_hat[norms > 1] /= norms[norms > 1, None]
        w_star = rng.standard_normal(d)
        sch = StepSchedule(0.5, theta)
        traj = run_population(x_hat, None, lambda p: p @ w_star, sch, T, tuple(range(1, T + 1)))
        f_vals = x_hat @ w_star
        bias = np.sqrt(np.mean((x_hat @ traj.coeffs.T - f_vals[:, None]) ** 2, axis=0))
        eta_cum = np.cumsum(sch.etas(T))
        for zeta in (0.5, 1.0):
            bound = _source_constant(x_hat, w_star, zeta) * (zeta / (2.0 * eta_cum)) ** zeta
            violations += int(np.sum(bias > bound + 1e-12))
            checked += T
    ok = _report(4, violations == 0, f"{checked} bound evaluations, {violations} violations")
    assert ok


def test_criterion_5_single_point_rate_slope(c3_risks):
    risks, elapsed = c3_risks
    fit = fit_rate(list(zip(M_GRID, risks)))
    ok = _report(
        5,
        -0.75 <= fit.slope <= -0.30 and elapsed < 600,
        f"slope {fit.slope:.3f} (theory -0.5), {elapsed:.0f}s",
    )
    assert ok, risks


def test_criterion_6_batch_rate_slope_and_parity(c3_risks, bgm_risks):
    fit = fit_rate(list(zip(M_GRID, bgm_risks)))
    slope_ok = -0.75 <= fit.slope <= -0.30
    ratios = [b / s for b, s in zip(bgm_risks, c3_risks[0])]
    parity_ok = all(0.5 <= r <= 2.0 for r in ratios)
    ok = _report(
        6,
        slope_ok and parity_ok,
        f"slope {fit.slope:.3f}, batch/sampled ratios {[round(r, 2) for r in ratios]}",
    )
    assert ok


def test_criterion_7_minibatch_and_single_point_parity(shared_surrogate):
    details = []
    ok = True
    for mi, m in enumerate((100, 400)):
        r3 = _risk_at_tstar("C3", m, 20, mix_seed(7, mi), shared_surrogate)
        r4 = _risk_at_tstar("C4", m, 20, mix_seed(8, mi), shared_surrogate)
        worst = max(r3 / r4, r4 / r3)
        ok = ok and worst <= 1.5
        details.append(f"m={m}: ratio {worst:.2f}")
    ok = _report(7, ok, "; ".join(details))
    assert ok


def test_criterion_8_norm_convergence_on_attainable_instances():
    d = 10
    w_star = np.random.Generator(np.random.Philox(5)).standard_normal(d)
    w_star /= np.linalg.norm(w_star)
    errors = []
    for mi, m in enumerate(M_GRID):
        rec = recipe("C3", m, zeta=0.5, gamma=1.0, c_eta=0.125)
        streams = [mix_seed(mix_seed(77, mi), trial) for trial in range(10)]
        drawn = [gen_linear_attainable(m, d, w_star, noise_sd=0.5, seed=mix_seed(s, 0))
                 for s in streams]
        table = sample_index_table(m, rec.b, rec.t_star, [mix_seed(s, 1) for s in streams])
        block = run_sgm_trials([smp for smp, _ in drawn], None, rec.schedule, table,
                               (rec.t_star,))
        vals = [h_norm_error(Trajectory((rec.t_star,), block[:, r]), w)[0]
                for r, (_, w) in enumerate(drawn)]
        errors.append(float(np.mean(vals)))
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    fit = fit_rate(list(zip(M_GRID, errors)))
    ok = _report(
        8,
        decreasing and fit.slope < -0.15,
        f"strictly decreasing={decreasing}, slope {fit.slope:.3f}",
    )
    assert ok, errors


def test_criterion_9_classification_parity_across_batch_sizes(tmp_path):
    rng = np.random.Generator(np.random.Philox(31337))
    n_half = 300
    centers = np.array([0.9, -0.6, 0.4, -0.2])
    x = np.vstack(
        [rng.normal(centers, 0.9, (n_half, 4)), rng.normal(-centers, 0.9, (n_half, 4))]
    )
    y = np.concatenate([np.ones(n_half), -np.ones(n_half)])
    path = tmp_path / "labels.csv"
    save_csv(Sample(x=x, y=y), path)
    scaled, _ = minmax_scale(load_csv(path))
    train, val, test = split(scaled, (0.5, 0.2, 0.3), seed=mix_seed(900, 0))
    m = train.m
    kernel = KernelSpec("gaussian", sigma=0.5)
    root_m = int(np.ceil(np.sqrt(m)))
    passes_budget = 30
    best = {}
    for name, b, eta in (
        ("single-point", 1, 1.0 / (8 * m)),
        ("sqrt-batch", root_m, 1.0 / (8 * root_m)),
        ("full-batch", m, 1.0 / 8),
    ):
        T = int(np.ceil(passes_budget * m / b))
        cps = log_checkpoints(T, 15)
        sch = StepSchedule(eta)
        if name == "full-batch":
            traj = run_batch_gm(train, kernel, sch, T, cps)
        else:
            plan = sample_index_plan(m, b, T, mix_seed(900, 1))
            traj = run_sgm(train, kernel, sch, plan, cps)
        best[name] = float(prediction_errors(predict(traj, test.x), test.y, "zero-one").min())
    spread = max(best.values()) - min(best.values())
    ok = _report(
        9,
        spread <= 0.03,
        f"best test errors {({k: round(v, 3) for k, v in best.items()})}, spread {spread:.3f}",
    )
    assert ok
