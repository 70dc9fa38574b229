"""Command-line front end: seeded experiments in, CSV/JSON artifacts out.

Subcommands
-----------
decompose   error-decomposition curves for one training run
rates       excess risk across a sample-size grid plus a log-log rate fit
recipes     the (b, step size, stopping iteration) table for given m
lemmas      the deterministic bound-check sweep (nonzero exit on failure)
run         train one model with hold-out early stopping

Every artifact embeds its fully resolved configuration (flags, seeds,
generator names), so rerunning an artifact's embedded config reproduces
it bit for bit. Exit codes: 0 all requested checks passed; 1 a check
failed; 2 usage error; 3 unreadable or unwritable file; 4 invalid
configuration; 5 divergence.
"""

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import acceptance_sweep, verdicts_to_csv
from .data import abs_target, gen_synthetic_abs, load_csv, minmax_scale, split
from .decomposition import decompose, decompose_batch, fit_rate
from .errors import DataFormatError, DivergenceError
from .iterations import (log_checkpoints, run_batch_gm, run_sgm, run_sgm_trials,
                         sample_index_plan)
from .kernels import KernelSpec, cross_matrix, kappa_sq
from .rng import GENERATOR_NAME, SEED_MIXER_NAME, make_rng, mix_seed
from .schedules import RECIPE_IDS, StepSchedule, recipe, recipe_table, validate_schedule
from .spaces import AnchorSet
from .stopping import holdout_stop

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4
EXIT_DIVERGED = 5

_PRESETS = {
    # the three bundled experiment configurations: b = sqrt(m) with
    # eta = 1/(8 sqrt(m)); b = 1 with eta = 1/(8m); full batch with eta = 1/8
    "sec9-minibatch": {"m": 100, "b": 10, "eta1": 1.0 / 80, "T": 500, "algorithm": "sgm"},
    "sec9-sgm": {"m": 100, "b": 1, "eta1": 1.0 / 800, "T": 5000, "algorithm": "sgm"},
    "sec9-batch": {"m": 100, "b": 100, "eta1": 1.0 / 8, "T": 60, "algorithm": "batch"},
}

_DECOMPOSE_DEFAULTS = {
    "m": 100,
    "noise_sd": 1.0,
    "sigma": 0.2,
    "b": 10,
    "eta1": 1.0 / 80,
    "theta": 0.0,
    "T": 500,
    "R": 50,
    "N": 2000,
    "surrogate": "iid",
    "checkpoints": 25,
    "seed": 1234,
    "algorithm": "sgm",
}


def _load_config_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise OSError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return cfg


def _file_value(name, val, want):
    """A config-file value of its flag's type; ints pass for floats."""
    if isinstance(val, bool) or not isinstance(val, (int, float) if want is float else want):
        raise ValueError(f"config key {name!r} must be {want.__name__}, got {val!r}")
    return want(val)


# keys an artifact's embedded config carries besides its flags; ``threads``
# is a retired flag that older artifacts still hold
_PROVENANCE_KEYS = ("preset", "generator", "seed_mixer", "version", "threads")


def _resolve(args, names, defaults, preset=None):
    """Fill unset flags from (in order) the config file, the preset, and
    the built-in defaults; returns the fully explicit config dict."""
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - set(names) - set(_PROVENANCE_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    out = {}
    for name in names:
        val = file_cfg.get(name)
        if val is not None:
            val = _file_value(name, val, type(defaults[name]))
        if getattr(args, name, None) is not None:
            val = getattr(args, name)
        if val is None and preset:
            val = preset.get(name)
        if val is None:
            val = defaults.get(name)
        out[name] = val
    return out


def _provenance(cfg):
    return dict(cfg, generator=GENERATOR_NAME, seed_mixer=SEED_MIXER_NAME, version=__version__)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _surrogate_points(kind, n, seed):
    if kind == "grid":
        return np.linspace(0.0, 1.0, n)
    if kind == "iid":
        return make_rng(seed).random(n)
    raise ValueError(f"unknown surrogate kind {kind!r}")



def cmd_decompose(args):
    preset = _PRESETS.get(args.preset) if args.preset else None
    if args.preset and preset is None:
        raise ValueError(f"unknown preset {args.preset!r}")
    names = list(_DECOMPOSE_DEFAULTS)
    cfg = _resolve(args, names, _DECOMPOSE_DEFAULTS, preset)
    cfg["preset"] = args.preset

    sample = gen_synthetic_abs(cfg["m"], seed=mix_seed(cfg["seed"], 0), noise_sd=cfg["noise_sd"])
    kernel = KernelSpec("gaussian", sigma=cfg["sigma"])
    schedule = StepSchedule(eta1=cfg["eta1"], theta=cfg["theta"], kappa_sq=kappa_sq(kernel))
    surr = _surrogate_points(cfg["surrogate"], cfg["N"], seed=mix_seed(cfg["seed"], 1))
    surr_anchor = AnchorSet.build(kernel, surr, check_psd=False)
    cps = log_checkpoints(cfg["T"], cfg["checkpoints"])

    if cfg["algorithm"] == "batch":
        report = decompose_batch(sample, surr_anchor, abs_target, kernel, schedule, cfg["T"], cps)
    else:
        report = decompose(
            sample,
            surr_anchor,
            abs_target,
            kernel,
            schedule,
            b=cfg["b"],
            T=cfg["T"],
            R=cfg["R"],
            base_seed=mix_seed(cfg["seed"], 2),
            checkpoints=cps,
        )
    report = dataclasses.replace(report, config=_provenance(cfg))
    report.to_csv(args.out + ".csv")
    _write_json(args.out + ".json", report.to_json_dict())
    bad = [t for t, ok in zip(report.checkpoints, report.ineq_ok) if not ok]
    if bad:
        print(f"decomposition inequality violated at checkpoints {bad}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print(f"wrote {args.out}.csv and {args.out}.json "
          f"(total minimized at t={report.total_minimizer()})")
    return EXIT_OK


def _parse_grid(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"grid must be comma-separated integers, got {text!r}") from None


def cmd_rates(args):
    m_grid = _parse_grid(args.m_grid)
    if len(m_grid) < 3:
        raise ValueError("rates needs a grid of at least 3 sample sizes")
    cfg = {
        "recipe": args.recipe,
        "zeta": args.zeta,
        "gamma": args.gamma,
        "c_eta": args.c_eta,
        "m_grid": m_grid,
        "trials": args.trials,
        "noise_sd": args.noise_sd,
        "sigma": args.sigma,
        "N": args.N,
        "seed": args.seed,
    }
    kernel = KernelSpec("gaussian", sigma=args.sigma)
    surr = make_rng(mix_seed(args.seed, 0)).random(args.N)
    f_surr = abs_target(surr)
    rows = []
    for mi, m in enumerate(m_grid):
        rec = recipe(args.recipe, m, zeta=args.zeta, gamma=args.gamma, c_eta=args.c_eta)
        streams = [mix_seed(args.seed, 1 + mi * args.trials + trial)
                   for trial in range(args.trials)]
        samples = [gen_synthetic_abs(m, seed=mix_seed(s, 0), noise_sd=args.noise_sd)
                   for s in streams]
        if rec.is_batch:
            finals = [run_batch_gm(s, AnchorSet.build(kernel, s.x, check_psd=False), rec.schedule,
                                   rec.t_star, (rec.t_star,)).final.coeffs for s in samples]
        else:
            plans = [sample_index_plan(m, rec.b, rec.t_star, mix_seed(s, 1)) for s in streams]
            finals = run_sgm_trials(samples, kernel, rec.schedule, plans, (rec.t_star,))[0]
        # excess risk over the surrogate points, computed as excess_risk does
        risks = [float(np.mean((cross_matrix(kernel, surr, s.x) @ c - f_surr) ** 2))
                 for s, c in zip(samples, finals)]
        mean = float(np.mean(risks))
        se = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))
        rows.append(
            {"m": m, "excess_risk": mean, "se": se, "b": rec.b,
             "eta1": rec.schedule.eta1, "t_star": rec.t_star, "passes": rec.passes}
        )
    fit = fit_rate([(row["m"], row["excess_risk"]) for row in rows])
    with open(args.out + ".csv", "w", encoding="utf-8") as fh:
        fh.write("# config: " + json.dumps(_provenance(cfg), sort_keys=True) + "\n")
        fh.write("m,excess_risk,se,b,eta1,t_star,passes\n")
        for row in rows:
            fh.write(
                f"{row['m']},{row['excess_risk']!r},{row['se']!r},{row['b']},"
                f"{row['eta1']!r},{row['t_star']},{row['passes']}\n"
            )
    _write_json(
        args.out + ".json",
        {
            "config": _provenance(cfg),
            "fit": {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "r_squared": fit.r_squared,
                "n_used": fit.n_used,
            },
            "rows": rows,
        },
    )
    print(f"wrote {args.out}.csv and {args.out}.json (slope {fit.slope:.4f}, "
          f"r^2 {fit.r_squared:.4f})")
    return EXIT_OK


def cmd_recipes(args):
    cfg = {
        "m": args.m,
        "zeta": args.zeta,
        "gamma": args.gamma,
        "epsilon": args.epsilon,
        "c_eta": args.c_eta,
        "id": args.id,
    }
    ids = [args.id] if args.id else list(RECIPE_IDS)
    table = recipe_table(
        args.m, zeta=args.zeta, gamma=args.gamma, eps=args.epsilon, c_eta=args.c_eta, ids=ids
    )
    payload = {"config": _provenance(cfg), "recipes": [r.to_json_dict() for r in table]}
    if args.out:
        _write_json(args.out, payload)
        print(f"wrote {args.out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    return EXIT_OK


def cmd_lemmas(args):
    verdicts = acceptance_sweep(t_max=args.max_t)
    if args.out:
        verdicts_to_csv(verdicts, args.out)
    failures = [v for v in verdicts if not v.passed]
    print(f"checked {len(verdicts)} inequalities, {len(failures)} failures")
    for v in failures[:20]:
        print(f"  FAIL {v.lemma} {v.params}: lhs={v.lhs!r} bound={v.bound!r}", file=sys.stderr)
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _parse_fractions(text):
    try:
        fracs = [float(v) for v in text.split(",")]
    except ValueError:
        raise ValueError(f"fractions must be comma-separated floats, got {text!r}") from None
    if len(fracs) != 3:
        raise ValueError("need exactly three fractions: train,validation,test")
    return fracs


def cmd_run(args):
    cfg = {
        "data": args.data,
        "generator": args.generator,
        "m": args.m,
        "noise_sd": args.noise_sd,
        "backend": args.backend,
        "kernel": args.kernel,
        "sigma": args.sigma,
        "recipe": args.recipe,
        "zeta": args.zeta,
        "gamma": args.gamma,
        "c_eta": args.c_eta,
        "b": args.b,
        "eta1": args.eta1,
        "theta": args.theta,
        "T": args.T,
        "fractions": args.fractions,
        "metric": args.metric,
        "scale": args.scale,
        "checkpoints": args.checkpoints,
        "seed": args.seed,
    }
    if args.data:
        sample = load_csv(args.data)
    elif args.generator == "synthetic-abs":
        sample = gen_synthetic_abs(args.m, seed=mix_seed(args.seed, 0), noise_sd=args.noise_sd)
    else:
        raise ValueError(f"unknown generator {args.generator!r}; pass --data or "
                         "--generator synthetic-abs")
    scaling = None
    if args.scale:
        sample, scaling = minmax_scale(sample)
    fracs = _parse_fractions(args.fractions)
    train, val, test = split(sample, fracs, seed=mix_seed(args.seed, 1))
    if train is None or val is None:
        raise ValueError("train and validation splits must be nonempty")

    if args.backend == "kernel":
        kernel = KernelSpec(args.kernel, sigma=args.sigma if args.kernel == "gaussian" else None)
        ksq = kappa_sq(kernel, train.x)
        ctx = AnchorSet.build(kernel, train.x, check_psd=False)
    else:
        kernel, ctx = None, None
        ksq = float(np.max(np.sum(np.atleast_2d(train.x) ** 2, axis=-1)))

    if args.recipe:
        rec = recipe(args.recipe, train.m, zeta=args.zeta, gamma=args.gamma,
                     eps=args.epsilon, c_eta=args.c_eta)
        b, schedule, T = rec.b, rec.schedule, rec.t_star
        algorithm = "batch" if rec.is_batch else "sgm"
    else:
        if args.b is None or args.eta1 is None or args.T is None:
            raise ValueError("explicit mode needs --b, --eta1 and --T (or use --recipe)")
        b, T = args.b, args.T
        schedule = StepSchedule(eta1=args.eta1, theta=args.theta, kappa_sq=ksq)
        algorithm = "batch" if args.batch else "sgm"
    if T >= 3:
        check = validate_schedule(schedule, T)
        if not check.ok:
            print(check.message, file=sys.stderr)
    cps = log_checkpoints(T, args.checkpoints)

    if algorithm == "batch":
        traj = run_batch_gm(train, ctx, schedule, T, cps)
    else:
        plan = sample_index_plan(train.m, b, T, mix_seed(args.seed, 2))
        traj = run_sgm(train, ctx, schedule, plan, cps)
    outcome = holdout_stop(traj, val, metric=args.metric)
    chosen = traj.vector_at(outcome.chosen_t)

    test_error = None
    if test is not None:
        if args.metric == "mse":
            from .spaces import mean_square_error

            test_error = mean_square_error(chosen, test.x, test.y)
        else:
            from .data import misclassification

            test_error = misclassification(chosen, test)

    provenance = _provenance(cfg)
    model = {
        "config": provenance,
        "backend": chosen.backend,
        "coefficients": chosen.coeffs.tolist(),
        "kernel": kernel.label() if kernel else None,
        "anchor_points": ctx.points.tolist() if ctx is not None else None,
        "scaling": scaling,
        "chosen_t": outcome.chosen_t,
    }
    _write_json(args.out + ".model.json", model)
    _write_json(
        args.out + ".stopping.json",
        {
            "config": provenance,
            "rule": outcome.rule,
            "chosen_t": outcome.chosen_t,
            "checkpoints": list(outcome.checkpoints),
            "validation_errors": list(outcome.errors),
            "test_error": test_error,
        },
    )
    print(f"wrote {args.out}.model.json and {args.out}.stopping.json "
          f"(stopped at t={outcome.chosen_t}, validation {outcome.chosen_error:.6g})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sgdlsq",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"sgdlsq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="error-decomposition curves for one training run")
    p.add_argument("--preset", choices=sorted(_PRESETS), default=None)
    p.add_argument("--config", help="JSON file whose keys mirror the flags")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None, help="gaussian kernel bandwidth")
    p.add_argument("--b", type=int, default=None, help="mini-batch size")
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--R", type=int, default=None, help="number of index-plan trials")
    p.add_argument("--N", type=int, default=None, help="surrogate size")
    p.add_argument("--surrogate", choices=("iid", "grid"), default=None)
    p.add_argument("--checkpoints", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("rates", help="excess risk over a sample-size grid, with rate fit")
    p.add_argument("--recipe", choices=RECIPE_IDS, default="C3")
    p.add_argument("--zeta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--c-eta", dest="c_eta", type=float, default=0.125)
    p.add_argument("--m-grid", dest="m_grid", default="64,128,256,512,1024")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0)
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--N", type=int, default=2000)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("recipes", help="parameter recipe table as JSON")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--zeta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--c-eta", dest="c_eta", type=float, default=0.125)
    p.add_argument("--id", choices=RECIPE_IDS, default=None)
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.set_defaults(func=cmd_recipes)

    p = sub.add_parser("lemmas", help="deterministic bound-check sweep")
    p.add_argument("--max-t", dest="max_t", type=int, default=10_000)
    p.add_argument("--out", default=None, help="verdict CSV path")
    p.set_defaults(func=cmd_lemmas)

    p = sub.add_parser("run", help="train one model with hold-out early stopping")
    p.add_argument("--data", default=None, help="CSV with header x1,...,xd,y")
    p.add_argument("--generator", default=None, choices=("synthetic-abs",))
    p.add_argument("--m", type=int, default=200)
    p.add_argument("--noise-sd", dest="noise_sd", type=float, default=1.0)
    p.add_argument("--backend", choices=("kernel", "euclidean"), default="kernel")
    p.add_argument("--kernel", choices=("gaussian", "sobolev", "linear"), default="gaussian")
    p.add_argument("--sigma", type=float, default=0.2)
    p.add_argument("--recipe", choices=RECIPE_IDS, default=None)
    p.add_argument("--zeta", type=float, default=0.5)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--c-eta", dest="c_eta", type=float, default=0.125)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--eta1", type=float, default=None)
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--T", type=int, default=None)
    p.add_argument("--batch", action="store_true", help="run the deterministic full-gradient method")
    p.add_argument("--fractions", default="0.7,0.15,0.15")
    p.add_argument("--metric", choices=("mse", "zero-one"), default="mse")
    p.add_argument("--scale", action="store_true", help="min-max scale features to [0,1]")
    p.add_argument("--checkpoints", type=int, default=25)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
