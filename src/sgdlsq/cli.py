"""Command-line front end: seeded experiments in, CSV/JSON artifacts out.

Subcommands
-----------
decompose   error-decomposition curves for one training run
rates       excess risk across a sample-size grid plus a log-log rate fit
recipes     the (b, step size, stopping iteration) table for given m
lemmas      the deterministic bound-check sweep (nonzero exit on failure)
run         train one model with hold-out early stopping

Every artifact but the lemmas CSV embeds its fully resolved configuration
(flags, seeds, RNG names). Only decompose takes --config, a JSON file whose
keys mirror the flags: fed a decompose artifact's embedded config, it
writes the same bytes. Exit codes: 0 all requested checks passed; 1 a
check failed; 2 usage error; 3 unreadable or unwritable file; 4 invalid
configuration; 5 divergence; 6 internal error.
"""

import argparse
import collections
import json
import math
import sys
import traceback

import numpy as np

from . import __version__
from .bounds import acceptance_sweep, verdicts_to_csv
from .data import abs_target, gen_synthetic_abs, load_csv, minmax_scale, split
from .decomposition import decompose, decompose_batch, excess_risk, fit_rate
from .errors import DataFormatError, DivergenceError
from .iterations import (log_checkpoints, run_batch_gm, run_sgm, run_sgm_trials,
                         sample_index_plan, sample_index_table)
from .kernels import KernelSpec, kappa_sq
from .rng import GENERATOR_NAME, SEED_MIXER_NAME, make_rng, mix_seed
from .schedules import RECIPE_IDS, StepSchedule, recipe, recipe_table, validate_schedule
from .spaces import METRICS, AnchorSet, Trajectory, predict, prediction_errors
from .stopping import holdout_stop

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 4
EXIT_DIVERGED = 5
EXIT_INTERNAL = 6

_PRESETS = {
    # the three bundled experiment configurations: b = sqrt(m) with
    # eta = 1/(8 sqrt(m)); b = 1 with eta = 1/(8m); full batch with eta = 1/8
    "sec9-minibatch": {"m": 100, "b": 10, "eta1": 1.0 / 80, "T": 500, "algorithm": "sgm"},
    "sec9-sgm": {"m": 100, "b": 1, "eta1": 1.0 / 800, "T": 5000, "algorithm": "sgm"},
    "sec9-batch": {"m": 100, "b": 100, "eta1": 1.0 / 8, "T": 60, "algorithm": "batch"},
}


# a config field; its flag is --name with _ written as -, ``flag`` holds
# further argparse keywords (help, required), or None for no flag, and
# ``choices`` the allowed values, if they are limited
_Field = collections.namedtuple("_Field", "name type default flag choices",
                                defaults=(None, {}, None))

# the settings a recipe reads, shared by rates, recipes and run
_RECIPE_FIELDS = (
    _Field("zeta", float, 0.5),
    _Field("gamma", float, 1.0),
    _Field("epsilon", float),
    _Field("c_eta", float, 0.125),
)

_FIELDS = {
    "decompose": (
        _Field("m", int, 100),
        _Field("noise_sd", float, 1.0),
        _Field("sigma", float, 0.2, {"help": "gaussian kernel bandwidth"}),
        _Field("b", int, 10, {"help": "mini-batch size"}),
        _Field("eta1", float, 1.0 / 80),
        _Field("theta", float, 0.0),
        _Field("T", int, 500),
        _Field("R", int, 50, {"help": "number of index-plan trials"}),
        _Field("N", int, 2000, {"help": "surrogate size"}),
        _Field("surrogate", str, "iid", choices=("iid", "grid")),
        _Field("checkpoints", int, 25),
        _Field("seed", int, 1234),
        # set only by a preset or the config file
        _Field("algorithm", str, "sgm", None, ("sgm", "batch")),
    ),
    "rates": (
        _Field("recipe", str, "C3", choices=RECIPE_IDS),
        *_RECIPE_FIELDS,
        _Field("m_grid", str, "64,128,256,512,1024"),
        _Field("trials", int, 20),
        _Field("noise_sd", float, 1.0),
        _Field("sigma", float, 0.2),
        _Field("N", int, 2000),
        _Field("seed", int, 1234),
    ),
    "recipes": (
        _Field("m", int, None, {"required": True}),
        *_RECIPE_FIELDS,
        _Field("id", str, None, choices=RECIPE_IDS),
    ),
    "lemmas": (_Field("max_t", int, 10_000),),
    "run": (
        _Field("data", str, None, {"help": "CSV with header x1,...,xd,y"}),
        _Field("generator", str, None, choices=("synthetic-abs",)),
        _Field("m", int, 200),
        _Field("noise_sd", float, 1.0),
        _Field("backend", str, "kernel", choices=("kernel", "euclidean")),
        _Field("kernel", str, "gaussian", choices=("gaussian", "sobolev", "linear")),
        _Field("sigma", float, 0.2),
        _Field("recipe", str, None, choices=RECIPE_IDS),
        *_RECIPE_FIELDS,
        _Field("b", int),
        _Field("eta1", float),
        _Field("theta", float, 0.0),
        _Field("T", int),
        _Field("batch", bool, False, {"help": "run the deterministic full-gradient method"}),
        _Field("fractions", str, "0.7,0.15,0.15"),
        _Field("metric", str, "mse", choices=METRICS),
        _Field("scale", bool, False, {"help": "min-max scale features to [0,1]"}),
        _Field("checkpoints", int, 25),
        _Field("seed", int, 1234),
    ),
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
    """A config-file value of its field's type; ints pass for floats, and
    bools only for bools."""
    if (isinstance(val, bool) != (want is bool)
            or not isinstance(val, (int, float) if want is float else want)):
        raise ValueError(f"config key {name!r} must be {want.__name__}, got {val!r}")
    return want(val)


# keys an artifact's embedded config carries besides its fields; older
# artifacts still hold two retired ones: ``generator``, the RNG's name
# before it was recorded as ``rng``, and the flag ``threads``
_PROVENANCE_KEYS = ("preset", "rng", "seed_mixer", "version", "generator", "threads")


def _resolve(args, command):
    """Each of ``command``'s fields from (in order) its flag, the config
    file, the preset and its default; returns the fully explicit config.
    The preset is the bundled one named by --preset or, without that
    flag, by the file's ``preset`` key; a command that takes --preset
    records the name."""
    fields = _FIELDS[command]
    file_cfg = _load_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(set(file_cfg) - {f.name for f in fields} - set(_PROVENANCE_KEYS))
    if unknown:
        raise ValueError(f"unknown config key {', '.join(map(repr, unknown))}")
    name = getattr(args, "preset", None) or file_cfg.get("preset")
    names = sorted(_PRESETS)  # a list, so an unhashable JSON value is refused too
    if name is not None and name not in names:
        raise ValueError(f"config key 'preset' must be one of "
                         f"{', '.join(map(repr, names))}, got {name!r}")
    preset = _PRESETS.get(name)
    out = {"preset": name} if hasattr(args, "preset") else {}
    for field in fields:
        val = file_cfg.get(field.name)
        if val is not None:
            val = _file_value(field.name, val, field.type)
        if getattr(args, field.name, None) is not None:
            val = getattr(args, field.name)
        if val is None and preset:
            val = preset.get(field.name)
        if val is None:
            val = field.default
        if val is not None and field.choices and val not in field.choices:
            raise ValueError(f"config key {field.name!r} must be one of "
                             f"{', '.join(map(repr, field.choices))}, got {val!r}")
        if field.type is float and val is not None and not math.isfinite(val):
            raise ValueError(f"config key {field.name!r} must be finite, got {val!r}")
        out[field.name] = val
    return out


def _provenance(cfg):
    return dict(cfg, rng=GENERATOR_NAME, seed_mixer=SEED_MIXER_NAME, version=__version__)


def _recipe_settings(cfg):
    """``cfg``'s recipe fields as keywords of ``recipe`` and ``recipe_table``."""
    return {"eps" if f.name == "epsilon" else f.name: cfg[f.name] for f in _RECIPE_FIELDS}


def _write_json(path, cfg, **fields):
    """Write ``fields`` with ``cfg``'s provenance under ``config`` as strict
    JSON (sorted keys, 2-space indent) to ``path``, or to stdout if None."""
    text = json.dumps(dict(fields, config=_provenance(cfg)), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_csv(path, cfg, rows):
    """Write ``cfg``'s provenance as a ``# config:`` line, then the rows'
    keys as the header and one line per row (str of a float is its repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# config: " + json.dumps(_provenance(cfg), sort_keys=True, allow_nan=False)
                 + "\n")
        fh.write(",".join(rows[0]) + "\n")
        fh.writelines(",".join(map(str, row.values())) + "\n" for row in rows)


def cmd_decompose(args):
    cfg = _resolve(args, "decompose")
    if cfg["N"] < 1:
        raise ValueError(f"--N must be at least 1 surrogate point, got {cfg['N']}")

    sample = gen_synthetic_abs(cfg["m"], seed=mix_seed(cfg["seed"], 0), noise_sd=cfg["noise_sd"])
    kernel = KernelSpec("gaussian", sigma=cfg["sigma"])
    schedule = StepSchedule(eta1=cfg["eta1"], theta=cfg["theta"], kappa_sq=kappa_sq(kernel))
    if cfg["surrogate"] == "grid":
        surr = np.linspace(0.0, 1.0, cfg["N"])
    else:  # iid
        surr = make_rng(mix_seed(cfg["seed"], 1)).random(cfg["N"])
    cps = log_checkpoints(cfg["T"], cfg["checkpoints"])

    if cfg["algorithm"] == "batch":
        report = decompose_batch(sample, surr, abs_target, kernel, schedule, cfg["T"], cps)
    else:
        report = decompose(
            sample,
            surr,
            abs_target,
            kernel,
            schedule,
            b=cfg["b"],
            T=cfg["T"],
            R=cfg["R"],
            base_seed=mix_seed(cfg["seed"], 2),
            checkpoints=cps,
        )
    rows = report.rows()
    _write_csv(args.out + ".csv", cfg, rows)
    _write_json(args.out + ".json", cfg, r_trials=report.r_trials,
                combined_se=report.combined_se.tolist(), rows=rows)
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
    cfg = _resolve(args, "rates")
    m_grid = _parse_grid(cfg["m_grid"])
    if len(m_grid) < 3:
        raise ValueError("rates needs a grid of at least 3 sample sizes")
    if len(set(m_grid)) < len(m_grid):
        raise ValueError(f"m_grid must not repeat a sample size, got {m_grid}")
    trials = cfg["trials"]
    if trials < 2:
        raise ValueError(f"--trials must be at least 2 for standard errors, got {trials}")
    if cfg["N"] < 1:
        raise ValueError(f"--N must be at least 1 surrogate point, got {cfg['N']}")
    kernel = KernelSpec("gaussian", sigma=cfg["sigma"])
    surr = make_rng(mix_seed(cfg["seed"], 0)).random(cfg["N"])
    rows = []
    for mi, m in enumerate(m_grid):
        rec = recipe(cfg["recipe"], m, **_recipe_settings(cfg))
        streams = [mix_seed(cfg["seed"], 1 + mi * trials + trial)
                   for trial in range(trials)]
        samples = [gen_synthetic_abs(m, seed=mix_seed(s, 0), noise_sd=cfg["noise_sd"])
                   for s in streams]
        if rec.is_batch:
            finals = [run_batch_gm(s, kernel, rec.schedule, rec.t_star, (rec.t_star,))
                      for s in samples]
        else:
            table = sample_index_table(m, rec.b, rec.t_star, [mix_seed(s, 1) for s in streams])
            block = run_sgm_trials(samples, kernel, rec.schedule, table, (rec.t_star,))
            finals = [Trajectory((rec.t_star,), block[:, r], AnchorSet(s.x, kernel))
                      for r, s in enumerate(samples)]
        risks = [excess_risk(h, surr, abs_target)[0] for h in finals]
        mean = float(np.mean(risks))
        se = float(np.std(risks, ddof=1) / math.sqrt(len(risks)))
        rows.append(
            {"m": m, "excess_risk": mean, "se": se, "b": rec.b,
             "eta1": rec.schedule.eta1, "t_star": rec.t_star, "passes": rec.passes}
        )
    fit = fit_rate([(row["m"], row["excess_risk"]) for row in rows])
    _write_csv(args.out + ".csv", cfg, rows)
    _write_json(args.out + ".json", cfg, rows=rows,
                fit={"slope": fit.slope, "intercept": fit.intercept,
                     "r_squared": fit.r_squared, "n_used": fit.n_used})
    print(f"wrote {args.out}.csv and {args.out}.json (slope {fit.slope:.4f}, "
          f"r^2 {fit.r_squared:.4f})")
    return EXIT_OK


def cmd_recipes(args):
    cfg = _resolve(args, "recipes")
    if cfg["id"]:
        table = [recipe(cfg["id"], cfg["m"], **_recipe_settings(cfg))]
    else:
        table = recipe_table(cfg["m"], **_recipe_settings(cfg))
        listed = {r.corollary for r in table}
        skipped = [rid for rid in RECIPE_IDS if rid not in listed]
        if skipped:
            print(f"not defined at m = {cfg['m']}, left out: {', '.join(skipped)}",
                  file=sys.stderr)
    _write_json(args.out, cfg, recipes=[r.to_json_dict() for r in table])
    if args.out:
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_lemmas(args):
    cfg = _resolve(args, "lemmas")
    verdicts = acceptance_sweep(t_max=cfg["max_t"])
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
    cfg = _resolve(args, "run")
    if cfg["data"]:
        sample = load_csv(cfg["data"])
    elif cfg["generator"] == "synthetic-abs":
        sample = gen_synthetic_abs(cfg["m"], seed=mix_seed(cfg["seed"], 0),
                                   noise_sd=cfg["noise_sd"])
    else:
        raise ValueError(f"unknown generator {cfg['generator']!r}; pass --data or "
                         "--generator synthetic-abs")
    scaling = None
    if cfg["scale"]:
        sample, scaling = minmax_scale(sample)
    fracs = _parse_fractions(cfg["fractions"])
    train, val, test = split(sample, fracs, seed=mix_seed(cfg["seed"], 1))
    if train is None or val is None:
        raise ValueError("train and validation splits must be nonempty")

    # the config records only the kernel and bandwidth the run reads
    if cfg["backend"] == "kernel":
        cfg["sigma"] = cfg["sigma"] if cfg["kernel"] == "gaussian" else None
        kernel = KernelSpec(cfg["kernel"], sigma=cfg["sigma"])
        ksq = kappa_sq(kernel, train.x)
    else:
        cfg["kernel"] = cfg["sigma"] = kernel = None
        ksq = kappa_sq(KernelSpec("linear"), train.x)

    if cfg["recipe"]:
        rec = recipe(cfg["recipe"], train.m, **_recipe_settings(cfg), kappa_sq=ksq)
        b, schedule, T = rec.b, rec.schedule, rec.t_star
        algorithm = "batch" if rec.is_batch else "sgm"
        # the config records as null the explicit settings a recipe run does not read
        cfg.update(dict.fromkeys(("b", "eta1", "theta", "T", "batch")))
    else:
        algorithm = "batch" if cfg["batch"] else "sgm"
        # batch GM uses the whole sample at every step and never reads b
        needed = ("eta1", "T") if cfg["batch"] else ("b", "eta1", "T")
        if any(cfg[k] is None for k in needed):
            raise ValueError(f"explicit mode needs {', '.join('--' + k for k in needed)} "
                             "(or use --recipe)")
        b, T = cfg["b"], cfg["T"]
        schedule = StepSchedule(eta1=cfg["eta1"], theta=cfg["theta"], kappa_sq=ksq)
        # nor the recipe settings it does not read
        cfg.update(dict.fromkeys(f.name for f in _RECIPE_FIELDS))
    if T >= 3:
        check = validate_schedule(schedule, T)
        if not check.ok:
            print(check.message, file=sys.stderr)
    cps = log_checkpoints(T, cfg["checkpoints"])

    # the runs build a Gram only for as long as they read it: hold-out and
    # the test error read the kernel
    if algorithm == "batch":
        traj = run_batch_gm(train, kernel, schedule, T, cps)
    else:
        plan = sample_index_plan(train.m, b, T, mix_seed(cfg["seed"], 2))
        traj = run_sgm(train, kernel, schedule, plan, cps)
    outcome = holdout_stop(traj, val, metric=cfg["metric"])
    chosen = traj.vector_at(outcome.chosen_t)

    test_error = (None if test is None else
                  float(prediction_errors(predict(chosen, test.x), test.y, cfg["metric"])[0]))

    _write_json(args.out + ".model.json", cfg, backend=chosen.backend,
                coefficients=chosen.coeffs[0].tolist(),
                kernel=kernel.label() if kernel else None,
                anchor_points=None if kernel is None else traj.anchors.points.tolist(),
                scaling=scaling, chosen_t=outcome.chosen_t)
    _write_json(args.out + ".stopping.json", cfg, rule=outcome.rule,
                chosen_t=outcome.chosen_t, checkpoints=list(outcome.checkpoints),
                validation_errors=list(outcome.errors), test_error=test_error)
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
    for command, func, text, out in (
        ("decompose", cmd_decompose, "error-decomposition curves for one training run",
         {"required": True, "help": "output path prefix"}),
        ("rates", cmd_rates, "excess risk over a sample-size grid, with rate fit",
         {"required": True}),
        ("recipes", cmd_recipes, "parameter recipe table as JSON",
         {"help": "output file (default: stdout)"}),
        ("lemmas", cmd_lemmas, "deterministic bound-check sweep", {"help": "verdict CSV path"}),
        ("run", cmd_run, "train one model with hold-out early stopping", {"required": True}),
    ):
        p = sub.add_parser(command, help=text)
        if command == "decompose":
            p.add_argument("--preset", choices=sorted(_PRESETS), default=None)
            p.add_argument("--config", help="JSON file whose keys mirror the flags")
        for field in _FIELDS[command]:
            if field.flag is not None:
                kind = {"action": "store_true"} if field.type is bool else {"type": field.type}
                if field.choices:
                    kind["choices"] = field.choices
                # default None, so _resolve can tell a flag given from one left out
                p.add_argument("--" + field.name.replace("_", "-"), default=None, **kind,
                               **field.flag)
        p.add_argument("--out", **out)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (DataFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        # the only text files a command reads are --config and --data
        path = getattr(args, "config", None) or getattr(args, "data", None)
        print(f"error: cannot decode {path} as UTF-8: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
