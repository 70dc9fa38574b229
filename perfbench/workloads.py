"""The benchmark's workloads: CLI commands, inputs, closed-form work counts
and the result numbers each command is checked on.

Every workload is a fixed list of ``sgdlsq`` commands run one after
another. A command knows its arguments, how to read its result numbers
back from the artifacts it wrote, the program's own pass/fail checks on
them, and the closed form of the work counts a traced run must report.
``tiny=True`` shrinks every size for the self-test; the closed forms
follow the sizes.
"""

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

NAMES = ("sec9", "rates-holdout")

# The count metrics a traced run reports; each command's closed form
# gives all of them (zero where the command does not reach the layer).
COUNT_METRICS = (
    "iterations.sgm.calls",
    "iterations.sgm.steps",
    "iterations.sgm.grad_evals",
    "iterations.population.steps",
    "iterations.batch.steps",
    "kernels.gram.calls",
    "kernels.gram.entries",
    "kernels.cross.calls",
    "kernels.cross.entries",
    "spaces.predict.calls",
    "spaces.predict.points",
    "stopping.holdout.checkpoints",
    "bounds.verdicts",
    "data.load_csv.rows",
)

# the bundled presets of ``sgdlsq decompose`` with the CLI defaults
# N=2000, R=50, sigma=0.2, noise_sd=1
PRESETS = {
    "sec9-sgm": {"m": 100, "b": 1, "eta1": 1.0 / 800, "T": 5000, "batch": False},
    "sec9-minibatch": {"m": 100, "b": 10, "eta1": 1.0 / 80, "T": 500, "batch": False},
    "sec9-batch": {"m": 100, "b": 100, "eta1": 1.0 / 8, "T": 60, "batch": True},
}

CSV_FEATURES = 8
FRACTIONS = (0.7, 0.15, 0.15)


def _counts(**kw):
    out = dict.fromkeys(COUNT_METRICS, 0)
    for key, val in kw.items():
        name = key.replace("__", ".")
        if name not in out:
            raise KeyError(name)
        out[name] = val
    return out


def _ceil(x):
    """The recipes' guarded ceiling."""
    return max(1, math.ceil(x - 1e-9))


def _split_sizes(m, fracs=FRACTIONS):
    """Floor-then-distribute split sizes, as ``sgdlsq.data.split``."""
    sizes = [math.floor(f * m) for f in fracs]
    for i in range(m - sum(sizes)):
        sizes[i % len(sizes)] += 1
    return sizes


def _log_grid(t_max, count, t_min=1):
    """Distinct rounded points of a geometric grid from t_min to t_max."""
    ratio = t_max / t_min
    return sorted({round(t_min * ratio ** (i / (count - 1))) for i in range(count)})


def _finite(values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


@dataclass(frozen=True)
class Command:
    kind: str  # decompose | rates | run | lemmas
    args: tuple  # CLI arguments without --out
    params: dict = field(default_factory=dict)

    def argv(self):
        out = "out.csv" if self.kind == "lemmas" else "out"
        return [self.kind, *self.args, "--out", out]

    def read(self, outdir):
        """(result numbers, problems found by the program's own checks)."""
        return _READERS[self.kind](Path(outdir))

    def expected_counts(self, result):
        return _EXPECT[self.kind](self.params, result)


def _read_decompose(d):
    doc = json.loads((d / "out.json").read_text())
    rows = doc["rows"]
    problems = []
    if not rows:
        problems.append("no decomposition rows")
    if not all(row["ineq_ok"] for row in rows):
        problems.append("decomposition inequality flagged")
    floats = [row[k] for row in rows for k in
              ("bias_sq", "sample_var_sq", "comp_var_sq", "total", "total_se")]
    if not _finite(floats + doc["combined_se"]):
        problems.append("non-finite decomposition terms")
    if not (d / "out.csv").is_file():
        problems.append("missing decomposition CSV")
    return {"rows": rows, "combined_se": doc["combined_se"], "r_trials": doc["r_trials"]}, problems


def _read_rates(d):
    doc = json.loads((d / "out.json").read_text())
    problems = []
    if len(doc["rows"]) < 3 or doc["fit"]["n_used"] < 3:
        problems.append("rate fit on fewer than 3 sample sizes")
    if not _finite([r["excess_risk"] for r in doc["rows"]] + [doc["fit"]["slope"]]):
        problems.append("non-finite rates")
    if not (d / "out.csv").is_file():
        problems.append("missing rates CSV")
    return {"rows": doc["rows"], "fit": doc["fit"]}, problems


def _read_run(d):
    stop = json.loads((d / "out.stopping.json").read_text())
    model = json.loads((d / "out.model.json").read_text())
    problems = []
    if stop["chosen_t"] not in stop["checkpoints"]:
        problems.append("chosen_t is not a checkpoint")
    if model["chosen_t"] != stop["chosen_t"]:
        problems.append("model and stopping disagree on chosen_t")
    if not _finite(stop["validation_errors"] + model["coefficients"]):
        problems.append("non-finite validation errors or coefficients")
    keys = ("chosen_t", "checkpoints", "validation_errors", "test_error")
    return {k: stop[k] for k in keys}, problems


def _read_lemmas(d):
    with open(d / "out.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    failed = [i for i, row in enumerate(rows) if row["pass"] != "True"]
    problems = [f"{len(failed)} lemma verdicts failed"] if failed else []
    if not rows:
        problems.append("no lemma verdicts")
    return {"verdicts": len(rows), "failed_rows": failed}, problems


_READERS = {"decompose": _read_decompose, "rates": _read_rates,
            "run": _read_run, "lemmas": _read_lemmas}


def _expect_decompose(p, result):
    m, N, T = p["m"], p["N"], p["T"]
    common = dict(iterations__population__steps=T, iterations__batch__steps=T,
                  kernels__gram__calls=2, kernels__gram__entries=N * N + m * m,
                  kernels__cross__calls=1, kernels__cross__entries=N * m)
    if p["batch"]:
        return _counts(**common)
    R, b = p["R"], p["b"]
    return _counts(iterations__sgm__calls=R, iterations__sgm__steps=R * T,
                   iterations__sgm__grad_evals=R * T * b, **common)


def _expect_rates(p, result):
    grid, trials, N = p["grid"], p["trials"], p["N"]
    runs = trials * len(grid)
    steps = trials * sum(_ceil(m ** 1.5) for m in grid)  # C3: b=1, T=m^(3/2)
    return _counts(iterations__sgm__calls=runs, iterations__sgm__steps=steps,
                   iterations__sgm__grad_evals=steps,
                   kernels__gram__calls=runs,
                   kernels__gram__entries=trials * sum(m * m for m in grid),
                   kernels__cross__calls=runs, kernels__cross__entries=trials * N * sum(grid),
                   spaces__predict__calls=runs, spaces__predict__points=runs * N)


def _expect_run(p, result):
    m_tr, n_val, n_te = _split_sizes(p["rows"])
    n_cp = len(result["checkpoints"])
    points = n_cp * n_val + n_te  # validation at every checkpoint, then the test split
    counts = dict(stopping__holdout__checkpoints=n_cp, spaces__predict__calls=n_cp + 1,
                  spaces__predict__points=points, data__load_csv__rows=p["rows"],
                  iterations__sgm__calls=1)
    if p["backend"] == "euclidean":
        T, b = p["T"], 1
    else:  # C4 at zeta=1/2, gamma=1: b = sqrt(m), T = m
        T, b = m_tr, _ceil(math.sqrt(m_tr))
        counts.update(kernels__gram__calls=1, kernels__gram__entries=m_tr * m_tr,
                      kernels__cross__calls=n_cp + 1, kernels__cross__entries=points * m_tr)
    return _counts(iterations__sgm__steps=T, iterations__sgm__grad_evals=T * b, **counts)


def _expect_lemmas(p, result):
    ts = _log_grid(p["max_t"], 25)
    cuts = _log_grid(200, 6, t_min=2)
    # 10 thetas x (sum-lower + sum-upper-log); 5 qs over t >= 3;
    # 100 spectra x 2 thetas x 3 zetas x t-cuts x 2 values of k
    verdicts = 10 * 2 * len(ts) + 5 * sum(t >= 3 for t in ts) + 100 * 2 * 3 * len(cuts) * 2
    return _counts(bounds__verdicts=verdicts)


_EXPECT = {"decompose": _expect_decompose, "rates": _expect_rates,
           "run": _expect_run, "lemmas": _expect_lemmas}


def _decompose(preset, seed, tiny):
    p = dict(PRESETS[preset], R=50, N=2000)
    args = ["--preset", preset, "--seed", str(seed)]
    if tiny:
        p.update(T=min(p["T"], 60), R=4, N=300)
        args += ["--T", str(p["T"]), "--R", "4", "--N", "300"]
    return Command("decompose", tuple(args), p)


def _lemmas(tiny):
    max_t = 100 if tiny else 10_000
    return Command("lemmas", ("--max-t", str(max_t)), {"max_t": max_t})


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple
    csv_rows: int = 0  # > 0: the benchmark writes the CSV input first
    setup: tuple = ()  # what setup_probe.py builds, one spec per command with inputs


def _sec9(seed, tiny):
    """The bundled Section 9 presets, then the lemma sweep."""
    cmds = tuple(_decompose(preset, seed, tiny) for preset in PRESETS) + (_lemmas(tiny),)
    setup = tuple(dict(cmd.params, kind="decompose", seed=seed) for cmd in cmds[:-1])
    return Workload("sec9", cmds, setup=setup)


def _rates_holdout(seed, tiny, csv_path):
    """The C3 learning curve, then a kernel and a euclidean run on a CSV."""
    grid = [16, 32, 64] if tiny else [64, 128, 256, 512, 1024]
    trials, N = (2, 300) if tiny else (5, 2000)
    args = ["--recipe", "C3", "--trials", str(trials), "--seed", str(seed)]
    if tiny:
        args += ["--m-grid", ",".join(map(str, grid)), "--N", str(N)]
    rates = Command("rates", tuple(args), {"grid": grid, "trials": trials, "N": N})
    rows = 400 if tiny else 4000
    T = 2000 if tiny else 20_000
    data = ["--data", str(csv_path), "--scale", "--seed", str(seed)]
    kernel = Command("run", (*data, "--sigma", "1.0", "--recipe", "C4"),
                     {"rows": rows, "backend": "kernel"})
    linear = Command("run", (*data, "--backend", "euclidean", "--b", "1",
                             "--eta1", "0.01", "--T", str(T)),
                     {"rows": rows, "backend": "euclidean", "T": T})
    setup = (dict(kind="rates", m=grid[0], N=N, seed=seed),
             dict(kind="run", data=str(csv_path), seed=seed))
    return Workload("rates-holdout", (rates, kernel, linear), csv_rows=rows, setup=setup)


def build(name, seed, tiny, csv_path):
    """The workload's commands for one seed."""
    if name == "sec9":
        return _sec9(seed, tiny)
    if name == "rates-holdout":
        return _rates_holdout(seed, tiny, csv_path)
    raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")


def write_csv(path, rows, seed):
    """Seeded regression data: uniform features, smooth target plus noise."""
    rng = random.Random(seed)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow([f"x{i}" for i in range(1, CSV_FEATURES + 1)] + ["y"])
        for _ in range(rows):
            x = [rng.random() for _ in range(CSV_FEATURES)]
            y = (math.sin(2 * math.pi * x[0]) + x[1] * x[2] - 0.5 * x[3] ** 2
                 + 0.3 * math.cos(math.pi * (x[4] + x[5])) + rng.gauss(0.0, 0.3))
            out.writerow([repr(v) for v in x] + [repr(y)])


def compare(expected, actual, where="result"):
    """Mismatches between reference and actual result numbers: floats to
    1e-10 relative, everything else exactly."""
    if isinstance(expected, bool) or isinstance(actual, bool):
        return [] if expected is actual else [f"{where}: {actual!r} != {expected!r}"]
    if isinstance(expected, float) or isinstance(actual, float):
        if not isinstance(actual, (int, float)) or not isinstance(expected, (int, float)):
            return [f"{where}: {actual!r} != {expected!r}"]
        if abs(actual - expected) <= 1e-10 * max(abs(actual), abs(expected)):
            return []
        return [f"{where}: {actual!r} != {expected!r} (rel 1e-10)"]
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [msg for k in expected for msg in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [msg for i, (e, a) in enumerate(zip(expected, actual))
                for msg in compare(e, a, f"{where}[{i}]")]
    return [] if expected == actual else [f"{where}: {actual!r} != {expected!r}"]
