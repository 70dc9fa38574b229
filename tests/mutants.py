"""Mutants the tests must kill.

    python tests/mutants.py

Each mutant replaces one snippet of a source file by another, in a
temporary copy of the checkout, and runs only its test file there with
``pytest -x``. A mutant whose tests still pass survived. Each test file
first runs once on an unmutated copy, so that a failure the copy itself
causes cannot count as a kill. The script prints one verdict per mutant
and exits 1 if any mutant survived that is not listed as equivalent (a
change that alters no result), 2 if an unmutated test file fails, a
snippet is not found exactly once or pytest could not run. Standard
library only; pytest does not collect this file, as its name does not
start with ``test_``.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# what a test file may read: the package, the tests, their config, the
# README (tests/test_readme.py) and the demos (tests/test_demos.py)
_COPIED = ("src", "tests", "pyproject.toml", "README.md", "demos")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: str
    reason: str
    equivalent: bool = False


MUTANTS = (
    Mutant("tiles-uneven", "src/sgdlsq/spaces.py",
           "return [i * n // count for i in range(count + 1)]",
           "return [i * (n // count) for i in range(count + 1)]",
           "tests/test_spaces.py",
           "predict's tiles must cover all n rows, split evenly"),
    Mutant("anchors-writable", "src/sgdlsq/spaces.py",
           "        pts.setflags(write=False)\n", "",
           "tests/test_kernels.py",
           "an anchor set's points are a read-only copy"),
    Mutant("sigma-width-subnormal", "src/sgdlsq/kernels.py",
           "sys.float_info.min <= 2.0 * float(s) * float(s)",
           "0.0 < 2.0 * float(s) * float(s)",
           "tests/test_kernels.py",
           "a sigma whose 2 sigma^2 is subnormal is refused"),
    Mutant("csv-nonfinite-cell", "src/sgdlsq/data.py",
           "ok = all(map(math.isfinite, values))", "ok = True",
           "tests/test_data.py",
           "a nan, inf or 1e999 CSV cell is a NonNumericError naming its line"),
    Mutant("combined-se-ddof0", "src/sgdlsq/decomposition.py",
           "combined_se = (tot_trials - comp_trials).std(axis=0, ddof=1)",
           "combined_se = (tot_trials - comp_trials).std(axis=0, ddof=0)",
           "tests/test_decomposition.py",
           "the SE that feeds ineq_ok is the ddof = 1 sample SE"),
    Mutant("unbiasedness-edge", "src/sgdlsq/decomposition.py",
           "return self.deviation <= self.bound + 1e-15",
           "return self.deviation <= 1.01 * self.bound + 1e-15",
           "tests/test_decomposition.py",
           "the plan-averaging verdict fails just past its 4 sigma bound"),
    Mutant("blocked-step-bound", "src/sgdlsq/iterations.py",
           "(etas[0] * top <= 1)", "(etas[0] * top <= 2)",
           "tests/test_iterations.py",
           "a b = 1 trial with eta_1 K_jj > 1 takes the step loop"),
    Mutant("factor-rank-cap", "src/sgdlsq/iterations.py",
           "return min(n // 4, math.isqrt(", "return min(n // 2, math.isqrt(",
           "tests/test_iterations.py",
           "batch GM's factor rank is at most a quarter of the points"),
    Mutant("psd-tolerance", "src/sgdlsq/kernels.py",
           "_PSD_TOL = 1e-8", "_PSD_TOL = 1e-4",
           "tests/test_kernels.py",
           "the PSD check's edge is -1e-8 times the largest diagonal"),
    Mutant("split-leftover-order", "src/sgdlsq/data.py",
           "sizes[i % len(sizes)] += 1", "sizes[-1 - i % len(sizes)] += 1",
           "tests/test_data.py",
           "split hands the leftover rows out one at a time in declared order"),
    Mutant("holdout-last-minimizer", "src/sgdlsq/stopping.py",
           "best = int(np.argmin(errors))",
           "best = len(errors) - 1 - int(np.argmin(errors[::-1]))",
           "tests/test_stopping.py",
           "hold-out stopping breaks ties toward the first checkpoint"),
    Mutant("passes-floor", "src/sgdlsq/schedules.py",
           "return -((-b * t) // m)", "return (b * t) // m",
           "tests/test_schedules.py",
           "passes is the ceiling of b t / m"),
    Mutant("divergence-exit-code", "src/sgdlsq/cli.py",
           "        return EXIT_DIVERGED\n", "        return EXIT_INTERNAL\n",
           "tests/test_cli.py",
           "a diverged run exits 5"),
    Mutant("errors-accept-no-points", "src/sgdlsq/spaces.py",
           "if n == 0:", "if n < 0:",
           "tests/test_spaces.py",
           "prediction_errors refuses an empty point set"),
    Mutant("errors-broadcast-targets", "src/sgdlsq/spaces.py",
           "if targets.shape[-1] != n:", "if targets.shape[-1] > n:",
           "tests/test_spaces.py",
           "one target against several values is a DimensionMismatch, not a broadcast"),
)


def _apply(tree, mutant):
    path = tree / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise LookupError(f"{mutant.name}: snippet found {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def _pytest(tests, mutant=None):
    """pytest's exit code and output for ``tests`` in a temporary copy of
    the checkout, with ``mutant`` applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp)
        for name in _COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, tree / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, tree / name)
        if mutant is not None:
            _apply(tree, mutant)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", tests]
        proc = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout


def run(mutant):
    """'killed' or 'survived'; LookupError or RuntimeError where the
    mutant cannot be applied or its tests cannot run."""
    code, out = _pytest(mutant.tests, mutant)
    if code == 0:
        return "survived"
    if code == 1:  # a test failed
        return "killed"
    raise RuntimeError(f"{mutant.name}: pytest exited {code}\n{out[-2000:]}")


def main():
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        code, out = _pytest(tests)
        if code != 0:
            print(f"error     {tests} fails unmutated (pytest exited {code})\n{out[-2000:]}",
                  flush=True)
            return 2
    failed = []
    for m in MUTANTS:
        start = time.perf_counter()
        try:
            verdict = run(m)
        except (LookupError, RuntimeError) as exc:
            print(f"error     {m.name}: {exc}", flush=True)
            return 2
        if verdict == "survived" and m.equivalent:
            verdict = "equivalent"
        elif verdict == "survived":
            failed.append(m.name)
        print(f"{verdict:9} {m.name:24} {time.perf_counter() - start:5.1f} s  {m.reason}",
              flush=True)
    if failed:
        print(f"{len(failed)} mutant(s) survived: {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"{len(MUTANTS)} mutants run, none survived")
    return 0


if __name__ == "__main__":
    sys.exit(main())
