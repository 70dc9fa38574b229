#!/usr/bin/env python3
"""Benchmark for the sgdlsq command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs one workload (see workloads.py and README.md) closed-loop with one
client: each ``sgdlsq`` command is a fresh process started from this one
when the previous command has exited. The package is imported from
``src/`` next to this directory; the run fails at once without it.

``--trace 0`` times the workload: median set-up time over several fresh
set-up processes, one discarded warm-up pass, then passes over the
command list until ``--seconds`` is used up, and prints the end-to-end
metrics. ``--trace 1`` alternates untraced passes with passes run
through tracer.py and prints the per-layer metrics. Every command's
artifacts are checked: the program's own checks always, and for the
seeds in reference.json the result numbers too. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
TRACER = HERE / "tracer.py"
PROBE = HERE / "setup_probe.py"

RUN_LIMIT_S = 165.0  # a run must end within 180 s
SETUP_PROBES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = {
    "iterations.sgm.calls": "count",
    "iterations.sgm.steps": "count",
    "iterations.sgm.grad_evals": "count",
    "iterations.sgm.s": "s",
    "iterations.sgm.us_per_step": "us",
    "iterations.sgm.ns_per_step_bm": "ns",
    "iterations.population.steps": "count",
    "iterations.population.s": "s",
    "iterations.population.us_per_step": "us",
    "iterations.population.gb_per_s_computed": "GB/s",
    "iterations.batch.steps": "count",
    "iterations.batch.s": "s",
    "iterations.batch.us_per_step": "us",
    "iterations.plan.s": "s",
    "kernels.gram.calls": "count",
    "kernels.gram.entries": "count",
    "kernels.gram.s": "s",
    "kernels.cross.calls": "count",
    "kernels.cross.entries": "count",
    "kernels.cross.s": "s",
    "spaces.anchor_build.self_s": "s",
    "spaces.predict.calls": "count",
    "spaces.predict.points": "count",
    "spaces.predict.s": "s",
    "stopping.holdout.checkpoints": "count",
    "stopping.holdout.s": "s",
    "decomposition.decompose.self_s": "s",
    "decomposition.decompose_batch.self_s": "s",
    "decomposition.excess_risk.s": "s",
    "bounds.sweep.s": "s",
    "bounds.contraction.s": "s",
    "bounds.verdicts": "count",
    "data.load_csv.rows": "count",
    "data.load_csv.s": "s",
    "data.gen.s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "proc.cpu_s": "s",
    "proc.import_s": "s",
    "trace.wall_s": "s",
    "trace.residual_s": "s",
    "trace.overhead_s": "s",
    "trace.count_mismatches": "count",
    "trace.missing_layers": "count",
}


class RunTimeout(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    """Fresh-process environment: the checkout's package, default threads.

    SGDLSQ_THREADS makes ``decompose`` start a thread pool and embeds the
    count in its artifact; the BLAS variables would override OpenBLAS's
    default of one thread per CPU. All are cleared so every run sees the
    same defaults.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("SGDLSQ_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "PYTHONSTARTUP", "PYTHONHOME"):
        env.pop(var, None)
    return env


@dataclass
class Proc:
    rc: int
    wall_s: float
    rss_mb: float
    cpu_s: float


def spawn(argv, cwd, env, deadline, stdout):
    """Run one process to completion; resources from wait4."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise RunTimeout
    with open(stdout, "w", encoding="utf-8") as out, \
            open(Path(stdout).with_suffix(".err"), "w", encoding="utf-8") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(remaining, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime)


@dataclass
class Pass:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)  # span name -> summed summary
    trace_wall_s: float = 0.0
    artifact_bytes: int = 0
    numbers: list = field(default_factory=list)  # per command, None where it failed


class Bench:
    def __init__(self, workload, seed, tiny, reference, deadline):
        self.work = WORK / f"{workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.wk = wl.build(workload, seed, tiny, self.work / "data.csv")
        if self.wk.csv_rows:
            wl.write_csv(self.work / "data.csv", self.wk.csv_rows, seed)
        self.tiny = tiny
        self.reference = reference
        self.deadline = deadline
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.count_mismatches = 0
        self.missing_layers = set()
        self.n_pass = 0

    def probe_setup(self):
        """(set-up seconds, machine facts) from one fresh process."""
        out = self.work / "probe.out"
        proc = spawn([sys.executable, str(PROBE), json.dumps(self.wk.setup)], self.work,
                     self.env, self.deadline, out)
        if proc.rc != 0:
            raise RuntimeError(f"set-up probe exited {proc.rc}: "
                               f"{out.with_suffix('.err').read_text()[-2000:]}")
        doc = json.loads(out.read_text().strip().splitlines()[-1])
        return doc["setup_s"], doc["machine"]

    def run_pass(self, traced):
        self.n_pass += 1
        pdir = self.work / f"pass{self.n_pass}"
        result = Pass()
        try:
            for i, cmd in enumerate(self.wk.commands):
                cdir = pdir / f"c{i}"
                cdir.mkdir(parents=True)
                trace_path = pdir / f"trace{i}.json"
                prefix = [str(TRACER), str(trace_path), "--"] if traced else ["-m", "sgdlsq.cli"]
                proc = spawn([sys.executable, *prefix, *cmd.argv()], cdir, self.env,
                             self.deadline, pdir / f"c{i}.out")
                result.wall_s += proc.wall_s
                result.cpu_s += proc.cpu_s
                result.rss_mb = max(result.rss_mb, proc.rss_mb)
                numbers = self._check(i, cmd, cdir, proc.rc, pdir / f"c{i}.err")
                result.numbers.append(numbers)
                result.artifact_bytes += sum(f.stat().st_size for f in cdir.iterdir())
                if traced and trace_path.is_file():
                    self._add_trace(result, trace_path, cmd, numbers)
        finally:
            shutil.rmtree(pdir, ignore_errors=True)
        return result

    def _check(self, i, cmd, cdir, rc, err_path):
        """Count the command and its failure; return its result numbers."""
        self.attempted += 1
        problems, numbers = [], None
        if rc != 0:
            problems.append(f"exit code {rc}: {err_path.read_text()[-500:]}")
        else:
            try:
                numbers, problems = cmd.read(cdir)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable artifacts: {exc!r}")
        if numbers is not None and self.reference is not None:
            problems += wl.compare(self.reference[i], numbers, f"command {i}")
        if problems:
            self.failed += 1
            log(f"FAIL {' '.join(cmd.argv())}: " + "; ".join(problems[:5]))
            return None
        return numbers

    def _add_trace(self, result, trace_path, cmd, numbers):
        doc = json.loads(trace_path.read_text())
        self.missing_layers.update(doc["missing"])
        result.trace_wall_s += doc["wall_s"]
        for name, agg in doc["layers"].items():
            into = result.layers.setdefault(name, {})
            for key, val in agg.items():
                into[key] = into.get(key, 0) + val
        if numbers is None:
            return
        got = layer_metrics(doc["layers"])
        for name, want in cmd.expected_counts(numbers).items():
            if got[name] != want:
                self.count_mismatches += 1
                log(f"COUNT {name} = {got[name]}, closed form {want} ({' '.join(cmd.argv())})")

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def layer_metrics(layers):
    """Per-layer metrics of one traced pass from its span summaries."""
    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    sgm_s, pop_s, batch_s = (get(f"iterations.{k}", "s") for k in ("sgm", "population", "batch"))
    out = {
        "iterations.sgm.calls": get("iterations.sgm", "calls"),
        "iterations.sgm.steps": get("iterations.sgm", "steps"),
        "iterations.sgm.grad_evals": get("iterations.sgm", "grad_evals"),
        "iterations.sgm.s": sgm_s,
        "iterations.sgm.us_per_step": per(sgm_s, get("iterations.sgm", "steps"), 1e6),
        "iterations.sgm.ns_per_step_bm": per(sgm_s, get("iterations.sgm", "work"), 1e9),
        "iterations.population.steps": get("iterations.population", "steps"),
        "iterations.population.s": pop_s,
        "iterations.population.us_per_step": per(pop_s, get("iterations.population", "steps"), 1e6),
        "iterations.population.gb_per_s_computed": per(get("iterations.population", "bytes"), pop_s, 1e-9),
        "iterations.batch.steps": get("iterations.batch", "steps"),
        "iterations.batch.s": batch_s,
        "iterations.batch.us_per_step": per(batch_s, get("iterations.batch", "steps"), 1e6),
        "iterations.plan.s": get("iterations.plan", "s"),
        "spaces.anchor_build.self_s": get("spaces.anchor_build", "self_s"),
        "decomposition.decompose.self_s": get("decomposition.decompose", "self_s"),
        "decomposition.decompose_batch.self_s": get("decomposition.decompose_batch", "self_s"),
        "cli.self_s": get("cli", "self_s"),
        "proc.import_s": get("proc.import", "s"),
    }
    for span, keys in (("kernels.gram", ("calls", "entries", "s")),
                       ("kernels.cross", ("calls", "entries", "s")),
                       ("spaces.predict", ("calls", "points", "s")),
                       ("stopping.holdout", ("checkpoints", "s")),
                       ("decomposition.excess_risk", ("s",)),
                       ("bounds.sweep", ("s",)),
                       ("bounds.contraction", ("s",)),
                       ("data.load_csv", ("rows", "s")),
                       ("data.gen", ("s",))):
        for key in keys:
            out[f"{span}.{key}"] = get(span, key)
    out["bounds.verdicts"] = get("bounds.sweep", "verdicts")
    return out


def measure(bench, seconds, traced, before_round=None):
    """Warm-up, then passes until ``seconds`` of measuring are used up.

    ``before_round`` is called before each round of passes, so that what
    it times is spread over the same window as the passes.
    """
    bench.run_pass(traced=False)
    untraced, traced_passes = [], []
    t0 = perf_counter()
    while True:
        if before_round is not None:
            before_round()
        untraced.append(bench.run_pass(traced=False))
        if traced:
            traced_passes.append(bench.run_pass(traced=True))
        per_round = (perf_counter() - t0) / len(untraced)
        end = perf_counter() + per_round
        if end - t0 > seconds or end > bench.deadline:
            return untraced, traced_passes


def end_to_end(bench, seconds):
    probes = [bench.probe_setup()]
    print("machine: " + json.dumps(machine_facts(probes[0][1])), flush=True)
    passes, _ = measure(bench, seconds, traced=False,
                        before_round=lambda: probes.append(bench.probe_setup()))
    while len(probes) < SETUP_PROBES and not bench.tiny:
        probes.append(bench.probe_setup())
    log(f"{len(passes)} timed passes: " + " ".join(f"{p.wall_s:.3f}" for p in passes))
    log(f"{len(probes)} set-up probes: " + " ".join(f"{s:.3f}" for s, _ in probes))
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(s for s, _ in probes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "ok_frac": (bench.attempted - bench.failed) / bench.attempted,
    }


def per_layer(bench, seconds):
    print("machine: " + json.dumps(machine_facts(bench.probe_setup()[1])), flush=True)
    untraced, traced = measure(bench, seconds, traced=True)
    log(f"{len(traced)} traced passes: " + " ".join(f"{p.wall_s:.3f}" for p in traced))
    per_pass = []
    for p in traced:
        vals = layer_metrics(p.layers)
        vals["cli.artifact_bytes"] = p.artifact_bytes
        vals["trace.wall_s"] = p.trace_wall_s
        vals["trace.residual_s"] = p.trace_wall_s - sum(a["self_s"] for a in p.layers.values())
        per_pass.append(vals)
    out = {}
    for name in per_pass[0]:
        if PER_LAYER[name] in ("count", "bytes"):
            out[name] = per_pass[0][name]
            if any(v[name] != out[name] for v in per_pass):
                bench.count_mismatches += 1
                log(f"COUNT {name} differs between traced passes")
        else:
            out[name] = statistics.median(v[name] for v in per_pass)
    out["proc.cpu_s"] = statistics.median(p.cpu_s for p in untraced)
    out["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                               - statistics.median(p.wall_s for p in untraced))
    out["trace.count_mismatches"] = bench.count_mismatches
    out["trace.missing_layers"] = len(bench.missing_layers)
    for name in sorted(bench.missing_layers):
        log(f"MISSING layer {name}: its function is gone, so its time is in its caller")
    return out


def machine_facts(probe_facts):
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu"] = None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    facts["caches"] = caches
    facts.update(probe_facts)
    return facts


def load_reference(path, workload, seed):
    """Per-command reference numbers for this workload and seed, or None."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"].get(str(seed), {}).get(workload)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=wl.NAMES)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--reference", type=Path, default=None,
                   help="reference numbers (default: reference.json, full sizes only)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "sgdlsq" / "cli.py").is_file():
        log(f"error: no sgdlsq sources under {SRC}; run from a checkout of the repository")
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = perf_counter() + RUN_LIMIT_S
    ref_path = args.reference or (None if args.tiny else REFERENCE)
    reference = load_reference(ref_path, args.workload, args.seed) if ref_path else None
    bench = Bench(args.workload, args.seed, args.tiny, reference, deadline)
    try:
        if args.trace:
            values, units = per_layer(bench, args.seconds), PER_LAYER
        else:
            values, units = end_to_end(bench, args.seconds), END_TO_END
    except RunTimeout:
        log(f"error: the run did not finish within {RUN_LIMIT_S:.0f} s")
        return 3
    finally:
        bench.close()
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
