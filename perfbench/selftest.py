"""Self-test of the benchmark at tiny sizes; takes well under a minute.

    python3 -m pytest -q perfbench/selftest.py

Runs every workload shrunk (``--tiny``) through run.py as a user
would, checks the output contract, the closed-form work counts and the
trace accounting, and that a perturbed reference is caught.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import record_reference  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 3


def bench(*args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("ref") / "reference.json"
    path.write_text(json.dumps(record_reference.record([SEED], tiny=True)))
    return path


def run_tiny(workload, trace, reference, seconds="0.5"):
    return last_json(bench("--workload", workload, "--seed", str(SEED), "--seconds", seconds,
                           "--trace", str(trace), "--tiny", "--reference", str(reference)))


def check_contract(doc, units):
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == units
    for metric in doc["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(wl.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", wl.NAMES)
def test_end_to_end_run(workload, reference):
    doc = run_tiny(workload, 0, reference)
    check_contract(doc, run.END_TO_END)
    assert doc["metrics"]["ok_frac"]["value"] == 1.0
    assert all(m["value"] > 0 for m in doc["metrics"].values())


@pytest.mark.parametrize("workload", wl.NAMES)
def test_traced_run_counts_and_accounting(workload, reference):
    doc = run_tiny(workload, 1, reference, seconds="1.5")
    check_contract(doc, run.PER_LAYER)
    m = {k: v["value"] for k, v in doc["metrics"].items()}
    assert m["trace.count_mismatches"] == 0  # closed forms, and repeats across passes
    assert m["trace.missing_layers"] == 0
    # layer self times plus cli.self_s and the import account for the traced wall
    assert 0 <= m["trace.residual_s"] < 0.02 * m["trace.wall_s"]
    assert m["cli.self_s"] > 0 and m["proc.import_s"] > 0
    again = run_tiny(workload, 1, reference)["metrics"]
    for name in wl.COUNT_METRICS:
        assert again[name]["value"] == m[name], name


def _perturb(numbers):
    """Nudge the first float (else the first int) in a reference entry."""
    for scalar in (float, int):
        stack = [numbers]
        while stack:
            node = stack.pop(0)
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for key, val in items:
                if type(val) is scalar:
                    node[key] = val * (1 + 1e-8) if scalar is float else val + 1
                    return
                if isinstance(val, (dict, list)):
                    stack.append(val)
    raise AssertionError("nothing to perturb")


@pytest.mark.parametrize("workload", wl.NAMES)
def test_perturbed_reference_fails(workload, reference, tmp_path):
    doc = json.loads(reference.read_text())
    for numbers in doc["seeds"][str(SEED)][workload]:
        _perturb(numbers)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = run_tiny(workload, 0, bad)
    assert out["correct"] is False
    assert out["failed"] > 0
    assert out["metrics"]["ok_frac"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", wl.NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
