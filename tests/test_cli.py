import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgdlsq
from sgdlsq import (AnchorSet, KernelSpec, Sample, StepSchedule, Trajectory,
                    check_contraction_bound, check_convolution_bound, check_sum_bounds, cli,
                    gen_synthetic_abs, load_csv, make_rng, mix_seed, predict, prediction_errors,
                    recipe, save_csv, split, verdicts_to_csv)
from sgdlsq.bounds import log_spaced_ts
from sgdlsq.cli import main

DECOMPOSE_COLUMNS = ["t", "pass", "bias_sq", "sample_var_sq", "comp_var_sq",
                     "total", "total_se", "ineq_ok"]


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(rows))


class TestLemmas:
    def test_sweep_passes_and_writes_csv(self, tmp_path):
        out = tmp_path / "verdicts.csv"
        code = main(["lemmas", "--max-t", "500", "--out", str(out)])
        assert code == 0
        rows = _read_csv(out)
        assert rows and all(r["pass"] == "True" for r in rows)
        assert set(rows[0]) == {"lemma", "params", "lhs", "bound", "slack", "pass"}

    def test_csv_equals_the_one_point_checks(self, tmp_path):
        """The verdict CSV is byte for byte that of the shipped grid
        checked one point at a time."""
        ts = log_spaced_ts(500)
        ref = [v for theta in [round(0.1 * i, 1) for i in range(10)] for t in ts
               for v in check_sum_bounds(theta, t)]
        ref += [check_convolution_bound(q, t) for q in [-1.0, 0.0, 0.5, 1.0, 2.0]
                for t in ts if t >= 3]
        rng = make_rng(7)
        for _ in range(100):
            eigs = rng.random(24) * (1.0 - 1e-9) + 1e-9
            for theta in (0.0, 0.5):
                schedule = StepSchedule(eta1=1.0, theta=theta, kappa_sq=1.0)
                ref += [check_contraction_bound(eigs, schedule, zeta, k, t)
                        for zeta in (0.5, 1.0, 2.0)
                        for t in log_spaced_ts(200, count=6, t_min=2) for k in (0, t // 2)]
        verdicts_to_csv(ref, tmp_path / "ref.csv")
        assert main(["lemmas", "--max-t", "500", "--out", str(tmp_path / "got.csv")]) == 0
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


_MA_PROBE = """
import json, sys
import sgdlsq.cli
seen = ["numpy.ma" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert sgdlsq.cli.main(argv) == 0
    seen.append("numpy.ma" in sys.modules)
print(json.dumps(seen))
"""


def _src_env(**extra):
    """The environment of a subprocess that imports this checkout's sgdlsq."""
    src = str(Path(sgdlsq.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


def test_commands_do_not_import_numpy_ma(tmp_path):
    """numpy.ma takes about 10-20 ms to import; np.unique imports it on first
    use, and no command needs it."""
    runs = [
        ["lemmas", "--max-t", "100", "--out", str(tmp_path / "v.csv")],
        ["decompose", "--m", "10", "--b", "1", "--eta1", "0.5", "--T", "20", "--R", "2",
         "--N", "30", "--checkpoints", "3", "--out", str(tmp_path / "d")],
        ["run", "--generator", "synthetic-abs", "--m", "40", "--b", "1", "--eta1", "0.1",
         "--T", "5", "--out", str(tmp_path / "r")],
    ]
    proc = subprocess.run([sys.executable, "-c", _MA_PROBE, json.dumps(runs)], env=_src_env(),
                          capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout.splitlines()[-1])
    if seen[0]:
        pytest.skip("numpy.ma is imported with sgdlsq.cli")
    assert seen == [False] * (1 + len(runs))


class TestRecipes:
    def test_c3_row_reference_values(self, tmp_path, capsys):
        out = tmp_path / "recipes.json"
        code = main([
            "recipes", "--zeta", "0.5", "--gamma", "1", "--m", "100",
            "--c-eta", "0.125", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        by_id = {r["corollary"]: r for r in payload["recipes"]}
        c3 = by_id["C3"]
        assert c3["b"] == 1
        assert c3["eta1"] == pytest.approx(0.00125)
        assert c3["t_star"] == 1000
        assert payload["config"]["m"] == 100

    def test_missing_epsilon_is_config_error(self, tmp_path):
        code = main(["recipes", "--m", "100", "--zeta", "0.2", "--gamma", "0.4"])
        assert code == 4

    def test_stdout_mode(self, capsys):
        assert main(["recipes", "--m", "64", "--id", "C4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["recipes"][0]["corollary"] == "C4"

    def test_recipes_undefined_at_the_sample_size_are_left_out(self, capsys):
        """At m = 1 the 1/ln m recipes are undefined: the table lists the
        rest and names the left-out ones; asking for one by id fails."""
        assert main(["recipes", "--m", "1"]) == 0
        captured = capsys.readouterr()
        ids = [r["corollary"] for r in json.loads(captured.out)["recipes"]]
        assert ids == ["C3", "C4", "C5", "BGM", "C11", "C12", "B1"]
        assert "C6, C7, B2, B3" in captured.err
        assert main(["recipes", "--m", "1", "--id", "C6"]) == 4
        assert "C6 needs m >= 2" in capsys.readouterr().err


class TestDecompose:
    def test_small_explicit_run(self, tmp_path):
        out = tmp_path / "dec"
        code = main([
            "decompose", "--m", "20", "--b", "4", "--eta1", "0.0625", "--T", "40",
            "--R", "6", "--N", "120", "--checkpoints", "6", "--seed", "7",
            "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(str(out) + ".csv")
        assert list(rows[0]) == DECOMPOSE_COLUMNS
        assert all(r["ineq_ok"] == "True" for r in rows)
        payload = json.loads((tmp_path / "dec.json").read_text())
        assert payload["config"]["seed"] == 7
        assert payload["config"]["rng"] == "philox4x64"

    def test_rerun_is_bit_identical(self, tmp_path):
        args = ["decompose", "--m", "15", "--b", "3", "--eta1", "0.05", "--T", "25",
                "--R", "4", "--N", "80", "--checkpoints", "4", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a.csv").read_text() == (tmp_path / "b.csv").read_text()
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_batch_preset_schema(self, tmp_path):
        out = tmp_path / "batch"
        code = main(["decompose", "--preset", "sec9-batch", "--T", "20", "--N", "100",
                     "--checkpoints", "5", "--out", str(out)])
        assert code == 0
        rows = _read_csv(str(out) + ".csv")
        assert list(rows[0]) == DECOMPOSE_COLUMNS
        assert all(float(r["comp_var_sq"]) == 0.0 for r in rows)

    def test_embedded_config_round_trip(self, tmp_path):
        """Feeding an artifact's embedded config back through --config
        reproduces the artifact bit for bit, a preset run's too."""
        for i, argv in enumerate((
                ["--m", "14", "--b", "2", "--eta1", "0.04", "--T", "30", "--R", "5", "--N", "70",
                 "--checkpoints", "5", "--seed", "13"],
                ["--preset", "sec9-batch", "--seed", "5", "--T", "20", "--N", "100"])):
            first, second = tmp_path / f"first{i}", tmp_path / f"second{i}"
            assert main(["decompose", *argv, "--out", str(first)]) == 0
            cfg = tmp_path / f"echoed{i}.json"
            payload = json.loads(first.with_suffix(".json").read_text())
            cfg.write_text(json.dumps(payload["config"]))
            assert main(["decompose", "--config", str(cfg), "--out", str(second)]) == 0
            for ext in (".csv", ".json"):
                assert first.with_suffix(ext).read_bytes() == second.with_suffix(ext).read_bytes()

    def test_config_file_preset_is_read_like_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "sec9-batch", "T": 20, "N": 100, "checkpoints": 4}))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "f")]) == 0
        keys = ("preset", "algorithm", "b", "T")
        got = json.loads((tmp_path / "f.json").read_text())["config"]
        assert [got[k] for k in keys] == ["sec9-batch", "batch", 100, 20]
        # the flag wins over the file's preset
        assert main(["decompose", "--config", str(cfg), "--preset", "sec9-minibatch", "--R", "3",
                     "--out", str(tmp_path / "g")]) == 0
        got = json.loads((tmp_path / "g.json").read_text())["config"]
        assert [got[k] for k in keys] == ["sec9-minibatch", "sgm", 10, 20]
        cfg.write_text(json.dumps({"preset": "sec9-nope"}))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "h")]) == 4
        assert "config key 'preset' must be one of" in capsys.readouterr().err
        assert not list(tmp_path.glob("h*"))

    def test_config_file_merging(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 18, "b": 2, "eta1": 0.05, "T": 20,
                                   "R": 4, "N": 60, "checkpoints": 4, "seed": 9}))
        out = tmp_path / "fromcfg"
        code = main(["decompose", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "fromcfg.json").read_text())
        assert payload["config"]["m"] == 18
        # explicit flags beat the config file
        out2 = tmp_path / "override"
        main(["decompose", "--config", str(cfg), "--m", "12", "--out", str(out2)])
        assert json.loads((tmp_path / "override.json").read_text())["config"]["m"] == 12


    def test_divergent_trial_is_divergence_exit(self, tmp_path, capsys):
        """A step size at which the single-point trials blow up while the
        averaged (population and batch) iterations stay stable."""
        code = main(["decompose", "--m", "10", "--b", "1", "--eta1", "3", "--T", "400",
                     "--R", "4", "--N", "50", "--checkpoints", "4", "--seed", "3",
                     "--out", str(tmp_path / "dv")])
        assert code == 5
        assert "diverged at iteration 90 (trial 3)" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("m", "100"),
        ("m", 1.5),
        ("m", True),
        ("eta1", "0.01"),
        ("sigma", [0.2]),
        ("surrogate", 3),
    ])
    def test_wrong_typed_config_value_is_config_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        code = main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 4
        assert f"config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("contents, key", [
        ({"mm": 5}, "mm"),
        ({"m": 12, "Eta1": 0.1}, "Eta1"),
        ({"seeds": [1, 2]}, "seeds"),
    ])
    def test_unknown_config_key_is_config_error(self, tmp_path, capsys, contents, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(contents))
        code = main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 4
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_retired_threads_key_still_loads(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 12, "b": 2, "T": 10, "R": 3, "N": 40, "checkpoints": 3,
                                   "threads": 2, "preset": None, "version": "0.1.0"}))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert "threads" not in json.loads((tmp_path / "x.json").read_text())["config"]

    def test_retired_generator_key_still_loads(self, tmp_path):
        """Older artifacts recorded the RNG's name under ``generator``; the
        config loads, and the new artifact records it under ``rng``."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 12, "b": 2, "T": 10, "R": 3, "N": 40, "checkpoints": 3,
                                   "generator": "philox4x64", "seed_mixer": "splitmix64"}))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        config = json.loads((tmp_path / "x.json").read_text())["config"]
        assert "generator" not in config and config["rng"] == "philox4x64"

    def test_int_config_value_accepted_for_float_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 12, "eta1": 1, "b": 2, "T": 10, "R": 3, "N": 40,
                                   "checkpoints": 3}))
        assert main(["decompose", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 0
        assert json.loads((tmp_path / "x.json").read_text())["config"]["eta1"] == 1.0


class TestRates:
    def test_tiny_grid(self, tmp_path):
        out = tmp_path / "rates"
        code = main([
            "rates", "--m-grid", "16,32,64", "--trials", "3", "--N", "200",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "rates.json").read_text())
        assert {"slope", "intercept", "r_squared", "n_used"} <= set(payload["fit"])
        rows = _read_csv(str(out) + ".csv")
        assert [int(r["m"]) for r in rows] == [16, 32, 64]
        assert all(float(r["excess_risk"]) > 0 for r in rows)

    def test_repeated_grid_size_is_refused(self, tmp_path, capsys):
        """A size given twice leaves fewer distinct sizes than the fit
        needs, or weighs one twice: exit 4, naming m_grid, no artifact."""
        argv = ["rates", "--m-grid", "16,16,16", "--trials", "2", "--N", "50",
                "--out", str(tmp_path / "r")]
        assert main(argv) == 4
        assert "m_grid" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_epsilon_reaches_the_recipe(self, tmp_path, capsys):
        """Where 2 zeta + gamma <= 1 the recipe needs epsilon; rates takes
        it as recipes and run do, and records it."""
        argv = ["rates", "--recipe", "BGM", "--zeta", "0.2", "--gamma", "0.4", "--m-grid",
                "4,8,16", "--trials", "2", "--N", "20", "--out", str(tmp_path / "r")]
        assert main(argv) == 4
        assert "requires epsilon" in capsys.readouterr().err
        assert main(argv + ["--epsilon", "0.5"]) == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["config"]["epsilon"] == 0.5
        assert [row["t_star"] for row in payload["rows"]] == [
            recipe("BGM", m, zeta=0.2, gamma=0.4, eps=0.5).t_star for m in (4, 8, 16)]


class TestRun:
    def test_generator_training(self, tmp_path):
        out = tmp_path / "model"
        code = main([
            "run", "--generator", "synthetic-abs", "--m", "80", "--b", "8",
            "--eta1", "0.05", "--T", "60", "--checkpoints", "8",
            "--seed", "11", "--out", str(out),
        ])
        assert code == 0
        model = json.loads((tmp_path / "model.model.json").read_text())
        stopping = json.loads((tmp_path / "model.stopping.json").read_text())
        assert model["backend"] == "kernel"
        assert len(model["coefficients"]) == len(model["anchor_points"])
        assert stopping["rule"] == "holdout-argmin"
        assert stopping["chosen_t"] in stopping["checkpoints"]
        assert stopping["test_error"] is not None

    def test_csv_classification_flow(self, tmp_path):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(0.8, 0.4, (40, 2)), rng.normal(-0.8, 0.4, (40, 2))])
        y = np.concatenate([np.ones(40), -np.ones(40)])
        path = tmp_path / "labels.csv"
        save_csv(Sample(x=x, y=y), path)
        out = tmp_path / "clf"
        code = main([
            "run", "--data", str(path), "--scale", "--metric", "zero-one",
            "--b", "4", "--eta1", "0.1", "--T", "80", "--sigma", "0.8",
            "--checkpoints", "10", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        stopping = json.loads((tmp_path / "clf.stopping.json").read_text())
        assert 0.0 <= stopping["test_error"] <= 0.5

    def test_unreadable_data_is_io_error(self, tmp_path):
        code = main(["run", "--data", str(tmp_path / "missing.csv"),
                     "--b", "1", "--eta1", "0.1", "--T", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 3

    def test_malformed_csv_is_io_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1,2\n3\n")
        code = main(["run", "--data", str(bad), "--b", "1", "--eta1", "0.1",
                     "--T", "5", "--out", str(tmp_path / "x")])
        assert code == 3

    def test_divergent_step_is_divergence_exit(self, tmp_path):
        code = main([
            "run", "--generator", "synthetic-abs", "--m", "30", "--backend",
            "euclidean", "--b", "1", "--eta1", "1e9", "--T", "200",
            "--seed", "4", "--out", str(tmp_path / "d"),
        ])
        assert code == 5

    def test_missing_explicit_params_is_config_error(self, tmp_path):
        code = main(["run", "--generator", "synthetic-abs",
                     "--out", str(tmp_path / "y")])
        assert code == 4

    @pytest.mark.parametrize("batch", [True, False])
    def test_explicit_batch_needs_no_b(self, tmp_path, capsys, batch):
        """Batch GM never reads b, so only SGM requires --b."""
        path = tmp_path / "data.csv"
        save_csv(gen_synthetic_abs(60, seed=8), path)
        argv = ["run", "--data", str(path), "--scale", *(["--batch"] if batch else []),
                "--eta1", "1.0", "--T", "300", "--out", str(tmp_path / "x")]
        if batch:
            assert main(argv) == 0
            stopping = json.loads((tmp_path / "x.stopping.json").read_text())
            assert stopping["config"]["b"] is None and stopping["config"]["batch"] is True
        else:
            assert main(argv) == 4
            assert "--b" in capsys.readouterr().err
            assert not list(tmp_path.glob("x*"))

    @pytest.mark.parametrize("space, kernel", [
        (["--backend", "euclidean", "--kernel", "sobolev"], None),
        (["--kernel", "sobolev"], "sobolev"),
        ([], "gaussian"),
    ], ids=["euclidean", "sobolev", "gaussian"])
    def test_config_records_only_the_kernel_settings_read(self, tmp_path, space, kernel):
        """A euclidean run reads neither --kernel nor --sigma and a
        sobolev run no --sigma, and an explicit-mode run none of the
        recipe settings, not even an invalid --c-eta; both artifacts
        record those as null."""
        assert main(["run", "--generator", "synthetic-abs", "--m", "40", *space, "--sigma",
                     "0.3", "--b", "1", "--eta1", "0.1", "--T", "5", "--c-eta", "-1",
                     "--out", str(tmp_path / "r")]) == 0
        for suffix in (".model.json", ".stopping.json"):
            config = json.loads((tmp_path / ("r" + suffix)).read_text())["config"]
            assert (config["kernel"], config["sigma"]) == (
                kernel, 0.3 if kernel == "gaussian" else None)
            assert [config[k] for k in ("zeta", "gamma", "epsilon", "c_eta")] == [None] * 4

    def test_one_feature_euclidean_kappa_is_the_largest_square(self, tmp_path):
        """kappa^2 = max_i ||x_i||^2 for one feature too, so appending an
        all-zero feature leaves the run unchanged."""
        s = gen_synthetic_abs(50, seed=6)
        save_csv(s, tmp_path / "one.csv")
        save_csv(Sample(x=np.column_stack([s.x, np.zeros(50)]), y=s.y), tmp_path / "two.csv")
        runs = []
        for name in ("one", "two"):
            assert main(["run", "--data", str(tmp_path / f"{name}.csv"), "--backend", "euclidean",
                         "--b", "1", "--eta1", "0.5", "--T", "200", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
            runs.append(json.loads((tmp_path / f"{name}.stopping.json").read_text()))
        assert runs[0]["validation_errors"] == runs[1]["validation_errors"]
        assert runs[0]["test_error"] == runs[1]["test_error"]

    @pytest.mark.parametrize("space", [["--kernel", "linear"], ["--backend", "euclidean"]],
                             ids=["linear", "euclidean"])
    def test_points_near_zero_start(self, tmp_path, space):
        """kappa^2 = max x^2 is about 1e-14 for points within 1e-7 of 0;
        the run starts and its step size eta1 / kappa^2 keeps it stable,
        with labels shrunk with the points or of order 1. With the latter
        the kernel coefficients, of order y / kappa^2, reach 1e14; the
        divergence guard reads them times the Gram's largest diagonal, so
        the run still finishes."""
        s = gen_synthetic_abs(40, seed=7)
        for y_scale in (1e-7, 1.0):
            save_csv(Sample(x=s.x * 1e-7, y=s.y * y_scale), tmp_path / "near0.csv")
            assert main(["run", "--data", str(tmp_path / "near0.csv"), *space, "--b", "1",
                         "--eta1", "0.5", "--T", "50", "--seed", "3",
                         "--out", str(tmp_path / "r")]) == 0
            stopping = json.loads((tmp_path / "r.stopping.json").read_text())
            assert np.isfinite(stopping["validation_errors"]).all()

    @pytest.mark.parametrize("space", [["--kernel", "sobolev"], ["--backend", "euclidean"]],
                             ids=["sobolev", "euclidean"])
    def test_recipe_step_size_is_scaled_by_kappa(self, tmp_path, space):
        """A recipe run equals the explicit run with the recipe's b, eta1
        and T, whose step size is eta1 / kappa^2 (kappa^2 = 1/4 for
        sobolev, max x^2 for euclidean)."""
        rec = recipe("C4", 140)  # the training split of m = 200
        argv = ["run", "--generator", "synthetic-abs", "--m", "200", "--seed", "5", *space]
        explicit = ["--b", str(rec.b), "--eta1", repr(rec.schedule.eta1), "--T", str(rec.t_star)]
        runs = []
        for name, extra in (("recipe", ["--recipe", "C4"]), ("explicit", explicit)):
            assert main(argv + extra + ["--out", str(tmp_path / name)]) == 0
            runs.append(json.loads((tmp_path / f"{name}.stopping.json").read_text()))
        assert runs[0]["checkpoints"][-1] == rec.t_star
        assert runs[0]["validation_errors"] == runs[1]["validation_errors"]

    @pytest.mark.parametrize("extra, key, value", [
        (["--batch", "--b", "1", "--eta1", "0.5", "--T", "30"], "batch", True),
        (["--recipe", "BGM", "--zeta", "0.2", "--gamma", "0.4", "--epsilon", "0.5"],
         "epsilon", 0.5),
    ], ids=["batch", "bgm-epsilon"])
    def test_config_records_the_algorithm_flags(self, tmp_path, extra, key, value):
        code = main(["run", "--generator", "synthetic-abs", "--m", "60", "--checkpoints", "4",
                     "--seed", "3", *extra, "--out", str(tmp_path / "r")])
        assert code == 0
        for suffix in (".model.json", ".stopping.json"):
            assert json.loads((tmp_path / ("r" + suffix)).read_text())["config"][key] == value

    @pytest.mark.parametrize("rid", ["C3", "BGM"])
    def test_recipe_run_records_as_null_the_settings_it_does_not_read(self, tmp_path, rid):
        """A recipe run reads none of --b, --eta1, --T, --theta and --batch;
        both artifacts record them as null, and the run stops at the
        recipe's t_star."""
        code = main(["run", "--generator", "synthetic-abs", "--m", "60", "--checkpoints", "4",
                     "--recipe", rid, "--batch", "--b", "7", "--eta1", "3", "--T", "9",
                     "--theta", "0.5", "--out", str(tmp_path / "r")])
        assert code == 0
        for suffix in (".model.json", ".stopping.json"):
            config = json.loads((tmp_path / ("r" + suffix)).read_text())["config"]
            assert [config[k] for k in ("b", "eta1", "T", "theta", "batch")] == [None] * 5
            assert config["recipe"] == rid
        stopping = json.loads((tmp_path / "r.stopping.json").read_text())
        assert stopping["checkpoints"][-1] == recipe(rid, 42).t_star  # the training split

    @pytest.mark.parametrize("extra", [
        ["--b", "6", "--eta1", "0.5", "--T", "150"],
        ["--recipe", "C4"],
        ["--batch", "--eta1", "0.5", "--T", "150"],
        ["--recipe", "BGM"],
    ], ids=["sgm", "sgm-recipe", "batch", "batch-recipe"])
    def test_model_file_reproduces_its_test_error(self, tmp_path, extra):
        """SGM and batch GM anchor the model on the training split, here
        of 3-feature gaussian inputs (the inner-product path): the model
        file's anchor points are that split's points, and its coefficients
        over them give the test error the stopping file records, bit for
        bit."""
        x = make_rng(4).random((160, 3))
        data = tmp_path / "d.csv"
        save_csv(Sample(x=x, y=np.sin(4 * x[:, 0]) + x[:, 1] * x[:, 2]), data)
        assert main(["run", "--data", str(data), "--sigma", "0.7", "--seed", "2", *extra,
                     "--out", str(tmp_path / "r")]) == 0
        model = json.loads((tmp_path / "r.model.json").read_text())
        stopping = json.loads((tmp_path / "r.stopping.json").read_text())
        train, _, test = split(load_csv(data), (0.7, 0.15, 0.15), seed=mix_seed(2, 1))
        np.testing.assert_array_equal(model["anchor_points"], train.x)
        anchors = AnchorSet(model["anchor_points"], KernelSpec("gaussian", sigma=0.7))
        chosen = Trajectory((0,), [model["coefficients"]], anchors)
        assert stopping["test_error"] == prediction_errors(predict(chosen, test.x), test.y)[0]

    def test_no_gram_is_alive_at_holdout(self, tmp_path, monkeypatch):
        """A kernel SGM run frees its m x m training Gram when SGM
        returns: at the entry of hold-out stopping (m = 700) no traced
        block is that large."""
        largest = []

        def probe(trajectory, validation, metric):
            largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
            return cli_holdout(trajectory, validation, metric=metric)

        cli_holdout = cli.holdout_stop
        monkeypatch.setattr(cli, "holdout_stop", probe)
        tracemalloc.start()
        try:
            code = main(["run", "--generator", "synthetic-abs", "--m", "1000", "--b", "10",
                         "--eta1", "0.5", "--T", "100", "--out", str(tmp_path / "r")])
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(json.loads((tmp_path / "r.model.json").read_text())["coefficients"]) == 700
        assert largest and largest[0] < 8 * 700 * 700

    @pytest.mark.parametrize("extra", [["--batch", "--eta1", "0.5", "--T", "40"],
                                       ["--recipe", "BGM"]], ids=["batch", "batch-recipe"])
    def test_batch_run_holds_no_gram_at_holdout(self, tmp_path, monkeypatch, extra):
        """Batch GM anchors its trajectory on the training points, and
        hold-out gets it on a set that holds no Gram: at its entry no
        traced block is m x m."""
        seen = []

        def probe(trajectory, validation, metric):
            seen.append((trajectory.anchors,
                         max(t.size for t in tracemalloc.take_snapshot().traces)))
            return cli_holdout(trajectory, validation, metric=metric)

        cli_holdout = cli.holdout_stop
        monkeypatch.setattr(cli, "holdout_stop", probe)
        tracemalloc.start()
        try:
            code = main(["run", "--generator", "synthetic-abs", "--m", "120", "--seed", "5",
                         *extra, "--out", str(tmp_path / "r")])
        finally:
            tracemalloc.stop()
        assert code == 0
        [(anchors, largest)] = seen
        assert not hasattr(anchors, "gram") and anchors.n == 84
        assert largest < 8 * 84 * 84


def test_grid_surrogate_and_theta_are_recorded_and_replay(tmp_path):
    """decompose --surrogate grid --theta and run --theta, which no other
    test sets, reach their artifacts' configs, and the decomposition's
    config replays through --config to the same bytes."""
    assert main(["decompose", "--preset", "sec9-sgm", "--T", "200", "--R", "4", "--N", "300",
                 "--surrogate", "grid", "--theta", "0.3", "--out", str(tmp_path / "g")]) == 0
    config = json.loads((tmp_path / "g.json").read_text())["config"]
    assert (config["surrogate"], config["theta"]) == ("grid", 0.3)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["decompose", "--config", str(tmp_path / "cfg.json"),
                 "--out", str(tmp_path / "h")]) == 0
    for ext in (".csv", ".json"):
        assert (tmp_path / ("h" + ext)).read_bytes() == (tmp_path / ("g" + ext)).read_bytes()
    assert main(["run", "--generator", "synthetic-abs", "--m", "200", "--b", "2", "--eta1", "0.1",
                 "--T", "300", "--theta", "0.4", "--out", str(tmp_path / "r")]) == 0
    for suffix in (".model.json", ".stopping.json"):
        assert json.loads((tmp_path / ("r" + suffix)).read_text())["config"]["theta"] == 0.4


def test_artifacts_equal_at_one_and_two_blas_threads(tmp_path):
    """Kernel runs on a CSV, a small rates grid and a decomposition write
    the same bytes with one OpenBLAS thread as with two or four. The b = 1
    run trains on 1050 points, so its blocked steps multiply 16 sampled
    Gram rows 1050 long by the coefficients; the decomposition forms its
    population values by tiles of a 2000-point surrogate's K."""
    data, big = tmp_path / "d.csv", tmp_path / "big.csv"
    for path, rows in ((data, 300), (big, 1500)):
        x = make_rng(8).random((rows, 3))
        save_csv(Sample(x=x, y=np.cos(3 * x[:, 0]) + x[:, 1] - x[:, 2] ** 2), path)
    runs = [["run", "--data", str(data), "--scale", "--sigma", "1.0", "--recipe", "C4",
             "--seed", "5", "--out"],
            ["rates", "--m-grid", "32,64,128", "--N", "300", "--trials", "2", "--seed", "5",
             "--out"],
            ["run", "--data", str(big), "--sigma", "1.0", "--b", "1", "--eta1", "0.5",
             "--T", "4000", "--seed", "5", "--out"],
            ["decompose", "--preset", "sec9-batch", "--seed", "5", "--out"]]
    artifacts = {}
    for threads in ("1", "2", "4"):
        env = _src_env(OPENBLAS_NUM_THREADS=threads)
        for i, argv in enumerate(runs):
            out = tmp_path / f"t{threads}" / f"a{i}"
            out.parent.mkdir(exist_ok=True)
            subprocess.run([sys.executable, "-m", "sgdlsq.cli", *argv, str(out)], env=env,
                           check=True, capture_output=True)
        artifacts[threads] = {p.name: p.read_bytes()
                              for p in sorted((tmp_path / f"t{threads}").iterdir())}
    assert len(artifacts["1"]) == 8
    assert artifacts["1"] == artifacts["2"] == artifacts["4"]


class TestNonFiniteFloats:
    """nan and +-inf are refused for every float field, from a flag or the
    config file, with exit 4 and the field's name; artifacts are strict
    JSON."""

    @pytest.mark.parametrize("argv, key", [
        (["decompose", "--m", "12", "--b", "2", "--T", "10", "--R", "3", "--N", "40",
          "--checkpoints", "3", "--noise-sd", "nan"], "noise_sd"),
        (["rates", "--m-grid", "16,24,32", "--trials", "2", "--N", "50", "--noise-sd", "nan"],
         "noise_sd"),
        (["run", "--generator", "synthetic-abs", "--m", "40", "--b", "2", "--eta1", "0.1",
          "--T", "20", "--noise-sd", "nan"], "noise_sd"),
        (["rates", "--m-grid", "16,24,32", "--trials", "2", "--N", "50", "--zeta", "inf"],
         "zeta"),
        (["recipes", "--m", "50", "--zeta", "nan"], "zeta"),
        (["recipes", "--m", "50", "--gamma=-inf"], "gamma"),
        (["decompose", "--config", "{eta1_inf}"], "eta1"),
    ], ids=["decompose-noise", "rates-noise", "run-noise", "rates-zeta", "recipes-zeta",
            "recipes-gamma", "config-eta1"])
    def test_refused_naming_the_field(self, tmp_path, capsys, argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta1": math.inf, "m": 12, "b": 2, "T": 10, "R": 3,
                                   "N": 40}))
        argv = [a.format(eta1_inf=cfg) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 4
        assert f"config key {key!r} must be finite" in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_json_writer_refuses_nan(self, tmp_path):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(tmp_path / "x.json", {}, value=math.nan)
        assert not (tmp_path / "x.json").exists()


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


_SMALL_RUN = ["--generator", "synthetic-abs", "--m", "40", "--b", "2", "--eta1", "0.1",
              "--T", "20", "--checkpoints", "3"]
# each command on small inputs: no drawn field can make m, T, N, R or max_t large
_SMALL_ARGS = {
    "decompose": ["--m", "20", "--b", "2", "--T", "20", "--R", "2", "--N", "30",
                  "--checkpoints", "3"],
    "rates": ["--m-grid", "8,12,16", "--trials", "2", "--N", "30"],
    "recipes": ["--m", "10"],
    "lemmas": ["--max-t", "20"],
    "run": _SMALL_RUN,
}
_SMALL_RECIPE_RUN = ["--generator", "synthetic-abs", "--m", "40", "--recipe", "C3",
                     "--checkpoints", "3"]
# (command, field) of every int and float flag
_NUMERIC_FIELDS = [(command, f.name) for command, fields in cli._FIELDS.items()
                   for f in fields if f.type in (int, float) and f.flag is not None]


class TestExitCodes:
    @pytest.mark.parametrize("argv, code, fragment", [
        (["rates", "--trials", "1"], 4, "--trials"),
        (["rates", "--m-grid", "16,x,64", "--trials", "2"], 4,
         "grid must be comma-separated integers, got '16,x,64'"),
        (["run", "--generator", "synthetic-abs", "--b", "1", "--eta1", "0.1", "--T", "5",
          "--fractions", "0.7,a,0.15"], 4, "fractions must be comma-separated floats"),
        (["run", "--data", "{latin1}", "--b", "1", "--eta1", "0.1", "--T", "5"], 3, "{latin1}"),
        (["decompose", "--config", "{latin1}"], 3, "{latin1}"),
        (["decompose", "--config", "{bach}"], 4,
         "config key 'algorithm' must be one of 'sgm', 'batch', got 'bach'"),
        (["run", "--data", "{ragged}", "--b", "1", "--eta1", "0.1", "--T", "5"], 3,
         "{ragged}, line 3: expected 2 cells, found 1"),
        (["rates", "--N", "0", "--m-grid", "16,24,32", "--trials", "2"], 4,
         "--N must be at least 1 surrogate point, got 0"),
        (["run", "--generator", "synthetic-abs", "--b", "1", "--eta1", "0.1", "--T", "5",
          "--fractions", "nan,0.5,0.5"], 4, "fractions must be finite, got nan, 0.5, 0.5"),
        (["decompose", "--T", "20", "--R", "2", "--N", "30", "--checkpoints", "0"], 4,
         "checkpoint count must be >= 1, got 0"),
        (["decompose", "--T", "20", "--R", "2", "--N", "30", "--checkpoints", "-3"], 4,
         "checkpoint count must be >= 1, got -3"),
        (["decompose", "--N", "0"], 4, "--N must be at least 1 surrogate point, got 0"),
        (["decompose", "--preset", "sec9-batch", "--N", "-5"], 4,
         "--N must be at least 1 surrogate point, got -5"),
        (["decompose", "--preset", "sec9-batch", "--T", "10", "--N", "30", "--sigma", "1e160"],
         4, "got sigma=1e+160"),
        (["run", "--data", "{nan_cell}", "--b", "1", "--eta1", "0.1", "--T", "5"], 3,
         "{nan_cell}, line 3: non-numeric or non-finite cell 'nan'"),
    ], ids=["trials-1", "m-grid", "fractions", "data-not-utf8", "config-not-utf8",
            "config-algorithm", "data-ragged-row", "N-0", "fractions-nan", "checkpoints-0",
            "checkpoints-neg", "decompose-N-0", "decompose-batch-N-neg", "sigma-overflow",
            "data-nan-cell"])
    def test_bad_input_exit_code_and_message(self, tmp_path, capsys, argv, code, fragment):
        files = {"latin1": tmp_path / "latin1.csv", "bach": tmp_path / "bach.json",
                 "ragged": tmp_path / "ragged.csv", "nan_cell": tmp_path / "nan_cell.csv"}
        files["latin1"].write_bytes("x1,y\n0.5,caf\xe9\n".encode("latin-1"))
        files["bach"].write_text(json.dumps({"algorithm": "bach", "m": 12, "b": 2, "T": 10,
                                             "R": 3, "N": 40, "checkpoints": 3}))
        files["ragged"].write_text("x1,y\n0.5,1.0\n0.25\n")
        files["nan_cell"].write_text("x1,y\n0.5,1.0\n0.25,nan\n")
        argv = [a.format(**files) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert fragment.format(**files) in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

    def test_failed_check_is_exit_1(self, tmp_path, monkeypatch, capsys):
        """A failed lemma verdict, or a decomposition report whose total
        breaks the inequality its own terms give, is exit 1; the artifacts
        are still written."""
        monkeypatch.setattr(cli, "acceptance_sweep", lambda t_max: [
            sgdlsq.LemmaVerdict("lemma-x", {"t": 3}, lhs=2.0, bound=1.0)])
        assert main(["lemmas", "--out", str(tmp_path / "v.csv")]) == 1
        assert "FAIL lemma-x" in capsys.readouterr().err
        real = cli.decompose_batch
        monkeypatch.setattr(cli, "decompose_batch", lambda *args: dataclasses.replace(
            real(*args), total=np.full(len(args[6]), 1e9)))
        assert main(["decompose", "--preset", "sec9-batch", "--T", "20", "--N", "100",
                     "--out", str(tmp_path / "d")]) == 1
        assert "decomposition inequality violated" in capsys.readouterr().err
        assert _read_csv(tmp_path / "d.csv")[0]["ineq_ok"] == "False"

    @settings(max_examples=48, deadline=None)
    @given(case=st.sampled_from(_NUMERIC_FIELDS),
           value=st.sampled_from(["0", "-1", "nan", "inf", "-inf", "1e160", "1e-170"]))
    @example(case=("run", "sigma"), value="1e160")  # 2 sigma^2 overflows
    @example(case=("decompose", "sigma"), value="1e-170")  # and underflows to 0
    def test_no_numeric_input_is_an_internal_error(self, tmp_path_factory, case, value):
        """A command run on small inputs, with one numeric field set to an
        edge value, never exits 6; where it exits 0 its JSON artifacts are
        strict. A run's recipe settings are drawn in recipe mode, where it
        reads them."""
        command, field = case
        recipe_run = command == "run" and field in {f.name for f in cli._RECIPE_FIELDS}
        argv = [command, *(_SMALL_RECIPE_RUN if recipe_run else _SMALL_ARGS[command]),
                f"--{field.replace('_', '-')}={value}"]
        tmp = tmp_path_factory.mktemp("edge")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = main(argv + ["--out", str(tmp / ("a.csv" if command == "lemmas" else "a"))])
            except SystemExit as exc:  # argparse refuses a non-integer int flag
                code = exc.code
        assert code != 6, (argv, err.getvalue())
        if code == 0:
            for path in tmp.glob("a*json"):
                json.loads(path.read_text(), parse_constant=_refuse_constant)

    def test_internal_error_is_exit_6_with_traceback(self, monkeypatch, capsys):
        def broken(args):
            raise KeyError("no such field")

        monkeypatch.setattr(cli, "cmd_lemmas", broken)
        assert main(["lemmas"]) == 6
        err = capsys.readouterr().err
        assert "Traceback" in err and "KeyError: 'no such field'" in err


def _subparser(command):
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[command]


# an artifact's config holds every field of its subcommand plus these
_PROVENANCE = {"rng", "seed_mixer", "version"}


class TestFieldTable:
    def test_provenance_writes_no_field_name(self):
        """The keys provenance adds to a config never overwrite a field."""
        written = set(cli._provenance({}))
        assert written <= set(cli._PROVENANCE_KEYS)
        for command, fields in cli._FIELDS.items():
            assert not written & {f.name for f in fields}, command

    @pytest.mark.parametrize("command", ["decompose", "rates", "recipes", "lemmas", "run"])
    def test_parser_flags_are_the_table_fields(self, command):
        flags = {(opt, a.dest) for a in _subparser(command)._actions for opt in a.option_strings}
        flags -= {("-h", "help"), ("--help", "help"), ("--out", "out"), ("--config", "config"),
                  ("--preset", "preset")}
        assert flags == {("--" + f.name.replace("_", "-"), f.name)
                         for f in cli._FIELDS[command] if f.flag is not None}

    @pytest.mark.parametrize("command, argv, artifacts, extra", [
        ("decompose", ["--m", "12", "--b", "2", "--T", "10", "--R", "3", "--N", "40",
                       "--checkpoints", "3"], [".json"], {"preset"}),
        ("rates", ["--m-grid", "16,24,32", "--trials", "2", "--N", "50"], [".json"], set()),
        ("recipes", ["--m", "50"], [""], set()),
        ("run", ["--generator", "synthetic-abs", "--m", "40", "--b", "2", "--eta1", "0.1",
                 "--T", "20", "--checkpoints", "3"], [".model.json", ".stopping.json"], set()),
    ], ids=["decompose", "rates", "recipes", "run"])
    def test_artifact_config_keys_are_the_table_fields(self, tmp_path, command, argv,
                                                       artifacts, extra):
        assert main([command, *argv, "--out", str(tmp_path / "a")]) == 0
        want = {f.name for f in cli._FIELDS[command]} | _PROVENANCE | extra
        for suffix in artifacts:
            config = json.loads((tmp_path / ("a" + suffix)).read_text())["config"]
            assert set(config) == want


def _refuse_constant(name):
    raise ValueError(f"artifact holds {name}")


@pytest.mark.parametrize("argv, jsons, csvs", [
    (["decompose", "--m", "12", "--b", "2", "--T", "10", "--R", "3", "--N", "40",
      "--checkpoints", "3"], [".json"], {".csv": (DECOMPOSE_COLUMNS, 3)}),
    (["decompose", "--preset", "sec9-batch", "--T", "20", "--N", "60", "--checkpoints", "4"],
     [".json"], {".csv": (DECOMPOSE_COLUMNS, 4)}),
    (["rates", "--m-grid", "16,32,64", "--trials", "2", "--N", "50"], [".json"],
     {".csv": (["m", "excess_risk", "se", "b", "eta1", "t_star", "passes"], 3)}),
    (["run", *_SMALL_RUN], [".model.json", ".stopping.json"], {}),
    (["run", *_SMALL_RUN, "--backend", "euclidean", "--scale"],
     [".model.json", ".stopping.json"], {}),
    (["recipes", "--m", "50"], [""], {}),
], ids=["decompose-sgm", "decompose-batch", "rates", "run-kernel", "run-euclidean", "recipes"])
def test_artifacts_share_one_format(tmp_path, capsys, argv, jsons, csvs):
    """Every JSON artifact is strict and embeds a config its own field
    table accepts, each value of its field's type and among its choices; a
    CSV holds that config as its ``# config:`` line, then a header and one
    LF-ended line per JSON row; recipes writes the same bytes to stdout as
    to --out."""
    out = tmp_path / "a"
    assert main([*argv, "--out", str(out)]) == 0
    fields = {f.name: f for f in cli._FIELDS[argv[0]]}
    docs = [json.loads((tmp_path / ("a" + suffix)).read_text(encoding="utf-8"),
                       parse_constant=_refuse_constant) for suffix in jsons]
    for doc in docs:
        assert doc["config"] == docs[0]["config"]
        for key, val in doc["config"].items():
            if key in fields and val is not None:
                cli._file_value(key, val, fields[key].type)
                assert not fields[key].choices or val in fields[key].choices, (key, val)
    for suffix, (header, n_rows) in csvs.items():
        data = (tmp_path / ("a" + suffix)).read_bytes()
        assert b"\r" not in data
        config, *lines = data.decode("utf-8").split("\n")
        assert lines.pop() == ""
        assert json.loads(config.removeprefix("# config: "),
                          parse_constant=_refuse_constant) == docs[0]["config"]
        assert lines[0] == ",".join(header)
        assert len(lines) == 1 + n_rows == 1 + len(docs[0]["rows"])
        assert [line.split(",") for line in lines[1:]] == [
            [str(row[k]) for k in header] for row in docs[0]["rows"]]
    if argv[0] == "recipes":
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


_DECOMPOSE_FIELDS = cli._FIELDS["decompose"]


def _field_values(field):
    """Values of a field's own type (one of its choices, if limited)."""
    if field.choices:
        return st.sampled_from(field.choices)
    if field.type is int:
        return st.integers(-10**6, 10**6)
    if field.type is float:
        return st.floats(-1e6, 1e6, allow_nan=False)
    return st.text(max_size=8)


def _wrong_values(field):
    """JSON values a config file may not give the field: another type, or
    a string outside its choices."""
    other = [st.booleans(), st.lists(st.integers(), max_size=2),
             st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)]
    if field.type is int:
        other += [st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=4)]
    elif field.type is float:
        other.append(st.text(max_size=4))
    else:
        other.append(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
        if field.choices:
            other.append(st.text(max_size=6).filter(lambda v: v not in field.choices))
    return st.one_of(other)


class TestResolveProperties:
    """cli._resolve: a flag beats the --config file, which beats the
    preset, which beats the field's default; a file value of the wrong
    type or outside the field's choices is exit 4, naming the key."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), present=st.tuples(st.booleans(), st.booleans(), st.booleans()))
    def test_precedence(self, tmp_path_factory, data, present):
        field = data.draw(st.sampled_from(_DECOMPOSE_FIELDS))
        has_flag, has_file, has_preset = present
        has_flag = has_flag and field.flag is not None
        flag, from_file, from_preset = (data.draw(_field_values(field)) if on else None
                                        for on in (has_flag, has_file, has_preset))
        cfg = tmp_path_factory.mktemp("resolve") / "cfg.json"
        cfg.write_text(json.dumps({field.name: from_file} if has_file else {}))
        args = argparse.Namespace(config=str(cfg), preset="drawn" if has_preset else None,
                                  **{field.name: flag})
        with mock.patch.dict(cli._PRESETS, {"drawn": {field.name: from_preset}}):
            got = cli._resolve(args, "decompose")[field.name]
        want = next((v for v in (flag, from_file, from_preset) if v is not None),
                    field.default)
        assert got == want and type(got) is type(want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bad_config_value_is_exit_4_naming_the_key(self, tmp_path_factory, data):
        field = data.draw(st.sampled_from(_DECOMPOSE_FIELDS))
        value = data.draw(_wrong_values(field))
        tmp = tmp_path_factory.mktemp("bad")
        (tmp / "cfg.json").write_text(json.dumps({field.name: value}))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["decompose", "--config", str(tmp / "cfg.json"), "--out",
                         str(tmp / "x")])
        assert code == 4
        assert f"config key {field.name!r}" in err.getvalue()
        assert not list(tmp.glob("x*"))
