import argparse
import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import Sample, cli, gen_synthetic_abs, recipe, save_csv
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
        assert payload["config"]["generator"] == "philox4x64"

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
        reproduces the artifact bit for bit."""
        out1 = tmp_path / "first"
        main(["decompose", "--m", "14", "--b", "2", "--eta1", "0.04", "--T", "30",
              "--R", "5", "--N", "70", "--checkpoints", "5", "--seed", "13",
              "--out", str(out1)])
        payload = json.loads((tmp_path / "first.json").read_text())
        cfg = tmp_path / "echoed.json"
        cfg.write_text(json.dumps(payload["config"]))
        out2 = tmp_path / "second"
        assert main(["decompose", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (tmp_path / "first.csv").read_text() == (tmp_path / "second.csv").read_text()

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
        sobolev run no --sigma; both artifacts record those as null."""
        assert main(["run", "--generator", "synthetic-abs", "--m", "40", *space, "--sigma",
                     "0.3", "--b", "1", "--eta1", "0.1", "--T", "5",
                     "--out", str(tmp_path / "r")]) == 0
        for suffix in (".model.json", ".stopping.json"):
            config = json.loads((tmp_path / ("r" + suffix)).read_text())["config"]
            assert (config["kernel"], config["sigma"]) == (
                kernel, 0.3 if kernel == "gaussian" else None)

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
        the run starts and its step size eta1 / kappa^2 keeps it stable.
        The labels shrink with the points, so the kernel coefficients,
        of order y / kappa^2, stay below the divergence limit."""
        s = gen_synthetic_abs(40, seed=7)
        save_csv(Sample(x=s.x * 1e-7, y=s.y * 1e-7), tmp_path / "near0.csv")
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


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lemmas", "--no-such-flag"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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
    ], ids=["trials-1", "m-grid", "fractions", "data-not-utf8", "config-not-utf8",
            "config-algorithm", "data-ragged-row", "N-0", "fractions-nan"])
    def test_bad_input_exit_code_and_message(self, tmp_path, capsys, argv, code, fragment):
        files = {"latin1": tmp_path / "latin1.csv", "bach": tmp_path / "bach.json",
                 "ragged": tmp_path / "ragged.csv"}
        files["latin1"].write_bytes("x1,y\n0.5,caf\xe9\n".encode("latin-1"))
        files["bach"].write_text(json.dumps({"algorithm": "bach", "m": 12, "b": 2, "T": 10,
                                             "R": 3, "N": 40, "checkpoints": 3}))
        files["ragged"].write_text("x1,y\n0.5,1.0\n0.25\n")
        argv = [a.format(**files) for a in argv]
        assert main(argv + ["--out", str(tmp_path / "out")]) == code
        assert fragment.format(**files) in capsys.readouterr().err
        assert not list(tmp_path.glob("out*"))

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
_PROVENANCE = {"generator", "seed_mixer", "version"}


class TestFieldTable:
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
        args = argparse.Namespace(config=str(cfg), **{field.name: flag})
        preset = {field.name: from_preset} if has_preset else None
        got = cli._resolve(args, "decompose", preset)[field.name]
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
