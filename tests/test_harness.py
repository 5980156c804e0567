import json
from pathlib import Path

import numpy as np
import pytest

from cylmart.cli import main
from cylmart.experiments import EXPERIMENTS, experiment_defaults, param_floor
from cylmart.harness import (
    ConfigError,
    ReplayMismatch,
    RunReport,
    emit_plotdata,
    make_config,
    replay,
    run,
    validate_config,
)
from cylmart.martingales import NoiseSpec, simulate
from cylmart.measures import TimeGrid


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = make_config("kw")
        assert cfg["experiment"] == "kw"
        assert cfg["params"]["paths"] == 1000
        assert cfg["schema"] == 1

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            make_config("mystery")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            validate_config({"experiment": "kw", "typo": 1})

    def test_unknown_param_key(self):
        with pytest.raises(ConfigError, match="unknown params"):
            validate_config({"experiment": "kw", "params": {"pths": 100}})

    def test_missing_experiment(self):
        with pytest.raises(ConfigError, match="missing config fields"):
            validate_config({"seed": 1})

    def test_bad_schema_version(self):
        with pytest.raises(ConfigError, match="schema version"):
            validate_config({"experiment": "kw", "schema": 99})

    def test_override_params(self):
        cfg = make_config("kw", paths=50, instances=2)
        assert cfg["params"]["paths"] == 50
        assert cfg["params"]["instances"] == 2


class TestRun:
    def test_writes_content_addressed_directory(self, tmp_path):
        cfg = make_config("countex", out=str(tmp_path))
        rep = run(cfg)
        assert rep.run_dir is not None
        run_dir = Path(rep.run_dir)
        assert run_dir.name.startswith("countex-")
        assert (run_dir / "report.json").exists()
        assert (run_dir / "countex_orders.csv").exists()

    def test_existing_directory_refused(self, tmp_path):
        cfg = make_config("countex", out=str(tmp_path))
        run(cfg)
        with pytest.raises(FileExistsError, match="already exists"):
            run(cfg)
        run(cfg, force=True)  # explicit reuse allowed

    def test_different_config_different_directory(self, tmp_path):
        a = run(make_config("countex", out=str(tmp_path)))
        b = run(make_config("countex", seed=777, out=str(tmp_path)))
        assert a.run_dir != b.run_dir

    def test_report_has_criterion_fields(self, tmp_path):
        rep = run(make_config("countex", out=str(tmp_path)))
        obj = json.loads((Path(rep.run_dir) / "report.json").read_text())
        assert {"experiment", "config", "criteria", "metrics"} <= set(obj)
        for crit in obj["criteria"]:
            assert {"name", "pass", "value", "target"} <= set(crit)

    def test_crash_while_writing_keeps_previous_report(self, tmp_path, monkeypatch):
        cfg = make_config("countex", out=str(tmp_path))
        run_dir = Path(run(cfg).run_dir)
        before = (run_dir / "report.json").read_text()

        def crash(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr("cylmart.harness.os.replace", crash)
        with pytest.raises(OSError, match="disk gone"):
            run(cfg, force=True)
        assert (run_dir / "report.json").read_text() == before
        assert not list(run_dir.glob("*.tmp"))
        replay(run_dir)


class TestReplay:
    def test_bit_identical(self, tmp_path):
        cfg = make_config("kw", out=str(tmp_path), paths=100, instances=3)
        rep = run(cfg)
        fresh = replay(rep.run_dir)
        assert fresh.metrics == rep.metrics

    def test_tampered_metric_detected(self, tmp_path):
        cfg = make_config("kw", out=str(tmp_path), paths=100, instances=3)
        rep = run(cfg)
        path = Path(rep.run_dir) / "report.json"
        obj = json.loads(path.read_text())
        key = next(iter(obj["metrics"]))
        obj["metrics"][key] = obj["metrics"][key] + 1e-9
        path.write_text(json.dumps(obj))
        with pytest.raises(ReplayMismatch, match="differs"):
            replay(path)

    def test_tampered_seed_detected(self, tmp_path):
        cfg = make_config("kw", out=str(tmp_path), paths=100, instances=3)
        rep = run(cfg)
        path = Path(rep.run_dir) / "report.json"
        obj = json.loads(path.read_text())
        obj["config"]["seed"] = obj["config"]["seed"] + 1
        path.write_text(json.dumps(obj))
        with pytest.raises(ReplayMismatch, match="differs"):
            replay(path)

    def test_partial_bundle_structured_error(self, tmp_path):
        with pytest.raises(ReplayMismatch, match="no report found"):
            replay(tmp_path / "missing")
        bad = tmp_path / "report.json"
        bad.write_text("{\"experiment\": \"kw\"}")
        with pytest.raises(ReplayMismatch, match="missing field"):
            replay(bad)
        bad.write_text("not json at all")
        with pytest.raises(ReplayMismatch, match="unreadable"):
            replay(bad)


class TestPlotdata:
    def test_ladder_series_rows(self, tmp_path):
        rep = run(make_config("countex", out=str(tmp_path)))
        csv_path = Path(rep.run_dir) / "countex_orders.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "order,bracket_total,max_direction_bracket"
        assert len(lines) == 1 + 4  # header + one row per order

    def test_empty_series_no_files(self, tmp_path):
        report = RunReport(
            experiment="x", config={}, criteria=[], metrics={}, series={}
        )
        assert emit_plotdata(report, tmp_path) == []

    def test_header_only_series(self, tmp_path):
        report = RunReport(
            experiment="x",
            config={},
            criteria=[],
            metrics={},
            series={"empty_panel": {"columns": ["a", "b"], "rows": []}},
        )
        paths = emit_plotdata(report, tmp_path)
        assert paths[0].read_text().strip() == "a,b"


class TestCli:
    def test_experiment_run_exit_zero(self, tmp_path, capsys):
        code = main(["countex", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] countex/countex-bracket-linear" in out

    def test_replay_subcommand(self, tmp_path, capsys):
        main(["countex", "--out", str(tmp_path)])
        run_dir = next(Path(tmp_path).iterdir())
        code = main(["replay", str(run_dir)])
        assert code == 0
        assert "metrics identical" in capsys.readouterr().out

    def test_unknown_flag_param(self, tmp_path, capsys):
        code = main(["countex", "--paths", "10", "--out", str(tmp_path)])
        assert code == 2
        assert "takes no --paths" in capsys.readouterr().err

    def test_config_file_merge(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"params": {"instances": 2, "paths": 64}}))
        code = main(
            ["kw", "--config", str(cfg_file), "--seed", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads(
            (next(Path(tmp_path).glob("kw-*")) / "report.json").read_text()
        )
        assert report["config"]["params"]["instances"] == 2
        assert report["config"]["seed"] == 5

    def test_plotdata_subcommand(self, tmp_path, capsys):
        main(["countex", "--out", str(tmp_path)])
        run_dir = next(Path(tmp_path).iterdir())
        dest = tmp_path / "plots"
        code = main(["plotdata", str(run_dir / "report.json"), "--out", str(dest)])
        assert code == 0
        assert (dest / "countex_orders.csv").exists()

    @pytest.mark.parametrize(
        "argv", [["see", "--paths", "-5"], ["see", "--paths", "0"], ["see", "--grid", "0"]]
    )
    def test_non_positive_size_is_a_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "is not a positive integer" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_negative_seed_is_refused_before_simulation(self):
        with pytest.raises(ValueError, match="non-negative"):
            simulate(NoiseSpec(1, 1, np.eye(1)), TimeGrid.uniform(1.0, 4), 3, -5)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            make_config("kw", seed=-5, paths=100, instances=3)

    @pytest.mark.parametrize("seed", ["-1", "1.5", "x"])
    def test_bad_seed_flag_is_a_usage_error(self, tmp_path, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            main(["kw", "--seed", seed, "--paths", "4", "--out", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "argument --seed" in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "loaded, message",
        [
            ({"seed": -1}, "seed must be a non-negative integer"),
            ({"params": {"paths": -5}}, "'paths' must be a positive integer"),
            ({"params": {"grid": 0}}, "'grid' must be a positive integer"),
            ({"params": {"instances": -1, "paths": 8}}, "'instances' must be a positive integer"),
            (
                {"experiment": "supmeas", "params": {"refine": -1}},
                "'refine' must be a non-negative integer",
            ),
            (
                {"experiment": "supmeas", "params": {"max_cells": 0}},
                "'max_cells' must be a positive integer",
            ),
            (
                {"experiment": "timechange", "params": {"ladder": 0}},
                "'ladder' must be an integer >= 2",
            ),
            (
                {"experiment": "timechange", "params": {"ladder": 1}},
                "'ladder' must be an integer >= 2",
            ),
            ({"experiment": "ito", "params": {"ladder": 1}}, "'ladder' must be an integer >= 2"),
            (
                {"experiment": "see", "params": {"paths": 1}},
                "'paths' must be a positive integer, at least 2 in 'see'",
            ),
            (
                {"experiment": "see", "params": {"grid": 1}},
                "'grid' must be a positive integer, at least 8 in 'see'",
            ),
            (
                {"experiment": "bdg", "params": {"paths": 1}},
                "'paths' must be a positive integer, at least 2 in 'bdg'",
            ),
            (
                {"experiment": "ito", "params": {"paths": 1}},
                "'paths' must be a positive integer, at least 4 in 'ito'",
            ),
            (
                {"experiment": "countex", "params": {"orders": []}},
                "'orders' must be a non-empty list of positive integers",
            ),
            (
                {"experiment": "bdg", "params": {"p_list": []}},
                "'p_list' must be a non-empty list of finite numbers > 0",
            ),
            (
                {"experiment": "bdg", "params": {"p_list": [-1]}},
                "'p_list' must be a non-empty list of finite numbers > 0",
            ),
            ({"experiment": "see", "params": {"tol": "x"}}, "'tol' must be a finite number > 0"),
        ],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, loaded, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(loaded))
        out = tmp_path / "runs"
        experiment = loaded.get("experiment", "kw")
        code = main([experiment, "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()


# Sizes at which every experiment runs in well under a second.
SMALL_SIZES = {
    "bdg": {"paths": 200, "instances": 2, "iso_instances": 2, "gamma_samples": 256},
    "supmeas": {
        "max_cells": 4,
        "max_measures": 2,
        "instances_per_shape": 1,
        "density_instances": 5,
    },
    "see": {"paths": 200, "grid": 32, "contraction_paths": 100, "loc_paths": 32},
    "qv": {"paths": 50, "grid": 16, "sphere": 16, "instances": 5},
    "countex": {"orders": [1, 4]},
    "timechange": {"paths": 100, "grid": 16, "ladder": 2, "ladder_paths": 50},
    "gamma": {"instances": 5, "ideal_instances": 5, "bound_instances": 5, "samples": 256},
    "ito": {"paths": 200, "grid": 16, "ladder": 2},
    "kw": {"paths": 100, "instances": 2, "grid": 8},
    "projsel": {"instances": 10},
}


class TestConfigRanges:
    @pytest.mark.parametrize("seed", [-1, 1.5, "7", True, None])
    def test_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({"experiment": "kw", "seed": seed})

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**64 - 1])
    def test_integer_seeds_accepted(self, seed):
        cfg = validate_config({"experiment": "kw", "seed": seed})
        assert cfg["seed"] == seed and type(cfg["seed"]) is int

    @pytest.mark.parametrize("size", ["paths", "grid"])
    @pytest.mark.parametrize("value", [0, -5, 2.5, "10", False])
    def test_sizes_must_be_positive_integers(self, size, value):
        with pytest.raises(ConfigError, match=f"'{size}' must be a positive integer"):
            validate_config({"experiment": "ito", "params": {size: value}})

    @pytest.mark.parametrize(
        "experiment, name",
        [
            (experiment, name)
            for experiment in sorted(EXPERIMENTS)
            for name, default in experiment_defaults(experiment).items()
            if isinstance(default, int)
        ],
    )
    def test_integer_params_have_a_floor(self, experiment, name):
        least = param_floor(experiment, name)
        cfg = validate_config({"experiment": experiment, "params": {name: least}})
        assert cfg["params"][name] == least
        for bad in (least - 1, least + 0.5, str(least), True):
            with pytest.raises(ConfigError, match=f"param '{name}' must be"):
                validate_config({"experiment": experiment, "params": {name: bad}})

    @pytest.mark.parametrize(
        "experiment, name, bad",
        [
            ("countex", "orders", [4, 0]),
            ("countex", "orders", [4, 2.5]),
            ("countex", "orders", 4),
            ("bdg", "p_list", [1, float("inf")]),
            ("bdg", "p_list", [1, True]),
            ("bdg", "p_list", "1,2"),
            ("see", "tol", 0.0),
            ("see", "tol", -1e-8),
            ("see", "tol", float("nan")),
            ("see", "tol", None),
        ],
    )
    def test_list_and_real_params_are_checked(self, experiment, name, bad):
        with pytest.raises(ConfigError, match=f"param '{name}' must be"):
            validate_config({"experiment": experiment, "params": {name: bad}})

    @pytest.mark.parametrize(
        "experiment, name, good",
        [("countex", "orders", [1, 3]), ("bdg", "p_list", [0.5, 3]), ("see", "tol", 1)],
    )
    def test_list_and_real_params_accept_their_range(self, experiment, name, good):
        cfg = validate_config({"experiment": experiment, "params": {name: good}})
        assert cfg["params"][name] == good

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "experiment, name",
        [
            (experiment, name)
            for experiment in sorted(EXPERIMENTS)
            for name in [None] + sorted(
                name
                for name, default in experiment_defaults(experiment).items()
                if isinstance(default, int)
            )
        ],
    )
    def test_every_floor_runs_to_a_verdict(self, experiment, name):
        # name None puts every integer param at its floor at once
        floors = {
            n: param_floor(experiment, n)
            for n, default in experiment_defaults(experiment).items()
            if isinstance(default, int) and (name is None or n == name)
        }
        cfg = validate_config(
            {"experiment": experiment, "params": {**SMALL_SIZES[experiment], **floors}}
        )
        res = EXPERIMENTS[experiment](cfg["params"], cfg["seed"])
        assert res.criteria
        assert all(isinstance(c.passed, bool) for c in res.criteria)

    def test_supmeas_with_nothing_checked_fails(self):
        params = {**experiment_defaults("supmeas"), "max_cells": 0, "density_instances": 1}
        crit = {c.name: c for c in EXPERIMENTS["supmeas"](params, 20240).criteria}
        assert not crit["supmeas-oracle-exact"].passed
        assert "(0 instances)" in crit["supmeas-oracle-exact"].target
