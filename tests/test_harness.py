import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cylmart
import cylmart.experiments as experiments
from cylmart.cli import EXIT_BROKEN_PIPE, main
from cylmart.experiments import EXPERIMENTS, PARAMS, Param
from cylmart.gammanorm import FubiniReport, GammaEstimate
from cylmart.harness import (
    DEFAULT_SEED,
    DETERMINISM,
    SCHEMA_VERSION,
    ConfigError,
    ReplayMismatch,
    RunReport,
    emit_plotdata,
    load_report,
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
        with pytest.raises(ConfigError, match=r"unknown experiment \[1\]"):
            validate_config({"experiment": [1]})

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

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ([1], "a config must be a JSON object"),
            ("kw", "a config must be a JSON object"),
            ({"experiment": "kw", "params": [1]}, "config params must be a JSON object"),
            ({"experiment": "kw", "params": None}, "config params must be a JSON object"),
        ],
    )
    def test_config_and_params_must_be_objects(self, cfg, message):
        with pytest.raises(ConfigError, match=message):
            validate_config(cfg)

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

    def test_array_placement_does_not_depend_on_earlier_frees(self, tmp_path):
        # with glibc's dynamic thresholds a fresh 10 MiB array gets its own
        # mapping, but once a 20 MiB mapping is freed the next one comes
        # from the brk heap
        import ctypes

        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("needs glibc >= 2.33")
        script = f"""
import ctypes
import numpy as np
from cylmart.harness import make_config, run

class Info(ctypes.Structure):
    _fields_ = [(f, ctypes.c_size_t) for f in
                "arena ordblks smblks hblks hblkhd usmblks fsmblks uordblks fordblks keepcost".split()]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = Info

def mapped_bytes(n):
    before = libc.mallinfo2().hblkhd
    a = np.ones(n)
    return libc.mallinfo2().hblkhd - before

run(make_config("countex", out={str(tmp_path)!r}))
first = mapped_bytes(10 << 17)
mapped_bytes(20 << 17)
print(first, mapped_bytes(10 << 17))
"""
        src = str(Path(cylmart.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        first, after_free = map(int, out.split())
        assert first == after_free


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

    def test_report_records_determinism_version(self, tmp_path):
        rep = run(make_config("countex", out=str(tmp_path)))
        obj = json.loads((Path(rep.run_dir) / "report.json").read_text())
        assert obj["determinism"] == DETERMINISM == 7

    @pytest.mark.parametrize(
        "version",
        [1, 2, 3, 4, 5, 6, None],
        ids=[
            "version-1",
            "version-2",
            "version-3",
            "version-4",
            "version-5",
            "version-6",
            "no-field",
        ],
    )
    def test_other_determinism_version_refused_before_running(
        self, tmp_path, monkeypatch, version
    ):
        rep = run(make_config("countex", out=str(tmp_path)))
        path = Path(rep.run_dir) / "report.json"
        obj = json.loads(path.read_text())
        if version is None:
            del obj["determinism"]  # written before the field existed
        else:
            obj["determinism"] = version
        path.write_text(json.dumps(obj))
        stored = 1 if version is None else version

        def must_not_run(*args):
            raise AssertionError("an experiment ran")

        monkeypatch.setitem(EXPERIMENTS, "countex", must_not_run)
        with pytest.raises(ReplayMismatch, match=rf"version {stored}\b.*version 7\b"):
            replay(path)

    def test_non_finite_values_written_as_standard_json(self, tmp_path, capsys):
        # with every slack NaN, kw's gate fails and its value is inf; the
        # report spells it "inf" (it used to hold the bare token Infinity)
        # and replay reads it back as the float it compares
        real = experiments.kunita_watanabe_check

        def nan_slack(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), worst_slack=np.nan)

        def refuse(token):
            raise ValueError(f"non-standard JSON constant {token}")

        with mock.patch.object(experiments, "kunita_watanabe_check", nan_slack):
            rep = run(make_config("kw", out=str(tmp_path), paths=50, instances=2))
            obj = json.loads((Path(rep.run_dir) / "report.json").read_text(), parse_constant=refuse)
            assert obj["metrics"]["kw-no-violation"] == "inf"
            assert [c["value"] for c in obj["criteria"]] == ["inf"]
            assert load_report(rep.run_dir).metrics["kw-no-violation"] == np.inf
            assert main(["replay", rep.run_dir]) == 1  # the gate fails, as in the run
        out = capsys.readouterr().out
        assert "metrics identical" in out and "[FAIL] kw/kw-no-violation: inf" in out

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

    def test_default_config_is_make_configs(self, tmp_path, capsys):
        # one default seed and schema version: the CLI and make_config agree,
        # so both name the same run directory
        main(["countex", "--out", str(tmp_path)])
        report = json.loads((next(Path(tmp_path).iterdir()) / "report.json").read_text())
        assert report["config"] == make_config("countex", out=str(tmp_path))
        assert report["config"]["seed"] == DEFAULT_SEED
        assert report["config"]["schema"] == SCHEMA_VERSION

    def test_replay_subcommand(self, tmp_path, capsys):
        main(["countex", "--out", str(tmp_path)])
        run_dir = next(Path(tmp_path).iterdir())
        code = main(["replay", str(run_dir)])
        assert code == 0
        assert "metrics identical" in capsys.readouterr().out

    def test_replay_of_other_determinism_version_exits_2(self, tmp_path, capsys):
        main(["countex", "--out", str(tmp_path)])
        run_dir = next(Path(tmp_path).iterdir())
        obj = json.loads((run_dir / "report.json").read_text())
        obj["determinism"] = 1
        (run_dir / "report.json").write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["replay", str(run_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "determinism version 1" in captured.err
        assert "Traceback" not in captured.err

    def test_replay_into_closed_pipe_exits_quietly(self, tmp_path, capsys):
        # as in `cylmart replay run | head -1`: the reader is gone before the
        # first line, so every write to standard output fails
        main(["countex", "--out", str(tmp_path)])
        run_dir = next(Path(tmp_path).iterdir())
        src = str(Path(cylmart.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "cylmart.cli", "replay", str(run_dir)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
        assert err == b""

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

    def test_out_precedence(self, tmp_path, capsys, monkeypatch):
        # the --out flag, then the config file's out, then runs/
        monkeypatch.chdir(tmp_path)
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": str(tmp_path / "from-file")}))
        assert main(["countex", "--config", str(cfg_file)]) == 0
        assert len(list((tmp_path / "from-file").glob("countex-*"))) == 1
        assert not (tmp_path / "runs").exists()
        flag = tmp_path / "from-flag"
        assert main(["countex", "--config", str(cfg_file), "--out", str(flag)]) == 0
        assert len(list(flag.glob("countex-*"))) == 1
        assert main(["countex"]) == 0
        assert len(list((tmp_path / "runs").glob("countex-*"))) == 1

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
        with pytest.raises(ValueError, match="seed must be an integer >= 0, got -5$"):
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
                "'ladder' must be a positive integer, at least 2 in 'timechange'",
            ),
            (
                {"experiment": "timechange", "params": {"ladder": 1}},
                "'ladder' must be a positive integer, at least 2 in 'timechange'",
            ),
            (
                {"experiment": "ito", "params": {"ladder": 1}},
                "'ladder' must be a positive integer, at least 2 in 'ito'",
            ),
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
            *[
                (
                    {"experiment": "see", "params": {"grid": grid}},
                    "'grid' must be a positive integer, at least 8 in 'see'",
                )
                for grid in (5, 6, 7)
            ],
            ({"experiment": "see", "params": {"grid": 10}}, "'grid' must be a multiple of 4 in 'see'"),
            ([1], "does not hold a JSON object"),
            (3, "does not hold a JSON object"),
            ({"params": [1]}, "config params must be a JSON object, got [1]"),
        ],
    )
    def test_bad_config_file_exits_2(self, tmp_path, capsys, loaded, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(loaded))
        out = tmp_path / "runs"
        experiment = loaded.get("experiment", "kw") if isinstance(loaded, dict) else "kw"
        code = main([experiment, "--config", str(cfg_file), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unreadable_config_file_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text("paths = 8")
        out = tmp_path / "runs"
        assert main(["kw", "--config", str(cfg_file), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot read config file {cfg_file}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [("not json", "unreadable report bundle"), ("[1]", "report bundle is not a JSON object")],
    )
    def test_unreadable_report_exits_2(self, tmp_path, capsys, text, message):
        report = tmp_path / "report.json"
        report.write_text(text)
        out = tmp_path / "plots"
        assert main(["plotdata", str(report), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
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


# The params of each experiment that take a single integer.
INTEGER_PARAMS = {
    experiment: [n for n, e in table.items() if isinstance(Param.of(e).default, int)]
    for experiment, table in PARAMS.items()
}


def _outcome(report: RunReport) -> str:
    """Criteria, metrics and series of a report, floats spelled exactly."""
    obj = report.to_json()
    return json.dumps({k: obj[k] for k in ("criteria", "metrics", "series")}, sort_keys=True)


@st.composite
def small_configs(draw):
    experiment = draw(st.sampled_from(sorted(SMALL_SIZES)))
    params = dict(SMALL_SIZES[experiment])
    if "paths" in params:
        least = Param.of(PARAMS[experiment]["paths"]).least
        params["paths"] = draw(st.integers(least, params["paths"]))
    return make_config(experiment, seed=draw(st.integers(0, 2**63)), **params)


# Each criterion whose target states a size, and how the target spells it.
SIZED_TARGETS = [
    ("qv", "qv-partition-2pct", "depth {depth}, {sphere} sphere samples"),
    ("gamma", "gamma-mc-matches-exact", ", {instances} instances"),
    ("gamma", "gamma-ideal-property", "across {ideal_instances} contraction instances"),
    ("gamma", "gamma-primitive-bound", "on {bound_instances} instances"),
    ("bdg", "bdg-isometry-z3", "at {paths} paths, {iso_instances} instances"),
    ("see", "see-ou-variance", "at {paths} paths"),
    ("projsel", "projsel-identities", ", {instances} draws"),
]


@pytest.mark.parametrize("experiment, criterion, spelling", SIZED_TARGETS)
def test_target_names_the_sizes_run(experiment, criterion, spelling):
    cfg = make_config(experiment, **SMALL_SIZES[experiment])
    (target,) = [c.target for c in run(cfg).criteria if c.name == criterion]
    assert spelling.format(**cfg["params"]) in target


class TestReplayProperty:
    @given(small_configs())
    @settings(max_examples=12, deadline=None)
    def test_rerun_is_bit_identical(self, cfg):
        first, second = run(cfg), run(cfg)
        assert _outcome(first) == _outcome(second)
        assert first.criteria


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
            for name in INTEGER_PARAMS[experiment]
        ],
    )
    def test_integer_params_have_a_floor(self, experiment, name):
        least = Param.of(PARAMS[experiment][name]).least
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
            for name in [None] + sorted(INTEGER_PARAMS[experiment])
        ],
    )
    def test_every_floor_runs_to_a_verdict(self, experiment, name):
        # name None puts every integer param at its floor at once
        floors = {
            n: Param.of(PARAMS[experiment][n]).least
            for n in INTEGER_PARAMS[experiment]
            if name is None or n == name
        }
        cfg = validate_config(
            {"experiment": experiment, "params": {**SMALL_SIZES[experiment], **floors}}
        )
        res = EXPERIMENTS[experiment](cfg["params"], cfg["seed"])
        assert res.criteria
        assert all(isinstance(c.passed, bool) for c in res.criteria)

    def test_supmeas_with_nothing_checked_fails(self):
        params = {**make_config("supmeas")["params"], "max_cells": 0, "density_instances": 1}
        crit = {c.name: c for c in EXPERIMENTS["supmeas"](params, 20240).criteria}
        assert not crit["supmeas-oracle-exact"].passed
        assert "(0 instances)" in crit["supmeas-oracle-exact"].target

    def test_fubini_p2_gate_fails_off_one(self):
        # both sides are exact at p = 2, so any gap in the ratio fails
        def off_by_1e6(kernel, n_samples, seed):
            return FubiniReport(lhs=1.0, rhs=GammaEstimate(1.0 + 1e-6, 0.0))

        params = make_config("gamma", **SMALL_SIZES["gamma"])["params"]
        with mock.patch.object(experiments, "gamma_fubini_check", off_by_1e6):
            crit = {c.name: c for c in experiments.run_gamma(params, 20240).criteria}
        assert crit["gamma-fubini-p2"].value == 1.0 + 1e-6
        assert not crit["gamma-fubini-p2"].passed

    @pytest.mark.parametrize(
        "experiment, check, field, gate",
        [
            ("bdg", "ito_isometry", "z", "bdg-isometry-z3"),
            ("kw", "kunita_watanabe_check", "worst_slack", "kw-no-violation"),
        ],
    )
    def test_nan_instance_fails_its_gate(self, experiment, check, field, gate):
        # the gate reads each report's verdict: a max or min over the
        # instances would skip the NaN (max(0.0, nan) is 0.0) and pass
        real = getattr(experiments, check)
        calls = []

        def nan_second(*args, **kwargs):
            rep = real(*args, **kwargs)
            calls.append(rep)
            return dataclasses.replace(rep, **{field: np.nan}) if len(calls) == 2 else rep

        params = make_config(experiment, **SMALL_SIZES[experiment])["params"]
        clean = {c.name: c for c in EXPERIMENTS[experiment](params, 20240).criteria}
        with mock.patch.object(experiments, check, nan_second):
            crit = {c.name: c for c in EXPERIMENTS[experiment](params, 20240).criteria}
        assert len(calls) == 2
        assert clean[gate].passed and not crit[gate].passed
        assert np.isfinite(crit[gate].value)


class _ReadRecorder(dict):
    """A params mapping that records the keys read from it."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_every_declared_param_is_read(experiment):
    params = _ReadRecorder(make_config(experiment, **SMALL_SIZES[experiment])["params"])
    EXPERIMENTS[experiment](params, DEFAULT_SEED)
    assert params.read == set(PARAMS[experiment])
