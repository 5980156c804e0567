"""Experiment runner: validated configs, content-addressed run directories,
machine-readable reports, bit-exact replay, and plot-data emission.

A config fully determines a run; the report echoes it together with per
criterion verdicts, flat metrics and CSV-able series.  ``replay`` re-executes
from the echoed config and demands bit-identical metrics (seeds pin every
Monte-Carlo substream, so exact and sampled fields alike must reproduce).
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._util import config_hash, int_at_least
from .experiments import (
    EXPERIMENTS,
    PARAM_FLOORS,
    REAL_PARAMS,
    Criterion,
    experiment_defaults,
    param_floor,
)

__all__ = [
    "ConfigError",
    "ReplayMismatch",
    "make_config",
    "validate_config",
    "RunReport",
    "run",
    "replay",
    "emit_plotdata",
]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


class ReplayMismatch(RuntimeError):
    pass


def make_config(
    experiment: str,
    seed: int = 20240,
    out: str | None = None,
    **overrides,
) -> dict:
    """Assemble and validate a config; overrides patch the experiment params."""
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    params = experiment_defaults(experiment)
    cfg = {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": seed,
        "out": out,
        "params": {**params, **overrides},
    }
    return validate_config(cfg)


def _finite_above_zero(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite and > 0."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def validate_config(cfg: dict) -> dict:
    """Schema check: exactly the known top-level keys, exactly the known
    params for the experiment; unknown fields are errors.  The seed must be a
    non-negative integer, every integer-valued param an integer no smaller
    than its ``param_floor`` in the experiment, every ``REAL_PARAMS`` value a
    finite real > 0, and a list-valued param a non-empty list of entries that
    each pass the test of its name."""
    allowed_top = {"schema", "experiment", "seed", "out", "params"}
    unknown = set(cfg) - allowed_top
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    missing = {"experiment"} - set(cfg)
    if missing:
        raise ConfigError(f"missing config fields: {sorted(missing)}")
    if cfg.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {cfg.get('schema')!r}")
    experiment = cfg["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    defaults = experiment_defaults(experiment)
    params = dict(cfg.get("params") or {})
    bad = set(params) - set(defaults)
    if bad:
        raise ConfigError(
            f"unknown params for {experiment!r}: {sorted(bad)} "
            f"(allowed: {sorted(defaults)})"
        )
    merged = {**defaults, **params}
    seed = cfg.get("seed", 20240)
    if not int_at_least(seed, 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    for name, default in defaults.items():
        value = merged[name]
        listed = isinstance(default, list)
        entries = value if listed and isinstance(value, list) else [value]
        if name in REAL_PARAMS:
            ok = all(_finite_above_zero(v) for v in entries)
            kind = ("a finite number > 0", "finite numbers > 0")
        else:
            general = PARAM_FLOORS.get(name, 1)
            least = param_floor(experiment, name)
            ok = all(int_at_least(v, least) for v in entries)
            kind = {
                0: ("a non-negative integer", "non-negative integers"),
                1: ("a positive integer", "positive integers"),
            }.get(general, (f"an integer >= {general}", f"integers >= {general}"))
            if least != general:
                kind = tuple(f"{k}, at least {least} in {experiment!r}" for k in kind)
        if listed and not (isinstance(value, list) and value and ok):
            raise ConfigError(
                f"param {name!r} must be a non-empty list of {kind[1]}, got {value!r}"
            )
        if not listed and not ok:
            raise ConfigError(f"param {name!r} must be {kind[0]}, got {value!r}")
    return {
        "schema": SCHEMA_VERSION,
        "experiment": experiment,
        "seed": int(seed),
        "out": cfg.get("out"),
        "params": merged,
    }


@dataclass
class RunReport:
    experiment: str
    config: dict
    criteria: list
    metrics: dict
    series: dict = field(default_factory=dict)
    elapsed: float = 0.0
    version: str = __version__
    run_dir: str | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.criteria)

    def to_json(self) -> dict:
        return {
            "experiment": self.experiment,
            "config": self.config,
            "criteria": [c.to_json() for c in self.criteria],
            "metrics": self.metrics,
            "series": self.series,
            "elapsed": self.elapsed,
            "version": self.version,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunReport":
        for key in ("experiment", "config", "criteria", "metrics"):
            if key not in obj:
                raise ReplayMismatch(f"report bundle is missing field {key!r}")
        crits = [
            Criterion(c["name"], c["pass"], c["value"], c.get("target", ""))
            for c in obj["criteria"]
        ]
        return cls(
            experiment=obj["experiment"],
            config=obj["config"],
            criteria=crits,
            metrics=obj["metrics"],
            series=obj.get("series", {}),
            elapsed=obj.get("elapsed", 0.0),
            version=obj.get("version", "unknown"),
        )

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.criteria:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"[{verdict}] {self.experiment}/{c.name}: {c.value:.6g}  ({c.target})")
        return lines


def _execute(cfg: dict) -> RunReport:
    fn = EXPERIMENTS[cfg["experiment"]]
    t0 = time.perf_counter()
    result = fn(cfg["params"], cfg["seed"])
    elapsed = time.perf_counter() - t0
    return RunReport(
        experiment=cfg["experiment"],
        config=cfg,
        criteria=result.criteria,
        metrics=result.metrics,
        series=result.series,
        elapsed=elapsed,
    )


def _write_atomic(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory and rename it, so
    a crash mid-write never leaves a truncated file under ``path``."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(cfg: dict, force: bool = False) -> RunReport:
    """Execute a validated config; persist under out/<experiment>-<hash>/.

    The directory name is the hash of the config, so re-running a changed
    config never overwrites an earlier run; an existing directory for the
    same config is only reused with ``force``.
    """
    cfg = validate_config(cfg)
    report = _execute(cfg)
    if cfg["out"] is not None:
        digest = config_hash({k: v for k, v in cfg.items() if k != "out"})
        run_dir = Path(cfg["out"]) / f"{cfg['experiment']}-{digest}"
        if run_dir.exists() and not force:
            raise FileExistsError(
                f"run directory {run_dir} already exists (same config); "
                "pass force=True / --force to overwrite"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        _write_atomic(run_dir / "report.json", json.dumps(report.to_json(), indent=1))
        emit_plotdata(report, run_dir)
        report.run_dir = str(run_dir)
    return report


def replay(report_path: str | Path) -> RunReport:
    """Re-execute a stored report's config and demand identical metrics.

    Metric floats must agree bit for bit: exact fields because the arithmetic
    is deterministic, sampled fields because seeds fix every substream.
    """
    report_path = Path(report_path)
    if report_path.is_dir():
        report_path = report_path / "report.json"
    if not report_path.exists():
        raise ReplayMismatch(f"no report found at {report_path}")
    try:
        stored = RunReport.from_json(json.loads(report_path.read_text()))
    except (json.JSONDecodeError, KeyError) as exc:
        raise ReplayMismatch(f"unreadable report bundle: {exc}") from exc
    cfg = validate_config(stored.config)
    fresh = _execute(cfg)
    if set(fresh.metrics) != set(stored.metrics):
        raise ReplayMismatch(
            "metric keys changed: "
            f"{sorted(set(fresh.metrics) ^ set(stored.metrics))}"
        )
    for key, val in stored.metrics.items():
        new = fresh.metrics[key]
        if not (new == val or (new != new and val != val)):
            raise ReplayMismatch(
                f"metric {key!r} differs: stored {val!r}, replayed {new!r}"
            )
    return fresh


def emit_plotdata(report: RunReport, directory: str | Path) -> list[Path]:
    """Write each series (ladders, panels, residual curves) as a CSV file."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for name, series in report.series.items():
        path = directory / f"{name}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(series["columns"])
            writer.writerows(series["rows"])
        written.append(path)
    return written
