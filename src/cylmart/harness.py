"""Experiment runner: validated configs, content-addressed run directories,
machine-readable reports, bit-exact replay, and plot-data emission.

A config fully determines a run; the report echoes it together with per
criterion verdicts, flat metrics and CSV-able series.  ``replay`` re-executes
from the echoed config and demands bit-identical metrics (seeds pin every
Monte-Carlo substream, so exact and sampled fields alike must reproduce).
Each report records the ``DETERMINISM`` version it was written under; a
change that moves sampled or computed numbers raises the version, and replay
refuses a report of another version.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from ._util import config_hash, finite_above_zero, int_at_least
from .experiments import EXPERIMENTS, PARAMS, Criterion, Param

__all__ = [
    "SCHEMA_VERSION",
    "DETERMINISM",
    "DEFAULT_SEED",
    "ConfigError",
    "ReplayMismatch",
    "make_config",
    "validate_config",
    "RunReport",
    "run",
    "load_report",
    "replay",
    "emit_plotdata",
]

SCHEMA_VERSION = 1
# version of the numbers a config produces, raised by any change that moves
# one; a report without the field was written under version 1
DETERMINISM = 2
# the acceptance seed: every statistical gate is calibrated at it
DEFAULT_SEED = 20240


class ConfigError(ValueError):
    pass


class ReplayMismatch(RuntimeError):
    pass


def make_config(
    experiment: str,
    seed: int = DEFAULT_SEED,
    out: str | None = None,
    **overrides,
) -> dict:
    """Assemble and validate a config; overrides patch the experiment params."""
    return validate_config(
        {"experiment": experiment, "seed": seed, "out": out, "params": overrides}
    )


def validate_config(cfg: dict) -> dict:
    """Schema check: exactly the known top-level keys, exactly the known
    params for the experiment; unknown fields are errors.  The seed must be a
    non-negative integer and each param within the range of its
    ``experiments.PARAMS`` entry; a list-valued param must be a non-empty
    list whose entries each are.  The config and its params must be dicts
    (JSON objects)."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a config must be a JSON object, got {cfg!r}")
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
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    specs = {name: Param.of(entry) for name, entry in PARAMS[experiment].items()}
    params = cfg.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"config params must be a JSON object, got {params!r}")
    bad = set(params) - set(specs)
    if bad:
        raise ConfigError(
            f"unknown params for {experiment!r}: {sorted(bad)} "
            f"(allowed: {sorted(specs)})"
        )
    seed = cfg.get("seed", DEFAULT_SEED)
    if not int_at_least(seed, 0):
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    merged = {}
    for name, spec in specs.items():
        listed = isinstance(spec.default, tuple)
        value = params.get(name, list(spec.default) if listed else spec.default)
        entries = value if listed and isinstance(value, list) else [value]
        if spec.real:
            ok = all(finite_above_zero(v) for v in entries)
            kind = ("a finite number > 0", "finite numbers > 0")
        else:
            ok = all(int_at_least(v, spec.least) for v in entries)
            kind = ("a positive integer", "positive integers")
            if spec.least == 0:
                kind = ("a non-negative integer", "non-negative integers")
            elif spec.least > 1:
                kind = tuple(f"{k}, at least {spec.least} in {experiment!r}" for k in kind)
        if listed and not (isinstance(value, list) and value and ok):
            raise ConfigError(
                f"param {name!r} must be a non-empty list of {kind[1]}, got {value!r}"
            )
        if not listed and not ok:
            raise ConfigError(f"param {name!r} must be {kind[0]}, got {value!r}")
        if spec.step > 1 and value % spec.step:
            raise ConfigError(
                f"param {name!r} must be a multiple of {spec.step} in {experiment!r}, got {value!r}"
            )
        merged[name] = value
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
    determinism: int = DETERMINISM
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
            "determinism": self.determinism,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "RunReport":
        if not isinstance(obj, dict):
            raise ReplayMismatch(f"report bundle is not a JSON object: {obj!r}")
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
            determinism=obj.get("determinism", 1),
        )

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.criteria:
            verdict = "PASS" if c.passed else "FAIL"
            lines.append(f"[{verdict}] {self.experiment}/{c.name}: {c.value:.6g}  ({c.target})")
        return lines


@functools.cache
def _pin_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at the values its dynamic rule
    ends at on 64-bit systems: 32 MiB and 64 MiB.

    By default glibc starts at 128 KiB and raises both thresholds each time
    a mapped block is freed, so whether an array of a few MiB gets its own
    mapping or comes from the brk heap, and so a run's peak memory, depends
    on which arrays were freed before it in the process.  Fixed, an array's
    place depends on its size alone, and freed heap pages are reused without
    new page faults.  Elsewhere than glibc this does nothing.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from <malloc.h>
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


def _execute(cfg: dict) -> RunReport:
    _pin_malloc_thresholds()
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


def load_report(report_path: str | Path) -> RunReport:
    """Read a stored report.json, or the one in a run directory; a missing
    or unreadable report raises ``ReplayMismatch``."""
    report_path = Path(report_path)
    if report_path.is_dir():
        report_path = report_path / "report.json"
    if not report_path.exists():
        raise ReplayMismatch(f"no report found at {report_path}")
    try:
        return RunReport.from_json(json.loads(report_path.read_text()))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ReplayMismatch(f"unreadable report bundle: {exc}") from exc


def replay(report_path: str | Path) -> RunReport:
    """Re-execute a stored report's config and demand identical metrics.

    Metric floats must agree bit for bit: exact fields because the arithmetic
    is deterministic, sampled fields because seeds fix every substream.  A
    report of another determinism version is refused before anything runs.
    """
    stored = load_report(report_path)
    if stored.determinism != DETERMINISM:
        raise ReplayMismatch(
            f"report was written under determinism version {stored.determinism!r}, "
            f"this build is version {DETERMINISM}; its numbers cannot be replayed"
        )
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
