"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest -q perfbench``.

Every workload runs traced and untraced, every metric BENCHMARK.json names
is produced with its unit, spans nest, and the tracer leaves cylmart as it
found it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import LAYER_FUNCTIONS, Tracer
from workloads import WORKLOADS, import_cylmart

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
import_cylmart(ROOT)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_emits_every_metric_and_spans_nest(workload, tmp_path):
    result = run.measure(workload, seed=0, seconds=0.0, trace=True, out=tmp_path, tiny=True)
    assert result["untraced"] and result["traced"]
    assert len({r["digest"] for r in result["untraced"] + result["traced"]}) == 1

    for listed, values in (
        (SPEC["end_to_end"], run.end_to_end(result, setup=[1.0])),
        (SPEC["per_layer"], run.per_layer(result)),
    ):
        metrics = run.select_metrics(listed, values)
        assert list(metrics) == [m["name"] for m in listed]
        for m in listed:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert isinstance(metrics[m["name"]]["value"], (int, float))

    for rep in result["traced"]:
        self_times = [self_s for self_s, _ in rep["nesting"].values()]
        assert min(self_times) >= -1e-9
        assert sum(self_times) <= rep["wall_s"]
        assert rep["layers"]["harness.run.calls"] == len(WORKLOADS[workload])
        assert rep["layers"]["unattributed_s"] >= -1e-9
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_tracer_restores_every_binding():
    import cylmart

    modules = [m for n, m in sys.modules.items() if n.startswith("cylmart")]
    before = [dict(vars(m)) for m in modules]
    registry = dict(cylmart.experiments.EXPERIMENTS)
    method = cylmart.martingales.MartEnsemble.driven_increments
    tracer = Tracer()
    tracer.install()
    assert cylmart.martingales.simulate is cylmart.bdg.simulate
    assert cylmart.martingales.simulate is not before[modules.index(cylmart.martingales)]["simulate"]
    tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
    assert cylmart.experiments.EXPERIMENTS == registry
    assert cylmart.martingales.MartEnsemble.driven_increments is method
    assert len(LAYER_FUNCTIONS) == len({name for _, _, name in LAYER_FUNCTIONS})


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mild", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
