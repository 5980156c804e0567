"""cylmart benchmark: registry workloads through ``cylmart.harness.run``.

Usage, from the repository root::

    python3 perfbench/run.py --workload {panel,enumerate,mild,sweep} \\
        --seed N --seconds S --trace {0,1}

One process per workload.  It times ``setup_s`` in fresh processes, then
repeats the workload (every experiment, writing report.json and CSVs as the
CLI does) until ``--seconds`` have passed.  Each repetition must pass every
criterion and reproduce the first repetition's metrics bit for bit; the run
exits 1 otherwise.  With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics, writing the spans under
``.perfbench_out/``.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS, build_configs, import_cylmart

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 3


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "CYLMART_THREADS")
        },
    }


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that import and build configs, then exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(seed)],
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def digest(obj) -> str:
    """sha256 of cylmart's canonical JSON encoding of ``obj``."""
    from cylmart._util import canonical_json

    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


def repetition(configs: list[dict]) -> dict:
    """Run every config once; per run its experiment, verdict and metrics
    digest, plus the digest of all reports' metrics together."""
    from cylmart import harness

    t0 = time.perf_counter()
    reports = [harness.run(cfg, force=True) for cfg in configs]
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "digest": digest({r.experiment: r.metrics for r in reports}),
        "runs": [(r.experiment, r.passed, digest(r.metrics)) for r in reports],
        "criteria": sum(len(r.criteria) for r in reports),
        "criteria_failed": [
            f"{r.experiment}/{c.name}" for r in reports for c in r.criteria if not c.passed
        ],
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, out: Path, tiny: bool = False) -> dict:
    """Repeat the workload for ``seconds``; untraced repetitions only, or
    alternating untraced and traced ones (at least one of each)."""
    configs = build_configs(workload, seed, out=str(out / "runs"), tiny=tiny)
    tracer = Tracer()
    reps, traced = [], []
    t_start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(reps)
        if tracing:
            tracer.reset()
            tracer.install()
            try:
                rep = repetition(configs)
            finally:
                tracer.uninstall()
            rep["layers"] = tracer.layer_metrics(rep["wall_s"])
            rep["nesting"] = tracer.self_times()
            tracer.dump(out / "spans.jsonl", len(traced))
            traced.append(rep)
        else:
            reps.append(rep := repetition(configs))
        done = reps and (traced or not trace)
        if done and time.perf_counter() - t_start >= seconds:
            break
    return {"untraced": reps, "traced": traced, "experiments": [c["experiment"] for c in configs]}


def end_to_end(result: dict, setup: list[float]) -> dict[str, float]:
    reps = result["untraced"]
    criteria = sum(r["criteria"] for r in reps)
    failed = sum(len(r["criteria_failed"]) for r in reps)
    return {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "criteria_passed_ratio": (criteria - failed) / criteria,
    }


def per_layer(result: dict) -> dict[str, float]:
    traced = result["traced"]
    names = traced[0]["layers"]
    out = {name: statistics.median(r["layers"][name] for r in traced) for name in names}
    # each traced repetition against the untraced one just before it, so
    # that drift in machine speed across the run cancels
    out["trace_overhead"] = statistics.median(
        t["wall_s"] / u["wall_s"] for u, t in zip(result["untraced"], traced)
    ) - 1.0
    return out


def select_metrics(listed: list[dict], values: dict[str, float]) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists, in its order, with their units."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}


def report_digest(workload: str, digests: list[str]) -> None:
    """Compare with the digest recorded for this workload at the baseline
    commit; a difference is reported, not failed, so that a deliberate
    change of sampled numbers shows without blocking the run."""
    if len(digests) > 1:
        print(f"digest MISMATCH within the run: {' '.join(digests)}")
        return
    baseline = json.loads((HERE / "baseline.json").read_text())["digests"].get(workload)
    note = "matches the baseline" if digests[0] == baseline else f"differs from the baseline {baseline}"
    print(f"digest {digests[0]} (all repetitions identical; {note})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    import_cylmart(root)
    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup = time_setup(args.workload, args.seed)
    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out)
    finally:
        shutil.rmtree(out / "runs", ignore_errors=True)

    reps = result["untraced"] + result["traced"]
    digests = sorted({r["digest"] for r in reps})
    failed_criteria = sorted({name for r in reps for name in r["criteria_failed"]})
    # a run fails on a failed criterion or on metrics that differ from the
    # same experiment's in the first repetition
    first = {exp: d for exp, _, d in reps[0]["runs"]}
    runs = [run for r in reps for run in r["runs"]]
    failed = sum(not ok or d != first[exp] for exp, ok, d in runs)
    correct = failed == 0

    print(f"experiments {' '.join(result['experiments'])}")
    print(
        f"repetitions untraced={len(result['untraced'])} traced={len(result['traced'])}; "
        f"setup probes={len(setup)}"
    )
    walls = [r["wall_s"] for r in result["untraced"]]
    print(f"wall_s samples n={len(walls)} {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"setup_s samples n={len(setup)} {' '.join(f'{s:.4f}' for s in setup)}")
    report_digest(args.workload, digests)
    for name in failed_criteria:
        print(f"FAILED criterion {name}")

    if args.trace:
        values, listed = per_layer(result), spec["per_layer"]
        print(f"spans {out / 'spans.jsonl'}")
    else:
        values, listed = end_to_end(result, setup), spec["end_to_end"]
    metrics = select_metrics(listed, values)
    for name, m in metrics.items():
        print(f"{name:<48} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
