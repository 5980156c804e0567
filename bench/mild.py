"""Bench of the mild-solution solver at ``see``'s acceptance sizes.

Times three calls of ``cylmart.evolution`` and records the wall time and the
``tracemalloc`` peak of each, on ensembles built before the timing starts:

- ``picard_solve``: instance (c) of ``see``, the mean-reverting additive-noise
  problem on 10^4 paths and 256 cells (one Picard block);
- ``mild_residual`` of that solution;
- the ``lipschitz_quotient`` ladder: instance (d), the multiplicative-noise
  problem on 2000 paths, at windows of 256, 128 and 64 cells.

Each call runs once untimed, then ``--repeats`` times timed (the minimum and
median are kept), then once under ``tracemalloc``.  The JSON written names
the machine it ran on.  Run from anywhere; cylmart is imported from this
checkout's ``src``:

    python3 bench/mild.py [--out BENCH_mild.json] [--repeats 5]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cylmart import harness  # noqa: E402
from cylmart.evolution import (  # noqa: E402
    SEEProblem,
    lipschitz_quotient,
    mild_residual,
    picard_solve,
)
from cylmart.martingales import NoiseSpec, simulate  # noqa: E402
from cylmart.measures import TimeGrid  # noqa: E402


def calls(seed: int) -> dict:
    """The three timed calls, each a function of no arguments."""
    sizes = harness.make_config("see")["params"]  # the acceptance sizes
    k, tol = sizes["grid"], sizes["tol"]
    grid = TimeGrid.uniform(1.0, k)
    wiener = NoiseSpec(1, 1, np.array([[1.0]]))
    additive = SEEProblem(
        generator=np.array([[-1.0]]),
        drift=lambda t, x: np.zeros_like(x),
        lip_drift=0.0,
        growth_drift=0.0,
        noise_map=lambda t, x: np.ones((x.shape[0], 1, 1)),
        lip_noise=0.0,
        u0=np.array([0.0]),
    )
    multiplicative = SEEProblem(
        generator=None,
        drift=lambda t, x: np.zeros_like(x),
        lip_drift=0.0,
        growth_drift=0.0,
        noise_map=lambda t, x: x[:, :, None],
        lip_noise=1.0,
        u0=np.array([1.0]),
    )
    ens_c = simulate(wiener, grid, sizes["paths"], seed)
    u_c, _ = picard_solve(additive, ens_c, tol=tol)
    ens_d = simulate(wiener, grid, sizes["contraction_paths"], seed + 1)
    zero = np.zeros((ens_d.n_paths, k + 1, 1))
    one = np.ones((ens_d.n_paths, k + 1, 1))
    return {
        "picard_solve": lambda: picard_solve(additive, ens_c, tol=tol),
        "mild_residual": lambda: mild_residual(u_c, additive, ens_c),
        "lipschitz_ladder": lambda: [
            lipschitz_quotient(multiplicative, ens_d, zero, one, i0=0, i1=k // frac)
            for frac in (1, 2, 4)
        ],
    }


def measure(call, repeats: int) -> dict:
    call()  # first-call set-up: semigroup cache, bracket prefix
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        walls.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return {
        "wall_s_min": min(walls),
        "wall_s_median": statistics.median(walls),
        "tracemalloc_peak_mb": peak / 2**20,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", default=str(ROOT / "BENCH_mild.json"))
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    seed = harness.DEFAULT_SEED
    results = {name: measure(call, args.repeats) for name, call in calls(seed).items()}
    report = {
        "bench": "mild",
        "determinism": harness.DETERMINISM,
        "seed": seed,
        "repeats": args.repeats,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "results": results,
    }
    Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for name, r in results.items():
        print(
            f"{name:18s} wall min {r['wall_s_min']:.4f} s, median {r['wall_s_median']:.4f} s, "
            f"tracemalloc peak {r['tracemalloc_peak_mb']:.2f} MB"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
