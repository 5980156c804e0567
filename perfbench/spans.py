"""Span tracer that times cylmart's layer functions from outside the library.

``Tracer.install`` replaces each function in ``LAYER_FUNCTIONS`` in every
``cylmart`` module that binds it (``from .x import f`` makes a second
binding), so a call is attributed to its layer whichever module makes it:
``bdg_ratio_panel -> simulate`` and ``picard_solve -> fixed_point_map``
resolve through module globals, and ``experiments`` imports the private
``measures._best_partition_value``.  Methods stay unwrapped except
``MartEnsemble.driven_increments``, which is patched on the class.  Each
registry experiment is wrapped too, as a non-layer span, so the experiment
body's own work is left unattributed instead of being charged to the layer
that called it.

Spans live in memory as ``[name, start, end, parent]`` rows; one stack per
thread keeps nesting right if ``CYLMART_THREADS`` starts a pool.  Counts are
computed from call arguments and results at the boundary.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter
from pathlib import Path

# (module, attribute, span name); a dotted attribute is a method on a class
LAYER_FUNCTIONS = [
    ("_util", "path_rngs", "util.path_rngs"),
    ("martingales", "simulate", "martingales.simulate"),
    ("martingales", "MartEnsemble.driven_increments", "martingales.driven_increments"),
    ("martingales", "stop_ensemble", "martingales.stop_ensemble"),
    ("martingales", "qv_partition_estimate", "martingales.qv_partition_estimate"),
    ("integration", "integrate", "integration.integrate"),
    ("bdg", "ito_isometry", "bdg.ito_isometry"),
    ("bdg", "bdg_ratio_panel", "bdg.bdg_ratio_panel"),
    ("bdg", "integral_kernel", "bdg.integral_kernel"),
    ("bdg", "ito_residual", "bdg.ito_residual"),
    ("gammanorm", "gamma_norm_mc", "gammanorm.gamma_norm_mc"),
    ("gammanorm", "ideal_check", "gammanorm.ideal_check"),
    ("gammanorm", "primitive_gamma_bound_check", "gammanorm.primitive_gamma_bound_check"),
    ("measures", "_best_partition_value", "measures._best_partition_value"),
    ("measures", "sup_measures", "measures.sup_measures"),
    ("measures", "sup_measures_bruteforce", "measures.sup_measures_bruteforce"),
    ("operators", "psd_sqrt", "operators.psd_sqrt"),
    ("operators", "projection_selection", "operators.projection_selection"),
    ("evolution", "picard_solve", "evolution.picard_solve"),
    ("evolution", "fixed_point_map", "evolution.fixed_point_map"),
    ("evolution", "mild_residual", "evolution.mild_residual"),
    ("evolution", "localization_consistency", "evolution.localization_consistency"),
    ("evolution", "lipschitz_quotient", "evolution.lipschitz_quotient"),
    ("timechange", "build_time_change", "timechange.build_time_change"),
    ("timechange", "apply_time_change", "timechange.apply_time_change"),
    ("timechange", "dds_integral_check", "timechange.dds_integral_check"),
    ("harness", "run", "harness.run"),
]

EXPERIMENT_PREFIX = "experiments."


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_streams(counts, args, kwargs, result):
    counts["util.path_rngs.streams"] += len(result)


def _count_simulate(counts, args, kwargs, ens):
    counts["martingales.ensembles"] += 1
    counts["martingales.paths"] += ens.n_paths
    counts["martingales.normals"] += ens.driver_increments.size
    counts["martingales.ensemble_bytes"] += (
        ens.driver_increments.nbytes
        + ens.m_evals.nbytes
        + ens.bracket.increments.nbytes
        + ens.sigma_path.nbytes
    )


def _count_stopped(counts, args, kwargs, ens):
    counts["martingales.ensembles"] += 1


def _count_mc_samples(counts, args, kwargs, result):
    kernel = _arg(args, kwargs, 0, "kernel")
    n_samples = _arg(args, kwargs, 1, "n_samples")
    counts["gammanorm.mc_samples"] += n_samples * kernel.grid.n_cells * kernel.input_dim


def _count_atoms(counts, args, kwargs, result):
    counts["measures.partition_atoms"] += _arg(args, kwargs, 0, "atom_masses").shape[1]


def _count_picard(counts, args, kwargs, result):
    _, diag = result
    counts["evolution.picard_iterations"] += sum(len(d) for d in diag.distances)


def _count_report_bytes(counts, args, kwargs, report):
    counts["harness.report_bytes"] += sum(p.stat().st_size for p in Path(report.run_dir).iterdir())


COUNTERS = {
    "util.path_rngs": _count_streams,
    "martingales.simulate": _count_simulate,
    "martingales.stop_ensemble": _count_stopped,
    "gammanorm.gamma_norm_mc": _count_mc_samples,
    "measures._best_partition_value": _count_atoms,
    "evolution.picard_solve": _count_picard,
    "harness.run": _count_report_bytes,
}


class Tracer:
    """In-memory spans and counts for the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        spans = self.spans
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, key, value):
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every layer function in every loaded cylmart module."""
        modules = [m for n, m in sys.modules.items() if n == "cylmart" or n.startswith("cylmart.")]
        for mod_name, attr, name in LAYER_FUNCTIONS:
            owner = sys.modules[f"cylmart.{mod_name}"]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        registry = sys.modules["cylmart.experiments"].EXPERIMENTS
        for exp, fn in list(registry.items()):
            self._patch(registry, exp, self._wrap(EXPERIMENT_PREFIX + exp, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name: (summed self time, call count).

        Self time is a span's duration minus the durations of its child
        spans; children nest inside their parent on the same thread.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            entry = out.setdefault(name, [0.0, 0])
            entry[0] += end - start - covered
            entry[1] += 1
        return out

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer values of one traced repetition of ``wall_s`` seconds."""
        per = self.self_times()
        metrics: dict[str, float] = {}
        attributed = 0.0
        for _, _, name in LAYER_FUNCTIONS:
            self_s, calls = per.get(name, (0.0, 0))
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.calls"] = calls
            attributed += self_s
        counts = self.counts
        for key in (
            "util.path_rngs.streams",
            "martingales.paths",
            "martingales.normals",
            "martingales.ensemble_bytes",
            "gammanorm.mc_samples",
            "measures.partition_atoms",
            "evolution.picard_iterations",
            "harness.report_bytes",
        ):
            metrics[key] = counts[key]
        ensembles = counts["martingales.ensembles"]
        driven_calls = metrics["martingales.driven_increments.calls"]
        metrics["martingales.driven_increments.per_ensemble"] = (
            driven_calls / ensembles if ensembles else 0.0
        )
        # harness.run's own time: config checks, report.json and CSV writes
        metrics["harness.write_s"] = metrics["harness.run.self_s"]
        metrics["unattributed_s"] = wall_s - attributed
        return metrics

    def dump(self, path: Path, rep: int) -> None:
        """Append the spans as JSON lines: repetition, name, start, end,
        parent (an index into the same repetition's spans, -1 at the root)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                row = {"rep": rep, "name": name, "start": start, "end": end, "parent": parent}
                fh.write(json.dumps(row) + "\n")
