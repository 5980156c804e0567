"""The import graph: scipy is loaded only where a sphere panel is drawn.

Each check runs in a fresh interpreter, because the test process may already
hold scipy from other tests.
"""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
from scipy.special import ndtri
from scipy.stats import qmc

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("scipy.stats", "scipy.special", "scipy.linalg")

PRELUDE = f"""
import json, sys
import cylmart, cylmart.cli, cylmart.harness, cylmart.experiments
def heavy():
    return sorted(m for m in {HEAVY!r} if m in sys.modules)
"""


def run_fresh(body: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy_submodule():
    out = run_fresh("print(json.dumps({'heavy': heavy(), 'numpy': 'numpy' in sys.modules}))")
    assert out == {"heavy": [], "numpy": True}


def test_sphere_panel_imports_scipy_on_first_use():
    out = run_fresh(
        "before = heavy()\n"
        "panel = cylmart.sphere_panel(3, 16, seed=0)\n"
        "print(json.dumps({'before': before, 'after': heavy(), 'panel': panel.tolist()}))"
    )
    assert out["before"] == []
    assert {"scipy.stats", "scipy.special"} <= set(out["after"])
    panel = np.array(out["panel"])
    # the pinned expectation: +-coordinates, then scrambled Sobol points
    # sent to the sphere by the inverse normal map, bit for bit
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        u = qmc.Sobol(3, scramble=True, seed=0).random(16)
    z = ndtri(np.clip(u, 1e-12, 1 - 1e-12))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    assert panel.shape == (22, 3)
    assert np.array_equal(panel, np.vstack([np.eye(3), -np.eye(3), z]))
