"""The import graph and the public surface: cylmart needs numpy alone,
scipy is never loaded, the package exports its library modules' public
names, each of which the library, a demo or the benchmark reads, and there
sets each of their defaulted parameters and reads each of their methods,
no module imports a name it does not read, and every verdict reads one way.

The import checks run in a fresh interpreter, because the test process may
already hold scipy from other packages.
"""

import ast
import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import cylmart
from cylmart import (
    CheckReport,
    GammaEstimate,
    IdealReport,
    IntegralPaths,
    IsometryReport,
    PrimitiveBoundReport,
    StoppedIntegral,
    TimeGrid,
    TransportPair,
)
from cylmart.martingales import sphere_panel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the library modules whose public names the package exports, in import order
LIBRARY = (
    "measures",
    "operators",
    "martingales",
    "integration",
    "timechange",
    "gammanorm",
    "bdg",
    "evolution",
)

SCIPY_LOADED = """
import json, sys
def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
"""

PRELUDE = SCIPY_LOADED + "import cylmart, cylmart.cli, cylmart.harness, cylmart.experiments\n"

# a meta-path finder that makes every scipy import fail, as on a machine
# where only numpy is installed
BLOCK_SCIPY = """
import sys
class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None
sys.meta_path.insert(0, _NoScipy())
"""


def run_fresh(body: str, block_scipy: bool = False, prelude: str = PRELUDE) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = (BLOCK_SCIPY if block_scipy else "") + prelude + body
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_loads_no_scipy_submodule():
    out = run_fresh(
        "print(json.dumps({'scipy': scipy_loaded(), 'numpy': 'numpy' in sys.modules}))"
    )
    assert out == {"scipy": [], "numpy": True}


def test_sphere_panel_matches_seeded_gaussian_reference():
    # the pinned construction: +-coordinates, then standard normal rows of
    # PCG64(SeedSequence((seed, 61))) scaled to unit length, bit for bit
    seed, d, n = 0, 3, 16
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 61))))
    z = rng.standard_normal((n, d))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    panel = sphere_panel(d, n, seed=seed)
    assert panel.shape == (22, 3)
    assert np.array_equal(panel, np.vstack([np.eye(3), -np.eye(3), z]))


def test_sphere_panels_are_nested():
    # for one seed, a smaller panel is the head of every larger one
    for d in (2, 3, 5):
        big = sphere_panel(d, 64, seed=77)
        for n in (0, 1, 4, 17, 63):
            small = sphere_panel(d, n, seed=77)
            assert np.array_equal(small, big[: 2 * d + n])
    assert not np.array_equal(sphere_panel(3, 8, seed=1), sphere_panel(3, 8, seed=2))


def test_runs_with_scipy_blocked():
    out = run_fresh(
        "try:\n"
        "    import scipy.special\n"
        "    blocked = False\n"
        "except ImportError:\n"
        "    blocked = True\n"
        "panel = cylmart.sphere_panel(3, 16, seed=0)\n"
        "cfg = cylmart.harness.make_config(\n"
        "    'qv', seed=5, paths=50, grid=16, sphere=16, instances=5)\n"
        "rep = cylmart.harness.run(cfg)\n"
        "print(json.dumps({'blocked': blocked, 'scipy': scipy_loaded(), 'rows': len(panel),\n"
        "                  'criteria': len(rep.criteria), 'passed': rep.passed}))",
        block_scipy=True,
    )
    assert out["blocked"]
    assert out["scipy"] == []
    assert out["rows"] == 22
    assert out["criteria"] > 0 and out["passed"]


def test_every_export_resolves():
    # a deletion must not leave a stale name in any module's __all__
    for info in pkgutil.iter_modules(cylmart.__path__):
        module = importlib.import_module(f"cylmart.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_package_exports_the_union_of_the_module_lists():
    # every module is either a library module or imported on its own
    found = {info.name for info in pkgutil.iter_modules(cylmart.__path__)}
    assert found == set(LIBRARY) | {"_util", "harness", "experiments", "cli"}
    modules = [importlib.import_module(f"cylmart.{name}") for name in LIBRARY]
    union = [name for module in modules for name in module.__all__]
    assert cylmart.__all__ == union
    assert len(set(union)) == len(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(cylmart, name) is getattr(module, name), name


def test_every_public_name_has_a_reader():
    # a reader is a whole-word mention in a library module other than
    # __init__.py, a demo or a benchmark file, on no line that defines the
    # name and in no __all__ list: a name that only tests call is not public
    texts = [
        re.sub(r"^__all__ = \[.*?^\]", "", path.read_text(), flags=re.M | re.S)
        for path in sorted((SRC / "cylmart").glob("*.py"))
        if path.name != "__init__.py"
    ]
    others = sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
    texts += [path.read_text() for path in others]
    unread = []
    for name in cylmart.__all__:
        own = re.compile(rf"^\s*(def|class) {name}\b")
        word = re.compile(rf"\b{name}\b")
        if not any(
            word.search(line) and not own.match(line)
            for text in texts
            for line in text.splitlines()
        ):
            unread.append(name)
    assert not unread, f"public names no reader reads: {unread}"


def _defaulted(fn: ast.FunctionDef, skip: int) -> list[tuple[str, int | None]]:
    """Each defaulted parameter of ``fn`` and its position in a call, the
    first ``skip`` (self, cls) not passed; keyword-only ones have none."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos[first:], first)]
    return out + [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]


def _public_surface() -> tuple[list[tuple[str, str, int | None]], list[str]]:
    """(callee, parameter, position) for every defaulted parameter a caller
    of a public name can set, and every public method and property.

    A dataclass's callee is written ``Name()``: its settable fields are
    those with a default that ``__init__`` takes, in field order."""
    trees = {path.stem: ast.parse(path.read_text()) for path in (SRC / "cylmart").glob("*.py")}
    params, members = [], []
    for name in cylmart.__all__:
        module = getattr(cylmart, name).__module__.rsplit(".", 1)[1]
        node = next(n for n in trees[module].body if getattr(n, "name", None) == name)
        if isinstance(node, ast.FunctionDef):
            params += [(name, arg, i) for arg, i in _defaulted(node, 0)]
            continue
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [
                s for s in node.body
                if isinstance(s, ast.AnnAssign) and "init=False" not in ast.unparse(s)
            ]
            params += [(f"{name}()", s.target.id, i) for i, s in enumerate(fields) if s.value]
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            if fn.name == "__init__":
                params += [(name, arg, i) for arg, i in _defaulted(fn, 1)]
            elif not fn.name.startswith("_"):
                members.append(f"{name}.{fn.name}")
                static = any(ast.unparse(d) == "staticmethod" for d in fn.decorator_list)
                params += [(f"{name}.{fn.name}", arg, i) for arg, i in _defaulted(fn, 1 - static)]
    return params, members


def test_every_public_parameter_has_a_caller():
    # the reader rule for what a caller can set: every defaulted parameter
    # of a public function, class, dataclass or method is bound, by position
    # or by keyword, in some call in the library, a demo or a benchmark file
    # (a dataclass field also by dataclasses.replace), and every public
    # method or property is read there as an attribute
    trees = [
        ast.parse(path.read_text())
        for path in sorted((SRC / "cylmart").glob("*.py"))
        + sorted(ROOT.glob("demos/*.py"))
        + sorted(ROOT.glob("perfbench/*.py"))
    ]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    calls = [node for node in nodes if isinstance(node, ast.Call)]
    attributes = {node.attr for node in nodes if isinstance(node, ast.Attribute)}

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    def binds(call, arg, index):
        return any(k.arg in (arg, None) for k in call.keywords) or index is not None and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
        )

    params, members = _public_surface()
    unset = [
        f"{owner}({arg})"
        for owner, arg, index in params
        if not any(
            callee(call) == owner.rsplit(".", 1)[-1].removesuffix("()")
            and binds(call, arg, index)
            or owner.endswith("()")
            and callee(call) == "replace"
            and any(k.arg == arg for k in call.keywords)
            for call in calls
        )
    ]
    unread = [m for m in members if m.rsplit(".", 1)[1] not in attributes]
    assert (unset, unread) == ([], []), "parameters no caller sets, members no reader reads"


def test_every_imported_name_is_read():
    # no linter runs here: a name a module imports and never reads is
    # caught by walking its syntax tree
    for path in sorted((SRC / "cylmart").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if alias.name != "*"
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - read, (path.name, sorted(imported - read))


def test_star_import_binds_the_public_names_alone():
    out = run_fresh(
        "names = {}\n"
        "exec('from cylmart import *', names)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('cylmart.'))\n"
        "print(json.dumps({'scipy': scipy_loaded(), 'loaded': loaded,\n"
        "                  'names': sorted(set(names) - {'__builtins__'})}))",
        prelude=SCIPY_LOADED,
    )
    assert out["scipy"] == []
    assert out["names"] == sorted(cylmart.__all__)
    assert out["loaded"] == sorted({"cylmart._util"} | {f"cylmart.{m}" for m in LIBRARY})


def test_failing_verdicts_read_false():
    # a verdict that is a method is a bound method, which is always truthy
    grid = TimeGrid.uniform(1.0, 2)
    paths = [IntegralPaths(grid, np.full((1, 3, 1), v)) for v in (0.0, 0.0, 1.0)]
    failing = [
        IsometryReport(1.0, 2.0, 50.0, 10),
        IdealReport(GammaEstimate(2.0, 0.0), 1.0, 0.0),
        PrimitiveBoundReport(GammaEstimate(2.0, 0.0), 1.0),
        TransportPair(1.0, 2.0, 0.0, 0.0, 0.0),
        CheckReport(-1.0, 0.0),
    ]
    for rep in failing:
        assert bool(rep.passed) is False, rep
    assert bool(StoppedIntegral(*paths).bit_identical) is False


def test_verdicts_and_dimensions_are_properties():
    for name in cylmart.__all__:
        obj = getattr(cylmart, name)
        if not inspect.isclass(obj):
            continue
        assert not hasattr(obj, "agree"), name
        for attr in ("passed", "bit_identical", "target_dim"):
            if hasattr(obj, attr):
                assert isinstance(inspect.getattr_static(obj, attr), property), (name, attr)
