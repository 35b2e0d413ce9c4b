"""What importing the package and running a command loads.

The closed forms are integer arithmetic, so ``import carrychain`` and the
closed-form commands must not pay for numpy, the oracle or the simulator.
The import-graph tests run in a fresh interpreter, since this one has loaded
everything already; the static guard reads the sources and needs none.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import carrychain
from carrychain import oracle

PACKAGE = Path(carrychain.__file__).resolve().parent
HEAVY = ("numpy", "carrychain.oracle", "carrychain.rng", "carrychain.simulate")

# run a CLI command with its output swallowed, then list what it loaded
_PROBE = """
import contextlib, io, json, sys
from carrychain.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"code": code, "loaded": [m for m in %r if m in sys.modules]}))
""" % (HEAVY,)


def _fresh_python(script: str, *argv: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return json.loads(proc.stdout)


class TestImportGraph:
    def test_importing_the_package_loads_no_submodule(self):
        script = (
            "import json, sys\n"
            "import carrychain\n"
            "before = sorted(m for m in sys.modules if m.startswith('carrychain.'))\n"
            "from carrychain import simulate_carries\n"
            "print(json.dumps({'before': before, 'after': [m for m in %r if m in sys.modules]}))\n" % (HEAVY,)
        )
        assert _fresh_python(script) == {"before": [], "after": ["numpy", "carrychain.rng", "carrychain.simulate"]}

    @pytest.mark.parametrize(
        "argv",
        [
            ["amazing", "--n", "5", "--b", "2"],
            ["foulkes", "--n", "4", "--det"],
            ["worpitzky", "--n", "4"],
            ["eigen", "--n", "4", "--b", "3"],
            ["descent-poly", "--n", "4", "--b", "2", "--r", "3"],
            ["idempotents", "--n", "4", "--basis", "s"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_closed_form_commands_load_no_numpy(self, argv):
        assert _fresh_python(_PROBE, *argv) == {"code": 0, "loaded": []}

    @pytest.mark.parametrize(
        "argv, loaded",
        [
            (["oracle", "transition", "--n", "3", "--b", "2"], ["numpy", "carrychain.oracle"]),
            (
                ["simulate", "shuffle", "--n", "3", "--b", "2", "--trials", "100", "--seed", "1"],
                ["numpy", "carrychain.rng", "carrychain.simulate"],
            ),
        ],
        ids=["oracle", "simulate"],
    )
    def test_oracle_and_simulate_commands_load_what_they_use(self, argv, loaded):
        assert _fresh_python(_PROBE, *argv) == {"code": 0, "loaded": loaded}


def _imported_modules(path: Path, in_functions: bool = False) -> set[str]:
    """The carrychain submodules and top-level packages that a source file
    imports at import time: every import outside a function body (class
    bodies run at import time, so they count).  With ``in_functions``, the
    imports inside function bodies count too."""
    found = set()
    stack = list(ast.parse(path.read_text()).body)
    while stack:
        node = stack.pop()
        if not in_functions and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            names = [alias.name for alias in node.names]  # from . import oracle
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            names = []
        for name in names:
            parts = name.split(".")
            found.add(parts[1] if parts[0] == "carrychain" and len(parts) > 1 else parts[0])
        stack.extend(ast.iter_child_nodes(node))
    return found


class TestStaticImportGuard:
    @pytest.mark.parametrize("module", ["__init__", "cli", "combinat", "eulerian", "matrix"])
    def test_closed_form_modules_import_nothing_heavy_at_import_time(self, module):
        assert not _imported_modules(PACKAGE / f"{module}.py") & {"numpy", "oracle", "rng", "simulate"}

    @pytest.mark.parametrize("module", ["oracle", "simulate"])
    def test_the_twins_import_nothing_from_matrix(self, module):
        # the brute-force and Monte-Carlo twins stay independent of the closed
        # forms; ``cli`` makes every comparison between them
        assert "matrix" not in _imported_modules(PACKAGE / f"{module}.py", in_functions=True)

    def test_the_guard_sees_the_imports_it_forbids(self):
        assert {"numpy", "combinat"} <= _imported_modules(PACKAGE / "oracle.py")
        assert {"numpy", "rng"} <= _imported_modules(PACKAGE / "simulate.py")
        assert "oracle" not in _imported_modules(PACKAGE / "cli.py")
        assert {"matrix", "oracle"} <= _imported_modules(PACKAGE / "cli.py", in_functions=True)


def _names(tree: ast.AST) -> set[str]:
    """Every name that code under ``tree`` reads, as a ``Name`` or as the
    attribute of an ``Attribute``; docstrings and imports name none."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


class TestLazyExports:
    def test_all_keeps_its_names_and_order(self):
        assert carrychain.__all__ == [
            "AmazingMatrix", "BasisMatrix", "BudgetError", "Composition",
            "DescentPolynomial", "EmpiricalMatrix", "EulerianElement", "GroupAlgebraElement", "LumpingViolation",
            "Permutation", "Report", "ShuffleMultiset", "SimulationConfig", "SWordExpansion",
            "TransitionMismatch", "amazing_entry", "amazing_matrix", "binomial",
            "compositions", "descent_polynomial", "enumerate_b_shuffles",
            "eulerian_numbers", "expansion_to_group", "foulkes_determinant", "foulkes_matrix",
            "group_identity", "group_product",
            "idempotent_group", "idempotent_s_expansion", "internal_product",
            "oracle_descent_polynomial", "oracle_transition_matrix",
            "shuffle_element_from_basis", "simulate_carries", "simulate_shuffle_chain",
            "spow_element", "superfactorial", "verify_multiplicativity",
            "verify_spectrum", "verify_stationary", "worpitzky_matrix",
        ]  # fmt: skip

    def test_every_exported_function_is_reached(self):
        # reached: named in ``cli`` (its commands and the rows of ``verify all``)
        # or in the benchmark's workloads, which this test only reads, or in the
        # body of a function or class of the package that is reached itself
        bodies: dict[str, set[str]] = {}
        for path in PACKAGE.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    bodies.setdefault(node.name, set()).update(_names(node))
        workloads = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        reached = _names(ast.parse((PACKAGE / "cli.py").read_text())) | _names(ast.parse(workloads.read_text()))
        frontier = list(reached)
        while frontier:
            new = bodies.get(frontier.pop(), set()) - reached
            reached |= new
            frontier.extend(new)
        functions = [name for name in carrychain.__all__ if not isinstance(getattr(carrychain, name), type)]
        assert [name for name in functions if name not in reached] == []

    def test_every_name_is_the_object_of_its_submodule(self):
        for name in carrychain.__all__:
            obj = getattr(carrychain, name)
            assert obj.__module__.startswith("carrychain.")
            assert getattr(sys.modules[obj.__module__], name) is obj, name

    def test_the_oracle_still_exports_its_caps_and_failures(self):
        from carrychain import combinat

        for name in ("GROUP_ALGEBRA_MAX_N", "LumpingViolation", "TransitionMismatch"):
            assert getattr(oracle, name) is getattr(combinat, name)

    def test_dir_covers_all(self):
        assert set(carrychain.__all__) | {"__version__"} <= set(dir(carrychain))

    def test_star_import(self):
        namespace: dict = {}
        exec("from carrychain import *", namespace)
        assert set(carrychain.__all__) <= namespace.keys()
        assert namespace["simulate_carries"] is carrychain.simulate.simulate_carries

    def test_an_unknown_name_raises_the_standard_error(self):
        with pytest.raises(AttributeError) as plain:
            getattr(types.ModuleType("carrychain"), "no_such_name")
        with pytest.raises(AttributeError) as lazy:
            carrychain.no_such_name
        assert str(lazy.value) == str(plain.value) == "module 'carrychain' has no attribute 'no_such_name'"
        assert not hasattr(carrychain, "no_such_name")

    def test_a_rebinding_in_the_submodule_shows_and_is_undone(self, monkeypatch):
        original = oracle.group_product

        def wrapped(*args):
            return original(*args)

        monkeypatch.setattr(oracle, "group_product", wrapped)
        assert carrychain.group_product is wrapped
        monkeypatch.undo()
        assert carrychain.group_product is original
        assert "group_product" not in vars(carrychain)
