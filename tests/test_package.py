"""The names ``lapspec`` exports, its numpy-backed ones loaded on first use;
no module imports a name it never uses, and no private name goes unread."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import lapspec
from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent

EXPORTS = {
    "energy": [
        "EnergyReport", "energy_report", "is_cospectral", "is_l_borderenergetic", "laplacian_energy", "m_energy",
    ],
    "expr": [
        "Complement", "Complete", "GraphExpr", "Join", "LiteralOverflowError", "ParseError", "Repeat", "Union",
        "edge_count", "order", "parse", "render",
    ],
    "families": [
        "FAMILY_IDS", "FamilySpec", "FamilyVerdict", "build", "closed_form_spectrum", "family_specs",
        "pairwise_noncospectral", "source", "verify",
    ],
    "realize": [
        "DenseGraph", "Graph6Error", "GraphTooLargeError", "certify_integer_spectrum", "graph6_decode",
        "graph6_encode", "iter_graph6", "laplacian_matrix", "realize", "symmetric_eigenvalues",
    ],
    "scan": ["CERTIFIED_HIT", "MISS", "NUMERIC_HIT", "ScanRecord", "dedupe_cospectral", "scan", "scan_g6"],
    "spectrum": ["Spectrum", "multiplicity_of_zero", "spectrum_of", "spectrum_of_complete", "spectrum_of_text"],
}


@pytest.mark.parametrize("module, name", [(module, name) for module, names in EXPORTS.items() for name in names])
def test_export_is_the_module_object(module, name):
    namespace = {}
    exec(f"from lapspec import {name}", namespace)
    assert namespace[name] is getattr(importlib.import_module(f"lapspec.{module}"), name)
    assert name in lapspec.__all__


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(lapspec, "no_such_name")
    with pytest.raises(ImportError):
        exec("from lapspec import no_such_name", {})


def test_submodule_import_keeps_the_functions():
    # Importing a submodule binds it on the package; ``realize`` and ``scan`` are also functions.
    run = run_python(
        [
            "-c",
            "import sys, lapspec, lapspec.scan; from lapspec import realize, scan; "
            "print('numpy' in sys.modules, realize.__module__, scan.__module__, lapspec.scan is scan)",
        ]
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["True", "lapspec.realize", "lapspec.scan", "True"]


def test_import_loads_no_numpy():
    run = run_python(["-c", "import sys, lapspec; print('numpy' in sys.modules)"])
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"## Library quickstart\n.*?```python\n(.*?)```", readme, re.DOTALL)
    run = run_python(["-c", block])
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[:4] == ["((0, 1), (4, 2), (6, 4), (8, 1))", "14", "True", "True 22"]
    eigenvalues = [float(x) for x in " ".join(lines[4:]).strip("[]").split()]
    assert eigenvalues == pytest.approx([0, 4, 4, 5, 5, 7, 7, 8], abs=1e-9)


# ``__init__.py`` is left out: its imports are re-exports.
SOURCES = [
    path
    for path in [*ROOT.glob("src/lapspec/*.py"), *ROOT.glob("scripts/*.py"), *ROOT.glob("tests/*.py")]
    if path.name != "__init__.py"
]


@pytest.mark.parametrize("path", sorted(SOURCES), ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    imported = {
        alias.asname or alias.name.partition(".")[0]: node.lineno
        for node in imports
        if getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_every_private_name_is_read():
    """A module-level ``_name`` in ``src/lapspec`` is read somewhere there: as a
    loaded name, an attribute or an imported name."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in ROOT.glob("src/lapspec/*.py")}
    defined = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
            else:
                continue
            defined.update((name, module) for name in names if name.startswith("_") and not name.startswith("__"))
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    assert defined
    assert {name: module for name, module in defined.items() if name not in read} == {}
