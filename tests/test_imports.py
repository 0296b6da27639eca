"""The import graph of the package: the closed forms do not import the RK4 oracle."""

import ast
from pathlib import Path

import fiberqed

SRC = Path(__file__).resolve().parent.parent / "src" / "fiberqed"
MODULES = {path.stem for path in SRC.glob("*.py")}
# the generators and block rows live in model, the perturbative cavity chi in perturb
MOVED = {
    "bare_generator": "model",
    "normal_generator": "model",
    "symmetric_generator": "model",
    "SYM_ROWS": "model",
    "ANTI_ROWS": "model",
    "cavity_coefficients": "perturb",
}


def _trees():
    return {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}


def _imports(tree) -> set:
    """The package modules a module imports, relatively or by absolute name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None:
            found.update(alias.name for alias in node.names)  # from . import dynamics
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fiberqed."):
            found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("fiberqed."))
    return found & MODULES


def _definitions(tree) -> set:
    """Names a module defines at its top level: functions, classes and assignments."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
    return names


def _bound(node) -> list:
    """The names one AST node binds: assignment targets, arguments, definitions,
    imports and exception names."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
        return [node.id]
    if isinstance(node, ast.arg):
        return [node.arg]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.alias):
        return [node.asname or node.name]
    if isinstance(node, ast.ExceptHandler) and node.name:
        return [node.name]
    return []


def test_closed_forms_do_not_import_the_oracle_or_the_perturbative_picture():
    graph = {name: _imports(tree) for name, tree in _trees().items()}
    for module in ("model", "eigen", "spectra"):
        assert not graph[module] & {"dynamics", "perturb"}, (module, graph[module])
    assert {m for m, deps in graph.items() if "dynamics" in deps} == {"cli", "__init__"}
    assert {m for m, deps in graph.items() if "perturb" in deps} == {"__init__"}


def test_moved_names_have_one_home():
    trees = _trees()
    for name, home in MOVED.items():
        assert [m for m, tree in trees.items() if name in _definitions(tree)] == [home], name
    # the package root still exports the names it exported before they moved
    for name in ("bare_generator", "normal_generator", "cavity_coefficients"):
        assert getattr(fiberqed, name).__module__ == f"fiberqed.{MOVED[name]}"


def test_block_kernels_are_not_exported_from_the_package_root():
    # the quasi-mode blocks are the stacked kernels of full_decompositions, whose
    # N = 1 spelling full_decomposition is the package's one single-point entry
    for name in ("symmetric_block", "antisymmetric_block"):
        assert not hasattr(fiberqed, name), name
        assert callable(getattr(fiberqed.eigen, name)), name
    assert "full_decomposition" in dir(fiberqed)


def test_spectra_leaves_mode_labels_to_the_decomposition():
    # a spectrum is indexed by pole; eigen alone maps a label to its pole
    tree = _trees()["spectra"]
    read = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "labels"]
    bound = [name for node in ast.walk(tree) for name in _bound(node) if "label" in name.lower()]
    assert not read and not bound, (read, bound)
