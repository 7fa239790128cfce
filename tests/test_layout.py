"""Module layout rules, checked on the source text alone."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "levlab"
MODULES = {p.stem for p in PACKAGE.glob("*.py")}
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_uses(path: Path) -> list[str]:
    """Underscore names that the file takes from another levlab module, by
    import or by attribute access on an imported levlab module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    modules = set()  # local names bound to levlab modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0 and source.split(".")[0] != "levlab":
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{source}.{alias.name}")
                elif alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "levlab":
                    if any(_is_private(part) for part in alias.name.split(".")[1:]):
                        found.append(alias.name)
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            owner = ast.unparse(node.value)
            if owner in modules:
                found.append(f"{owner}.{node.attr}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_imports_across_modules(path):
    assert _private_uses(path) == []


def _foreign_private_attributes(path: Path) -> list[str]:
    """Underscore attributes the file reads off anything but ``self`` or
    ``cls``; another object's private state is not part of its interface."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{ast.unparse(node.value)}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and _is_private(node.attr)
        and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_private_attributes_read_off_other_objects(path):
    assert _foreign_private_attributes(path) == []


def _scipy_imports(path: Path) -> list[str]:
    """Lines of the file that import scipy or a scipy submodule; numpy is
    the only runtime dependency."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name.split(".")[0] == "scipy"]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: str(p.relative_to(ROOT)))
def test_runtime_modules_do_not_import_scipy(path):
    assert _scipy_imports(path) == []


def _settings_never_read() -> list[str]:
    """``SolverSettings`` fields that no package code outside the class body
    reads as an attribute; a knob that nothing reads acts on nothing."""
    trees = [ast.parse(p.read_text(), filename=str(p)) for p in sorted(PACKAGE.glob("*.py"))]
    settings = next(
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and node.name == "SolverSettings"
    )
    names = [stmt.target.id for stmt in settings.body if isinstance(stmt, ast.AnnAssign)]
    inside = {id(node) for node in ast.walk(settings)}
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and id(node) not in inside
    }
    return [name for name in names if name not in read]


def test_every_solver_setting_is_read():
    assert _settings_never_read() == []


def _winding_calls(path: Path) -> list[str]:
    """Calls in the file to ``winding``, the sampled path winder, by name or
    as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "winding":
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path",
    [p for p in sorted(PACKAGE.glob("*.py")) if p.stem != "loops"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_only_loops_closes_boundary_loops(path):
    """Every system hands its node stack to ``loops.loop_report``, which
    winds the whole loop in one batch; no other module samples a path."""
    assert _winding_calls(path) == []
