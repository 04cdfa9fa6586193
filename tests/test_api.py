"""The public API: every exported function is used by the system itself."""

import ast
import inspect
from pathlib import Path

import rho_planes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rho_planes"


def _referenced_names(path: Path) -> set[str]:
    """Names a file uses as a Name, an Attribute or an import; docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_function_has_a_caller():
    """A function in `rho_planes.__all__` is called from another library module,
    from the benchmark (not its tests) or from the acceptance suite."""
    outside = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    shared = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        if not path.name.startswith("test_"):
            shared |= _referenced_names(path)
    shared |= _referenced_names(ROOT / "tests" / "test_acceptance.py")
    by_module = {p.stem: _referenced_names(p) for p in outside}

    uncalled = []
    for name in rho_planes.__all__:
        obj = getattr(rho_planes, name)
        if not inspect.isfunction(obj):
            continue
        own = obj.__module__.rsplit(".", 1)[-1]
        users = shared.union(*(refs for mod, refs in by_module.items() if mod != own))
        if name not in users:
            uncalled.append(name)
    assert uncalled == []
