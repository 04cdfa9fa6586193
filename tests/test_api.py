"""The public API: every exported function is used by the system itself."""

import ast
import inspect
from pathlib import Path

import rho_planes

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rho_planes"
# names the package is bound to: its own name, and `rp`, as perfbench passes it
PACKAGE_NAMES = {"rho_planes", "rp"}


def _chain_root(node: ast.Attribute):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _loaded_names(tree) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def _referenced_names(path: Path) -> set[str]:
    """Names a file uses: loaded Names, and attributes on a chain that starts at
    the package.  An import alone, a same-named attribute of another module and
    a docstring do not count."""
    tree = ast.parse(path.read_text(), str(path))
    return _loaded_names(tree) | {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and _chain_root(node) in PACKAGE_NAMES}


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


def test_no_unused_imports():
    """Every name a library module (not `__init__.py`) or a test file imports is used."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "tests").glob("*.py")
    unused = []
    for path in sorted(paths):
        tree = ast.parse(path.read_text(), str(path))
        used = _loaded_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {bound}")
    assert unused == []



def _package_reads(path: Path) -> set[str]:
    """Names a file reads from the package: those it imports from the package (or a
    module of it) and loads, and attributes on a chain that starts at the package or
    at a name imported from it.  A same-named local, parameter or attribute of
    another object does not count."""
    tree = ast.parse(path.read_text(), str(path))
    loaded = _loaded_names(tree)
    roots, reads = set(PACKAGE_NAMES), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.split(".")[0] in PACKAGE_NAMES):
            for alias in node.names:
                bound = alias.asname or alias.name
                roots.add(bound)
                if bound in loaded:
                    reads.add(alias.name)
    return reads | {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and _chain_root(node) in roots}


def _module_level_names(tree) -> list[str]:
    """The functions, classes and constants a module defines at its top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return names


def test_every_module_level_name_is_read():
    """A library module's (not `__init__.py`) functions, classes and constants are each
    read somewhere: in their own module beyond the definition, in another library
    module, in the benchmark (not its tests) or in the acceptance suite.  Test-only
    readers do not count, so a helper the library stopped calling cannot linger for
    its tests."""
    library = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    readers = library + [p for p in (ROOT / "perfbench").glob("*.py")
                         if not p.name.startswith("test_")]
    read = set().union(*(_package_reads(p) for p in readers),
                       _package_reads(ROOT / "tests" / "test_acceptance.py"))
    unread = []
    for path in library:
        tree = ast.parse(path.read_text(), str(path))
        own = _loaded_names(tree)
        unread += [f"{path.stem}.{name}" for name in _module_level_names(tree)
                   if name not in own and name not in read]
    assert unread == []
