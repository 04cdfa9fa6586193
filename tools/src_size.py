"""Lines and settable values of each module under src/, and their totals.

    python3 tools/src_size.py [root]

A settable value is a function or method parameter with a default, or a
field with a default in a `@dataclass` class: each is a value a caller
may set or leave alone.  Lines are physical lines, as `wc -l` counts them.
"""

import ast
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def settable_values(source: str) -> int:
    """Parameters with defaults plus dataclass fields with defaults."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def measure(src: str) -> list[tuple[str, int, int]]:
    """(path under src, lines, settable values) for each Python module, sorted by path."""
    rows = []
    for folder, dirs, files in os.walk(src):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
                rows.append((os.path.relpath(path, src), text.count("\n"),
                             settable_values(text)))
    return sorted(rows)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    rows = measure(os.path.join(argv[0] if argv else ROOT, "src"))
    for path, lines, settable in rows:
        print(f"{path:32s} {lines:6d} lines {settable:4d} settable")
    print(f"{'total':32s} {sum(r[1] for r in rows):6d} lines "
          f"{sum(r[2] for r in rows):4d} settable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
