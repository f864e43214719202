"""No library module imports a name it does not use.

There is no linter in the toolchain, so this scan stands in for one: it
parses every module of src/quivertilt and fails on a module-level import
whose bound name is never read in that module, neither in code, nor in a
quoted annotation, nor in `__all__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertilt"

# Imports kept on purpose although the module itself does not read them.
REEXPORTS = {("heart.py", "NotHereditary")}


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line, for the imports of the module body (including
    those inside top-level if and try blocks)."""
    out: dict[str, int] = {}
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            for field in ("body", "orelse", "finalbody"):
                stack.extend(getattr(node, field, []))
            for handler in getattr(node, "handlers", []):
                stack.extend(handler.body)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def _read(tree: ast.Module) -> set[str]:
    """Names read anywhere: loaded names, names inside quoted
    annotations, and the strings listed in __all__."""
    names: set[str] = set()
    annotations: list[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant))
    for ann in annotations:
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                names.update(n.id for n in ast.walk(ast.parse(c.value, mode="eval"))
                             if isinstance(n, ast.Name))
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _read(tree)
    rel = path.relative_to(SRC).as_posix()
    return [f"{rel}:{line} imports {name} but never uses it"
            for name, line in sorted(_imported(tree).items(), key=lambda kv: kv[1])
            if name not in used and (rel, name) not in REEXPORTS]


def test_scan_sees_an_unused_import():
    tree = ast.parse("from .linalg import Mat, kron\n\n"
                     "def f(x: 'Mat'):\n    return x\n")
    assert set(_imported(tree)) - _read(tree) == {"kron"}


def test_library_has_no_unused_imports():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += unused_imports(path)
    assert found == []
    # The allowlisted re-export is still imported, so the entry is live.
    heart = ast.parse((SRC / "heart.py").read_text())
    assert "NotHereditary" in _imported(heart)
