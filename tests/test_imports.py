"""No library module imports a name it does not use, no library module
defines a private function or class that nothing references, and no
public name goes uncalled without a stated reason.

There is no linter in the toolchain, so these scans stand in for one.
They parse every module of src/quivertilt.  The first fails on a
module-level import whose bound name is never read in that module,
neither in code, nor in a quoted annotation, nor in `__all__`.  The
second fails on a module-level function or class with a private name
that no library module reads, imports or reaches as an attribute,
outside its own definition.  The third fails on a public module-level
function, class or assignment that no library module references
outside its own definition, that the benchmark in perfbench/ does not
name, and that has no entry in UNCALLED_PUBLIC.  The fourth fails on a
public method of a library class whose name nothing in src/, tests/ or
perfbench/ reaches as an attribute.  The fifth is a ratchet: it fails
unless the functions that carry a module-level cache (`lru_cache` or
`cache`) are exactly those in GLOBAL_CACHES.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "quivertilt"
PERFBENCH = SRC.parent.parent / "perfbench"
TESTS = SRC.parent.parent / "tests"

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


def _private_defs(tree: ast.Module) -> list[ast.stmt]:
    """The module-level functions and classes with a private name."""
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")]


def _referenced(stmts: list[ast.stmt]) -> set[str]:
    """Names the statements read, import or reach as an attribute."""
    names = _read(ast.Module(body=stmts, type_ignores=[]))
    for stmt in stmts:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Private module-level definitions, as "module:line name", that no
    module references outside the definition itself."""
    trees = {name: ast.parse(text, filename=name)
             for name, text in sources.items()}
    refs = {name: _referenced(tree.body) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(r for n, r in refs.items() if n != name))
        for node in _private_defs(tree):
            rest = [stmt for stmt in tree.body if stmt is not node]
            if node.name not in elsewhere | _referenced(rest):
                found.append(f"{name}:{node.lineno} defines {node.name} "
                             "but nothing references it")
    return found


def test_scan_sees_an_unreferenced_private():
    sources = {
        "a.py": "def _used():\n    pass\n\n"
                "def _recursive():\n    return _recursive()\n\n"
                "class _Shape:\n    pass\n\n"
                "def f(x: '_Shape'):\n    return _used()\n",
        "b.py": "from .a import _imported\nfrom . import a\n\n"
                "def g():\n    return a._attr()\n",
        "c.py": "def _imported():\n    pass\n\n"
                "def _attr():\n    pass\n\n"
                "class _Dead:\n    pass\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py:4 defines _recursive but nothing references it",
        "c.py:7 defines _Dead but nothing references it"]


def test_library_has_no_unreferenced_privates():
    paths = sorted(SRC.rglob("*.py"))
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in paths}
    assert unreferenced_privates(sources) == []
    # The scan has something to check.
    assert sum(len(_private_defs(ast.parse(text)))
               for text in sources.values()) > 40


# Public names that no library module calls and the benchmark does not
# name, kept on purpose, with the reason.  Empty: a reference that only
# the tests call lives in tests/, so the scan fails on any public name
# added without a caller.
UNCALLED_PUBLIC: dict[tuple[str, str], str] = {}


def _public_defs(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The public names bound at module level by a function, a class or
    an assignment, with the statement that binds each."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def _named_by(texts: list[str]) -> set[str]:
    """Names the sources reference, and the identifiers they spell out as
    strings (the benchmark looks some functions up by name)."""
    names: set[str] = set()
    for text in texts:
        tree = ast.parse(text)
        names |= _referenced(tree.body)
        names |= {c.value for c in ast.walk(tree)
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)
                  and c.value.isidentifier()}
    return names


def uncalled_publics(sources: dict[str, str],
                     bench: list[str]) -> list[tuple[str, str]]:
    """(module, name) for every public module-level name that no module
    references outside its definition and no bench source names."""
    trees = {name: ast.parse(text, filename=name)
             for name, text in sources.items()}
    refs = {name: _referenced(tree.body) for name, tree in trees.items()}
    named = _named_by(bench)
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(named, *(r for n, r in refs.items()
                                         if n != name))
        for public, node in _public_defs(tree):
            rest = [stmt for stmt in tree.body if stmt is not node]
            if public not in elsewhere | _referenced(rest):
                found.append((name, public))
    return found


def test_scan_sees_an_uncalled_public():
    sources = {
        "a.py": "def used():\n    pass\n\n"
                "def recursive():\n    return recursive()\n\n"
                "LIMIT = 3\n\nALIAS = used\n\n"
                "class Shape:\n    pass\n",
        "b.py": "from .a import Shape\n\ndef timed():\n    pass\n",
    }
    bench = ["from quivertilt import a\n\na.used()\n"
             "TABLE = (('b', 'timed'),)\n"]
    assert uncalled_publics(sources, bench) == [
        ("a.py", "recursive"), ("a.py", "LIMIT"), ("a.py", "ALIAS")]


def test_library_has_no_uncalled_publics_without_a_reason():
    paths = sorted(SRC.rglob("*.py"))
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in paths}
    bench = [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]
    found = uncalled_publics(sources, bench)
    assert sorted(set(found) - set(UNCALLED_PUBLIC)) == []
    # Every entry is still uncalled, so none is stale.
    assert sorted(set(UNCALLED_PUBLIC) - set(found)) == []
    assert all(reason for reason in UNCALLED_PUBLIC.values())


def _public_methods(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """The public methods (properties and class methods included) of the
    module-level classes, as "Class.method" with the definition."""
    return [(f"{cls.name}.{node.name}", node)
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def unreached_methods(sources: dict[str, str],
                      others: list[str]) -> list[tuple[str, str]]:
    """(module, "Class.method") for every public method whose name no
    library source and no other source reaches as an attribute.  A name
    spelled out in a string does not count."""
    reached = {node.attr
               for text in list(sources.values()) + others
               for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Attribute)}
    return [(name, method)
            for name, text in sources.items()
            for method, node in _public_methods(ast.parse(text, filename=name))
            if method.split(".")[1] not in reached]


def test_scan_sees_an_unreached_method():
    sources = {
        "a.py": "class Shape:\n"
                "    def used(self):\n        return self.helper()\n\n"
                "    def helper(self):\n        pass\n\n"
                "    @property\n    def size(self):\n        return 1\n\n"
                "    @classmethod\n    def build(cls):\n        return cls()\n\n"
                "    def named(self):\n        pass\n\n"
                "    def _private(self):\n        pass\n",
        "b.py": "from .a import Shape\n\n"
                "def f():\n    return Shape.build().size\n",
    }
    others = ["def test(x):\n    x.used()\n",
              "METHODS = ('Shape.named',)\n"]
    assert unreached_methods(sources, others) == [("a.py", "Shape.named")]


def test_library_has_no_unreached_methods():
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    others = [path.read_text() for directory in (TESTS, PERFBENCH)
              for path in sorted(directory.glob("*.py"))]
    assert unreached_methods(sources, others) == []
    # The scan has something to check.
    assert sum(len(_public_methods(ast.parse(text)))
               for text in sources.values()) > 100


# The functions of src/quivertilt whose results a module-level cache
# holds for the life of the process.  Such a cache is global state that
# no caller can clear or scope, so the list may only shrink: a new one
# is added here in the same change that adds it to the library.
GLOBAL_CACHES = {
    "complexes.py:cohomology_data",
    "derived.py:derived_hom0",
    "derived.py:projective_resolution",
    "enumeration.py:enumerate_submodules",
    "heart.py:_cut_above",
    "heart.py:_cut_below",
    "heart.py:_ext",
    "heart.py:_preimage_in_cycles",
    "modules.py:_factorizations",
    "modules.py:_hom",
    "torsion.py:all_extension_middles",
    "torsion.py:enumerate_torsion_pairs",
    "torsion.py:reject_subspace",
    "torsion.py:trace_subspace",
}


def cached_functions(sources: dict[str, str]) -> set[str]:
    """"module:function" for every function, at any depth, decorated by
    `lru_cache` or `cache`, called or not, bare or as a functools
    attribute."""
    found = set()
    for name, text in sources.items():
        for node in ast.walk(ast.parse(text, filename=name)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                spelled = (target.attr if isinstance(target, ast.Attribute)
                           else getattr(target, "id", None))
                if spelled in ("lru_cache", "cache"):
                    found.add(f"{name}:{node.name}")
    return found


def test_scan_sees_every_spelling_of_a_global_cache():
    sources = {
        "a.py": "import functools\nfrom functools import cache, lru_cache\n\n"
                "@lru_cache(maxsize=None)\ndef called():\n    pass\n\n"
                "@lru_cache\ndef bare():\n    pass\n\n"
                "@functools.lru_cache(maxsize=8)\ndef dotted():\n    pass\n\n"
                "@cache\ndef plain():\n    pass\n\n"
                "class Shape:\n"
                "    @functools.cached_property\n    def lazy(self):\n"
                "        pass\n\n"
                "    @staticmethod\n    @lru_cache(maxsize=None)\n"
                "    def nested():\n        pass\n",
    }
    assert cached_functions(sources) == {
        "a.py:called", "a.py:bare", "a.py:dotted", "a.py:plain", "a.py:nested"}


def test_library_adds_no_global_cache():
    sources = {path.relative_to(SRC).as_posix(): path.read_text()
               for path in sorted(SRC.rglob("*.py"))}
    assert cached_functions(sources) == GLOBAL_CACHES
