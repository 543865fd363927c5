"""Dead-code checks that need no linter.  Every name a module under
``src/didom`` or ``tests`` imports must be read somewhere in that module.
``__init__.py`` files are left out, since their imports are re-exports;
``didom.__all__`` must list each of those exactly once.  Every private
function, class or constant a module under ``src/didom`` defines at module
level must be read somewhere in ``src/didom`` outside its own definition.
No module under ``src/didom`` has a ``global`` statement, and only
``errors.py``, where ``Deadline`` turns a timeout into a clock time, imports
``monotonic``.  No function under ``src/didom`` calls itself.  Only three
solvers call the kernel entry points of ``didom.kernels``, and only
``_bnb_py`` calls ``_greedy_cover``, the cover kernel's root greedy, so no
solver recomputes it beside the kernel.  A timeout in
milliseconds is read only at the edges, the public checkers,
``compute_invariants`` and ``search_acyclic_problem``: no other function
under ``src/didom`` takes a ``timeout_ms`` or builds a bounded
``Deadline``, and everything below them takes the ``Deadline`` itself."""

import ast
from pathlib import Path

import pytest

import didom

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in (ROOT / "src" / "didom", ROOT / "tests")
    for path in folder.glob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import in ``source`` that no expression reads,
    with the line of their first import."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_detects_an_unused_import():
    source = "import json\nimport os.path\nfrom a import b as c, d\nos.sep\nd()\n"
    assert unused_imports(source) == ["json (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def global_and_clock_uses(source: str) -> list[str]:
    """The ``global`` statements in ``source``, and the imports of
    ``monotonic`` (``from time import monotonic`` or ``time.monotonic``
    through ``import time``), each with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Global):
            found.append(f"global (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and any(
            alias.name == "monotonic" for alias in node.names
        ):
            found.append(f"monotonic (line {node.lineno})")
        elif isinstance(node, ast.Attribute) and node.attr == "monotonic":
            found.append(f"monotonic (line {node.lineno})")
    return found


def test_detects_globals_and_clock_reads():
    source = (
        "import time\nfrom time import monotonic, sleep\nn = 0\n"
        "def f():\n    global n\n    return time.monotonic()\n"
    )
    assert global_and_clock_uses(source) == [
        "monotonic (line 2)", "global (line 5)", "monotonic (line 6)"
    ]


PACKAGE_MODULES = [path for path in MODULES if path.parent.name == "didom"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_one_clock_and_no_globals(path):
    found = global_and_clock_uses(path.read_text())
    if path.name == "errors.py":  # Deadline's clock
        assert [use.split()[0] for use in found] == ["monotonic"]
    else:
        assert found == []


def self_calls(source: str) -> list[str]:
    """The functions in ``source`` that call themselves, by name or, for a
    method, through ``self``, each as its dotted path of enclosing
    functions and classes, with its line."""
    found = []

    def calls_itself(fn) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                f = node.func
                if isinstance(f, ast.Name) and f.id == fn.name:
                    return True
                if isinstance(f, ast.Attribute) and f.attr == fn.name:
                    if isinstance(f.value, ast.Name) and f.value.id == "self":
                        return True
        return False

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if calls_itself(child):
                    found.append(f"{prefix}{child.name} (line {child.lineno})")
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_detects_a_function_calling_itself():
    source = (
        "def f(n):\n    return f(n - 1) if n else g()\n"
        "def g():\n    def walk(x):\n        walk(x)\n    return walk\n"
        "class C:\n    def m(self):\n        self.m()\n    def k(self, other):\n"
        "        other.k(self)\n"
    )
    assert self_calls(source) == ["f (line 1)", "g.walk (line 4)", "C.m (line 8)"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_calls_itself(path):
    assert self_calls(path.read_text()) == []


KERNEL_ENTRIES = ("min_set_cover", "max_independent_set")


def kernel_calls(module: str, source: str) -> list[str]:
    """The calls ``kernels.<entry>(...)`` of the kernel entry points in
    ``source``, each as ``module.<enclosing function path>: <entry>``, and
    every import of an entry point from ``didom.kernels``, which would
    call it without the ``kernels.`` prefix."""
    found = []

    def visit(node, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{path}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (
                    isinstance(f, ast.Attribute)
                    and f.attr in KERNEL_ENTRIES
                    and isinstance(f.value, ast.Name)
                    and f.value.id == "kernels"
                ):
                    found.append(f"{path}: {f.attr}")
            elif isinstance(child, ast.ImportFrom) and child.module == "didom.kernels":
                names = [alias.name for alias in child.names]
                found.extend(f"{path}: import {name}" for name in names if name in KERNEL_ENTRIES)
            visit(child, path)

    visit(ast.parse(source), module)
    return found


def test_detects_kernel_calls():
    source = (
        "from didom import kernels\nfrom didom.kernels import max_independent_set as mis\n"
        "def solve(d):\n    def inner():\n        return kernels.min_set_cover([], 0)\n"
        "    return inner(), kernels.has_compiled_kernels()\n"
        "class C:\n    def m(self):\n        kernels.max_independent_set([], 0)\n"
    )
    assert kernel_calls("mod", source) == [
        "mod: import max_independent_set",
        "mod.solve.inner: min_set_cover",
        "mod.C.m: max_independent_set",
    ]


def test_only_the_invariant_solvers_call_the_kernels():
    found = [
        call
        for path in PACKAGE_MODULES
        for call in kernel_calls(path.stem, path.read_text())
    ]
    assert sorted(found) == [
        "solvers.domination_number: min_set_cover",
        "solvers.packing_against: max_independent_set",
        "solvers.total_domination_number: min_set_cover",
    ]


def greedy_cover_uses(source: str) -> list[str]:
    """The calls of ``_greedy_cover`` in ``source``, by name or as an
    attribute, and the imports of it, each with its line, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if any(alias.name == "_greedy_cover" for alias in node.names):
                found.append((node.lineno, "import"))
        elif isinstance(node, ast.Call):
            f = node.func
            if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "_greedy_cover":
                found.append((node.lineno, "call"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_detects_greedy_cover_uses():
    source = (
        "from didom._bnb_py import _greedy_cover as g, _ordered_packing\n"
        "from didom import _bnb_py\n"
        "def solve(masks):\n    def inner():\n        return _bnb_py._greedy_cover(masks, 1)\n"
        "    return _greedy_cover(masks, 0), _ordered_packing(masks, [], 0), inner\n"
    )
    assert greedy_cover_uses(source) == ["import (line 1)", "call (line 5)", "call (line 6)"]


@pytest.mark.parametrize("path", PACKAGE_MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_the_cover_kernel_runs_the_greedy_cover(path):
    found = greedy_cover_uses(path.read_text())
    if path.name == "_bnb_py.py":  # min_set_cover's root
        assert found
    else:
        assert found == []


def timeout_edges(module: str, source: str) -> list[str]:
    """The functions in ``source`` that take a ``timeout_ms`` parameter or
    build a ``Deadline`` from arguments (a bounded one), each as
    ``module.<function path>: timeout_ms`` or ``: Deadline(...)``."""
    found = []

    def visit(node, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{path}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    params = a.posonlyargs + a.args + a.kwonlyargs
                    if any(arg.arg == "timeout_ms" for arg in params):
                        found.append(f"{inner}: timeout_ms")
                visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "Deadline" and (child.args or child.keywords):
                    found.append(f"{path}: Deadline(...)")
            visit(child, path)

    visit(ast.parse(source), module)
    return found


def test_detects_timeout_edges():
    source = (
        "from didom import errors\nfrom didom.errors import Deadline\n"
        "def solve(d, *, timeout_ms=None):\n    return d\n"
        "def unbounded(d, deadline=None):\n"
        "    return Deadline() if deadline is None else deadline\n"
        "class C:\n    def m(self, timeout_ms, /):\n"
        "        def inner():\n            return errors.Deadline(timeout_ms=5)\n"
        "        return Deadline(timeout_ms)\n"
    )
    assert timeout_edges("mod", source) == [
        "mod.solve: timeout_ms",
        "mod.C.m: timeout_ms",
        "mod.C.m.inner: Deadline(...)",
        "mod.C.m: Deadline(...)",
    ]


def test_only_the_edges_read_timeouts():
    found = [
        edge
        for path in PACKAGE_MODULES
        for edge in timeout_edges(path.stem, path.read_text())
    ]
    assert sorted(found) == [
        "errors.Deadline.__init__: timeout_ms",
        "solvers.compute_invariants.entry: Deadline(...)",
        "solvers.compute_invariants: timeout_ms",
        "verify._checker.decorate.check: Deadline(...)",
        "verify._checker.decorate.check: timeout_ms",
        "verify.search_acyclic_problem: timeout_ms",
    ]


def _module_level(body):
    """The module-level statements of ``body``, including those under a
    top-level ``if`` or ``try``."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body + node.orelse)
        elif isinstance(node, ast.Try):
            handlers = [stmt for h in node.handlers for stmt in h.body]
            yield from _module_level(node.body + handlers + node.orelse + node.finalbody)


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The private (single-underscore) functions, classes and constants that
    a module of ``sources`` (name -> text) defines at module level and that
    no module reads, by name or as an attribute, outside the definition
    itself, as ``module.name``."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    defined = []  # (module, name, nodes inside the definition)
    for module, tree in trees.items():
        for node in _module_level(tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names, inside = [node.name], set(map(id, ast.walk(node)))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                inside = set()
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined.append((module, name, inside))
    reads: dict[str, set[int]] = {}  # name -> the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(id(node))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                reads.setdefault(node.id, set()).add(id(node))
    return [
        f"{module}.{name}"
        for module, name, inside in defined
        if not reads.get(name, set()) - inside
    ]


def test_detects_an_unreferenced_private():
    sources = {
        "a": "_USED = 1\n_UNUSED = 2\ndef _recursive():\n    _recursive()\n"
        "def _helper():\n    return _USED\n",
        "b": "import a\ntry:\n    _late = 1\nexcept ImportError:\n    pass\na._helper()\n",
    }
    assert unreferenced_privates(sources) == ["a._UNUSED", "a._recursive", "b._late"]


def test_no_unreferenced_privates():
    package = ROOT / "src" / "didom"
    sources = {path.stem: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unreferenced_privates(sources) == []


def test_all_lists_every_export_once():
    init = ROOT / "src" / "didom" / "__init__.py"
    imported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(didom.__all__) == sorted(imported + ["__version__"])
