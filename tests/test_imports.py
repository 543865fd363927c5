"""Dead-code checks that need no linter.  Every name a module under
``src/didom`` or ``tests`` imports must be read somewhere in that module.
``__init__.py`` files are left out, since their imports are re-exports;
``didom.__all__`` must list each of those exactly once.  Every private
function, class or constant a module under ``src/didom`` defines at module
level must be read somewhere in ``src/didom`` outside its own definition."""

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
