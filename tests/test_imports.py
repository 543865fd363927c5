"""An unused-import check that needs no linter: every name a module under
``src/didom`` or ``tests`` imports must be read somewhere in that module.
``__init__.py`` files are left out, since their imports are re-exports;
``didom.__all__`` must list each of those exactly once."""

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


def test_all_lists_every_export_once():
    init = ROOT / "src" / "didom" / "__init__.py"
    imported = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(init.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(didom.__all__) == sorted(imported + ["__version__"])
