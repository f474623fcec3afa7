"""Every name a module of manna imports is read in that module.

An import nothing reads misleads the reader about what the module depends
on.  An alias whose line carries ``# noqa: F401`` is kept on purpose, for
code that looks the name up on the module, and is exempt.  The package's
``__init__`` imports names to re-export them, and ``__future__`` imports
name compiler features, so neither is checked.
"""

import ast
from pathlib import Path

import pytest

import manna

MODULES = sorted(
    path for path in Path(manna.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unread_imports(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
                if "# noqa: F401" not in lines[alias.lineno - 1]
            )
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == []
