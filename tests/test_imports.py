"""Every name a module of manna imports is read in that module.

An import nothing reads misleads the reader about what the module depends
on.  An alias whose line carries ``# noqa: F401`` is kept on purpose, for
code that looks the name up on the module, and is exempt.  The package's
``__init__`` imports names to re-export them, and ``__future__`` imports
name compiler features, so neither is checked.

The only code that looks such a name up is the benchmark's tracer, which
wraps the functions its ``perfbench/spans.py`` tables name.  So every kept
alias must be one of those lookups: a name kept for a lookup that is gone
would mislead as an unread import does.
"""

import ast
from pathlib import Path

import pytest

import manna

MODULES = sorted(
    path for path in Path(manna.__file__).parent.glob("*.py") if path.name != "__init__.py"
)
SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def imported_names(path: Path) -> dict[str, bool]:
    """Each name ``path`` imports, and whether its line carries
    ``# noqa: F401``."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    names = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                kept = "# noqa: F401" in lines[alias.lineno - 1]
                names[alias.asname or alias.name.split(".")[0]] = kept
    return names


def unread_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    imported = {name for name, kept in imported_names(path).items() if not kept}
    return sorted(imported - read)


def benchmark_lookups() -> set[tuple[str, str]]:
    """The ``(module, attribute)`` pairs of the ``SPANNED`` and ``COUNTED``
    tables of ``perfbench/spans.py``, read without importing it."""
    lookups = set()
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("SPANNED", "COUNTED") for t in node.targets
        ):
            lookups.update((row[0], row[1]) for row in ast.literal_eval(node.value))
    return lookups


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unread_imports(path) == []


def test_every_kept_import_is_a_benchmark_lookup():
    lookups = benchmark_lookups()
    assert ("solver", "build_weighted_graph") in lookups  # the tables were found
    kept = {
        (path.stem, name)
        for path in MODULES
        for name, noqa in imported_names(path).items()
        if noqa
    }
    assert kept - lookups == set()
