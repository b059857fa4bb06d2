"""Every name that a module of the package or of its tests imports is used in it.

A name left imported after its last use (a helper that moved, a check
that was folded into another) hides what a module depends on.  Each
``src/wstskit/*.py`` and ``tests/*.py`` is parsed with :mod:`ast`; a name
counts as used when the module reads it anywhere, annotations included.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "wstskit"

# imported by cli.py only so that bench/tracing.py can rebind them there
KEPT = {"cli.py": {"downset_post", "downset_subset"}}


def unused_imports(source: str) -> set[str]:
    """The names that ``source`` imports and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return imported - read


def test_unused_imports_finds_what_it_should():
    assert unused_imports("import os\nimport os.path as p\nfrom a import b, c as d\nd()\n") == {
        "os", "p", "b"}
    assert unused_imports("from __future__ import annotations\nimport x\ndef f(y: x): pass\n") == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == KEPT.get(path.name, set())
