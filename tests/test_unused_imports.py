"""Hygiene: every name a ``src/repro`` module imports is used there.

Neither pyflakes nor ruff is a dependency, so the check walks each
module's AST itself.  A name counts as used when it appears as a
``Name`` anywhere in the module, or inside a string constant that
parses as an expression (string annotations such as ``"Runner"``).
Package ``__init__`` modules are skipped: their imports are the
package's re-exports.  An import kept for its side effect says so with
``# noqa: F401`` on its statement.
"""

import ast
import pathlib
import warnings

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _imported(tree, lines):
    """(line, bound name) for every import outside ``__future__`` and
    ``# noqa: F401`` statements."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            yield node.lineno, alias.asname or alias.name.split(".")[0]


def _used(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # escapes in prose
                    expr = ast.parse(node.value, mode="eval")
            except (SyntaxError, ValueError):
                continue
            used.update(
                n.id for n in ast.walk(expr) if isinstance(n, ast.Name)
            )
    return used


def unused_imports(source):
    """(line, name) for each imported name ``source`` never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        (line, name)
        for line, name in _imported(tree, source.splitlines())
        if name not in used
    )


def test_scanner_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import json as js\n"
        "import xml.dom\n"
        "from typing import TYPE_CHECKING, Dict, Optional\n"
        "from . import batch  # noqa: F401  (registers an engine)\n"
        "if TYPE_CHECKING:\n"
        "    from .runner import Runner\n"
        "def f(r: Optional['Runner']) -> Dict:\n"
        "    return os.sep, xml.dom\n"
    )
    assert unused_imports(source) == [(2, "sys"), (3, "js")]


def test_src_modules_use_every_import():
    hits = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]
    assert not hits, f"{len(hits)} unused imports:\n" + "\n".join(hits)
