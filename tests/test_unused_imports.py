"""No module imports a name it never uses.

A stdlib stand-in for a linter's F401 check: every name an import statement
binds must appear as a name somewhere in the module.  Package __init__ files
re-export by importing, and a statement marked ``noqa: F401`` binds a name
on purpose (a hook that perfbench/tracing.py wraps in that module), so both
are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src", "tests", "perfbench")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


def test_checker_flags_only_unused_unmarked_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads as parse\n"
        "from sys import argv  # noqa: F401  (kept for a hook)\n"
        "from re import (  # noqa: F401\n"
        "    compile,\n"
        ")\n"
        "x = math.pi + len(parse('[]'))\n"
    )
    assert unused_imports(source) == ["line 4: dumps", "line 3: os"]


def test_no_module_has_an_unused_import():
    assert MODULES, "found no modules to check"
    found = [
        f"{path.relative_to(ROOT)} {hit}"
        for path in MODULES
        for hit in unused_imports(path.read_text())
    ]
    assert not found, found
