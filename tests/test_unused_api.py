"""No top-level function, class, method or constant of the package is
referenced nowhere outside the tests.

A name counts as referenced when it is read (a loaded name or attribute) in
some module of src/nodedp, or in perfbench/, or when the README names it.
perfbench/tracing.py patches attributes by their names as strings, so in
perfbench/ every word of a string constant counts too.  An __init__ import
is not a reference: re-exporting a name does not use it.  Dunder methods
are called implicitly and are exempt, and so is the short allowlist below.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "nodedp").glob("*.py"))

# Names only tests read, kept on purpose.
ALLOWED = {
    "cdf": "PiecewiseExpDensity's closed-form CDF, from which grid pmfs are to be built",
    "probabilities": "the exact selection pmf, which an expected-excess-score experiment reads",
    "unit_laplace_density": "a fixture law for the extension and density tests",
    "rewire": "rewires one vertex, as the pinned capped-pair witness and graph tests do",
    "complete": "a fixture graph of the graph and block tests",
    "from_hex": "reads back the hex format that `nodedp sample --format hex` writes",
}


def definitions(source: str) -> list[str]:
    """Top-level functions, classes and assigned names, and the methods of
    top-level classes, without dunder names."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [
                m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def references(source: str, strings: bool = False) -> set[str]:
    """Names and attributes the source reads, and with strings=True every
    word of its string constants."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.update(re.findall(r"\w+", node.value))
    return found


def test_checker_counts_reads_and_bench_strings_only():
    source = (
        "LIMIT = 3\n"
        "def used(): return LIMIT\n"
        "def unused(): pass\n"
        "class Box:\n"
        "    def __init__(self): self.size = used()\n"
        "    def patched(self): pass\n"
        "    def unread(self): pass\n"
    )
    assert definitions(source) == ["LIMIT", "used", "unused", "Box", "patched", "unread"]
    read = references(source) | references("setattr(box, 'patched', None)", strings=True)
    assert [n for n in definitions(source) if n not in read] == ["unused", "Box", "unread"]
    assert "patched" not in references("setattr(box, 'patched', None)")


def test_every_package_name_is_referenced_outside_the_tests():
    assert PACKAGE, "found no modules to check"
    read = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for path in PACKAGE:
        read |= references(path.read_text())
    for path in (ROOT / "perfbench").rglob("*.py"):
        read |= references(path.read_text(), strings=True)
    unread = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for name in definitions(path.read_text())
        if name not in read and name not in ALLOWED
    ]
    assert not unread, unread


def test_allowlisted_names_still_exist():
    defined = {name for path in PACKAGE for name in definitions(path.read_text())}
    assert set(ALLOWED) <= defined
