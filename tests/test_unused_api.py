"""No top-level function, class, method or constant of the package is
referenced nowhere outside the tests.

A name counts as referenced when it is read (a loaded name or attribute) in
some module of src/nodedp, or in perfbench/, or when the README names it.
perfbench/tracing.py patches attributes by their names as strings, so in
perfbench/ every word of a string constant counts too.  An __init__ import
is not a reference: re-exporting a name does not use it.  Dunder methods
are called implicitly and are exempt, and so is the short allowlist below.

Likewise no parameter with a default, of a top-level function or of a
method of a top-level class, is passed nowhere outside the tests: some call
in src/nodedp or perfbench/ of a function or attribute of that name passes
it, by keyword or by position, or passes a *args or **kwargs that may
carry it, unless it is allowlisted below.
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


# Parameters with defaults that only tests pass, kept on purpose.
ALLOWED_DEFAULTS = {
    "audit_finite_mechanism.name": "the per-graph reference the batched block audit is tested"
    " against",
    "audit_finite_mechanism.collect_rows": "likewise",
    "LaplaceDensity.sample.size": "acceptance 5b draws the density law in bulk",
    "PiecewiseExpDensity.sample.size": "acceptance 5b draws the density law in bulk",
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


def defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, name its callers call, parameter, position among
    the call's positional arguments or None if keyword-only) of every
    parameter with a default of the top-level functions and the methods of
    top-level classes.  A method's position skips self, unless it is a
    staticmethod, and __init__ is called by its class's name."""
    found = []

    def add(fn, owner=None):
        args = fn.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        skip = 1 if owner and not static else 0
        qualname = f"{owner}.{fn.name}" if owner else fn.name
        called = owner if fn.name == "__init__" else fn.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], first):
            found.append((qualname, called, arg.arg, i - skip))
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                found.append((qualname, called, arg.arg, None))

    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            add(node)
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    add(m, node.name)
    return found


def passed_arguments(source: str) -> set[tuple[str, object]]:
    """(called name, keyword or position) of every argument the source's
    calls of a name or attribute pass; "*" for a *args and None for a
    **kwargs."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        found |= {(name, kw.arg) for kw in node.keywords}
        for i, arg in enumerate(node.args):
            found.add((name, "*" if isinstance(arg, ast.Starred) else i))
            if isinstance(arg, ast.Starred):
                break
    return found


def never_passed(defaults, passed) -> list[str]:
    return [
        f"{qualname}.{param}"
        for qualname, called, param, position in defaults
        if not {(called, param), (called, position), (called, "*"), (called, None)} & passed
    ]


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


def test_default_checker_counts_keywords_positions_and_unpacking():
    source = (
        "def f(a, b=1, *, c=2): pass\n"
        "class Box:\n"
        "    def __init__(self, size=0): pass\n"
        "    def put(self, x, y=0): pass\n"
        "    @staticmethod\n"
        "    def make(x=0): pass\n"
    )
    defaults = defaulted_parameters(source)
    assert defaults == [
        ("f", "f", "b", 1), ("f", "f", "c", None), ("Box.__init__", "Box", "size", 0),
        ("Box.put", "put", "y", 1), ("Box.make", "make", "x", 0),
    ]
    assert never_passed(defaults, passed_arguments("f(0, 1); Box(size=2); box.put(1)")) == [
        "f.c", "Box.put.y", "Box.make.x",
    ]
    calls = "f(0, c=3); Box(4); box.put(*xs); Box.make(**kw)"
    assert never_passed(defaults, passed_arguments(calls)) == ["f.b"]


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    passed = set()
    for path in PACKAGE + sorted((ROOT / "perfbench").rglob("*.py")):
        passed |= passed_arguments(path.read_text())
    unused = [
        f"{path.name}: {name}"
        for path in PACKAGE
        for name in never_passed(defaulted_parameters(path.read_text()), passed)
        if name not in ALLOWED_DEFAULTS
    ]
    assert not unused, unused


def test_allowlisted_names_still_exist():
    defined = {name for path in PACKAGE for name in definitions(path.read_text())}
    assert set(ALLOWED) <= defined
    defaults = {
        f"{qualname}.{param}"
        for path in PACKAGE
        for qualname, _, param, _ in defaulted_parameters(path.read_text())
    }
    assert set(ALLOWED_DEFAULTS) <= defaults
