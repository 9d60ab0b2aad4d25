"""The benchmark's tracer and workloads still find every name they hook.

perfbench/tracing.py wraps functions in each module that binds them,
including names a module re-imports only for the tracer (the
``noqa: F401`` imports), and perfbench/workloads.py clears the package's
lru_caches between repetitions.  Deleting one of those names breaks traced
benchmark runs, and a ``noqa: F401`` binding the tracer no longer patches is
dead code; these tests make both a tier-1 failure.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import nodedp
from nodedp import block_estimator
from nodedp.block_estimator import EstimatorConfig, candidate_count
from nodedp.graphs import LabeledGraph

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_hook():
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, f"{owner.__name__}.{attr}"
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"


def _hook_bindings() -> set[tuple[str, str]]:
    """(module, name) of every import or assignment in src/nodedp marked
    ``noqa: F401``: the names bound only for the tracer."""
    found = set()
    for path in sorted((ROOT / "src" / "nodedp").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Import, ast.ImportFrom, ast.Assign)):
                continue
            if not any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            if isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                names = [alias.asname or alias.name for alias in node.names]
            found.update((f"nodedp.{path.stem}", name) for name in names)
    return found


def test_every_hook_binding_is_patched_by_the_tracer():
    bindings = _hook_bindings()
    assert bindings, "found no noqa: F401 bindings"
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        patched = {(owner.__name__, attr) for owner, attr, _ in tracer._saved}
    finally:
        tracer.uninstall()
    assert not bindings - patched, sorted(bindings - patched)


def test_workloads_clear_the_package_caches():
    workloads = _load("workloads")
    workloads.clear_caches()
    for cache in workloads._CACHES:
        assert cache.cache_info().currsize == 0


# module-level lru_caches that the workloads keep warm, each with the
# reason a command-line user does not pay for it in every process
UNCLEARED_CACHES = {
    "nodedp.block_estimator._level_layout": "O(k^2) constants, microseconds to build",
    "nodedp.graphs.cover_table": "one table per order, about 0.1 ms to build at n = 5",
    "nodedp.graphs._slot_weights": "one [n * n] int64 row per order, microseconds to build",
    # every one-shot process builds it once (about 3 ms), which the release
    # workload pays once per run
    "nodedp.cli.build_parser": "built once per process by design",
}


def test_every_scoring_cache_is_cleared_or_allowed():
    # a cache that the benchmark keeps warm across units would time work
    # that each one-shot CLI process does cold
    workloads = _load("workloads")
    cleared = {id(cache) for cache in workloads._CACHES}
    found = set()
    for info in pkgutil.iter_modules(nodedp.__path__):
        module = importlib.import_module(f"nodedp.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found.add(f"{module.__name__}.{name}")
                if id(value) not in cleared:
                    assert f"{module.__name__}.{name}" in UNCLEARED_CACHES, name
    assert "nodedp.block_estimator._partition_tensors" in found
    assert set(UNCLEARED_CACHES) <= found


def test_traced_block_mechanism_counts_the_candidates_it_scores():
    # the tracer counts candidates by wrapping candidate_matrices by name, so
    # that name must stay the function the selection stage calls
    g = LabeledGraph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        block_estimator.block_mechanism(g, 0.5, EstimatorConfig(1.0, 2.0, 2))
    finally:
        tracer.uninstall()
    assert tracer.calls["block_estimator.candidate_matrices"] == 1
    assert tracer.counts["block_estimator.candidates"] == candidate_count(6, 2, 1.0) == 343
