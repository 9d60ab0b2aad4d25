"""The benchmark's tracer and workloads still find every name they hook.

perfbench/tracing.py wraps functions in each module that binds them,
including names a module re-imports only for the tracer (the
``noqa: F401`` imports), and perfbench/workloads.py clears the package's
lru_caches between repetitions.  Deleting one of those names breaks traced
benchmark runs; these tests make that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def test_workloads_clear_the_package_caches():
    workloads = _load("workloads")
    workloads.clear_caches()
    for cache in workloads._CACHES:
        assert cache.cache_info().currsize == 0
