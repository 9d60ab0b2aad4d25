"""One workload in one process: set up, run timed units, check, report.

Started by run.py with the address-space cap and BLAS thread count in its
environment.  Prints one JSON object as its last line of output.
"""

import time

_START = time.perf_counter()  # set-up time counts the imports below

import argparse
import json
import os
import resource
import sys
from pathlib import Path


def _cap_address_space() -> int:
    cap = int(os.environ["PERFBENCH_AS_CAP_BYTES"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    return cap


class Runner:
    def __init__(self, workload, state, clear_caches, time_reference_load):
        self.time_reference_load = time_reference_load
        self.reference_loads = None  # a list while the timed units run
        self.workload = workload
        self.state = state
        self.clear_caches = clear_caches
        self.problems: list[str] = []
        self.fingerprints: dict[str, object] = {}
        self.closed_form: list[dict] = []

    def run_op(self, op, tracer=None):
        """Run and check one op; returns (wall s, cpu s, kind of failure or None)."""
        if self.reference_loads is not None:
            self.reference_loads.append(self.time_reference_load())
        if self.workload.clear_before_each_op:
            self.clear_caches()
        before = tracer.snapshot() if tracer else None
        if tracer:
            tracer.install()
        failure, result = None, None
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            result = op.run()
        except self.workload.expected_failures as exc:
            failure = type(exc).__name__
        except Exception as exc:  # any other error is a wrong result
            failure = type(exc).__name__
            self.problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
        finally:
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            if tracer:
                tracer.uninstall()
        if failure is None:
            problems, fingerprint = op.verify(result)
            key = op.key or op.name
            if problems:
                failure = "check"
                self.problems.extend(problems)
            elif key in self.fingerprints and self.fingerprints[key] != fingerprint:
                failure = "check"
                self.problems.append(f"{op.name}: output differs on replay")
            else:
                self.fingerprints.setdefault(key, fingerprint)
        if tracer:
            self._check_counts(op.name, before, tracer.snapshot())
        return wall, cpu, failure

    def run_ops(self, ops, tracer=None, whole_unit=False):
        """Run ops in order; returns [(name, wall s, cpu s, failure)]."""
        self.clear_caches()
        before = tracer.snapshot() if tracer else None
        outcomes = [(op.name, *self.run_op(op, tracer)) for op in ops]
        if tracer and whole_unit:
            self._check_counts("*", before, tracer.snapshot())
        return outcomes

    def _check_counts(self, key, before, after):
        """Record traced counts next to their closed forms.  A mismatch is
        reported, not failed: ROADMAP items 1 and 2 change these by design."""
        for name, want in (self.workload.expected_counts or {}).get(key, {}).items():
            got = after.get(name, 0) - before.get(name, 0)
            self.closed_form.append({"op": key, "counter": name, "got": got, "want": want})


def _unit_wall(outcomes):
    return sum(wall for _, wall, _, _ in outcomes)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cap = _cap_address_space()
    import numpy
    import scipy

    import hostspeed
    from workloads import WORKLOADS, clear_caches

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    state = workload.setup(args.seed, workdir)
    setup_s = time.perf_counter() - _START
    out = {
        "setup_s": setup_s,
        # the host's speed just after set-up, to scale set-up time by
        "setup_reference_load_s": [hostspeed.time_reference_load() for _ in range(10)],
    }
    if not args.setup_only:
        runner = Runner(workload, state, clear_caches, hostspeed.time_reference_load)
        unit = lambda rep: workload.unit(state, rep)  # noqa: E731
        # Warm-up: lazy imports and first-call set-up finish before timing;
        # its outputs are the reference that the timed ops must repeat.
        runner.run_ops(workload.warmup(state) if workload.warmup else unit(0))
        checks = workload.checks(state) if workload.checks else []
        units = []  # per repetition: [(name, wall s, cpu s, failure)]
        if args.trace:
            import tracing

            units.append(runner.run_ops(unit(0)))
            tracer = tracing.Tracer()
            units.append(runner.run_ops(unit(0), tracer, whole_unit=True))
            overhead = _unit_wall(units[1]) - _unit_wall(units[0])
            out["per_layer"] = tracing.per_layer_metrics(tracer, overhead)
            if workload.traced_checks:
                checks += workload.traced_checks(state)
            runner.run_ops(checks, tracing.Tracer())
            out["closed_form"] = runner.closed_form
        else:
            # Repeat the unit while the next one is expected to end in time;
            # time the reference load before every operation.
            runner.reference_loads = []
            start = time.perf_counter()
            while True:
                units.append(runner.run_ops(unit(len(units))))
                spent = time.perf_counter() - start
                if spent * (len(units) + 1) / len(units) > args.seconds:
                    break
            out["reference_load_s"], runner.reference_loads = runner.reference_loads, None
            runner.run_ops(checks)
        if workload.finish:
            runner.problems += workload.finish(state)
        out.update(
            units=units,
            problems=runner.problems,
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    out["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "address_space_cap_bytes": cap,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
