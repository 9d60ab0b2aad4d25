"""nodedp benchmark: one workload per invocation, measured from outside.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

The workload runs in a fresh child process under an address-space cap with
one BLAS thread; six more children only set up, three before it and three
after, so that ``setup_s`` is a median of seven.  The last line of output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  The line before it records the
machine and the run.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.special import betainc

HERE = Path(__file__).resolve().parent
ADDRESS_SPACE_CAP = 3 << 30  # bytes; below the RAM of the machines it runs on
BLAS_THREADS = 1
SETUP_SAMPLES = 7
# Median time of the reference load in hostspeed.py on the host the
# benchmark was built on; timings are scaled to that host's speed.
REFERENCE_LOAD_S = 0.010
TRIM = 0.2  # share of repetitions dropped at each end of an op's timings
DEADLINE_S = 175.0  # the whole run, all children included
WORKLOAD_NAMES = ("audit", "mse", "release")


def trimmed_mean(values, share=TRIM):
    values = sorted(values)
    k = int(share * len(values))
    return statistics.fmean(values[k : len(values) - k])


def host_speed(reference_loads):
    """How much slower than the build host this host ran: the trimmed mean
    of the reference-load times over their usual value there."""
    return trimmed_mean(reference_loads) / REFERENCE_LOAD_S


def per_op(units, field):
    """Each distinct op's trimmed mean over the repetitions of the unit.  A
    mean follows a host that switches between a fast and a slow state more
    smoothly than a median, which jumps between them."""
    samples = defaultdict(list)
    for unit in units:
        for outcome in unit:
            samples[outcome[0]].append(outcome[field])
    return {name: trimmed_mean(values) for name, values in samples.items()}


def harrell_davis(sorted_values, q):
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics, which moves smoothly where a single rank would jump
    from one operation to the next."""
    n = len(sorted_values)
    edges = betainc((n + 1) * q, (n + 1) * (1.0 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), sorted_values))


def latency_ms(units, q, fallback_ms):
    """q-quantile of the distinct ops' latencies.  An op that failed sorts
    above every completed one, so the q-quantile of all ops is the
    q*ops/completed quantile of the completed ones; if that rank lies among
    the failures, the run's total measured time stands in, as it exceeds
    every single latency."""
    failed = {outcome[0] for unit in units for outcome in unit if outcome[3]}
    walls = per_op(units, 1)
    done = sorted(wall * 1e3 for name, wall in walls.items() if name not in failed)
    if math.ceil(q * len(walls)) > len(done):
        return fallback_ms
    return harrell_davis(done, min(q * len(walls) / len(done), 1.0 - 0.5 / len(done)))


def beyond(count, q):
    """Samples above the nearest-rank q-quantile of count samples."""
    return count - max(math.ceil(q * count), 1)


def child_env():
    env = dict(os.environ)
    src = str(Path.cwd() / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # set and dict order, and so their speed, repeat
    env["PERFBENCH_AS_CAP_BYTES"] = str(ADDRESS_SPACE_CAP)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, workdir, deadline, setup_only):
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info(versions):
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_bytes": pages,
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        **versions,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "nodedp" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/nodedp not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        # Set-up-only children run before and after the measured one, so
        # that the median set-up time spans the run, not one moment of it.
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_child(args, workdir / f"setup{i}", deadline, True) for i in range(extra // 2)]
        result = run_child(args, workdir / "run", deadline, False)
        setups.append(result)
        setups += [
            run_child(args, workdir / f"setup{i}", deadline, True) for i in range(extra // 2, extra)
        ]
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish within {DEADLINE_S:.0f} s; "
              "its process was stopped", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.exists() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    units = result["units"]
    outcomes = [outcome for unit in units for outcome in unit]
    if args.trace:
        values = result["per_layer"]
    else:
        total_ms = sum(wall for _, wall, _, _ in outcomes) * 1e3
        measured = {
            "wall_s": sum(per_op(units, 1).values()),
            "cpu_s": sum(per_op(units, 2).values()),
            "latency_p50_ms": latency_ms(units, 0.5, total_ms),
            "latency_p90_ms": latency_ms(units, 0.9, total_ms),
        }
        host_factor = host_speed(result["reference_load_s"])
        values = {name: value / host_factor for name, value in measured.items()}
        values.update(
            setup_s=statistics.median(
                s["setup_s"] / host_speed(s["setup_reference_load_s"]) for s in setups
            ),
            peak_rss_mib=result["peak_rss_mib"],
        )
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {names}")

    failures = [failure for _, _, _, failure in outcomes if failure]
    distinct = {outcome[0] for outcome in outcomes}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "units": len(units),
        "unit_walls_s": [sum(wall for _, wall, _, _ in unit) for unit in units],
        "operations": len(outcomes),
        # latency samples are the distinct ops; fewer than ten above a
        # percentile make it weak
        "latency_samples": len(distinct),
        "latency_beyond": {"p50": beyond(len(distinct), 0.5), "p90": beyond(len(distinct), 0.9)},
        "setup_samples": [s["setup_s"] for s in setups],
        "failures_by_kind": {k: failures.count(k) for k in sorted(set(failures))},
        "error_rate": len(failures) / len(outcomes),
        "problems": result["problems"],
        **(
            {
                "host_factor": host_factor,
                "reference_loads": len(result["reference_load_s"]),
                "unscaled": measured,
            }
            if not args.trace
            else {}
        ),
        **(
            {
                "closed_form_counts": result["closed_form"],
                "closed_form_match": all(c["got"] == c["want"] for c in result["closed_form"]),
            }
            if args.trace
            else {}
        ),
        "machine": machine_info(result["versions"]),
    }
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
