"""The three benchmark workloads: audit, mse and release.

Each workload builds its inputs from the benchmark seed in ``setup`` and
returns a fixed list of operations, its unit of work; the timed run repeats
the unit.  An operation is a call into nodedp plus a check of its output
that does not depend on the exact random draws, so it survives changes of
the RNG path or algorithm.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nodedp.audits as audits
import nodedp.block_estimator as block_estimator
import nodedp.cli as cli
import nodedp.density as density
import nodedp.experiments as experiments
from nodedp.errors import ResourceLimitError
from nodedp.graphs import LabeledGraph, graph_from_index

# lru_caches that would otherwise turn repeated units into cache hits; kept
# here because tracing replaces the module attributes with plain wrappers.
_CACHES = (block_estimator.measured_score_sensitivity, block_estimator._partition_tensors)


def clear_caches() -> None:
    for cache in _CACHES:
        cache.cache_clear()


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    # returns (problems, fingerprint); the fingerprint must repeat exactly
    # when an op of the same key runs again with the same inputs
    verify: Callable[[Any], tuple[list[str], Any]]
    key: str | None = None  # identity of the inputs; defaults to the name


@dataclass
class Workload:
    name: str
    setup: Callable[[int, Path], Any]
    # (state, repetition) -> the unit's operations
    unit: Callable[[Any, int], list[Op]]
    # untimed operations run once before timing; default: the unit itself
    warmup: Callable[[Any], list[Op]] | None = None
    # untimed operations run once after timing, and traced in a traced run
    checks: Callable[[Any], list[Op]] | None = None
    # untimed operations run only in a traced run, for closed-form counts
    traced_checks: Callable[[Any], list[Op]] | None = None
    # checks over every repetition together; returns problems
    finish: Callable[[Any], list[str]] | None = None
    # exceptions that count as failed operations but not as wrong output
    expected_failures: tuple = ()
    clear_before_each_op: bool = False
    # counter values known in closed form for the current algorithms, per op
    # name ("*" = whole traced unit); they show that the trace hooks fire
    expected_counts: dict | None = None


# -- audit ------------------------------------------------------------------------

EPS = 1.0
AUDIT_GRID = np.linspace(-1.0, 2.0, 200)
UNIT_GRID = np.linspace(0.0, 1.0, 201)
EXTENSION_SUBSET = 32
HCFG5 = density.HomogeneityConfig(rho=0.5, C=49.0, n=5)
BLOCK_AUDIT_CFG = block_estimator.EstimatorConfig(
    epsilon=EPS, lam=2.0, k=2, sensitivity_mode="audited"
)


def _audit_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    indices = sorted(rng.choice(1 << 10, size=EXTENSION_SUBSET, replace=False).tolist())
    graphs = [graph_from_index(5, i) for i in indices]
    in_h = [density.homogeneity_membership(g, HCFG5) for g in graphs]
    return graphs, in_h


def _report_fp(report):
    return (report.max_violation, report.pairs_checked, report.witness)


def _passes(report):
    ok = report.passed()
    problems = [] if ok else [f"{report.mechanism}: violation {report.max_violation:.3e}"]
    return problems, _report_fp(report)


def _laplace_audit(n: int, calibration_eps: float, name: str):
    return lambda: audits.audit_density_mechanism(
        lambda g: density.laplace_density_mechanism(g, calibration_eps), n, EPS, AUDIT_GRID,
        name=name,
    )


def _audit_unit(state, rep: int) -> list[Op]:
    graphs, in_h = state
    built: dict[str, Any] = {}

    def negative_control(report):
        # calibrated for 4*eps: the 4/n scale is 2x loose, so 2*eps would
        # still pass exactly and is no control
        ok = not report.passed() and report.witness is not None
        return ([] if ok else ["negative control passed the audit"]), _report_fp(report)

    def within_theory(report):
        ok = 0.0 < report.measured and report.within_theory
        problems = [] if ok else [
            f"measured sensitivity {report.measured!r} outside (0, {report.theoretical!r}]"
        ]
        return problems, report.measured

    def build():
        built["ext"] = density.extended_density_mechanism(5, EPS, HCFG5)
        return built["ext"]

    def build_ok(ext):
        problems = [] if callable(ext) else ["extension is not callable"]
        if not any(in_h):
            problems.append("no input of the subset lies in H; the base check is vacuous")
        return problems, None

    def evaluation(i):
        def verify(dens):
            logs = np.asarray(dens.log_pdf(UNIT_GRID))
            if not np.isfinite(logs).all():
                return [f"extension at input {i} has a non-finite log density"], None
            if in_h[i]:
                base = density.restricted_density_mechanism(graphs[i], EPS, HCFG5)
                gap = float(np.abs(logs - base.log_pdf(UNIT_GRID)).max())
                if gap > 1e-9:
                    return [f"extension differs from the base on H by {gap:.3e}"], None
            return [], tuple(logs.tolist())

        return verify

    certificates = [
        Op("laplace_n4", _laplace_audit(4, EPS, "laplace-n4"), _passes),
        Op("negative_control_n4", _laplace_audit(4, 4.0 * EPS, "laplace-4eps-n4"),
           negative_control),
        Op(
            "block_pmf_n4",
            lambda: audits.audit_block_mechanism(4, 0.5, BLOCK_AUDIT_CFG, EPS / 2.0),
            _passes,
        ),
        Op("score_sensitivity_n4", lambda: audits.audit_score_sensitivity(4, 2, 4, 0.4),
           within_theory),
    ]
    evaluations = [
        Op(f"extension_eval_{i}", lambda g=g: built["ext"](g), evaluation(i))
        for i, g in enumerate(graphs)
    ]
    # Interleave the short evaluations with the certificates so that each
    # kind of operation is sampled across the whole unit.
    ops = [Op("extension_build_n5", build, build_ok)]
    share = len(evaluations) // len(certificates)
    for j, cert in enumerate(certificates):
        ops += evaluations[j * share : (j + 1) * share] + [cert]
    return ops + evaluations[len(certificates) * share :]


def _audit_checks(state) -> list[Op]:
    def sensitivity(report):
        ok = abs(report.measured - 0.256) <= 1e-12
        return ([] if ok else [f"measured sensitivity {report.measured!r}, want 0.256"]), (
            report.measured
        )

    return [Op("score_sensitivity_n5", lambda: audits.audit_score_sensitivity(5, 2, 4, 0.4),
               sensitivity)]


def _audit_traced_checks(state) -> list[Op]:
    return [Op("laplace_n5", _laplace_audit(5, EPS, "laplace-n5"), _passes)]


AUDIT = Workload(
    "audit",
    _audit_setup,
    _audit_unit,
    checks=_audit_checks,
    traced_checks=_audit_traced_checks,
    expected_counts={
        "laplace_n4": {
            "audits.pairs_checked": 64 * 63,
            "graphs.node_distance.calls": 64 * 63 // 2,
            "graphs.all_graphs.items": 64,
        },
        "laplace_n5": {
            "audits.pairs_checked": 1024 * 1023,
            "graphs.node_distance.calls": 1024 * 1023 // 2,
            "graphs.all_graphs.items": 1024,
        },
        "block_pmf_n4": {"audits.pairs_checked": 1408},
        "score_sensitivity_n5": {
            "graphs.all_graphs.items": 1024,
            "graphs.adjacent_graphs.calls": 1024,
        },
    },
)


# -- mse --------------------------------------------------------------------------

MSE_TRIALS = 100  # per cell and repetition; every repetition draws afresh
MSE_N = (64, 128, 256, 512)
# relative standard deviation of one trial's squared error: Laplace noise
# has Var(L^2) = 5 E[L^2]^2; the promise law is close to uniform, below 1
TRIAL_REL_SD = {"baseline": math.sqrt(5.0), "promise": 1.0}
Z = 5.0


def _mse_setup(seed: int, workdir: Path):
    cells = [
        (estimator, model, n)
        for estimator in ("baseline", "promise")
        for model in ("gnm", "gnp")
        for n in MSE_N
    ]
    # cell name -> {repetition: record}; filled as each cell is verified, read by finish
    return {"seed": seed, "cells": cells, "records": {}}


def _mse_config(estimator, model, n, master):
    return experiments.ExperimentConfig(
        estimator=estimator,
        model=model,
        n_grid=(n,),
        epsilon_grid=(EPS,),
        trials=MSE_TRIALS,
        seed=master,
        p=0.5 if model == "gnp" else None,
        m_fraction=0.5 if model == "gnm" else None,
        rho=0.5,
        C=49.0,
    )


def _mse_unit(state, rep: int) -> list[Op]:
    master = int(np.random.SeedSequence([state["seed"], rep]).generate_state(1)[0])

    def verify(name, cfg):
        def check(records):
            (r,) = records
            if r.trials != cfg.trials or not 0.0 < r.mse <= 1.0:
                return [f"{name}: bad record {r}"], None
            state["records"].setdefault(name, {})[rep] = r
            return [], (r.mse, r.ci_halfwidth)

        return check

    ops = []
    for estimator, model, n in state["cells"]:
        name = f"{estimator}_{model}_n{n}"
        cfg = _mse_config(estimator, model, n, master)
        ops.append(Op(name, lambda c=cfg: experiments.run_mse_experiment(c), verify(name, cfg),
                      key=f"{name}@{rep}"))
    return ops


def _mse_finish(state) -> list[str]:
    """Each cell's MSE, pooled over the repetitions, against its oracle."""
    problems = []
    for name, by_rep in state["records"].items():
        records = list(by_rep.values())
        r = records[0]
        if r.estimator == "baseline":
            want = density.predicted_baseline_mse(r.n, r.p, r.epsilon)
        elif r.model == "gnm":  # e(G) = m / C(n,2) exactly, so the law's centre is known
            want = density.predicted_restricted_mse(r.n, r.rho, r.epsilon, r.C, center=r.p)
        else:
            continue
        trials = sum(x.trials for x in records)
        mse = sum(x.mse * x.trials for x in records) / trials
        tol = Z * TRIAL_REL_SD[r.estimator] / math.sqrt(trials)
        if abs(mse - want) > tol * want:
            problems.append(
                f"{name}: mse {mse:.4e} over {trials} trials vs predicted {want:.4e} "
                f"(tolerance {tol:.0%})"
            )
    return problems


MSE = Workload(
    "mse",
    _mse_setup,
    _mse_unit,
    finish=_mse_finish,
    expected_counts={
        "*": {
            "graphons.sample.calls": 16 * MSE_TRIALS,
            "experiments.trials": 16 * MSE_TRIALS,
            "rng.substream.calls": 16 * (MSE_TRIALS + 1),
        }
    },
)


# -- release ----------------------------------------------------------------------

BLOCK_EPS, BLOCK_LAMBDA = 2.0, 2.0
# One client's requests, per 20.  The weights are an assumption, not measured
# traffic; the rule behind them: density releases are the majority, so p50
# falls on one (their cost is parsing); k=2 and k=3 block releases come in
# equal numbers, as in the sets of 20 each they were first measured on, and
# fill the slowest tenth with room to spare, so p90 falls on block scoring.
# Density releases use an n=512 file, extended ones n=5, block releases n=16
# (k=2) and n=9 (k=3).
MIX = {
    "density-baseline": 6, "density-promise": 6, "density-extended": 2,
    "blocks-k2": 3, "blocks-k3": 3,
}
CYCLE = [kind for r in range(max(MIX.values())) for kind, count in MIX.items() if r < count]
RELEASES = 100  # p90 needs at least 100 samples with ten beyond it
DENSITY_EPS = {"density-baseline": EPS, "density-promise": EPS / 2, "density-extended": EPS}


def _slots_graph(n: int, chosen) -> LabeledGraph:
    iu = np.triu_indices(n, 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[iu[0][chosen], iu[1][chosen]] = True
    return LabeledGraph(adj | adj.T)


def _block_graph(n: int, k: int, diag: float, off: float, rho: float, rng) -> LabeledGraph:
    """Planted equal-block graph with the expected edge count in every block
    pair, placed uniformly and relabelled by a random permutation.  The
    edge count is fixed so that the noisy density, and with it the work of
    each block release, depends on the release's noise only."""
    labels = rng.permutation(np.repeat(np.arange(k), n // k))
    iu = np.triu_indices(n, 1)
    a, b = labels[iu[0]], labels[iu[1]]
    chosen = []
    for i in range(k):
        for j in range(i, k):
            slots = np.flatnonzero(((a == i) & (b == j)) | ((a == j) & (b == i)))
            m = int(round(rho * (diag if i == j else off) * slots.size))
            chosen.extend(rng.choice(slots, size=m, replace=False).tolist())
    return _slots_graph(n, np.array(chosen, dtype=int))


def _release_setup(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    n = 512
    nslots = n * (n - 1) // 2
    graphs = {
        "n512": _slots_graph(n, rng.choice(nslots, size=nslots // 2, replace=False)),
        "n5": graph_from_index(5, int(rng.integers(1 << 10))),
        "n16": _block_graph(16, 2, 0.8, 0.2, 0.5, rng),
        "n9": _block_graph(9, 3, 0.8, 0.2, 0.5, rng),
    }
    paths = {}
    for key, g in graphs.items():
        paths[key] = workdir / f"{key}.txt"
        paths[key].write_text(g.to_edge_list_text())
    requests = []
    for i in range(RELEASES):
        kind = CYCLE[i % len(CYCLE)]
        out = workdir / f"release{i}.out"
        # The noise seeds are a fixed trace, like a recorded request log;
        # the benchmark seed varies the graphs.  See perfbench/README.md.
        common = ["--seed", str(i), "--out", str(out)]
        if kind.startswith("density"):
            mode = kind.split("-")[1]
            key = "n5" if mode == "extended" else "n512"
            argv = ["estimate", "density", "--input", str(paths[key]), "--epsilon", str(EPS),
                    "--mode", mode, "--rho", "0.5", "--C", "49"] + common
        else:
            k = int(kind[-1])
            key = "n16" if k == 2 else "n9"
            argv = ["estimate", "blocks", "--input", str(paths[key]), "--epsilon",
                    str(BLOCK_EPS), "--lambda", str(BLOCK_LAMBDA), "--k", str(k)] + common
        requests.append((kind, argv, out, graphs[key].n))
    return requests


def _verify_density(kind, text):
    record = json.loads(text)
    problems = []
    if not 0.0 <= record["value"] <= 1.0:
        problems.append(f"{kind}: value {record['value']} outside [0, 1]")
    if record["epsilon"] != DENSITY_EPS[kind]:
        problems.append(f"{kind}: epsilon {record['epsilon']}, want {DENSITY_EPS[kind]}")
    return problems


def _verify_blocks(kind, text, n):
    lines = text.split("\n")
    rho_hat = float(lines[0].split()[1])
    k = int(lines[1])
    b = np.array([[float(x) for x in ln.split()] for ln in lines[2 : 2 + k]])
    problems = []
    if not 1.0 / n**2 <= rho_hat <= 1.0:
        problems.append(f"{kind}: rho_hat {rho_hat} outside [1/n^2, 1]")
    if b.shape != (k, k) or not np.array_equal(b, b.T):
        problems.append(f"{kind}: block matrix is not symmetric k x k")
    elif b.min() < 0.0 or b.max() > BLOCK_LAMBDA * rho_hat + 1e-9:
        problems.append(f"{kind}: block entries outside [0, lambda * rho_hat]")
    elif np.abs(b * n - np.round(b * n)).max() > 1e-9:
        problems.append(f"{kind}: block entries off the 1/n grid")
    return problems


def _release_unit(requests, rep: int = 0) -> list[Op]:
    def verify(kind, out, n):
        def check(code):
            if code != 0:
                return [f"{kind}: exit code {code}"], None
            data = out.read_bytes()
            text = data.decode()
            try:
                problems = (
                    _verify_density(kind, text)
                    if kind.startswith("density")
                    else _verify_blocks(kind, text, n)
                )
            except (ValueError, KeyError, IndexError) as exc:
                problems = [f"{kind}: unreadable output ({exc})"]
            return problems, data

        return check

    return [
        Op(f"{i}:{kind}", lambda argv=argv: cli.main(argv), verify(kind, out, n))
        for i, (kind, argv, out, n) in enumerate(requests)
    ]


def _release_warmup(requests) -> list[Op]:
    """The first request of each kind, untimed: its replay in the timed pass
    must give the same bytes."""
    first = {}
    for op in _release_unit(requests):
        first.setdefault(op.name.split(":")[1], op)
    return list(first.values())


RELEASE = Workload(
    "release",
    _release_setup,
    _release_unit,
    warmup=_release_warmup,
    expected_failures=(MemoryError, ResourceLimitError),
    clear_before_each_op=True,
    expected_counts={
        "*": {
            "cli.main.calls": RELEASES,
            "graphs.parse.calls": RELEASES,
            "block_estimator.estimate_blocks.calls": (
                RELEASES // len(CYCLE) * (MIX["blocks-k2"] + MIX["blocks-k3"])
            ),
        }
    },
)

WORKLOADS = {w.name: w for w in (AUDIT, MSE, RELEASE)}
