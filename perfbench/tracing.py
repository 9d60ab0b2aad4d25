"""Per-layer tracing of nodedp from outside the package.

The package binds most names with ``from .graphs import ...``, so a function
is wrapped in every module that calls it (``nodedp.density.node_distance``,
``nodedp.audits.node_distance``, ...), not only where it is defined.  Hot
leaf calls are aggregated into a count and a summed duration instead of one
span per call.  A span's self time is its duration minus the time of the
wrapped calls made inside it.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict

import nodedp.audits as audits
import nodedp.block_estimator as block_estimator
import nodedp.cli as cli
import nodedp.density as density
import nodedp.experiments as experiments
import nodedp.mechanisms as mechanisms
from nodedp.errors import ResourceLimitError
from nodedp.graphons import equipartition_count
from nodedp.graphs import LabeledGraph

_clock = time.perf_counter


class Tracer:
    """Counters and summed span durations, keyed by metric-style names."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.self_secs: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)  # free-form counters
        self._child = [0.0]  # child-time accumulator per open span
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None, on_enter=None):
        """Wrap fn in a span; on_enter sees the arguments, on_result the result."""
        child = self._child

        def wrapped(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            child.append(0.0)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            except MemoryError:
                self.counts[name + ".memory_errors"] += 1
                raise
            except ResourceLimitError:
                self.counts[name + ".refused"] += 1
                raise
            finally:
                elapsed = _clock() - start
                inner = child.pop()
                child[-1] += elapsed
                self.calls[name] += 1
                self.secs[name] += elapsed
                self.self_secs[name] += elapsed - inner
            if on_result is not None:
                return on_result(result)
            return result

        return wrapped

    def generator_span(self, name, fn):
        """Wrap a generator function; only the time inside next() is counted."""
        child = self._child

        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                child.append(0.0)
                start = _clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    elapsed = _clock() - start
                    inner = child.pop()
                    child[-1] += elapsed
                    self.secs[name] += elapsed
                    self.self_secs[name] += elapsed - inner
                self.counts[name + ".items"] += 1
                yield item

        return wrapped

    def counter(self, name, fn):
        """Count calls only; the time stays with the enclosing span."""

        def wrapped(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    # -- patching ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules, attr: str, make) -> None:
        """Replace attr in each module that binds it, wrapping each binding."""
        for module in modules:
            self.patch(module, attr, make(getattr(module, attr)))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        _install_hooks(self)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def snapshot(self) -> dict[str, float]:
        """Flat view of every counter, for closed-form checks between ops."""
        flat = {f"{k}.calls": v for k, v in self.calls.items()}
        flat.update(self.counts)
        return flat


def _install_hooks(t: Tracer) -> None:
    span, count = t.span, t.counter

    # graphs: the rewiring metric, enumeration, projection, parsing
    t.patch_everywhere(
        (density, audits, experiments), "node_distance",
        lambda f: span("graphs.node_distance", f),
    )
    t.patch_everywhere(
        (density, audits, block_estimator, experiments), "all_graphs",
        lambda f: t.generator_span("graphs.all_graphs", f),
    )
    t.patch_everywhere(
        (audits, block_estimator), "adjacent_graphs",
        lambda f: t.generator_span("graphs.adjacent_graphs", f),
    )
    t.patch_everywhere(
        (block_estimator,), "degree_cap", lambda f: span("graphs.degree_cap", f)
    )
    parse = LabeledGraph.__dict__["from_edge_list_text"].__func__
    t.patch(LabeledGraph, "from_edge_list_text", classmethod(span("graphs.parse", parse)))
    t.patch(LabeledGraph, "__init__", count("graphs.LabeledGraph", LabeledGraph.__init__))

    # graphons: samplers used by the Monte Carlo cells and the CLI
    for attr in ("sample_gnm", "sample_gnp"):
        t.patch_everywhere(
            (experiments, cli), attr, lambda f: span("graphons.sample", f)
        )

    # mechanisms: density and finite-output construction, the extension
    for cls in (mechanisms.PiecewiseExpDensity, mechanisms.FiniteMechanism):
        t.patch(cls, "__init__", span(f"mechanisms.{cls.__name__}", cls.__init__))
    t.patch(
        mechanisms, "piecewise_min", span("mechanisms.piecewise_min", mechanisms.piecewise_min)
    )

    def traced_extension(f):
        return lambda *a, **kw: span("mechanisms.extended", f(*a, **kw))

    t.patch(density, "extend_mechanism", traced_extension(density.extend_mechanism))

    # density: membership scans, the memoized oracle, the estimators
    t.patch_everywhere(
        (density, experiments), "homogeneity_membership",
        lambda f: span("density.homogeneity_membership", f),
    )

    def counted_oracle(f):
        def make(*a, **kw):
            space = f(*a, **kw)
            return dataclasses.replace(
                space, distance=count("density.oracle_distance", space.distance)
            )

        return make

    t.patch_everywhere((density, audits), "graph_space_oracle", counted_oracle)
    for attr in (
        "laplace_density_estimator",
        "restricted_density_estimator",
        "extended_density_estimator",
    ):
        t.patch_everywhere(
            (cli, experiments), attr, lambda f: span("density.estimator", f)
        )

    # block_estimator: candidate grid, selection stage, sensitivity
    def candidate_args(args, kwargs):
        n, k, mu = args[:3]
        table = equipartition_count(n, k) * block_estimator.candidate_count(n, k, mu) * 8
        name = "block_estimator.score_table_bytes"
        t.counts[name] = max(t.counts[name], float(table))

    def candidate_result(cands):
        t.counts["block_estimator.candidates"] += cands.shape[0]
        return cands

    t.patch(
        block_estimator, "candidate_matrices",
        span(
            "block_estimator.candidate_matrices",
            block_estimator.candidate_matrices,
            on_result=candidate_result,
            on_enter=candidate_args,
        ),
    )
    t.patch_everywhere(
        (block_estimator, audits), "block_mechanism",
        lambda f: span("block_estimator.block_mechanism", f),
    )
    t.patch_everywhere(
        (block_estimator, audits), "measured_score_sensitivity",
        lambda f: span("block_estimator.measured_score_sensitivity", f),
    )
    t.patch_everywhere(
        (cli, experiments), "estimate_blocks",
        lambda f: span("block_estimator.estimate_blocks", f),
    )

    # audits: the pair loops; pairs_checked comes from the leaf audits only
    def pairs(report):
        t.counts["audits.pairs_checked"] += report.pairs_checked
        return report

    for attr in ("audit_density_mechanism", "audit_finite_mechanism"):
        t.patch(audits, attr, span("audits." + attr, getattr(audits, attr), on_result=pairs))
    for attr in ("audit_block_mechanism", "audit_score_sensitivity"):
        t.patch(audits, attr, span("audits." + attr, getattr(audits, attr)))

    # experiments: cells and their bootstrap intervals
    def cells(records):
        for r in records:
            t.counts["experiments.trials"] += r.trials
            t.counts["experiments.cell.s"] += r.wall_time
        return records

    t.patch(
        experiments, "run_mse_experiment",
        span("experiments.run_mse_experiment", experiments.run_mse_experiment, on_result=cells),
    )
    t.patch(
        experiments, "bootstrap_halfwidth",
        span("experiments.bootstrap", experiments.bootstrap_halfwidth),
    )

    # rng and cli
    t.patch_everywhere((experiments, cli), "substream", lambda f: span("rng.substream", f))
    t.patch(cli, "main", span("cli.main", cli.main))


def per_layer_metrics(t: Tracer, overhead_s: float) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced unit."""
    nd_calls = t.calls["graphs.node_distance"]
    oracle_calls = t.calls["density.oracle_distance"]
    audit_self = sum(v for k, v in t.self_secs.items() if k.startswith("audits."))
    est = "block_estimator.estimate_blocks"
    return {
        "graphs.node_distance.calls": nd_calls,
        "graphs.node_distance.s": t.secs["graphs.node_distance"],
        "graphs.enumerate.s": t.secs["graphs.all_graphs"] + t.secs["graphs.adjacent_graphs"],
        "graphs.adjacent_graphs.calls": t.calls["graphs.adjacent_graphs"],
        "graphs.degree_cap.calls": t.calls["graphs.degree_cap"],
        "graphs.degree_cap.s": t.secs["graphs.degree_cap"],
        "graphs.parse.s": t.secs["graphs.parse"],
        "graphs.LabeledGraph.built": t.calls["graphs.LabeledGraph"],
        "graphons.sample.calls": t.calls["graphons.sample"],
        "graphons.sample.s": t.secs["graphons.sample"],
        "mechanisms.PiecewiseExpDensity.built": t.calls["mechanisms.PiecewiseExpDensity"],
        "mechanisms.PiecewiseExpDensity.s": t.secs["mechanisms.PiecewiseExpDensity"],
        "mechanisms.piecewise_min.calls": t.calls["mechanisms.piecewise_min"],
        "mechanisms.piecewise_min.s": t.secs["mechanisms.piecewise_min"],
        "mechanisms.extended.calls": t.calls["mechanisms.extended"],
        "mechanisms.extended.s": t.secs["mechanisms.extended"],
        "mechanisms.FiniteMechanism.built": t.calls["mechanisms.FiniteMechanism"],
        "mechanisms.FiniteMechanism.s": t.secs["mechanisms.FiniteMechanism"],
        "density.homogeneity_membership.calls": t.calls["density.homogeneity_membership"],
        "density.homogeneity_membership.s": t.secs["density.homogeneity_membership"],
        "density.distance_cache_hit_ratio": oracle_calls / nd_calls if nd_calls else 0.0,
        "density.estimator.s": t.secs["density.estimator"],
        "block_estimator.candidate_matrices.calls": t.calls["block_estimator.candidate_matrices"],
        "block_estimator.candidate_matrices.s": t.secs["block_estimator.candidate_matrices"],
        "block_estimator.candidate_matrices.candidates": t.counts["block_estimator.candidates"],
        "block_estimator.block_mechanism.self_s": t.self_secs["block_estimator.block_mechanism"],
        "block_estimator.score_table_bytes.max": t.counts["block_estimator.score_table_bytes"],
        "block_estimator.refused": t.counts[est + ".refused"],
        "block_estimator.memory_errors": t.counts[est + ".memory_errors"],
        "block_estimator.measured_score_sensitivity.s": t.secs[
            "block_estimator.measured_score_sensitivity"
        ],
        "audits.pairs_checked": t.counts["audits.pairs_checked"],
        "audits.self_s": audit_self,
        "experiments.trials": t.counts["experiments.trials"],
        "experiments.cell.s": t.counts["experiments.cell.s"],
        "experiments.bootstrap.s": t.secs["experiments.bootstrap"],
        "rng.substream.calls": t.calls["rng.substream"],
        "rng.substream.s": t.secs["rng.substream"],
        "cli.main.self_s": t.self_secs["cli.main"],
        "trace.overhead_s": overhead_s,
    }
