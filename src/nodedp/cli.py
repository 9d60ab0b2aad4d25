"""Command-line interface.

Subcommands: sample, estimate (density | blocks), audit (dp | sensitivity),
experiment (mse | coupling | homogeneity | reduction).  Audit subcommands
exit nonzero iff a violation is found.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .audits import (
    audit_bitstring_reduction,
    audit_block_mechanism,
    audit_density_mechanism,
    audit_score_sensitivity,
)
from .block_estimator import EstimatorConfig, estimate_blocks
from .density import (
    HomogeneityConfig,
    extended_density_estimator,
    extended_density_mechanism,
    laplace_density_estimator,
    laplace_density_mechanism,
    restricted_density_estimator,
)
from .experiments import (
    ExperimentConfig,
    homogeneity_probability,
    records_to_csv,
    run_distinguishability_experiment,
    run_mse_experiment,
    slope_fit,
)
from .graphons import (
    sample_gnm,
    sample_gnm_rewired,
    sample_gnp,
    sample_w_random,
    two_clique_graphon,
    StepGraphon,
)
from .graphs import LabeledGraph
from .rng import substream

AUDIT_TOLERANCE = 1e-9


def _read_graph(path: str) -> LabeledGraph:
    with open(path) as fh:
        return LabeledGraph.from_edge_list_text(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_sample(args) -> int:
    rng = substream(args.seed, "cli-sample", args.model)
    if args.model == "gnp":
        g = sample_gnp(args.n, args.p, rng)
    elif args.model == "gnm":
        g = sample_gnm(args.n, args.m, rng)
    elif args.model == "gnm-rewired":
        g = sample_gnm_rewired(args.n, args.m, args.k, rng)
    elif args.model == "two-clique":
        g = sample_w_random(two_clique_graphon(args.q), args.rho, args.n, rng).graph
    else:  # wrandom, 2x2 symmetric block truth
        w = StepGraphon.equal_blocks(
            [[args.b_diag, args.b_off], [args.b_off, args.b_diag]]
        )
        g = sample_w_random(w, args.rho, args.n, rng).graph
    text = g.to_hex() + "\n" if args.format == "hex" else g.to_edge_list_text()
    _emit(text, args.out)
    return 0


def _cmd_estimate_density(args) -> int:
    g = _read_graph(args.input)
    if args.promise_in_h:
        args.mode = "promise"
    rng = substream(args.seed, "cli-estimate-density", args.mode)
    if args.mode == "baseline":
        est = laplace_density_estimator(g, args.epsilon, rng)
    else:
        cfg = HomogeneityConfig(rho=args.rho, C=args.C, n=g.n)
        if args.mode == "restricted":
            est = restricted_density_estimator(g, args.epsilon, cfg, rng)
        elif args.mode == "extended":
            est = extended_density_estimator(g, args.epsilon, cfg, "exact", rng)
        else:  # promise
            est = extended_density_estimator(g, args.epsilon, cfg, "promise", rng)
    record = {
        "value": est.value,
        "mode": est.mode,
        "epsilon": est.epsilon,
        "dp_domain": est.dp_domain,
    }
    _emit(json.dumps(record) + "\n", args.out)
    return 0


def _cmd_estimate_blocks(args) -> int:
    g = _read_graph(args.input)
    cfg = EstimatorConfig(
        epsilon=args.epsilon,
        lam=args.lam,
        k=args.k,
        sensitivity_mode=args.sensitivity,
    )
    rng = substream(args.seed, "cli-estimate-blocks")
    est = estimate_blocks(g, cfg, rng)
    b = est.normalized() if args.normalize else est.b_hat
    text = f"rho_hat {est.rho_hat:.17g}\n" + b.to_text()
    _emit(text, args.out)
    if args.diagnostics:
        rows = ["key,value"]
        rows.append(f"mu,{est.mu:.17g}")
        rows.append(f"delta,{est.delta:.17g}")
        rows.append(f"raw_rho,{est.raw_rho:.17g}")
        rows.append(f"dp_domain,{est.dp_domain}")
        for key in sorted(est.diagnostics):
            rows.append(f"{key},{est.diagnostics[key]}")
        with open(args.diagnostics, "w") as fh:
            fh.write("\n".join(rows) + "\n")
    return 0


def _cmd_audit_dp(args) -> int:
    grid = np.linspace(args.grid_lo, args.grid_hi, args.grid_points)
    collect = bool(args.out)
    if args.mechanism == "laplace":
        report = audit_density_mechanism(
            lambda g: laplace_density_mechanism(g, args.epsilon),
            args.n,
            args.epsilon,
            grid,
            name="laplace-baseline",
            collect_rows=collect,
        )
    elif args.mechanism == "extended":
        cfg = HomogeneityConfig(rho=args.rho, C=args.C, n=args.n)
        mech = extended_density_mechanism(args.n, args.epsilon, cfg)
        report = audit_density_mechanism(
            mech,
            args.n,
            args.epsilon,
            np.linspace(0.0, 1.0, args.grid_points),
            name="extended-density",
            collect_rows=collect,
        )
    else:  # blocks
        cfg = EstimatorConfig(
            epsilon=args.epsilon, lam=args.lam, k=args.k, sensitivity_mode="audited"
        )
        report = audit_block_mechanism(args.n, args.rho_hat, cfg, args.epsilon)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_csv())
    print(
        f"mechanism={report.mechanism} n={report.n} epsilon={report.epsilon} "
        f"pairs={report.pairs_checked} max_violation={report.max_violation:.3e} "
        f"{'PASS' if report.passed(AUDIT_TOLERANCE) else 'FAIL'}"
    )
    return 0 if report.passed(AUDIT_TOLERANCE) else 1


def _cmd_audit_sensitivity(args) -> int:
    report = audit_score_sensitivity(args.n, args.k, args.d, args.mu)
    print(
        f"n={report.n} k={report.k} d={report.d} mu={report.mu} "
        f"measured={report.measured:.6g} theoretical={report.theoretical:.6g} "
        f"{'WITHIN' if report.within_theory else 'EXCEEDS'}"
    )
    return 0


def _parse_config_file(path: str) -> dict:
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        return json.loads(text)
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def _coerce_config(raw: dict) -> ExperimentConfig:
    def as_list(v, cast):
        if isinstance(v, (list, tuple)):
            return tuple(cast(x) for x in v)
        return tuple(cast(x) for x in str(v).split(","))

    kwargs = {
        "estimator": raw["estimator"],
        "model": raw["model"],
        "n_grid": as_list(raw["n_grid"], int),
        "epsilon_grid": as_list(raw["epsilon_grid"], float),
        "trials": int(raw["trials"]),
        "seed": int(raw.get("seed", 0)),
    }
    for key, cast in (
        ("p", float),
        ("m_fraction", float),
        ("rho", float),
        ("C", float),
        ("k", int),
        ("lam", float),
        ("b_diag", float),
        ("b_off", float),
    ):
        if key in raw and raw[key] != "":
            kwargs[key] = cast(raw[key])
    return ExperimentConfig(**kwargs)


def _cmd_experiment_mse(args) -> int:
    cfg = _coerce_config(_parse_config_file(args.config))
    records = run_mse_experiment(cfg)
    _emit(records_to_csv(records), args.out)
    total = sum(r.wall_time for r in records)
    print(f"cells={len(records)} wall_time={total:.2f}s", file=sys.stderr)
    if args.slope and len(set(r.n for r in records)) >= 3:
        slope, err = slope_fit(records)
        print(f"slope={slope:.4f} stderr={err:.4f}", file=sys.stderr)
    return 0


def _cmd_experiment_coupling(args) -> int:
    report = run_distinguishability_experiment(
        args.n, args.m, args.k, args.trials, args.seed
    )
    print(json.dumps(report.__dict__))
    return 0 if report.structural_violations == 0 else 1


def _cmd_experiment_homogeneity(args) -> int:
    rate = homogeneity_probability(
        args.n, args.p, args.rho, args.C, args.samples, args.seed
    )
    print(json.dumps({"n": args.n, "p": args.p, "outside_rate": rate}))
    return 0


def _cmd_experiment_reduction(args) -> int:
    grid = np.linspace(-1.0, 2.0, args.grid_points)
    report = audit_bitstring_reduction(
        lambda g: laplace_density_mechanism(g, args.epsilon),
        args.n_bits,
        args.epsilon,
        grid,
    )
    print(
        f"bits={report.n} epsilon={report.epsilon} pairs={report.pairs_checked} "
        f"max_violation={report.max_violation:.3e} "
        f"{'PASS' if report.passed(AUDIT_TOLERANCE) else 'FAIL'}"
    )
    return 0 if report.passed(AUDIT_TOLERANCE) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nodedp")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one graph and print it")
    p.add_argument(
        "--model",
        required=True,
        choices=["gnp", "gnm", "gnm-rewired", "wrandom", "two-clique"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=float, default=0.25)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--b-diag", type=float, default=0.8)
    p.add_argument("--b-off", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edges", "hex"], default="edges")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    est = sub.add_parser("estimate", help="run a private estimator")
    est_sub = est.add_subparsers(dest="what", required=True)

    d = est_sub.add_parser("density")
    d.add_argument("--input", required=True)
    d.add_argument("--epsilon", type=float, required=True)
    d.add_argument(
        "--mode",
        choices=["baseline", "restricted", "extended", "promise"],
        default="baseline",
    )
    d.add_argument(
        "--promise-in-H",
        dest="promise_in_h",
        action="store_true",
        help="run the restricted mechanism on any input; DP only on H",
    )
    d.add_argument("--rho", type=float, default=0.5)
    d.add_argument("--C", type=float, default=49.0)
    d.add_argument("--seed", type=int, default=0)
    d.add_argument("--out")
    d.set_defaults(func=_cmd_estimate_density)

    b = est_sub.add_parser("blocks")
    b.add_argument("--input", required=True)
    b.add_argument("--epsilon", type=float, required=True)
    b.add_argument("--lambda", dest="lam", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument(
        "--sensitivity", choices=["theoretical", "audited"], default="theoretical"
    )
    b.add_argument("--normalize", action="store_true")
    b.add_argument("--out")
    b.add_argument("--diagnostics")
    b.set_defaults(func=_cmd_estimate_blocks)

    audit = sub.add_parser("audit", help="exhaustive DP and sensitivity audits")
    audit_sub = audit.add_subparsers(dest="what", required=True)

    a = audit_sub.add_parser("dp")
    a.add_argument("--mechanism", choices=["laplace", "blocks", "extended"], required=True)
    a.add_argument("--n", type=int, default=4)
    a.add_argument("--epsilon", type=float, default=1.0)
    a.add_argument("--k", type=int, default=2)
    a.add_argument("--lambda", dest="lam", type=float, default=2.0)
    a.add_argument("--rho-hat", type=float, default=0.5)
    a.add_argument("--rho", type=float, default=0.5)
    a.add_argument("--C", type=float, default=49.0)
    a.add_argument("--grid-points", type=int, default=1000)
    a.add_argument("--grid-lo", type=float, default=-1.0)
    a.add_argument("--grid-hi", type=float, default=2.0)
    a.add_argument("--out", help="write per-pair audit rows as CSV")
    a.set_defaults(func=_cmd_audit_dp)

    s = audit_sub.add_parser("sensitivity")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--mu", type=float, required=True)
    s.set_defaults(func=_cmd_audit_sensitivity)

    exp = sub.add_parser("experiment", help="Monte Carlo experiments")
    exp_sub = exp.add_subparsers(dest="what", required=True)

    e = exp_sub.add_parser("mse")
    e.add_argument("--config", required=True, help="key=value lines or JSON")
    e.add_argument("--out")
    e.add_argument("--slope", action="store_true")
    e.set_defaults(func=_cmd_experiment_mse)

    c = exp_sub.add_parser("coupling")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--trials", type=int, default=10000)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=_cmd_experiment_coupling)

    h = exp_sub.add_parser("homogeneity")
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--p", type=float, required=True)
    h.add_argument("--rho", type=float, default=0.5)
    h.add_argument("--C", type=float, default=49.0)
    h.add_argument("--samples", type=int, default=1000)
    h.add_argument("--seed", type=int, default=0)
    h.set_defaults(func=_cmd_experiment_homogeneity)

    r = exp_sub.add_parser("reduction")
    r.add_argument("--n-bits", type=int, default=4)
    r.add_argument("--epsilon", type=float, default=1.0)
    r.add_argument("--grid-points", type=int, default=512)
    r.set_defaults(func=_cmd_experiment_reduction)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
