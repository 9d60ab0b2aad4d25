"""Command-line interface.

Subcommands: sample, estimate (density | blocks), audit (dp | sensitivity),
experiment (mse | coupling | homogeneity | reduction).  Audit subcommands
exit nonzero iff a violation is found.  The console entry, ``run``, exits 3
with one stderr line when a request is refused for its size, and 2 with one
stderr line when its input is malformed or cannot be read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache, partial

import numpy as np

from . import __version__
from .audits import (
    PAIR_ROWS_MAX_N,
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
from .errors import ResourceLimitError
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
from .graphs import REWIRING_PAIRS_MAX_N, LabeledGraph
from .mechanisms import check_table_size
from .rng import substream

# Grid of the Laplace audits.  The log-ratio of two Laplace laws of equal
# scale reaches its supremum |c - c'| / scale beyond both centres, and every
# centre here, an edge density, lies in [0, 1], so this range has grid points
# beyond every centre on both sides.
LAPLACE_GRID = (-1.0, 2.0)


def _read_graph(path: str) -> LabeledGraph:
    # a non-ASCII byte becomes U+FFFD, which the parser refuses by its line
    with open(path, encoding="ascii", errors="replace") as fh:
        return LabeledGraph.from_edge_list_text(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(ok: bool, option: str, rule: str, value) -> None:
    """Refuse an option's value by its name."""
    if not ok:
        raise ValueError(f"{option} must {rule}, got {value}")


def _check_rewired(n: int, m: int, k: int) -> None:
    """Refuse a rewired G(n, m) request before sampling: stage one draws
    m + k of the C(n, 2) slots."""
    _require(n >= 1, "--n", "be at least 1", n)
    _require(min(m, k) >= 0, "--m and --k", "be at least 0", f"{m} and {k}")
    slots = n * (n - 1) // 2
    _require(m + k <= slots, "--m + --k", f"be at most C(n,2) = {slots}", f"{m} + {k}")


def _check_p(p: float) -> None:
    """Refuse an edge probability by its option; only the commands that
    draw G(n, p) read --p."""
    _require(0.0 <= p <= 1.0, "--p", "lie in [0, 1]", p)


def _check_w_rho(rho: float, sup: float) -> None:
    """Refuse a W-random scale by its option: edge probabilities rho W(x, y)
    must lie in [0, 1], where sup W is the graphon's largest value."""
    _require(rho >= 0.0, "--rho", "be at least 0", rho)
    # the sampler's own tolerance
    _require(rho * sup <= 1.0 + 1e-12, "--rho", f"be at most 1 / sup W = 1 / {sup:g}", rho)


def _cmd_sample(args) -> int:
    _require(args.n >= 0, "--n", "be at least 0", args.n)
    rng = substream(args.seed, "cli-sample", args.model)
    if args.model == "gnp":
        _check_p(args.p)
        g = sample_gnp(args.n, args.p, rng)
    elif args.model == "gnm":
        slots = args.n * (args.n - 1) // 2
        _require(0 <= args.m <= slots, "--m", f"lie in [0, C(n,2)] = [0, {slots}]", args.m)
        g = sample_gnm(args.n, args.m, rng)
    elif args.model == "gnm-rewired":
        _check_rewired(args.n, args.m, args.k)
        g = sample_gnm_rewired(args.n, args.m, args.k, rng)
    elif args.model == "two-clique":
        _require(0.0 < args.q < 1.0, "--q", "lie strictly between 0 and 1", args.q)
        _check_w_rho(args.w_rho, 1.0)  # the cliques' graphon takes the value 1
        g = sample_w_random(two_clique_graphon(args.q), args.w_rho, args.n, rng).graph
    else:  # wrandom, 2x2 symmetric block truth
        for option, value in (("--b-diag", args.b_diag), ("--b-off", args.b_off)):
            _require(0.0 <= value < math.inf, option, "be a nonnegative finite real", value)
        _check_w_rho(args.w_rho, max(args.b_diag, args.b_off))
        w = StepGraphon.equal_blocks(
            [[args.b_diag, args.b_off], [args.b_off, args.b_diag]]
        )
        g = sample_w_random(w, args.w_rho, args.n, rng).graph
    text = g.to_hex() + "\n" if args.format == "hex" else g.to_edge_list_text()
    _emit(text, args.out)
    return 0


def _cmd_estimate_density(args) -> int:
    g = _read_graph(args.input)
    rng = substream(args.seed, "cli-estimate-density", args.mode)
    if args.mode == "baseline":
        est = laplace_density_estimator(g, args.epsilon, rng)
    else:
        cfg = HomogeneityConfig(rho=args.rho, C=args.C, n=g.n)
        if args.mode == "extended":
            est = extended_density_estimator(g, args.epsilon, cfg, rng)
        else:  # promise
            est = restricted_density_estimator(g, args.epsilon, cfg, rng)
    record = {
        "value": est.value,
        "mode": est.mode,
        "epsilon": est.epsilon,
        "dp_domain": est.dp_domain,
    }
    _emit(json.dumps(record) + "\n", args.out)
    return 0


def _check_k(k: int, n: int) -> None:
    """Refuse a block count the graph's order cannot hold, before any
    candidate grid or equipartition is built."""
    _require(1 <= k <= n, "--k", f"be between 1 and the graph's order n = {n}", k)


def _cmd_estimate_blocks(args) -> int:
    g = _read_graph(args.input)
    _check_k(args.k, g.n)
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


def _grid(lo: float, hi: float, points: int, rows: int) -> np.ndarray:
    """np.linspace(lo, hi, points), once points is at least 1 and a table of
    the given rows over these points is known to fit under
    AUDIT_TABLE_BYTES."""
    _require(points >= 1, "--grid-points", "be at least 1", points)
    check_table_size(rows, points, "--grid-points")
    return np.linspace(lo, hi, points)


def _cmd_audit_dp(args) -> int:
    collect = bool(args.out)
    if collect and args.n > PAIR_ROWS_MAX_N:
        raise ResourceLimitError(
            f"--out writes a CSV row per rewiring pair, so it is limited to --n <= "
            f"{PAIR_ROWS_MAX_N}, got {args.n}"
        )
    if args.mechanism == "blocks":  # the selection stage, audited at the eps/2 it spends
        _check_k(args.k, args.n)
        # stage 1 releases densities clamped to [1/n^2, 1] only
        low = 1.0 / args.n**2
        rule = f"lie in [1/n^2, 1] = [{low:.6g}, 1] at n = {args.n}"
        _require(low <= args.rho_hat <= 1.0, "--rho-hat", rule, args.rho_hat)
        cfg = EstimatorConfig(
            epsilon=args.epsilon, lam=args.lam, k=args.k, sensitivity_mode="audited"
        )
        report = audit_block_mechanism(args.n, args.rho_hat, cfg, args.epsilon / 2.0, collect)
    else:
        extended = args.mechanism == "extended"
        least = 3 if extended else 2  # HomogeneityConfig starts at n = 3
        _require(args.n >= least, "--n", f"be at least {least}", args.n)
        if extended:
            cfg = HomogeneityConfig(rho=args.rho, C=args.C, n=args.n)
            mech = extended_density_mechanism(args.n, args.epsilon, cfg)
            # its laws are counted inside the audit, which refuses their table
            grid = _grid(0.0, 1.0, args.grid_points, 1)
        else:
            mech = partial(laplace_density_mechanism, epsilon=args.epsilon)
            # one law per edge count; the audit refuses n > REWIRING_PAIRS_MAX_N itself
            laws = math.comb(min(args.n, REWIRING_PAIRS_MAX_N), 2) + 1
            grid = _grid(*LAPLACE_GRID, args.grid_points, laws)
        name = "extended-density" if extended else "laplace-baseline"
        report = audit_density_mechanism(mech, args.n, args.epsilon, grid, name, collect)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_csv())
    print(
        f"mechanism={report.mechanism} n={report.n} epsilon={report.epsilon} "
        f"pairs={report.pairs_checked} max_violation={report.max_violation:.3e} "
        f"{'PASS' if report.passed() else 'FAIL'}"
    )
    return 0 if report.passed() else 1


def _cmd_audit_sensitivity(args) -> int:
    _check_k(args.k, args.n)
    _require(args.d >= 0, "--d", "be at least 0", args.d)
    _require(0.0 <= args.mu < math.inf, "--mu", "be a finite real at least 0", args.mu)
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
    if text.lstrip().startswith(("{", "[")):
        return json.loads(text)
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_REQUIRED_CONFIG_KEYS = ("estimator", "model", "n_grid", "epsilon_grid", "trials")
_OPTIONAL_CONFIG_KEYS = {
    "seed": int,
    "p": float,
    "m_fraction": float,
    "rho": float,
    "C": float,
    "k": int,
    "lam": float,
    "b_diag": float,
    "b_off": float,
}


def _coerce_config(raw) -> ExperimentConfig:
    """The ExperimentConfig of a parsed config file.  A missing required key,
    an unknown key and a key with an empty value are refused by name."""
    if not isinstance(raw, dict):
        raise ValueError("config must be key=value lines or one JSON object")
    missing = [key for key in _REQUIRED_CONFIG_KEYS if key not in raw]
    if missing:
        raise ValueError(f"config lacks required key(s): {', '.join(missing)}")
    unknown = sorted(set(raw) - set(_REQUIRED_CONFIG_KEYS) - set(_OPTIONAL_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"config has unknown key(s): {', '.join(unknown)}")
    empty = [key for key, value in raw.items() if value == ""]
    if empty:
        raise ValueError(f"config has empty value(s) for key(s): {', '.join(empty)}")

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
        "seed": 0,
    }
    for key, cast in _OPTIONAL_CONFIG_KEYS.items():
        if key in raw:
            kwargs[key] = cast(raw[key])
    return ExperimentConfig(**kwargs)


def _cmd_experiment_mse(args) -> int:
    cfg = _coerce_config(_parse_config_file(args.config))
    records = run_mse_experiment(cfg)
    _emit(records_to_csv(records), args.out)
    total = sum(r.wall_time for r in records)
    print(f"cells={len(records)} wall_time={total:.2f}s", file=sys.stderr)
    if args.slope:  # one fit per epsilon, in grid order
        for eps in dict.fromkeys(r.epsilon for r in records):
            cells = [r for r in records if r.epsilon == eps]
            if len(set(r.n for r in cells)) >= 3:
                slope, err = slope_fit(cells)
                print(f"epsilon={eps} slope={slope:.4f} stderr={err:.4f}", file=sys.stderr)
    return 0


def _cmd_experiment_coupling(args) -> int:
    _check_rewired(args.n, args.m, args.k)
    _require(args.trials >= 1, "--trials", "be at least 1", args.trials)
    report = run_distinguishability_experiment(
        args.n, args.m, args.k, args.trials, args.seed
    )
    print(json.dumps(report.__dict__))
    return 0 if report.structural_violations == 0 else 1


def _cmd_experiment_homogeneity(args) -> int:
    _require(args.n >= 3, "--n", "be at least 3", args.n)  # HomogeneityConfig starts at n = 3
    _check_p(args.p)
    _require(args.samples >= 1, "--samples", "be at least 1", args.samples)
    rate = homogeneity_probability(
        args.n, args.p, args.rho, args.C, args.samples, args.seed
    )
    print(json.dumps({"n": args.n, "p": args.p, "outside_rate": rate}))
    return 0


def _cmd_experiment_reduction(args) -> int:
    _require(args.n_bits >= 2, "--n-bits", "be at least 2", args.n_bits)
    # its laws are counted inside the audit, which refuses their table
    report = audit_bitstring_reduction(
        lambda g: laplace_density_mechanism(g, args.epsilon),
        args.n_bits,
        args.epsilon,
        _grid(*LAPLACE_GRID, args.grid_points, 1),
    )
    print(
        f"bits={report.n} epsilon={report.epsilon} pairs={report.pairs_checked} "
        f"max_violation={report.max_violation:.3e} "
        f"{'PASS' if report.passed() else 'FAIL'}"
    )
    return 0 if report.passed() else 1


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by later calls."""
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
    p.add_argument("--rho", dest="w_rho", type=float, default=1.0)
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
        choices=["baseline", "promise", "extended"],
        default="baseline",
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


# Options the library refuses out of range too, checked here first so that
# the message names the option: (option, attribute, rule, test).  --rho is
# the homogeneity set's density cap wherever it is stored as rho.
_OPTION_RULES = (
    ("--epsilon", "epsilon", "be a positive finite real", lambda v: 0 < v < math.inf),
    ("--rho", "rho", "lie in (0, 1]", lambda v: 0 < v <= 1),
    ("--C", "C", "exceed 48", lambda v: v > 48),
    ("--lambda", "lam", "be a finite real at least 1", lambda v: 1 <= v < math.inf),
    ("--seed", "seed", "be at least 0", lambda v: v >= 0),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for option, attribute, rule, ok in _OPTION_RULES:
        if hasattr(args, attribute):
            _require(ok(getattr(args, attribute)), option, rule, getattr(args, attribute))
    return args.func(args)


def run(argv=None) -> int:
    """main, with a size refusal (ResourceLimitError) reported as one line
    on stderr and exit code 3, and input it cannot use (ValueError, OSError)
    as one line and exit code 2, the code of argparse's usage errors,
    instead of a traceback."""
    try:
        return main(argv)
    except ResourceLimitError as err:
        print(f"nodedp: refused: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"nodedp: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(run())
