import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import nodedp
from nodedp.audits import audit_block_mechanism
from nodedp.block_estimator import EstimatorConfig
from nodedp.cli import LAPLACE_GRID, build_parser, main, run
from nodedp.errors import ResourceLimitError
from nodedp.experiments import ExperimentConfig, run_mse_experiment, slope_fit
from nodedp.mechanisms import AUDIT_TABLE_BYTES
from nodedp.graphs import LabeledGraph, graph_from_index, node_distance
from nodedp.rng import substream


@pytest.fixture
def graph_file(tmp_path):
    g = LabeledGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    path = tmp_path / "g.txt"
    path.write_text(g.to_edge_list_text())
    return str(path)


def test_sample_is_deterministic(capsys):
    assert main(["sample", "--model", "gnm", "--n", "6", "--m", "5", "--seed", "3"]) == 0
    first = capsys.readouterr().out
    main(["sample", "--model", "gnm", "--n", "6", "--m", "5", "--seed", "3"])
    assert capsys.readouterr().out == first
    g = LabeledGraph.from_edge_list_text(first)
    assert g.n == 6 and g.edge_count == 5


def test_sample_hex_format(capsys):
    main(["sample", "--model", "gnp", "--n", "5", "--p", "0.5", "--format", "hex"])
    out = capsys.readouterr().out.strip()
    LabeledGraph.from_hex(5, out)  # parses


def test_sample_two_clique(capsys):
    main(["sample", "--model", "two-clique", "--n", "8", "--q", "0.25", "--seed", "1"])
    g = LabeledGraph.from_edge_list_text(capsys.readouterr().out)
    assert g.n == 8


def test_estimate_density_json(graph_file, capsys):
    code = main(
        [
            "estimate", "density",
            "--input", graph_file,
            "--epsilon", "1.0",
            "--mode", "promise",
            "--rho", "0.5",
            "--seed", "5",
        ]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mode"] == "promise"
    assert 0.0 <= record["value"] <= 1.0
    assert "H(" in record["dp_domain"]


# (n, graph index, epsilon, seed, stdout) of `nodedp estimate density --mode
# extended`, recorded from the per-graph extension build that the
# index-based build replaced; the release must stay byte for byte the same.
EXTENDED_RELEASES = [
    (5, 0, "1.0", 0, '{"value": 0.6657906243882228, "mode": "extended-exact", "epsilon": 1.0, "dp_domain": "all graphs"}\n'),
    (5, 1023, "1.0", 3, '{"value": 0.02777014843254289, "mode": "extended-exact", "epsilon": 1.0, "dp_domain": "all graphs"}\n'),
    (5, 31, "0.5", 7, '{"value": 0.22605995175555663, "mode": "extended-exact", "epsilon": 0.5, "dp_domain": "all graphs"}\n'),
    (5, 504, "2.0", 11, '{"value": 0.501391571989889, "mode": "extended-exact", "epsilon": 2.0, "dp_domain": "all graphs"}\n'),
    (5, 37, "1.0", 5, '{"value": 0.2819018530501687, "mode": "extended-exact", "epsilon": 1.0, "dp_domain": "all graphs"}\n'),
    (4, 21, "1.0", 2, '{"value": 0.9437934332073035, "mode": "extended-exact", "epsilon": 1.0, "dp_domain": "all graphs"}\n'),
    (3, 5, "0.7", 9, '{"value": 0.4063326785718475, "mode": "extended-exact", "epsilon": 0.7, "dp_domain": "all graphs"}\n'),
]


@pytest.mark.parametrize("n, index, epsilon, seed, want", EXTENDED_RELEASES)
def test_extended_release_bytes_are_pinned(n, index, epsilon, seed, want, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(graph_from_index(n, index).to_edge_list_text())
    argv = ["estimate", "density", "--input", str(path), "--epsilon", epsilon,
            "--mode", "extended", "--seed", str(seed)]
    assert main(argv) == 0
    assert capsys.readouterr().out == want


def test_estimate_density_has_no_restricted_mode(graph_file, capsys):
    # the truncated-noise release is the promise mode; there is no twin
    with pytest.raises(SystemExit) as err:
        main(["estimate", "density", "--input", graph_file, "--epsilon", "1.0",
              "--mode", "restricted"])
    assert err.value.code == 2
    assert "invalid choice: 'restricted'" in capsys.readouterr().err


def test_estimate_blocks_text_and_diagnostics(graph_file, tmp_path, capsys):
    diag = tmp_path / "diag.csv"
    code = main(
        [
            "estimate", "blocks",
            "--input", graph_file,
            "--epsilon", "2.0",
            "--lambda", "2.0",
            "--k", "2",
            "--seed", "5",
            "--diagnostics", str(diag),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("rho_hat ")
    assert out[1] == "2"
    rows = diag.read_text().splitlines()
    assert rows[0] == "key,value"
    # the path 0-1-2-3 has 6 equipartitions into two pairs; {01|23} and
    # {23|01} share a count matrix, as do {02|13} and {13|02}
    assert "equipartitions,6" in rows
    assert "distinct_count_rows,4" in rows
    # theoretical sensitivity: the domain names the disproved cap assumption
    (domain,) = [r for r in rows if r.startswith("dp_domain,")]
    assert "degree_cap is stable under one rewiring and that is disproved" in domain


def test_audit_dp_laplace_passes(capsys):
    code = main(
        ["audit", "dp", "--mechanism", "laplace", "--n", "4", "--epsilon", "1.0",
         "--grid-points", "301"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "mechanism, line",
    [
        ("extended", "mechanism=extended-density n=5 epsilon=1.0 pairs=66560 "
         "max_violation=-9.924e-01 PASS"),
        ("laplace", "mechanism=laplace-baseline n=5 epsilon=1.0 pairs=66560 "
         "max_violation=-5.000e-01 PASS"),
    ],
)
def test_audit_dp_lines_at_n5_are_pinned(mechanism, line, capsys):
    # every rewiring pair is counted, though the kernel compares each
    # distinct pair of log-density rows once
    assert main(["audit", "dp", "--mechanism", mechanism, "--n", "5"]) == 0
    assert capsys.readouterr().out.splitlines() == [line]


def test_audit_dp_blocks_at_the_ends_of_the_released_range(capsys):
    # stage 1 clamps its density to [1/n^2, 1], and both ends are audited
    for rho_hat in ("0.1111111111111111", "1.0"):
        argv = ["audit", "dp", "--mechanism", "blocks", "--n", "3", "--rho-hat", rho_hat]
        assert main(argv) == 0
    assert capsys.readouterr().out.count("PASS") == 2


def test_audit_dp_blocks_audited(capsys):
    code = main(
        ["audit", "dp", "--mechanism", "blocks", "--n", "4", "--epsilon", "1.0",
         "--k", "2", "--lambda", "2.0", "--rho-hat", "0.5"]
    )
    assert code == 0


def test_audit_sensitivity(capsys):
    code = main(["audit", "sensitivity", "--n", "4", "--k", "2", "--d", "2", "--mu", "0.5"])
    assert code == 0
    assert "measured=" in capsys.readouterr().out


def test_experiment_mse_with_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "estimator=baseline\nmodel=gnp\nn_grid=8,12\nepsilon_grid=1.0\n"
        "trials=3\nseed=2\np=0.5\n"
    )
    out = tmp_path / "out.csv"
    code = main(["experiment", "mse", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert len(lines) == 4  # schema + header + 2 cells


def test_experiment_mse_slope_is_fit_per_epsilon(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(
        "estimator=baseline\nmodel=gnp\nn_grid=8,12,16\nepsilon_grid=2.0,0.5\n"
        "trials=3\nseed=2\np=0.5\n"
    )
    out = tmp_path / "out.csv"
    assert main(["experiment", "mse", "--config", str(cfg), "--out", str(out), "--slope"]) == 0
    fits = capsys.readouterr().err.splitlines()[1:]
    records = run_mse_experiment(
        ExperimentConfig(estimator="baseline", model="gnp", n_grid=(8, 12, 16),
                         epsilon_grid=(2.0, 0.5), trials=3, seed=2, p=0.5)
    )
    want = []
    for eps in (2.0, 0.5):
        slope, err = slope_fit([r for r in records if r.epsilon == eps])
        want.append(f"epsilon={eps} slope={slope:.4f} stderr={err:.4f}")
    assert fits == want


def test_experiment_mse_json_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "estimator": "promise",
                "model": "gnm",
                "n_grid": [10],
                "epsilon_grid": [1.0],
                "trials": 2,
                "seed": 4,
                "m_fraction": 0.5,
            }
        )
    )
    out = tmp_path / "out.csv"
    assert main(["experiment", "mse", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "config, message",
    [
        ("estimator=baseline\nmodel=gnp\nn_grid=8\nepsilon_grid=1.0\ntrials=3\np=0.5\n"
         "seeds=3\n", "config has unknown key(s): seeds"),
        ("estimator=baseline\nmodel=gnp\nn_grid=8\nepsilon_grid=1.0\np=0.5\nrh0=0.4\n",
         "config lacks required key(s): trials"),
        ('[{"estimator": "baseline"}]', "config must be key=value lines or one JSON object"),
        ("estimator=baseline\nmodel=gnp\nn_grid=8\nepsilon_grid=1.0\ntrials=3\np=0.5\n"
         "rho=\nseed=\n", "config has empty value(s) for key(s): rho, seed"),
        ('{"estimator": "baseline", "model": "gnp", "n_grid": [8], "epsilon_grid": [1.0], '
         '"trials": "", "p": 0.5}', "config has empty value(s) for key(s): trials"),
    ],
    ids=["unknown-key", "missing-key", "json-list", "empty-values", "empty-json-value"],
)
def test_experiment_mse_config_keys_are_checked_by_name(config, message, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(config)
    out = tmp_path / "out.csv"
    assert run(["experiment", "mse", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"nodedp: error: {message}\n"
    assert not out.exists()


def test_experiment_coupling(capsys):
    code = main(
        ["experiment", "coupling", "--n", "4", "--m", "2", "--k", "1",
         "--trials", "500", "--seed", "3"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["structural_violations"] == 0


def test_experiment_homogeneity(capsys):
    code = main(
        ["experiment", "homogeneity", "--n", "8", "--p", "0.25", "--samples", "20"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert 0.0 <= record["outside_rate"] <= 1.0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["audit", "dp", "--mechanism", "laplace", "--n", "3", "--grid-points", "0"],
         "--grid-points must be at least 1, got 0"),
        (["experiment", "homogeneity", "--n", "6", "--p", "0.3", "--samples", "0"],
         "samples must be at least 1"),
        (["experiment", "coupling", "--n", "5", "--m", "4", "--k", "1", "--trials", "0"],
         "trials must be at least 1"),
    ],
    ids=["no-grid-points", "no-samples", "no-trials"],
)
def test_zero_size_requests_are_refused(argv, message):
    with pytest.raises(ValueError, match=message):
        main(argv)


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_experiment_reduction(capsys):
    code = main(["experiment", "reduction", "--n-bits", "3", "--epsilon", "1.0"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_audit_dp_emits_per_pair_csv(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code = main(
        ["audit", "dp", "--mechanism", "laplace", "--n", "3", "--epsilon", "1.0",
         "--grid-points", "101", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_i,pair_j,grid_q,log_ratio,bound,violation"
    rows = [line.split(",") for line in lines[1:]]
    # the ordered pairs one rewiring apart over the 8 graphs on n=3
    want = [
        (i, j) for i in range(8) for j in range(8)
        if node_distance(graph_from_index(3, i), graph_from_index(3, j)) == 1
    ]
    assert [(int(r[0]), int(r[1])) for r in rows] == want
    assert len(want) == 48
    grid = np.linspace(*LAPLACE_GRID, 101)
    assert all(float(r[2]) in grid for r in rows)


def test_audit_dp_blocks_emits_per_pair_csv(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    code = main(
        ["audit", "dp", "--mechanism", "blocks", "--n", "3", "--epsilon", "1.0",
         "--k", "2", "--lambda", "2.0", "--rho-hat", "0.5", "--out", str(out)]
    )
    assert code == 0
    # the selection stage spends eps/2, so that is the claim audited
    assert "mechanism=block-mechanism(rho_hat=0.5) n=3 epsilon=0.5 " in capsys.readouterr().out
    cfg = EstimatorConfig(epsilon=1.0, lam=2.0, k=2, sensitivity_mode="audited")
    report = audit_block_mechanism(3, 0.5, cfg, 0.5)
    lines = out.read_text().splitlines()
    assert lines[0] == "pair_i,pair_j,candidate,log_ratio,bound,violation"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == report.pairs_checked == 48
    # the first row of largest violation is the witness: (i, j, candidate index)
    violations = [float(r[5]) for r in rows]
    worst = rows[violations.index(max(violations))]
    assert (int(worst[0]), int(worst[1]), int(worst[2])) == report.witness
    assert float(worst[5]) == report.max_violation


@pytest.mark.parametrize(
    "argv, table_bytes",
    [
        # 1,024 graphs x 10^6 grid points, refused before the grid is built
        (["audit", "dp", "--mechanism", "laplace", "--n", "5", "--grid-points", "1000000"],
         8 * 1024 * 10**6),
        # 1,024 capped graphs x 81^3 candidates, refused after the first row
        (["audit", "sensitivity", "--n", "5", "--k", "2", "--d", "4", "--mu", "16"],
         8 * 1024 * 81**3),
    ],
    ids=["laplace-grid", "sensitivity-candidates"],
)
def test_an_oversized_audit_table_is_refused_before_allocating(argv, table_bytes, capsys):
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert time.perf_counter() - start < 10.0
    assert peak < AUDIT_TABLE_BYTES / 4
    err = capsys.readouterr().err
    assert err.startswith("nodedp: refused: ") and f"a {table_bytes}-byte table" in err
    if "--grid-points" in argv:
        assert "--grid-points" in err


def _run_cli(*argv):
    env = dict(os.environ)
    src = str(Path(nodedp.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONIOENCODING"] = "utf-8"  # messages may quote any character
    return subprocess.run(
        [sys.executable, "-m", "nodedp.cli", *argv],
        env=env, capture_output=True, encoding="utf-8", timeout=60,
    )


def test_refusal_is_one_stderr_line_and_exit_code_3():
    done = _run_cli(
        "experiment", "homogeneity", "--n", "18", "--p", "0.3", "--samples", "2"
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "nodedp: refused: exact subset scan limited to n <= 16"
    ]


def test_an_oversized_header_is_refused_before_allocating(tmp_path):
    """An 8-byte file would otherwise ask for a 3.35 GiB adjacency."""
    path = tmp_path / "big.txt"
    path.write_text("60000 0\n")
    done = _run_cli(
        "estimate", "density", "--input", str(path), "--epsilon", "1.0", "--mode", "baseline"
    )
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr.splitlines() == [
        "nodedp: refused: edge-list graphs limited to n <= 16384, got n = 60000"
    ]


@pytest.mark.parametrize(
    "argv, edge_list, message",
    [
        (["experiment", "coupling", "--n", "5", "--m", "4", "--k", "1", "--trials", "0"],
         None, "nodedp: error: trials must be at least 1, got 0"),
        (["audit", "dp", "--mechanism", "laplace", "--n", "3", "--grid-points", "0"],
         None, "nodedp: error: --grid-points must be at least 1, got 0"),
        (["estimate", "density", "--epsilon", "1.0", "--mode", "baseline", "--input", "{path}"],
         "3 1\n0 x\n", "nodedp: error: line 2: unexpected character 'x'; edge lists hold "
         "ASCII digits, spaces, tabs, CR and LF only"),
        (["estimate", "density", "--epsilon", "1.0", "--mode", "baseline", "--input", "{path}"],
         b"4 1\n0 \xe9\n", "nodedp: error: line 2: unexpected character '\ufffd'; edge lists"
         " hold ASCII digits, spaces, tabs, CR and LF only"),
        (["estimate", "blocks", "--epsilon", "1.0", "--lambda", "2", "--k", "2", "--input",
          "{path}"],
         None, "nodedp: error: [Errno 2] No such file or directory: '{path}'"),
        (["estimate", "blocks", "--epsilon", "1.0", "--lambda", "2", "--k", "5", "--input",
          "{path}"],
         "4 1\n0 1\n", "nodedp: error: --k must be between 1 and the graph's order n = 4, got 5"),
        (["audit", "dp", "--mechanism", "blocks", "--n", "3", "--k", "4"],
         None, "nodedp: error: --k must be between 1 and the graph's order n = 3, got 4"),
        # formerly refused with exit code 3 for its 14,348,907 candidates
        (["audit", "sensitivity", "--n", "4", "--k", "5", "--d", "2", "--mu", "0.5"],
         None, "nodedp: error: --k must be between 1 and the graph's order n = 4, got 5"),
        # densities stage 1 never releases: formerly numpy's "negative
        # dimensions are not allowed", or a PASS for a law never used
        (["audit", "dp", "--mechanism", "blocks", "--n", "3", "--k", "2", "--rho-hat", "-0.5"],
         None, "nodedp: error: --rho-hat must lie in [1/n^2, 1] = [0.111111, 1] at n = 3, "
         "got -0.5"),
        (["audit", "dp", "--mechanism", "blocks", "--n", "3", "--k", "2", "--rho-hat", "2.0"],
         None, "nodedp: error: --rho-hat must lie in [1/n^2, 1] = [0.111111, 1] at n = 3, "
         "got 2.0"),
        (["audit", "dp", "--mechanism", "blocks", "--n", "3", "--k", "2", "--rho-hat", "0.0"],
         None, "nodedp: error: --rho-hat must lie in [1/n^2, 1] = [0.111111, 1] at n = 3, "
         "got 0.0"),
    ],
    ids=["no-trials", "no-grid-points", "malformed-edge-list", "non-ascii-byte", "missing-input",
         "blocks-k-above-n", "audit-blocks-k-above-n", "sensitivity-k-above-n",
         "audit-blocks-negative-rho-hat", "audit-blocks-rho-hat-above-1",
         "audit-blocks-zero-rho-hat"],
)
def test_unusable_input_is_one_stderr_line_and_exit_code_2(argv, edge_list, message, tmp_path):
    path = tmp_path / "graph.txt"
    if isinstance(edge_list, bytes):
        path.write_bytes(edge_list)
    elif edge_list is not None:
        path.write_text(edge_list)
    done = _run_cli(*(arg.format(path=path) for arg in argv))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.splitlines() == [message.format(path=path)]


def _planted_edge_list(n, k, seed):
    """Two-level planted partition: edge probability 0.8 inside the k
    equal classes, 0.2 across, classes placed by a random permutation."""
    rng = substream(seed, "planted-blocks")
    labels = rng.permutation(np.repeat(np.arange(k), n // k))
    same = labels[:, None] == labels[None, :]
    upper = np.triu(rng.random((n, n)) < np.where(same, 0.8, 0.2), 1)
    return LabeledGraph(upper | upper.T).to_edge_list_text()


@pytest.mark.parametrize(
    "n, k, digest",
    [
        (16, 2, "a2c06e3bff14b8395b5c34ac5d76b3b1bdf4b1adaa7377e69e66e58717d7cebc"),
        (9, 3, "b9da8701e1e7a1a00e1d30d488bdce8de45c70c45620a8d0f89c19a0c4f88416"),
    ],
)
def test_block_release_bytes_are_pinned(n, k, digest, tmp_path):
    # SHA-256 over seeds 0..3 of the released bytes, then the diagnostics
    # bytes (distinct_count_rows, chosen_score, ...); any change to
    # equipartition scoring that moves a value, a tie or a count shows here
    graph = tmp_path / "graph.txt"
    graph.write_text(_planted_edge_list(n, k, 17))
    sha = hashlib.sha256()
    for seed in range(4):
        out, diag = tmp_path / f"{seed}.txt", tmp_path / f"{seed}.csv"
        code = main(
            ["estimate", "blocks", "--input", str(graph), "--epsilon", "4", "--lambda", "2",
             "--k", str(k), "--seed", str(seed), "--out", str(out), "--diagnostics", str(diag)]
        )
        assert code == 0
        sha.update(out.read_bytes() + diag.read_bytes())
    assert sha.hexdigest() == digest


def test_main_raises_refusals():
    with pytest.raises(ResourceLimitError):
        main(["experiment", "homogeneity", "--n", "18", "--p", "0.3", "--samples", "2"])
