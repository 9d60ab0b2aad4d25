import json

import pytest

from nodedp.cli import main
from nodedp.graphs import LabeledGraph


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
    # theoretical sensitivity: the domain names the unproven cap assumption
    (domain,) = [r for r in rows if r.startswith("dp_domain,")]
    assert "degree_cap is stable under one rewiring" in domain


def test_audit_dp_laplace_passes(capsys):
    code = main(
        ["audit", "dp", "--mechanism", "laplace", "--n", "4", "--epsilon", "1.0",
         "--grid-points", "301"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


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
    assert lines[0] == "pair_i,pair_j,d_v,grid_q,log_ratio,bound,violation"
    assert len(lines) == 1 + 8 * 7  # ordered pairs over the 8 graphs on n=3


def test_estimate_density_promise_in_h_flag(graph_file, capsys):
    code = main(
        ["estimate", "density", "--input", graph_file, "--epsilon", "1.0",
         "--promise-in-H", "--rho", "0.5", "--seed", "5"]
    )
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["mode"] == "promise"
    assert "only" in record["dp_domain"]
