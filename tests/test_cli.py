import json
import math
import warnings

import pytest

import treeconfig as tc
from treeconfig.cli import run_pipeline
from conftest import product_cantor_spec


@pytest.fixture()
def workdir(tmp_path):
    spec = product_cantor_spec(0.3, 3)
    ifs = tmp_path / "ifs.json"
    ifs.write_text(json.dumps(spec.to_dict()))
    measure = tmp_path / "measure.json"
    assert run_pipeline(["generate", "--ifs", str(ifs), "--out", str(measure)]) == 0
    tree = tmp_path / "tree.json"
    tc.path_tree(2).save(tree)
    return tmp_path, ifs, measure, tree


def test_generate_writes_measure(workdir):
    _, _, measure, _ = workdir
    mu = tc.AtomicMeasure.load(measure)
    assert len(mu) == 64
    assert mu.total_mass == pytest.approx(1.0)


def test_generate_cap_exit_code(workdir, capsys):
    tmp_path, ifs, _, _ = workdir
    code = run_pipeline(
        ["generate", "--ifs", str(ifs), "--out", str(tmp_path / "x.json"), "--atom-cap", "10"]
    )
    assert code == 3
    assert "cap" in capsys.readouterr().err


def test_frostman_subcommand(workdir):
    tmp_path, _, measure, _ = workdir
    out = tmp_path / "frostman.json"
    code = run_pipeline(
        [
            "frostman",
            "--measure", str(measure),
            "--centers", "8",
            "--radii", "0.09,0.027,0.0081,0.00243",
            "--out", str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) == {"s_hat", "C_hat", "radius_range", "samples"}
    assert len(report["samples"]) == 8 * 4


def test_integral_oracle_equals_peel(workdir):
    tmp_path, _, measure, tree = workdir
    outs = {}
    for method in ("oracle", "peel"):
        out = tmp_path / f"{method}.json"
        code = run_pipeline(
            [
                "integral",
                "--measure", str(measure),
                "--tree", str(tree),
                "--t", "0.7",
                "--eps", "0.1",
                "--method", method,
                "--out", str(out),
            ]
        )
        assert code == 0
        outs[method] = json.loads(out.read_text())
    assert outs["oracle"]["value"] == pytest.approx(outs["peel"]["value"], rel=1e-9)
    assert outs["oracle"]["method"] == "oracle"
    assert outs["peel"]["method"] == "peel"


def test_pigeonhole_subcommand(workdir):
    tmp_path, _, measure, _ = workdir
    out = tmp_path / "chain.json"
    code = run_pipeline(
        ["pigeonhole", "--measure", str(measure), "--t", "0.7", "--eps", "0.1",
         "--depth", "2", "--out", str(out)]
    )
    assert code == 0
    chain = json.loads(out.read_text())
    assert [s["stage"] for s in chain["stages"]] == [1, 2]


def test_pigeonhole_stage_failure_is_empty_result(workdir):
    tmp_path, _, measure, _ = workdir
    out = tmp_path / "chain.json"
    code = run_pipeline(
        ["pigeonhole", "--measure", str(measure), "--t", "9.5", "--eps", "0.1",
         "--depth", "1", "--out", str(out)]
    )
    assert code == 4
    assert json.loads(out.read_text())["failed_stage"] == 1


def test_embed_witness_and_not_found(workdir, tmp_path):
    wd, _, measure, tree = workdir
    out = wd / "witness.json"
    code = run_pipeline(
        ["embed", "--measure", str(measure), "--tree", str(tree),
         "--t", "0.7", "--eps", "0.15", "--out", str(out)]
    )
    assert code == 0
    witness = json.loads(out.read_text())
    assert set(witness) == {"assignment", "gaps", "distinct", "t", "eps"}
    assert witness["distinct"] is True

    # single atom: provably nothing to find, exit 4
    lonely = tmp_path / "one.json"
    tc.AtomicMeasure(d=2, atoms=[[0.0, 0.0]], weights=[1.0]).save(lonely)
    nf = wd / "notfound.json"
    code = run_pipeline(
        ["embed", "--measure", str(lonely), "--tree", str(tree),
         "--t", "0.7", "--eps", "0.15", "--out", str(nf)]
    )
    assert code == 4
    record = json.loads(nf.read_text())
    assert record["found"] is False and record["exhausted"] is True


def test_scan_subcommand_and_exit_codes(workdir):
    tmp_path, _, _, _ = workdir
    pair = tmp_path / "pair.json"
    tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5]).save(pair)
    edge = tmp_path / "edge.json"
    tc.path_tree(1).save(edge)

    good = {
        "measure_file": str(pair), "tree_file": str(edge),
        "t_min": 0.8, "t_max": 1.2, "t_steps": 5,
        "eps0": 0.15, "halvings": 1, "out_dir": str(tmp_path / "scan_ok"),
    }
    cfg = tmp_path / "scan.json"
    cfg.write_text(json.dumps(good))
    assert run_pipeline(["scan", "--config", str(cfg)]) == 0
    csv = (tmp_path / "scan_ok" / "scan.csv").read_text().splitlines()
    assert len(csv) == 1 + 5 * 2
    interval = json.loads((tmp_path / "scan_ok" / "interval.json").read_text())
    assert interval["I_lo"] is not None

    bad = dict(good, t_min=0.2, t_max=0.45, eps0=0.04, out_dir=str(tmp_path / "scan_empty"))
    cfg.write_text(json.dumps(bad))
    assert run_pipeline(["scan", "--config", str(cfg)]) == 4
    empty = json.loads((tmp_path / "scan_empty" / "interval.json").read_text())
    assert empty["I_lo"] is None


def test_unknown_flag_exits_2(capsys):
    assert run_pipeline(["integral", "--bogus", "1"]) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_command_exits_2(capsys):
    assert run_pipeline(["transmogrify"]) == 2


def test_missing_file_exits_2(tmp_path, capsys):
    code = run_pipeline(
        ["frostman", "--measure", str(tmp_path / "nope.json"),
         "--centers", "1", "--radii", "0.1,0.2,0.5"]
    )
    assert code == 2


def test_invalid_params_exit_2(workdir, capsys):
    _, _, measure, tree = workdir
    code = run_pipeline(
        ["integral", "--measure", str(measure), "--tree", str(tree),
         "--t", "0.5", "--eps", "0.6", "--method", "peel"]
    )
    assert code == 2


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_embed_budget_below_one_exits_2(workdir, budget, capsys):
    _, _, measure, tree = workdir
    code = run_pipeline(
        ["embed", "--measure", str(measure), "--tree", str(tree),
         "--t", "0.7", "--eps", "0.15", "--budget", budget]
    )
    assert code == 2
    assert "node_budget must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "measure",
    [
        {"d": 2, "atoms": [[0, 0], [1]], "weights": [0.5, 0.5]},  # ragged atoms
        {"d": 2, "atoms": [[0, 0], [1, 0]], "weights": ["heavy", 0.5]},
        {"d": "two", "atoms": [[0, 0]], "weights": [1.0]},
    ],
)
def test_malformed_measure_file_exits_2(workdir, measure, capsys):
    tmp_path, _, _, tree = workdir
    path = tmp_path / "bad_measure.json"
    path.write_text(json.dumps(measure))
    code = run_pipeline(
        ["embed", "--measure", str(path), "--tree", str(tree), "--t", "1.0", "--eps", "0.1"]
    )
    assert code == 2
    assert "malformed measure file" in capsys.readouterr().err


def test_malformed_ifs_spec_exits_2(workdir, capsys):
    tmp_path, _, _, _ = workdir
    spec = {"d": 2, "maps": [{"ratio": 0.5, "translation": [[0], [1, 2]]}], "depth": 2}
    path = tmp_path / "bad_ifs.json"
    path.write_text(json.dumps(spec))
    code = run_pipeline(["generate", "--ifs", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "malformed IFS spec" in capsys.readouterr().err


def test_malformed_tree_file_exits_2(workdir, capsys):
    tmp_path, _, measure, _ = workdir
    path = tmp_path / "bad_tree.json"
    path.write_text(json.dumps({"n": "three", "edges": [[0, 1], [1, 2]]}))
    code = run_pipeline(
        ["embed", "--measure", str(measure), "--tree", str(path), "--t", "1.0", "--eps", "0.1"]
    )
    assert code == 2
    assert "malformed tree file" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [{"t_min": "a"}, {"t_steps": 2.5}])
def test_mistyped_scan_config_exits_2(workdir, bad, capsys):
    tmp_path, _, measure, tree = workdir
    config = {"measure_file": str(measure), "tree_file": str(tree), **bad}
    path = tmp_path / "bad_scan.json"
    path.write_text(json.dumps(config))
    assert run_pipeline(["scan", "--config", str(path)]) == 2
    assert f"scan config {next(iter(bad))} must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", [{"t_max": math.inf}, {"t_min": math.inf, "t_max": math.inf}, {"eps0": math.inf}]
)
def test_infinite_scan_config_exits_2(workdir, bad, capsys):
    tmp_path, _, measure, tree = workdir
    config = {"measure_file": str(measure), "tree_file": str(tree), **bad}
    path = tmp_path / "inf_scan.json"
    path.write_text(json.dumps(config))
    assert "Infinity" in path.read_text()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_pipeline(["scan", "--config", str(path)]) == 2
    assert caught == []
    assert f"{next(iter(bad))} must be finite" in capsys.readouterr().err
