import argparse
import json
import math
import warnings

import pytest

import treeconfig as tc
from treeconfig import cli
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


def test_oversized_scan_grid_exits_3(workdir, capsys):
    # refused before the t-grid is made: 10^9 t values would take 8 GB
    tmp_path, _, measure, tree = workdir
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({
        "measure_file": str(measure), "tree_file": str(tree), "t_steps": 10**9,
        "out_dir": str(tmp_path / "scan_huge"),
    }))
    assert run_pipeline(["scan", "--config", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: scan grid has 5000000000 rows")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "scan_huge").exists()


def test_chain_depth_over_the_cap_exits_3(tmp_path, capsys):
    # refused before the first stage: a depth of 10^8 would run until killed
    measure, out = tmp_path / "m.json", tmp_path / "chain.json"
    measure.write_text(json.dumps(_THREE_ATOMS))
    argv = ["pigeonhole", "--measure", str(measure), "--t", "0.5", "--eps", "0.1"]
    assert run_pipeline(argv + ["--depth", "100000000", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: chain depth 100000000 is over the cap of 256")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_an_output_that_cannot_be_written_exits_2(workdir, capsys):
    # --out under an existing file: the message names writing as well as loading
    _, _, measure, tree = workdir
    out = measure / "x.json"
    argv = ["integral", "--measure", str(measure), "--tree", str(tree), "--t", "0.7",
            "--eps", "0.1", "--out", str(out)]
    assert run_pipeline(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot load input or write output: [Errno 20] Not a directory")
    assert err.count("\n") == 1 and "Traceback" not in err


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


_ONE_MAP = [{"ratio": 0.5, "translation": [0.0]}]
_TWO_MAPS = _ONE_MAP + [{"ratio": 0.5, "translation": [0.5]}]


@pytest.mark.parametrize(
    "kind, content, code",
    [
        ("measure", [], 2),
        ("measure", None, 2),
        ("measure", {"d": 1, "atoms": [[0.0]]}, 2),
        ("measure", {"d": 0, "atoms": [[]], "weights": [1]}, 2),
        ("tree", [], 2),
        ("tree", None, 2),
        ("tree", {"n": 2}, 2),
        ("tree", {"n": 2, "edges": [[0]]}, 2),
        ("tree", {"n": 2, "edges": "01"}, 2),
        ("tree", {"n": 2, "edges": [[0, 1, 2]]}, 2),
        ("ifs", [], 2),
        ("ifs", None, 2),
        ("ifs", {"d": 1, "depth": 1}, 2),
        ("ifs", {"d": 1, "maps": _ONE_MAP, "depth": 10**12}, 3),
        ("ifs", {"d": 1, "maps": _TWO_MAPS, "depth": 10**12}, 3),
        # an integer field given as another JSON type is refused, not truncated
        ("measure", {"d": 1.7, "atoms": [[0.0]], "weights": [1.0]}, 2),
        ("measure", {"d": True, "atoms": [[0.0]], "weights": [1.0]}, 2),
        ("measure", {"d": "1", "atoms": [[0.0]], "weights": [1.0]}, 2),
        ("ifs", {"d": 1.9, "maps": _TWO_MAPS, "depth": 2}, 2),
        ("ifs", {"d": 1, "maps": _TWO_MAPS, "depth": 2.5}, 2),
        ("tree", {"n": 2.9, "edges": [[0, 1]]}, 2),
        ("tree", {"n": 2, "edges": [[0.5, 1]]}, 2),
        ("tree", {"n": 2, "edges": [[True, 0]]}, 2),
    ],
)
def test_malformed_file_is_a_typed_error(workdir, kind, content, code, capsys):
    # every malformed file names its fault on one line, never as a traceback;
    # the depth cap is refused before the IFS is enumerated
    tmp_path, _, measure, tree = workdir
    path = tmp_path / f"bad_{kind}.json"
    path.write_text(json.dumps(content))
    if kind == "ifs":
        argv = ["generate", "--ifs", str(path), "--out", str(tmp_path / "m.json")]
    else:
        files = {"measure": str(measure), "tree": str(tree), kind: str(path)}
        argv = ["embed", "--measure", files["measure"], "--tree", files["tree"],
                "--t", "0.7", "--eps", "0.15"]
    assert run_pipeline(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("resource cap:" if code == 3 else "invalid input:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_nan_ifs_probabilities_exit_2(workdir, capsys):
    # Python's json writes and reads NaN; the IFS file must still be refused
    tmp_path, _, _, _ = workdir
    path = tmp_path / "nan_ifs.json"
    spec = {"d": 1, "maps": _TWO_MAPS, "depth": 2, "probabilities": [math.nan, math.nan]}
    path.write_text(json.dumps(spec))
    assert "NaN" in path.read_text()
    code = run_pipeline(["generate", "--ifs", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and "probabilities must be finite" in err
    assert err.count("\n") == 1 and not (tmp_path / "m.json").exists()


_THREE_ATOMS = {"d": 1, "atoms": [[0.0], [0.5], [1.0]], "weights": [0.3333, 0.3333, 0.3334]}


@pytest.mark.parametrize(
    "weights, scan_extra, argv",
    [
        (None, {"depth": 0}, None),
        (None, {"depth": 1}, None),  # path5 needs depth 2
        (None, {"halvings": 300}, None),
        (None, None, ["pigeonhole", "--t", "0.5", "--eps", "1e-200", "--depth", "1"]),
        ([0, 0, 1], None, ["frostman", "--centers", "2", "--radii", "0.001,0.002,0.01"]),
    ],
    ids=["scan-depth-0", "scan-depth-1", "scan-halvings-300", "pigeonhole-eps-1e-200",
         "frostman-empty-balls"],
)
def test_bad_input_exits_2_not_as_a_row_or_a_crash(tmp_path, weights, scan_extra, argv, capsys):
    # a chain depth the tree does not fix, an eps below t's rounding unit and
    # radii at which every ball is empty are the caller's input, never an outcome
    measure = tmp_path / "m.json"
    measure.write_text(json.dumps(dict(_THREE_ATOMS, weights=weights or _THREE_ATOMS["weights"])))
    if scan_extra is None:
        argv = argv + ["--measure", str(measure)]
    else:
        tree, config = tmp_path / "path5.json", tmp_path / "scan.json"
        tc.path_tree(4).save(tree)
        config.write_text(json.dumps(
            {"measure_file": str(measure), "tree_file": str(tree),
             "out_dir": str(tmp_path / "out"), **scan_extra}
        ))
        argv = ["scan", "--config", str(config)]
    assert run_pipeline(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    "radii, says",
    [("a,b,c", "'a,b,c'"), ("0.1,,0.4", "'0.1,,0.4'"), ("0.1,0.2,inf", "finite"),
     ("0.1,0.2,nan", "finite")],
)
def test_frostman_radii_that_are_not_finite_numbers_exit_2(workdir, radii, says, capsys):
    _, _, measure, _ = workdir
    argv = ["frostman", "--measure", str(measure), "--centers", "2", "--radii", radii]
    assert run_pipeline(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert says in err and "Traceback" not in err


_EDGE_TREE = {"n": 2, "edges": [[0, 1]]}


@pytest.mark.parametrize(
    "atoms, weight, argv",
    [
        ([0.0, 0.5, 1.0], 1e308, ["integral", "--tree"]),
        ([0.0, 0.5], 3.4e101, ["pigeonhole", "--depth", "1"]),
        ([0.0, 0.5], 1.5e153, ["integral", "--method", "peel", "--tree"]),
    ],
    ids=["total-mass", "field-norms", "peel-terminal-sum"],
)
def test_finite_weights_whose_sum_overflows_exit_2(tmp_path, atoms, weight, argv, capsys):
    # every term is finite, but the total mass, the stage-1 field's square
    # integral or the peel integral's terminal sum is past the float range
    measure, tree = tmp_path / "m.json", tmp_path / "t.json"
    weights = [weight] * len(atoms)
    measure.write_text(json.dumps({"d": 1, "atoms": [[a] for a in atoms], "weights": weights}))
    tree.write_text(json.dumps(_EDGE_TREE))
    if argv[-1] == "--tree":
        argv = argv + [str(tree)]
    assert run_pipeline(argv + ["--measure", str(measure), "--t", "0.5", "--eps", "0.01"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and err.count("\n") == 1
    assert "overflows" in err and "Traceback" not in err


# One parser serves every call in a process: a call must leave nothing in it
# that changes the next call's exit code, messages or output files.


def _call(argv, outputs, capsys):
    """Exit code, stdout, stderr and output file texts of one run_pipeline call."""
    for path in outputs:
        path.unlink(missing_ok=True)
    code = run_pipeline(argv)
    out, err = capsys.readouterr()
    return code, out, err, {path.name: path.read_text() for path in outputs if path.exists()}


def _call_on_a_fresh_parser(argv, outputs, capsys):
    cli.build_parser.cache_clear()
    return _call(argv, outputs, capsys)


def _back_to_back(first, second, capsys):
    """Both calls' results on one parser; the second must equal its result on a fresh parser."""
    before = _call_on_a_fresh_parser(*first, capsys)
    after = _call(*second, capsys)
    assert after == _call_on_a_fresh_parser(*second, capsys)
    return before, after


@pytest.fixture()
def reuse_inputs(tmp_path):
    # two atoms one apart: the 2-chain embeds at t = 1 only with a repeated atom
    pair = tmp_path / "pair.json"
    tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5]).save(pair)
    chain = tmp_path / "chain.json"
    tc.path_tree(2).save(chain)
    config = tmp_path / "scan.json"
    config.write_text(json.dumps({
        "measure_file": str(pair), "tree_file": str(chain),
        "t_min": 0.8, "t_max": 1.2, "t_steps": 3,
        "eps0": 0.15, "halvings": 1, "out_dir": str(tmp_path / "config_dir"),
    }))
    embed = ["embed", "--measure", str(pair), "--tree", str(chain), "--t", "1.0",
             "--eps", "0.1", "--out", str(tmp_path / "embed.json")]
    return tmp_path, embed, config


def test_allow_repeats_does_not_carry_over_to_the_next_embed(reuse_inputs, capsys):
    tmp_path, embed, _ = reuse_inputs
    out = [tmp_path / "embed.json"]
    loose, strict = _back_to_back((embed + ["--allow-repeats"], out), (embed, out), capsys)
    assert (loose[0], strict[0]) == (0, 4)
    assert json.loads(loose[3]["embed.json"])["distinct"] is False
    assert json.loads(strict[3]["embed.json"])["found"] is False


def test_out_dir_does_not_carry_over_to_the_next_scan(reuse_inputs, capsys):
    tmp_path, _, config = reuse_inputs
    scan = ["scan", "--config", str(config)]
    names = ("scan.csv", "report.json", "interval.json")
    flag, own = ([tmp_path / d / name for name in names] for d in ("flag_dir", "config_dir"))
    moved, kept = _back_to_back(
        (scan + ["--out-dir", str(tmp_path / "flag_dir")], flag + own), (scan, flag + own), capsys
    )
    assert (moved[0], kept[0]) == (0, 0)
    assert not any(path.exists() for path in flag) and all(path.exists() for path in own)
    assert sorted(kept[3]) == sorted(names)
    assert json.loads(kept[3]["report.json"])["config"]["out_dir"] == str(tmp_path / "config_dir")


def test_a_malformed_call_leaves_the_next_call_as_it_was(reuse_inputs, capsys):
    tmp_path, embed, _ = reuse_inputs
    malformed, valid = _back_to_back(
        (["embed", "--t", "one"], []), (embed, [tmp_path / "embed.json"]), capsys
    )
    assert (malformed[0], valid[0]) == (2, 4)
    assert malformed[1] == "" and malformed[2].startswith("usage: treeconfig embed")


def test_help_leaves_the_next_call_as_it_was(reuse_inputs, capsys):
    tmp_path, embed, _ = reuse_inputs
    helped, valid = _back_to_back(
        (["--help"], []), (embed + ["--allow-repeats"], [tmp_path / "embed.json"]), capsys
    )
    assert (helped[0], valid[0]) == (0, 0)
    assert helped[1].startswith("usage: treeconfig") and helped[2] == ""


def test_three_calls_build_one_parser_tree(reuse_inputs, monkeypatch):
    _, embed, config = reuse_inputs
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    codes = [run_pipeline(embed), run_pipeline(["scan", "--config", str(config)]),
             run_pipeline(embed + ["--allow-repeats"])]
    assert codes == [4, 0, 0]
    # the top-level parser and one per subcommand, each once
    assert built == ["treeconfig"] + [f"treeconfig {name}" for name in (
        "generate", "frostman", "integral", "pigeonhole", "embed", "scan")]
