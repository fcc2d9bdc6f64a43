import json

import pytest

import treeconfig as tc
from treeconfig.cli import run_pipeline
from treeconfig.kernels import upper_pairs
from treeconfig.scan import CSV_HEADER


@pytest.fixture()
def pair_measure():
    return tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5], label="pair")


@pytest.fixture()
def pair_config():
    # eleven gaps across [0.5, 1.5]; only t = 1.0 matches the single distance
    return tc.ScanConfig(t_min=0.5, t_max=1.5, t_steps=11, eps0=0.25, halvings=2)


def test_config_validation():
    with pytest.raises(tc.ValidationError):
        tc.ScanConfig(t_min=0.0)
    with pytest.raises(tc.ValidationError):
        tc.ScanConfig(t_min=1.0, t_max=0.5)
    with pytest.raises(tc.ValidationError):
        tc.ScanConfig(t_steps=1)
    with pytest.raises(tc.ValidationError):
        tc.ScanConfig(t_min=0.5, eps0=0.6)
    for unknown in ({"bogus_key": 1}, {"depth": 2}):  # the tree fixes the chain depth
        with pytest.raises(tc.ValidationError, match="unknown scan config keys"):
            tc.ScanConfig.from_dict(unknown)
    for budget in (0, -3):
        with pytest.raises(tc.ValidationError, match="node_budget"):
            tc.ScanConfig(node_budget=budget)
        with pytest.raises(tc.ValidationError, match="node_budget"):
            tc.ScanConfig.from_dict({"node_budget": budget})
    for name in ("t_min", "t_max", "eps0"):
        with pytest.raises(tc.ValidationError, match=f"{name} must be finite"):
            tc.ScanConfig(**{name: float("nan")})


def test_pair_scan_detects_unit_interval(pair_measure, pair_config):
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    assert report.interval == (1.0, 1.0)
    assert report.c_k > 0 and report.C_k >= report.c_k
    by_t = {}
    for row in report.rows:
        by_t.setdefault(round(row.t, 9), []).append(row)
    assert all(r.status == "stage1_failure" for r in by_t[0.5])
    assert all(r.succeeded for r in by_t[1.0])
    assert all(r.homomorphism and r.distinct_witness for r in by_t[1.0])
    # 0.8 passes at eps0=0.25 (gap 0.2 inside) but fails deeper in the ladder
    assert any(r.status == "ok" for r in by_t[0.8])
    assert not all(r.succeeded for r in by_t[0.8])


def test_rows_say_why_there_is_no_witness(tmp_path, pair_measure, pair_config):
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    by_t = {round(r.t, 9): r for r in report.rows}
    assert (by_t[1.0].witness, by_t[1.0].embed_nodes) == ("found", 2)
    # no homomorphism at t = 0.5: absent without a search node
    assert (by_t[0.5].witness, by_t[0.5].embed_nodes) == ("absent", 0)
    # a budget of one node places the root and stops
    pair_config.node_budget = 1
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    row = next(r for r in report.rows if round(r.t, 9) == 1.0)
    assert (row.witness, row.embed_nodes, row.distinct_witness) == ("budget_exhausted", 1, False)
    paths = tc.emit_report(report, tmp_path)
    records = json.loads(paths["report"].read_text())["rows"]
    assert {r["witness"] for r in records} == {"absent", "budget_exhausted"}
    assert paths["csv"].read_text().splitlines()[0] == CSV_HEADER


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_set_below_one_after_construction_is_rejected(
    tmp_path, capsys, pair_measure, pair_config, budget
):
    pair_config.node_budget = budget
    with pytest.raises(tc.ValidationError, match="node_budget"):
        tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    mfile, tfile, cfile = tmp_path / "m.json", tmp_path / "t.json", tmp_path / "c.json"
    pair_measure.save(mfile)
    tc.path_tree(1).save(tfile)
    config = pair_config.to_dict()
    config.update(measure_file=str(mfile), tree_file=str(tfile), out_dir=str(tmp_path / "out"))
    cfile.write_text(json.dumps(config))
    assert run_pipeline(["scan", "--config", str(cfile)]) == 2
    assert "node_budget must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_rows_cover_full_grid(pair_measure, pair_config):
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    assert len(report.rows) == 11 * 3
    grid = [(round(t, 10), round(e, 10)) for t in pair_config.t_values for e in pair_config.eps_ladder]
    got = [(round(r.t, 10), round(r.eps, 10)) for r in report.rows]
    assert got == grid


def test_negative_control_empty_interval(pair_measure):
    config = tc.ScanConfig(t_min=0.2, t_max=0.45, t_steps=6, eps0=0.05, halvings=2)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    assert report.interval is None
    assert report.c_k is None and report.C_k is None
    assert all(r.status == "stage1_failure" for r in report.rows)
    assert not any(r.distinct_witness for r in report.rows)


def test_rows_in_interval_have_homomorphism(pair_measure, pair_config):
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    lo, hi = report.interval
    for row in report.rows:
        if lo <= row.t <= hi and row.integral is not None and row.integral.value > 0:
            assert row.homomorphism


def test_bounds_are_extrema_inside_interval(pair_measure, pair_config):
    # c_k and C_k are kept once, on the report; no row carries a copy
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    lo, hi = report.interval
    values = [row.integral.value for row in report.rows if lo <= row.t <= hi]
    assert (report.c_k, report.C_k) == (min(values), max(values))
    assert all("bounds_witness" not in rec for rec in report.to_dict()["rows"])


def test_emit_report_files(tmp_path, pair_measure, pair_config):
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    paths = tc.emit_report(report, tmp_path / "out")
    csv_lines = paths["csv"].read_text().splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + 11 * 3
    interval = json.loads(paths["interval"].read_text())
    assert interval == {
        "I_lo": 1.0,
        "I_hi": 1.0,
        "c_k": report.c_k,
        "C_k": report.C_k,
    }
    full = json.loads(paths["report"].read_text())
    assert len(full["rows"]) == 33
    assert full["interval"] == [1.0, 1.0]


def test_emit_report_empty_interval(tmp_path, pair_measure):
    config = tc.ScanConfig(t_min=0.2, t_max=0.45, t_steps=6, eps0=0.05, halvings=1)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    paths = tc.emit_report(report, tmp_path)
    interval = json.loads(paths["interval"].read_text())
    assert interval == {"I_lo": None, "I_hi": None, "c_k": None, "C_k": None}
    assert len(paths["csv"].read_text().splitlines()) == 1 + 6 * 2


def test_scan_is_deterministic(tmp_path, pair_measure, pair_config):
    r1 = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    r2 = tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    a = tc.emit_report(r1, tmp_path / "a")["csv"].read_bytes()
    b = tc.emit_report(r2, tmp_path / "b")["csv"].read_bytes()
    assert a == b


def test_scan_computes_each_stage_field_once(monkeypatch, pair_measure, pair_config):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return tc.convolve_field(*args, **kwargs)

    monkeypatch.setattr("treeconfig.scan.convolve_field", counted)
    monkeypatch.setattr("treeconfig.pigeonhole.convolve_field", counted)
    tree = tc.path_tree(3)
    assert tc.compute_peel_schedule(tree).required_depth == 2
    report = tc.scan_interval(pair_config, measure=pair_measure, tree=tree)
    assert report.depth == 2
    statuses = [r.status for r in report.rows]
    assert set(statuses) == {"ok", "stage1_failure"}
    # one field per chain stage reached; the scan's own is the chain's stage 1
    assert len(calls) == sum(2 if s == "ok" else 1 for s in statuses)


def test_scan_makes_one_distance_pass(monkeypatch, pair_measure):
    passes = []

    def counted(*args):
        passes.append(args)
        return upper_pairs(*args)

    def no_build(*args, **kwargs):
        raise AssertionError("a scan masks its graphs from the envelope")

    monkeypatch.setattr("treeconfig.scan.upper_pairs", counted)
    monkeypatch.setattr(tc.AnnulusGraph, "build", no_build)
    config = tc.ScanConfig(t_min=0.5, t_max=1.5, t_steps=5, eps0=0.25, halvings=2)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    assert len(passes) == 1
    assert report.interval == (1.0, 1.0)
    assert any(r.distinct_witness for r in report.rows)


def test_scan_walks_one_ladder_per_t(monkeypatch, pair_measure, pair_config):
    bands, row_graphs, dp_graphs = [], [], []
    band = tc.AnnulusGraph.band

    def counted_band(cls, *args):
        bands.append(args)
        return band(*args)

    def field_graph(mu, params, graph):
        row_graphs.append(graph)
        return tc.convolve_field(mu, params, graph)

    def dp_graph(mu, tree, params, graph):
        dp_graphs.append(graph)
        return tc.feasibility_dp(mu, tree, params, graph)

    monkeypatch.setattr(tc.AnnulusGraph, "band", classmethod(counted_band))
    monkeypatch.setattr("treeconfig.scan.convolve_field", field_graph)
    monkeypatch.setattr("treeconfig.scan.feasibility_dp", dp_graph)
    tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    assert len(bands) == pair_config.t_steps
    # the search runs on the very graph of the t's last ladder row
    last_rows = row_graphs[len(pair_config.eps_ladder) - 1 :: len(pair_config.eps_ladder)]
    assert len(dp_graphs) == len(last_rows) == pair_config.t_steps
    assert all(dp is row for dp, row in zip(dp_graphs, last_rows))
    assert {g.params.eps for g in dp_graphs} == {pair_config.eps_ladder[-1]}


@pytest.mark.parametrize(
    "t_min, t_max, in_annulus", [(0.5, 0.75, [False, True]), (1.25, 1.5, [True, False])]
)
def test_envelope_reaches_the_grid_edges(pair_measure, t_min, t_max, in_annulus):
    # the pair's distance 1.0 is t_max + eps0, then t_min - eps0, exactly
    config = tc.ScanConfig(t_min=t_min, t_max=t_max, t_steps=2, eps0=0.25, halvings=0)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    assert [r.l1 > 0 for r in report.rows] == in_annulus


def test_envelope_over_the_pair_cap_caps_every_row(tmp_path, monkeypatch, pair_measure):
    # the envelope's ball at t_max + eps0 holds all 4 ordered pairs; the
    # smallest t's ball alone holds 2, so only the envelope is over the cap
    monkeypatch.setattr("treeconfig.kernels.DEFAULT_PAIR_CAP", 3)
    config = tc.ScanConfig(t_min=0.5, t_max=1.5, t_steps=5, eps0=0.25, halvings=2)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    assert len(report.rows) == 15
    assert all(r.status == "cap_exceeded" for r in report.rows)
    assert not any(r.homomorphism or r.distinct_witness for r in report.rows)
    assert all(r.witness is None and r.embed_nodes is None for r in report.rows)
    assert report.interval is None
    mfile, tfile, cfile = tmp_path / "m.json", tmp_path / "t.json", tmp_path / "c.json"
    pair_measure.save(mfile)
    tc.path_tree(1).save(tfile)
    config = config.to_dict()
    config.update(measure_file=str(mfile), tree_file=str(tfile), out_dir=str(tmp_path / "out"))
    cfile.write_text(json.dumps(config))
    assert run_pipeline(["scan", "--config", str(cfile)]) == 4  # empty interval


def test_grid_beyond_the_diameter_has_an_empty_envelope(tmp_path, monkeypatch, pair_measure):
    envelopes = []

    def kept(*args):
        envelopes.append(upper_pairs(*args))
        return envelopes[-1]

    monkeypatch.setattr("treeconfig.scan.upper_pairs", kept)
    config = tc.ScanConfig(t_min=2.0, t_max=3.0, t_steps=3, eps0=0.25, halvings=1)
    report = tc.scan_interval(config, measure=pair_measure, tree=tc.path_tree(1))
    assert envelopes[0].nnz == 0
    paths = tc.emit_report(report, tmp_path)
    # byte for byte what the scan wrote before it had an envelope
    assert paths["csv"].read_text().splitlines() == [
        CSV_HEADER,
        "2.0,0.25,0.0,0.0,,,false,false,stage1_failure",
        "2.0,0.125,0.0,0.0,,,false,false,stage1_failure",
        "2.5,0.25,0.0,0.0,,,false,false,stage1_failure",
        "2.5,0.125,0.0,0.0,,,false,false,stage1_failure",
        "3.0,0.25,0.0,0.0,,,false,false,stage1_failure",
        "3.0,0.125,0.0,0.0,,,false,false,stage1_failure",
    ]
    assert json.loads(paths["interval"].read_text()) == {
        "I_lo": None, "I_hi": None, "c_k": None, "C_k": None,
    }


def test_scan_loads_files(tmp_path, pair_measure):
    mfile = tmp_path / "m.json"
    tfile = tmp_path / "t.json"
    pair_measure.save(mfile)
    tc.path_tree(1).save(tfile)
    config = tc.ScanConfig(
        measure_file=str(mfile),
        tree_file=str(tfile),
        t_min=0.9,
        t_max=1.1,
        t_steps=3,
        eps0=0.15,
        halvings=1,
    )
    report = tc.scan_interval(config)
    assert report.interval == (1.0, 1.0)
    assert report.measure_label == "pair"


def test_scan_requires_single_source(tmp_path):
    with pytest.raises(tc.ValidationError, match="exactly one"):
        tc.scan_interval(tc.ScanConfig(tree_file="x"), measure=None, tree=tc.path_tree(1))


def _failing_search(error):
    def search(*args, **kwargs):
        raise error("injected")

    return search


def test_internal_error_in_search_is_not_a_missing_witness(
    tmp_path, monkeypatch, pair_measure, pair_config
):
    monkeypatch.setattr(
        "treeconfig.scan.extract_embedding", _failing_search(tc.InternalConsistencyError)
    )
    with pytest.raises(tc.InternalConsistencyError):
        tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
    mfile, tfile, cfile = tmp_path / "m.json", tmp_path / "t.json", tmp_path / "c.json"
    pair_measure.save(mfile)
    tc.path_tree(1).save(tfile)
    config = pair_config.to_dict()
    config.update(measure_file=str(mfile), tree_file=str(tfile), out_dir=str(tmp_path / "out"))
    cfile.write_text(json.dumps(config))
    assert run_pipeline(["scan", "--config", str(cfile)]) == 1


def test_validation_error_in_search_is_not_a_missing_witness(monkeypatch, pair_measure, pair_config):
    # the scan rechecks its config and hands the search the graph it built, so
    # a ValidationError or a cap error from the search is a bug, not an outcome
    for error in (tc.ValidationError, tc.ResourceCapError):
        monkeypatch.setattr("treeconfig.scan.extract_embedding", _failing_search(error))
        with pytest.raises(error, match="injected"):
            tc.scan_interval(pair_config, measure=pair_measure, tree=tc.path_tree(1))
