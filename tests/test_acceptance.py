"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
The heavyweight fixtures (the 4096-atom product Cantor measure and its
path/star scans) are session-scoped and shared across criteria.
"""

import json
import math
import time

import numpy as np

import treeconfig as tc
from treeconfig.cli import run_pipeline
from conftest import exhaustive_injective, pruefer_tree, random_tree


def _line(name: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {name}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{name}: {detail}"


def _mid_interval(report) -> float:
    assert report.interval is not None, "no interval detected"
    lo, hi = report.interval
    return 0.5 * (lo + hi)


def test_criterion_1_oracle_equivalence():
    """Peel evaluation equals brute-force enumeration, 200 seeded instances."""
    start = time.monotonic()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(200):
        n_vertices = int(rng.integers(2, 6))
        n_cap = 25 if n_vertices == 5 else 40
        n = int(rng.integers(2, n_cap + 1))
        tree = random_tree(n_vertices, rng)
        mu = tc.AtomicMeasure(
            d=2, atoms=rng.random((n, 2)), weights=rng.random(n) + 0.01
        )
        t = float(rng.uniform(0.1, 1.0))
        params = tc.KernelParams(t=t, eps=t * float(rng.uniform(0.05, 0.95)))
        oracle = tc.integral_bruteforce([mu] * n_vertices, tree, params)
        peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), params)
        rel = abs(peel.value - oracle.value) / max(oracle.value, 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-9
    elapsed = time.monotonic() - start
    _line(
        "criterion-1 oracle equivalence",
        worst <= 1e-9 and elapsed < 120,
        f"200 instances, worst rel err {worst:.2e}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_2_pigeonhole_guarantees(cantor_accept):
    """Good-set and Chebyshev certificates hold exactly on a call battery."""
    start = time.monotonic()
    rng = np.random.default_rng(7)
    checked_gs = checked_prof = 0

    def check_good_set(f, mu, c):
        nonlocal checked_gs
        gs = tc.good_set(f, mu, c)  # library asserts internally too
        kept = np.zeros(len(mu), dtype=bool)
        kept[gs.indices] = True
        prod = mu.weights * f
        assert math.fsum(prod[kept]) >= c / 2.0
        assert math.fsum(mu.weights[kept]) >= c * 2.0 ** (-(gs.m + 1))
        checked_gs += 1

    def check_profile(f, w, c_prime, m_low):
        nonlocal checked_prof
        prof = tc.chebyshev_profile(f, w, c_prime, m_low)
        for l, mass in prof.levels:
            assert mass <= prof.C_bound * 2.0 ** (-2 * l)
        checked_prof += 1

    for _ in range(60):
        n = int(rng.integers(2, 150))
        f = rng.exponential(1.5, size=n) * (rng.random(n) < 0.85)
        w = rng.random(n) + 1e-4
        mu = tc.AtomicMeasure(d=1, atoms=rng.random((n, 1)), weights=w)
        l1 = math.fsum(w * f)
        if l1 > 0:
            check_good_set(f, mu, l1 / 2.0)
            check_good_set(f, mu, l1)  # tightest admissible c
        check_profile(f, w, float(rng.uniform(0.01, 2.0)), int(rng.integers(-3, 3)))

    # the real field at a mid-grid gap on the acceptance measure
    p = tc.KernelParams(t=0.6, eps=0.02)
    f = tc.convolve_field(cantor_accept, p)
    l1, _ = tc.field_norms(f, cantor_accept.weights)
    check_good_set(f, cantor_accept, l1 / 2.0)
    check_profile(f, cantor_accept.weights, l1 / 4.0, 0)

    elapsed = time.monotonic() - start
    _line(
        "criterion-2 pigeonhole guarantees",
        elapsed < 60,
        f"{checked_gs} good-set and {checked_prof} profile calls, zero tolerance, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_chain_scaling(cantor_accept, path5_report, accept_config):
    """log-log slope of k-chain neighborhood mass vs eps is >= k - 0.3."""
    start = time.monotonic()
    t_mid = _mid_interval(path5_report)
    eps_values = [accept_config.eps0 * 2.0**-i for i in range(5)]
    # one graph at the largest eps, each smaller eps filtered from the last
    graphs = [tc.AnnulusGraph.build(cantor_accept.atoms, tc.KernelParams(t_mid, eps_values[0]))]
    for e in eps_values[1:]:
        graphs.append(graphs[-1].within(tc.KernelParams(t_mid, e)))
    slopes = {}
    for k in (1, 2, 3):
        masses = [tc.chain_neighborhood_mass(cantor_accept, k, g.params, g) for g in graphs]
        assert all(m > 0 for m in masses)
        slopes[k] = float(np.polyfit(np.log(eps_values), np.log(masses), 1)[0])
        assert slopes[k] >= k - 0.3
    elapsed = time.monotonic() - start
    _line(
        "criterion-3 chain scaling",
        elapsed < 300,
        "slopes "
        + ", ".join(f"k={k}: {s:.3f} (>= {k - 0.3})" for k, s in slopes.items())
        + f" at t={t_mid:.3f}, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_4_uniform_boundedness(path5_report, star5_report):
    """Restricted integral stays positive with max/min ratio <= 8 over I."""
    details = []
    for name, report in (("path5", path5_report), ("star5", star5_report)):
        assert report.interval is not None, f"{name}: interval empty"
        lo, hi = report.interval
        in_rows = [r for r in report.rows if lo <= r.t <= hi]
        assert in_rows and all(r.succeeded for r in in_rows)
        values = [r.integral.value for r in in_rows]
        assert min(values) > 0
        ratio = max(values) / min(values)
        assert ratio <= 8.0
        details.append(f"{name}: I=[{lo:.2f},{hi:.2f}] ratio {ratio:.2f}")
    _line("criterion-4 uniform boundedness", True, "; ".join(details) + " (<= 8)")


def test_criterion_5_embedding_existence(cantor_accept, path5_report, accept_config):
    """Injective witnesses for path-5, 4-leaf star, and a random 7-tree."""
    start = time.monotonic()
    t_mid = _mid_interval(path5_report)
    eps_min = accept_config.eps_ladder[-1]
    params = tc.KernelParams(t=t_mid, eps=eps_min)
    rng = np.random.default_rng(77)
    trees = {
        "path5": tc.path_tree(4),
        "star4leaf": tc.star_tree(4),
        "tree7": pruefer_tree(list(rng.integers(0, 7, size=5)), 7),
    }
    graph = tc.AnnulusGraph.build(cantor_accept.atoms, params)
    for name, tree in trees.items():
        tables = tc.feasibility_dp(cantor_accept, tree, params, graph)
        res = tc.extract_embedding(tables, cantor_accept, tree, params, require_distinct=True)
        assert res.found, f"{name}: no witness at t={t_mid}, eps={eps_min}"
        # independent recheck of every realized gap and injectivity
        seen = set()
        for i, j in tree.edges:
            a, b = res.witness.assignment[i], res.witness.assignment[j]
            gap = float(np.linalg.norm(cantor_accept.atoms[a] - cantor_accept.atoms[b]))
            assert params.inner <= gap <= params.outer
        for v, a in res.witness.assignment.items():
            assert a not in seen
            seen.add(a)
    elapsed = time.monotonic() - start
    _line(
        "criterion-5 embedding existence",
        elapsed < 120,
        f"witnesses for {', '.join(trees)} at t={t_mid:.3f}, eps={eps_min}, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_6_embedding_oracle_agreement():
    """found/not-found matches exhaustive injective enumeration, 100 instances."""
    start = time.monotonic()
    rng = np.random.default_rng(606)
    found_count = 0
    for _ in range(100):
        n = int(rng.integers(2, 26))
        n_vertices = int(rng.integers(2, 6))
        mu = tc.AtomicMeasure(
            d=2, atoms=rng.random((n, 2)), weights=np.full(n, 1.0 / n)
        )
        tree = random_tree(n_vertices, rng)
        t = float(rng.uniform(0.15, 0.9))
        params = tc.KernelParams(t=t, eps=t * float(rng.uniform(0.05, 0.4)))
        tables = tc.feasibility_dp(mu, tree, params)
        res = tc.extract_embedding(tables, mu, tree, params, require_distinct=True)
        assert res.found or res.exhausted
        expect = exhaustive_injective(mu, tree, params)
        assert res.found == expect
        found_count += int(res.found)
    elapsed = time.monotonic() - start
    _line(
        "criterion-6 embedding oracle agreement",
        elapsed < 120,
        f"100 instances ({found_count} embeddable), exact agreement, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_7_scan_determinism(tmp_path):
    """Identical config and seed give byte-identical scan.csv."""
    pair = tmp_path / "pair.json"
    tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5]).save(pair)
    edge = tmp_path / "edge.json"
    tc.path_tree(1).save(edge)
    blobs = []
    for run in ("a", "b"):
        cfg = {
            "measure_file": str(pair), "tree_file": str(edge),
            "t_min": 0.5, "t_max": 1.5, "t_steps": 11,
            "eps0": 0.25, "halvings": 2, "seed": 42,
            "out_dir": str(tmp_path / run),
        }
        cfg_path = tmp_path / f"cfg_{run}.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_pipeline(["scan", "--config", str(cfg_path)]) == 0
        blobs.append((tmp_path / run / "scan.csv").read_bytes())
    _line(
        "criterion-7 scan determinism",
        blobs[0] == blobs[1],
        f"two runs, {len(blobs[0])} bytes each, identical={blobs[0] == blobs[1]}",
    )


def test_criterion_8_negative_control(tmp_path):
    """Gap grid disjoint from the only distance: empty I, embed exits 4."""
    pair = tmp_path / "pair.json"
    tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5]).save(pair)
    edge = tmp_path / "edge.json"
    tc.path_tree(1).save(edge)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "measure_file": str(pair), "tree_file": str(edge),
                "t_min": 0.2, "t_max": 0.45, "t_steps": 6,
                "eps0": 0.05, "halvings": 2, "out_dir": str(tmp_path / "out"),
            }
        )
    )
    scan_code = run_pipeline(["scan", "--config", str(cfg_path)])
    interval = json.loads((tmp_path / "out" / "interval.json").read_text())
    csv_rows = (tmp_path / "out" / "scan.csv").read_text().splitlines()[1:]
    no_witness = all(row.split(",")[7] == "false" for row in csv_rows)
    embed_code = run_pipeline(
        ["embed", "--measure", str(pair), "--tree", str(edge),
         "--t", "0.3", "--eps", "0.05", "--out", str(tmp_path / "nf.json")]
    )
    record = json.loads((tmp_path / "nf.json").read_text())
    ok = (
        scan_code == 4
        and interval["I_lo"] is None
        and no_witness
        and embed_code == 4
        and record["found"] is False
        and record["exhausted"] is True
    )
    _line(
        "criterion-8 negative control",
        ok,
        f"scan exit {scan_code}, empty I, embed exit {embed_code}, no false witnesses",
    )


def test_supplementary_delta_uniformity_in_eps(path5_report, accept_config):
    """Certified stage deltas vary by <= 4x across the eps ladder inside I."""
    lo, hi = path5_report.interval
    ladder_head = set(round(e, 12) for e in accept_config.eps_ladder[:5])
    by_t: dict[float, list[float]] = {}
    for r in path5_report.rows:
        if lo <= r.t <= hi and round(r.eps, 12) in ladder_head and r.delta_min:
            by_t.setdefault(r.t, []).append(r.delta_min)
    assert by_t
    worst = 1.0
    for t, deltas in by_t.items():
        assert len(deltas) == 5
        worst = max(worst, max(deltas) / min(deltas))
        assert max(deltas) / min(deltas) <= 4.0
    _line(
        "supplementary delta eps-uniformity",
        True,
        f"worst max/min delta ratio {worst:.2f} over {len(by_t)} gaps (<= 4)",
    )
