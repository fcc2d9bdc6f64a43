import json

import numpy as np
import pytest

import treeconfig as tc
from conftest import random_tree


def test_single_edge_valid():
    t = tc.validate_tree(2, [(0, 1)])
    assert t.edges == ((0, 1),)


def test_triangle_rejected_by_edge_count():
    with pytest.raises(tc.ValidationError, match="edge count 3 != 2"):
        tc.validate_tree(3, [(0, 1), (1, 2), (0, 2)])


def test_duplicate_and_loop_and_range():
    with pytest.raises(tc.ValidationError, match="duplicate"):
        tc.validate_tree(3, [(0, 1), (1, 0)])
    with pytest.raises(tc.ValidationError, match="self-loop"):
        tc.validate_tree(2, [(1, 1)])
    with pytest.raises(tc.ValidationError, match="range"):
        tc.validate_tree(2, [(0, 5)])


def test_disconnected_rejected():
    # right edge count, but a 3-cycle plus isolated vertex
    with pytest.raises(tc.ValidationError, match="disconnected"):
        tc.validate_tree(4, [(0, 1), (1, 2), (0, 2)])


def test_five_path_is_valid_chain():
    t = tc.validate_tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert t.k == 4
    assert t == tc.path_tree(4)


def test_edges_canonicalized():
    t = tc.validate_tree(3, [(2, 1), (1, 0)])
    assert t.edges == ((0, 1), (1, 2))


def test_peel_single_edge():
    s = tc.compute_peel_schedule(tc.path_tree(1))
    assert s.rounds == ()
    assert (s.terminal.z1, s.terminal.z2) == (0, 1)
    assert (s.terminal.j1, s.terminal.j2) == (0, 0)
    assert s.required_depth == 1


def test_peel_star4_trace():
    # peeling all three leaves would strand the center; the lowest-id leaf
    # stays so a terminal edge remains
    s = tc.compute_peel_schedule(tc.star_tree(3))
    assert len(s.rounds) == 1
    assert s.rounds[0].isolated == (2, 3)
    assert s.rounds[0].attachments == ((0, 2),)
    assert {s.terminal.z1, s.terminal.z2} == {0, 1}
    assert (s.terminal.j1, s.terminal.j2) == (0, 1)


def test_peel_path5_trace():
    s = tc.compute_peel_schedule(tc.path_tree(4))
    assert len(s.rounds) == 2
    assert s.rounds[0].isolated == (0, 4)
    assert s.rounds[0].attachments == ((1, 1), (3, 1))
    assert s.rounds[0].remaining.vertices == (1, 2, 3)
    assert s.rounds[1].isolated == (3,)
    assert s.rounds[1].attachments == ((2, 1),)
    assert (s.terminal.z1, s.terminal.z2) == (1, 2)
    assert (s.terminal.j1, s.terminal.j2) == (1, 2)
    assert s.required_depth == 2


def test_peel_dumbbell_shared_stage():
    tree = tc.validate_tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    s = tc.compute_peel_schedule(tree)
    assert len(s.rounds) == 1
    assert s.rounds[0].attachments == ((0, 2), (1, 2))
    assert (s.terminal.j1, s.terminal.j2) == (1, 1)
    assert s.required_depth == 2  # coinciding stages push z2 one deeper
    stages = s.vertex_stages()
    assert stages[s.terminal.z2] == 2 and stages[s.terminal.z1] == 1


def _rounds_by_simulation(tree: tc.TreeGraph) -> int:
    # independent re-simulation of the peeling loop, counting rounds only
    adj = {v: set() for v in range(tree.n_vertices)}
    for i, j in tree.edges:
        adj[i].add(j)
        adj[j].add(i)
    rounds = 0
    while len(adj) > 2:
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        if len(adj) - len(leaves) < 2:
            leaves = leaves[1:]
        for v in leaves:
            (h,) = adj[v]
            adj[h].discard(v)
            del adj[v]
        rounds += 1
    return rounds


@pytest.mark.parametrize("k", range(2, 11))
def test_chain_round_count(k):
    s = tc.compute_peel_schedule(tc.path_tree(k))
    assert s.n_rounds == -(-(k - 1) // 2)  # ceil((k-1)/2)
    assert s.n_rounds == _rounds_by_simulation(tc.path_tree(k))


@pytest.mark.parametrize("seed", range(12))
def test_schedule_invariants_random_trees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    tree = random_tree(n, rng)
    s = tc.compute_peel_schedule(tree)

    # every vertex appears in exactly one round or in the terminal pair
    seen = [v for r in s.rounds for v in r.isolated]
    seen += [s.terminal.z1, s.terminal.z2]
    assert sorted(seen) == list(range(n))

    # multiplicities add up and hosts survive their own round
    for r in s.rounds:
        assert sum(m for _, m in r.attachments) == len(r.isolated)
        for host, _ in r.attachments:
            assert host in r.remaining.vertices

    # replay: deleting rounds' vertices reproduces each stored remaining tree
    alive = set(range(n))
    edges = set(tree.edges)
    for r in s.rounds:
        prev = len(alive)
        alive -= set(r.isolated)
        assert len(alive) < prev  # strictly decreasing
        edges = {e for e in edges if e[0] in alive and e[1] in alive}
        assert r.remaining.vertices == tuple(sorted(alive))
        assert r.remaining.edges == tuple(sorted(edges))
        # remaining is itself a tree (or the terminal edge)
        assert len(edges) == len(alive) - 1

    assert s.terminal.j1 <= s.terminal.j2 <= s.n_rounds
    assert s.required_depth >= 1


def test_tree_json_roundtrip(tmp_path):
    tree = tc.validate_tree(4, [(0, 1), (1, 2), (1, 3)])
    path = tmp_path / "t.json"
    tree.save(path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"n", "edges"}
    assert tc.TreeGraph.load(path) == tree


def test_tree_json_rejects_cycle(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    with pytest.raises(tc.ValidationError):
        tc.TreeGraph.load(path)
