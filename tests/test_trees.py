import json
import time

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
    assert s.terminal == (0, 1)
    assert s.stages == (0, 1)  # neither end hosted; the shared stage 0 pushes z2 to 1
    assert s.required_depth == 1


def test_peel_star4_trace():
    # peeling all three leaves would strand the center; the lowest-id leaf
    # stays so a terminal edge remains
    s = tc.compute_peel_schedule(tc.star_tree(3))
    assert len(s.rounds) == 1
    assert s.rounds[0].leaf_hosts == ((2, 0), (3, 0))
    assert s.rounds[0].attachments == ((0, 2),)
    assert s.terminal == (1, 0)  # the retained leaf never hosted, the center did in round 1
    assert s.stages == (1, 0, 0, 0)


def test_peel_path5_trace():
    s = tc.compute_peel_schedule(tc.path_tree(4))
    assert len(s.rounds) == 2
    assert s.rounds[0].leaf_hosts == ((0, 1), (4, 3))
    assert s.rounds[0].attachments == ((1, 1), (3, 1))
    # round 1 leaves 1-2-3: round 2 peels 3, and 1-2 is the terminal edge
    assert s.rounds[1].leaf_hosts == ((3, 2),)
    assert s.rounds[1].attachments == ((2, 1),)
    assert s.terminal == (1, 2)
    assert s.stages == (0, 1, 2, 1, 0)
    assert s.required_depth == 2


def test_peel_dumbbell_shared_stage():
    tree = tc.validate_tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    s = tc.compute_peel_schedule(tree)
    assert len(s.rounds) == 1
    assert s.rounds[0].attachments == ((0, 2), (1, 2))
    assert s.terminal == (0, 1)
    assert s.required_depth == 2  # coinciding stages push z2 one deeper
    assert s.stages == (1, 2, 0, 0, 0, 0)


def _rounds_by_simulation(tree: tc.TreeGraph):
    """Independent re-simulation of the peeling loop, rescanning every live vertex.

    Returns each round's (leaf, host) pairs and the terminal pair (z1, z2),
    ordered by the last round each end hosted, then by id.
    """
    adj = {v: set() for v in range(tree.n_vertices)}
    for i, j in tree.edges:
        adj[i].add(j)
        adj[j].add(i)
    rounds, hosted = [], {}
    while len(adj) > 2:
        leaves = sorted(v for v in adj if len(adj[v]) == 1)
        if len(adj) - len(leaves) < 2:
            leaves = leaves[1:]
        pairs = tuple((v, next(iter(adj[v]))) for v in leaves)
        for v, h in pairs:
            adj[h].discard(v)
            del adj[v]
            hosted[h] = len(rounds) + 1
        rounds.append(pairs)
    terminal = tuple(sorted(adj, key=lambda v: (hosted.get(v, 0), v)))
    return rounds, terminal


@pytest.mark.parametrize("k", range(2, 11))
def test_chain_round_count(k):
    s = tc.compute_peel_schedule(tc.path_tree(k))
    assert s.n_rounds == -(-(k - 1) // 2)  # ceil((k-1)/2)
    assert s.n_rounds == len(_rounds_by_simulation(tc.path_tree(k))[0])


@pytest.mark.parametrize("seed", range(20))
def test_schedule_matches_simulation_random_trees(seed):
    rng = np.random.default_rng(500 + seed)
    tree = random_tree(int(rng.integers(2, 61)), rng)
    s = tc.compute_peel_schedule(tree)
    rounds, terminal = _rounds_by_simulation(tree)
    assert [r.leaf_hosts for r in s.rounds] == rounds
    assert s.terminal == terminal


@pytest.mark.parametrize("seed", range(12))
def test_schedule_invariants_random_trees(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    tree = random_tree(n, rng)
    s = tc.compute_peel_schedule(tree)
    z1, z2 = s.terminal

    # every vertex is peeled in exactly one round or is a terminal end
    seen = [v for r in s.rounds for v, _ in r.leaf_hosts]
    assert sorted(seen + [z1, z2]) == list(range(n))

    # replay the rounds from leaf_hosts on the tree's edges
    alive = set(range(n))
    edges = set(tree.edges)
    hosted = [0] * n
    for j, r in enumerate(s.rounds, start=1):
        leaves = [v for v, _ in r.leaf_hosts]
        assert leaves == sorted(leaves)
        for v, host in r.leaf_hosts:
            # a peeled vertex is a live leaf, hanging off its host
            assert [e for e in edges if v in e] == [tuple(sorted((v, host)))]
            hosted[host] = j
        # multiplicities add up, hosts ascending
        assert sum(m for _, m in r.attachments) == len(r.leaf_hosts)
        assert r.attachments == tuple(
            (h, sum(1 for _, g in r.leaf_hosts if g == h))
            for h in sorted({h for _, h in r.leaf_hosts})
        )
        prev = len(alive)
        alive -= set(leaves)
        assert len(alive) < prev  # strictly decreasing
        # hosts survive their own round
        assert all(host in alive for host, _ in r.attachments)
        edges = {e for e in edges if e[0] in alive and e[1] in alive}
        # what remains is itself a tree (or the terminal edge)
        assert len(edges) == len(alive) - 1
    assert alive == {z1, z2} and edges == {tuple(sorted((z1, z2)))}

    # stages: the last round each vertex hosted, z2 one deeper on a tie
    assert hosted[z1] <= hosted[z2] <= s.n_rounds
    if hosted[z1] == hosted[z2]:
        hosted[z2] += 1
    assert s.stages == tuple(hosted)
    assert s.stages[z1] < s.stages[z2]
    assert s.required_depth == max(s.stages) >= 1


@pytest.mark.parametrize("shape", ["path", "pruefer"])
def test_large_trees_schedule_quickly(shape):
    # peeling tracks leaves round to round; rescanning every live vertex per
    # round took about 100 s on the 20,000-vertex path
    n = 20_000
    if shape == "path":
        tree = tc.path_tree(n - 1)
    else:
        tree = random_tree(n, np.random.default_rng(20))
    start = time.perf_counter()
    s = tc.compute_peel_schedule(tree)
    assert time.perf_counter() - start < 2.0
    assert sum(len(r.leaf_hosts) for r in s.rounds) == n - 2
    if shape == "path":
        # n - 1 = 19,999 edges: ceil(19,998 / 2) rounds, z2 pushed one deeper
        assert s.n_rounds == 9_999 and s.required_depth == 10_000


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
