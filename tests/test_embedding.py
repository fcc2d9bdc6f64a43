import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeconfig as tc
from conftest import (
    exhaustive_injective,
    homomorphism_tables,
    one_triangle,
    pruefer_tree,
    random_tree,
    reference_matrix,
)

P = tc.KernelParams(t=1.0, eps=0.1)


def test_dp_pair_single_edge():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    tables = tc.feasibility_dp(mu, tc.path_tree(1), P)
    assert tables.hosts[0].all() and tables.hosts[1].all()
    assert tables.root_feasible()


def test_dp_single_atom_empty():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0]], weights=[1.0])
    tables = tc.feasibility_dp(mu, tc.path_tree(1), P)
    assert not tables.root_feasible()


def test_dp_three_collinear():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    tables = tc.feasibility_dp(mu, tc.path_tree(2), P)
    assert tables.root_feasible()
    # middle atom can host the middle vertex
    assert tables.hosts[1][1]


def test_extract_three_collinear_distinct():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    tree = tc.path_tree(2)
    res = tc.extract_embedding(tc.feasibility_dp(mu, tree, P), mu, tree, P)
    assert res.found
    chosen = [res.witness.assignment[v] for v in range(3)]
    assert chosen in ([0, 1, 2], [2, 1, 0])
    assert res.witness.distinct
    assert all(g == pytest.approx(1.0) for g in res.witness.gaps.values())


def test_extract_star_on_two_atoms():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    star = tc.star_tree(3)
    tables = tc.feasibility_dp(mu, star, P)
    strict = tc.extract_embedding(tables, mu, star, P, require_distinct=True)
    assert not strict.found and strict.exhausted
    loose = tc.extract_embedding(tables, mu, star, P, require_distinct=False)
    assert loose.found and not loose.witness.distinct
    leaves = {loose.witness.assignment[v] for v in (1, 2, 3)}
    assert len(leaves) == 1  # all leaves stacked on one atom


def test_budget_exhaustion_is_distinguished():
    # 6 atoms on a circle of radius t (a hexagon with side t) form a 6-cycle:
    # every atom passes the host bounds of the 7-vertex path, which still
    # cannot embed injectively, so the search must churn
    angles = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    atoms = np.column_stack([np.cos(angles), np.sin(angles)])
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(6, 1 / 6))
    path = tc.path_tree(6)
    tables = tc.feasibility_dp(mu, path, P)
    assert all(tables.hosts[v].all() for v in range(7))
    tiny = tc.extract_embedding(tables, mu, path, P, node_budget=25)
    assert not tiny.found and not tiny.exhausted  # budget hit
    assert tiny.nodes_visited == 25
    full = tc.extract_embedding(tables, mu, path, P, node_budget=10**6)
    assert not full.found and full.exhausted  # proven absent
    assert full.nodes_visited == 66  # 6 roots, then 2 ways round with 5 nodes each


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_is_rejected(budget):
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    tree = tc.path_tree(1)
    tables = tc.feasibility_dp(mu, tree, P)
    with pytest.raises(tc.ValidationError, match="node_budget"):
        tc.extract_embedding(tables, mu, tree, P, node_budget=budget)


def test_budget_of_one_places_only_the_root():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    tree = tc.path_tree(1)
    tables = tc.feasibility_dp(mu, tree, P)
    res = tc.extract_embedding(tables, mu, tree, P, node_budget=1)
    assert (res.found, res.exhausted, res.nodes_visited) == (False, False, 1)
    # a search that needs exactly its budget still finds its witness
    res = tc.extract_embedding(tables, mu, tree, P, node_budget=2)
    assert res.found and res.nodes_visited == 2


def test_witness_soundness_random(cantor_small):
    p = tc.KernelParams(t=0.55, eps=0.05)
    rng = np.random.default_rng(8)
    for _ in range(4):
        tree = random_tree(int(rng.integers(2, 7)), rng)
        tables = tc.feasibility_dp(cantor_small, tree, p)
        res = tc.extract_embedding(tables, cantor_small, tree, p)
        if not res.found:
            continue
        for (i, j), gap in res.witness.gaps.items():
            direct = float(
                np.linalg.norm(
                    cantor_small.atoms[res.witness.assignment[i]]
                    - cantor_small.atoms[res.witness.assignment[j]]
                )
            )
            assert gap == pytest.approx(direct, rel=1e-15)
            assert p.inner <= direct <= p.outer
        assert res.witness.distinct


@pytest.mark.parametrize("seed", range(20))
def test_found_agrees_with_exhaustive_oracle(seed):
    rng = np.random.default_rng(500 + seed)
    n = int(rng.integers(3, 21))
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((n, 2)), weights=np.full(n, 1.0 / n))
    tree = random_tree(int(rng.integers(2, 6)), rng)
    t = float(rng.uniform(0.2, 0.8))
    params = tc.KernelParams(t=t, eps=float(rng.uniform(0.05, 0.3)) * t)
    tables = tc.feasibility_dp(mu, tree, params)
    mine = tc.extract_embedding(tables, mu, tree, params, require_distinct=True)
    assert mine.exhausted or mine.found
    assert mine.found == exhaustive_injective(mu, tree, params)


@pytest.mark.parametrize("seed", range(20))
def test_positive_integral_implies_homomorphism(seed):
    # with positive weights every map's term is positive, so the brute-force
    # integral is positive exactly when some homomorphism exists (seeds 11,
    # 12 and 16 have none)
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 12))
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((n, 2)), weights=rng.random(n) + 0.01)
    tree = random_tree(int(rng.integers(2, 5)), rng)
    t = float(rng.uniform(0.2, 0.8))
    params = tc.KernelParams(t=t, eps=0.3 * t)
    value = tc.integral_bruteforce([mu] * tree.n_vertices, tree, params).value
    assert tc.feasibility_dp(mu, tree, params).root_feasible() == (value > 0)


def _subtree_maps_with_root_at(tables, adjacent, v, p):
    """Whether some map of v's subtree into the atoms, v at atom p, sends every edge to adjacent atoms."""
    subtree = [v]
    for u in subtree:  # grows while it is walked
        subtree.extend(tables.children[u])
    for atoms in itertools.product(range(len(adjacent)), repeat=len(subtree) - 1):
        at = dict(zip(subtree, (p, *atoms)))
        if all(adjacent[at[tables.parent[u]], at[u]] for u in subtree[1:]):
            return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_feasible_tables_match_enumerated_subtree_maps(seed):
    # tiny 0.1-lattice instances, some with repeated atoms and boundary gaps:
    # the closed-form table of v must say at p whether v's subtree maps with v at p
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(1, 7))
    atoms = rng.integers(0, 4, size=(n, 2)) / 10
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(n, 1.0 / n))
    tree = random_tree(int(rng.integers(2, 6)), rng)
    k = int(rng.integers(1, 4))
    params = tc.KernelParams(t=k / 10, eps=int(rng.integers(1, 2 * k)) / 20)
    dist = tc.pair_distance(atoms[:, None, :], atoms[None, :, :])
    adjacent = (params.inner <= dist) & (dist <= params.outer)
    tables = tc.feasibility_dp(mu, tree, params)
    homomorphism = homomorphism_tables(tables, mu)
    for v in range(tree.n_vertices):
        expected = [_subtree_maps_with_root_at(tables, adjacent, v, p) for p in range(n)]
        assert homomorphism[v].tolist() == expected
    assert tables.root_feasible() == homomorphism[0].any()


def unpruned_dp(mu, tree, params):
    """Host tables by feasibility_dp's bounds with every mat-vec made, empty tables or not.

    The mat-vecs and degrees are the full-row reference matrix's.
    """
    order, parent = tree.bfs()
    children = {v: [u for u in order if parent[u] == v] for v in order}
    pairs = reference_matrix(mu.atoms, params)
    degree = np.diff(pairs.indptr)
    hosts = {}
    for v in reversed(order):
        kids = children[v]
        hosts[v] = degree >= len(kids) + (parent[v] is not None)
        for u in kids:
            hosts[v] &= pairs @ hosts[u].astype(float) > 0.0
        if len(kids) >= 2:
            union = np.logical_or.reduce([hosts[u] for u in kids])
            hosts[v] &= pairs @ union.astype(float) >= len(kids)
    return hosts


@st.composite
def dp_instances(draw):
    """Lattice atoms in d = 1-3, some duplicated, a tree with a hub, and a lattice annulus.

    The hub gets up to 8 extra leaves, past the at most 2d lattice neighbours
    an atom has, so its table and those above it empty; t up to 10 steps
    on a 4-step lattice, or a single atom, gives an empty graph.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.integers(0, 4, size=(n, d)) * 0.1
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.2]))
    atoms[dup] = atoms[rng.integers(0, n, size=dup.sum())]
    mu = tc.AtomicMeasure(d=d, atoms=atoms, weights=np.full(n, 1.0 / n))
    size = draw(st.integers(2, 7))
    seq = draw(st.lists(st.integers(0, size - 1), min_size=size - 2, max_size=size - 2))
    tree = pruefer_tree(seq, size)
    hub, extra = draw(st.integers(0, size - 1)), draw(st.integers(0, 8))
    edges = list(tree.edges) + [(hub, size + i) for i in range(extra)]
    k = draw(st.integers(1, 10))
    params = tc.KernelParams(t=k / 10, eps=draw(st.integers(1, 2 * k - 1)) / 20)
    return mu, tc.validate_tree(size + extra, edges), params


@given(instance=dp_instances())
@settings(max_examples=300, deadline=None)
def test_dp_that_skips_empty_tables_keeps_every_table(instance):
    # on graphs with both triangles, and on one-triangle graphs alike
    mu, tree, params = instance
    expected = unpruned_dp(mu, tree, params)
    for mode in (contextlib.nullcontext, one_triangle):
        with mode():
            tables = tc.feasibility_dp(mu, tree, params)
        assert tables.hosts.keys() == expected.keys()
        for v, table in expected.items():
            assert tables.hosts[v].dtype == table.dtype
            assert tables.hosts[v].tobytes() == table.tobytes()


def test_union_bound_rules_out_roots_whose_children_share_one_host():
    # each child needs 3 neighbours, which only atoms 0 and 1 have; each of
    # them is the other's one neighbour hosting a child, so the per-child
    # bounds keep both as roots and the union bound rules both out
    atoms = [[0.0], [1.0], [-1.0], [-1.0], [2.0], [2.0]]
    mu = tc.AtomicMeasure(d=1, atoms=atoms, weights=[1.0] * 6)
    tree = tc.validate_tree(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    tables = tc.feasibility_dp(mu, tree, P)
    assert tables.hosts[1].tolist() == [True, True, False, False, False, False]
    assert not tables.hosts[0].any()
    assert all(np.array_equal(tables.hosts[v], t) for v, t in unpruned_dp(mu, tree, P).items())


def test_extract_rejects_foreign_tables():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    tables = tc.feasibility_dp(mu, tc.path_tree(1), P)
    with pytest.raises(tc.ValidationError):
        tc.extract_embedding(tables, mu, tc.star_tree(2), P)


def test_search_visits_atoms_in_ascending_order():
    # a root with 4 children of 2 leaves each embeds injectively into the
    # 4-neighbour grid, the root only on one of the 9 inner atoms; with the
    # atoms shuffled, the first witness and the 2228 nodes it takes follow
    # from trying candidates in ascending atom order
    leaves = [(c, 3 + 2 * c + k) for c in range(1, 5) for k in range(2)]
    tree = tc.validate_tree(13, [(0, c) for c in range(1, 5)] + leaves)
    grid = np.array([[i, j] for i in range(5) for j in range(5)], dtype=float)
    atoms = 0.05 * grid[np.random.default_rng(3).permutation(len(grid))]
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(25, 1 / 25))
    p = tc.KernelParams(t=0.05, eps=0.01)
    tables = tc.feasibility_dp(mu, tree, p)
    assert np.flatnonzero(tables.hosts[0]).tolist() == [0, 1, 5, 8, 10, 11, 15, 17, 20]
    res = tc.extract_embedding(tables, mu, tree, p)
    assert res.found and res.nodes_visited == 2228
    assert [res.witness.assignment[v] for v in range(13)] == [
        1, 0, 5, 15, 20, 8, 18, 7, 10, 13, 17, 11, 14
    ]


def test_long_path_embeds_without_recursion():
    n = 1201
    mu = tc.AtomicMeasure(d=1, atoms=np.arange(n, dtype=float)[:, None], weights=np.full(n, 1 / n))
    tree = tc.path_tree(n - 1)
    tables = tc.feasibility_dp(mu, tree, P)
    res = tc.extract_embedding(tables, mu, tree, P)
    assert res.found and res.witness.distinct
    assert [res.witness.assignment[v] for v in range(n)] == list(range(n))
    assert res.nodes_visited == n
