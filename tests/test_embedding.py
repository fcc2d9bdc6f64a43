import numpy as np
import pytest

import treeconfig as tc
from conftest import exhaustive_injective, random_tree

P = tc.KernelParams(t=1.0, eps=0.1)


def test_dp_pair_single_edge():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    tables = tc.feasibility_dp(mu, tc.path_tree(1), P)
    assert tables.feasible[0].all() and tables.feasible[1].all()
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
    assert tables.feasible[1][1]


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


@pytest.mark.parametrize("seed", range(10))
def test_positive_integral_implies_homomorphism(seed):
    rng = np.random.default_rng(300 + seed)
    n = int(rng.integers(2, 12))
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((n, 2)), weights=rng.random(n) + 0.01)
    tree = random_tree(int(rng.integers(2, 5)), rng)
    t = float(rng.uniform(0.2, 0.8))
    params = tc.KernelParams(t=t, eps=0.3 * t)
    value = tc.integral_bruteforce([mu] * tree.n_vertices, tree, params).value
    if value > 0:
        assert tc.feasibility_dp(mu, tree, params).root_feasible()


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
