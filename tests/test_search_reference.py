"""The witness search against a numpy reference of the same backtracking.

reference_search is the search as it stood with numpy candidate arrays
(flatnonzero at the root, a boolean mask over the CSR neighbour slice below
it, a used-array mask for injectivity), with the node count stopping at
exactly node_budget. extract_embedding walks plain Python lists instead; given
the table it walks, it must visit the same nodes in the same order, so every
outcome field agrees. With repeats allowed, extract_embedding admits every
atom with an edge at every vertex, and the reference walks the homomorphism
tables (every atom at a leaf): the candidates below the root come from
neighbour lists, so both visit the same nodes. Walking the host tables in
place of the homomorphism tables must lose no injective witness, change none
and visit no more nodes.
"""

import contextlib
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import treeconfig as tc
from conftest import (
    exhaustive_injective,
    homomorphism_tables,
    one_triangle,
    pruefer_tree,
    reference_matrix,
)


def reference_search(tables, table, mu, require_distinct, node_budget):
    """(assignment or None, exhausted, nodes_visited) of the numpy search over table.

    Its neighbour lists are the rows of the full-row reference matrix.
    """
    order = tables.order
    pairs = reference_matrix(mu.atoms, tables.graph.params)
    indptr, indices = pairs.indptr, pairs.indices
    assignment = {}
    used = np.zeros(len(mu), dtype=bool)

    def candidates(pos):
        v = order[pos]
        p = tables.parent[v]
        if p is None:
            cand = np.flatnonzero(table[v])
        else:
            a = assignment[p]
            nb = indices[indptr[a] : indptr[a + 1]]
            cand = nb[table[v][nb]]
        if require_distinct and cand.size:
            cand = cand[~used[cand]]
        return cand.tolist()

    nodes = 0
    stack = [iter(candidates(0))]
    while stack:
        v = order[len(stack) - 1]
        if v in assignment:
            used[assignment.pop(v)] = False
        atom = next(stack[-1], None)
        if atom is None:
            stack.pop()
            continue
        if nodes == node_budget:
            return None, False, nodes
        nodes += 1
        assignment[v] = atom
        used[atom] = True
        if len(stack) < len(order):
            stack.append(iter(candidates(len(stack))))
            continue
        return dict(assignment), False, nodes
    return None, True, nodes


@st.composite
def search_instances(draw):
    d = draw(st.integers(1, 3))
    cell = st.tuples(*[st.integers(0, 3)] * d)
    cells = draw(st.lists(cell, min_size=2, max_size=25))
    # repeat some drawn cells so the measure has duplicate atoms
    cells += draw(st.lists(st.sampled_from(cells), min_size=1, max_size=5))
    mu = tc.AtomicMeasure(d=d, atoms=np.array(cells) / 10, weights=np.ones(len(cells)))
    n_vertices = draw(st.integers(2, 7))
    pruefer = st.integers(0, n_vertices - 1)
    seq = draw(st.lists(pruefer, min_size=n_vertices - 2, max_size=n_vertices - 2))
    k = draw(st.integers(1, 3))
    params = tc.KernelParams(t=k / 10, eps=draw(st.integers(1, 2 * k - 1)) / 20)
    return mu, pruefer_tree(seq, n_vertices), params


@given(instance=search_instances())
@settings(max_examples=200, deadline=None)
def test_search_matches_numpy_reference(instance):
    # on graphs with both triangles, and on one-triangle graphs, whose
    # neighbour lists join an atom's row and its column
    mu, tree, params = instance
    for mode in (contextlib.nullcontext, one_triangle):
        with mode():
            tables = tc.feasibility_dp(mu, tree, params)
        homomorphism = homomorphism_tables(tables, mu)
        for require_distinct, table in ((True, tables.hosts), (False, homomorphism)):
            for budget in (1, 7, 10**6):
                res = tc.extract_embedding(tables, mu, tree, params, require_distinct, budget)
                assignment, exhausted, nodes = reference_search(
                    tables, table, mu, require_distinct, budget
                )
                assert res.found == (assignment is not None)
                assert (res.witness and res.witness.assignment) == assignment
                assert res.exhausted == exhausted
                assert res.nodes_visited == nodes <= budget


@given(instance=search_instances())
@settings(max_examples=200, deadline=None)
def test_host_tables_lose_no_witness(instance):
    mu, tree, params = instance
    tables = tc.feasibility_dp(mu, tree, params)
    homomorphism = homomorphism_tables(tables, mu)
    for v in range(tree.n_vertices):
        assert not (tables.hosts[v] & ~homomorphism[v]).any()
    res = tc.extract_embedding(tables, mu, tree, params)
    assert res.exhausted or res.found
    assert res.found == exhaustive_injective(mu, tree, params)
    assignment, _, nodes = reference_search(tables, homomorphism, mu, True, 10**6)
    assert (res.witness and res.witness.assignment) == assignment
    assert res.nodes_visited <= nodes


def lattice_broom_instance(seed: int):
    """The 8x8 lattice at spacing 0.05, offset and shuffled by seed, and the broom."""
    rng = np.random.default_rng(seed)
    grid = np.array([[i, j] for i in range(8) for j in range(8)], dtype=float)
    atoms = rng.uniform(0.0, 0.5, size=2) + 0.05 * grid
    atoms = atoms[rng.permutation(len(atoms))]
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(64, 1 / 64))
    broom = tc.validate_tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (4, 8)])
    return mu, broom, tc.KernelParams(t=0.05, eps=0.01)


def test_lattice_broom_tables_need_no_mat_vec(monkeypatch):
    # vertex 4's table is empty from the degree bound alone, its leaves need
    # no mat-vec, and an empty child empties each vertex on the path above it
    calls = []

    def counted(*args):
        calls.append(args)
        return tc.annulus_sums(*args)

    monkeypatch.setattr("treeconfig.embedding.annulus_sums", counted)
    mu, broom, p = lattice_broom_instance(0)
    tables = tc.feasibility_dp(mu, broom, p)
    assert not calls
    assert tables.root_feasible() and not any(tables.hosts[v].any() for v in range(5))


def test_lattice_broom_proven_absent_in_44448_nodes():
    # the broom's degree-5 vertex has at most 4 lattice neighbours, so no
    # injective embedding exists; a search of the homomorphism tables proves
    # it in the same number of nodes whatever the atom order, while the
    # host tables rule out every atom for that vertex and need no search;
    # extraction walking the homomorphism tables of a one-triangle graph
    # takes the same 44,448 nodes
    for seed in (0, 1, 2):
        mu, broom, p = lattice_broom_instance(seed)
        tables = tc.feasibility_dp(mu, broom, p)
        assert tables.root_feasible() and not tables.hosts[4].any()
        res = tc.extract_embedding(tables, mu, broom, p)
        assert (res.found, res.exhausted, res.nodes_visited) == (False, True, 0)
        homomorphism = homomorphism_tables(tables, mu)
        assert reference_search(tables, homomorphism, mu, True, 10**7) == (None, True, 44_448)
        with one_triangle():
            tables = tc.feasibility_dp(mu, broom, p)
        assert tables.graph.lower
        res = tc.extract_embedding(replace(tables, hosts=homomorphism), mu, broom, p)
        assert (res.found, res.exhausted, res.nodes_visited) == (False, True, 44_448)
