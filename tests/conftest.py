"""Shared fixtures: Cantor product measures, seeded trees, naive oracles."""

from __future__ import annotations

import heapq
import math

import numpy as np
import pytest

import treeconfig as tc

# 4-map product Cantor with similarity dimension log 4 / log(1/r) = 1.8454,
# above the (d+1)/2 = 1.5 threshold the uniform bounds need in the plane.
ACCEPT_RATIO = 0.47179
# The sparser variant used by the worked module examples (dimension 1.1514).
SMALL_RATIO = 0.3


def product_cantor_spec(ratio: float, depth: int) -> tc.IFSSpec:
    g = 1.0 - ratio
    return tc.IFSSpec(
        d=2,
        maps=[
            (ratio, (0.0, 0.0)),
            (ratio, (g, 0.0)),
            (ratio, (0.0, g)),
            (ratio, (g, g)),
        ],
        depth=depth,
    )


def pruefer_tree(seq: list[int], n: int) -> tc.TreeGraph:
    """Decode a Pruefer sequence (length n-2) into a tree on n vertices."""
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    heap = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        u = heapq.heappop(heap)
        edges.append((u, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(heap, v)
    edges.append((heapq.heappop(heap), heapq.heappop(heap)))
    return tc.validate_tree(n, edges)


def random_tree(n: int, rng: np.random.Generator) -> tc.TreeGraph:
    if n == 2:
        return tc.path_tree(1)
    return pruefer_tree(list(rng.integers(0, n, size=n - 2)), n)


def naive_field(source: tc.AtomicMeasure, queries, params: tc.KernelParams):
    """O(n*q) convolution, one query at a time with a per-row fsum; the graph's oracle.

    Uses kernel_weight's own predicate, pair_distance(q - a, 0.0) against the
    closed annulus, vectorized over the source atoms.
    """
    out = []
    for q in np.asarray(queries, dtype=float):
        r = tc.pair_distance(q - source.atoms, 0.0)
        inside = (r >= params.inner) & (r <= params.outer)
        out.append(math.fsum(np.where(inside, source.weights * params.weight, 0.0)))
    return np.array(out)


def homomorphism_tables(tables: tc.FeasibilityTables) -> dict[int, np.ndarray]:
    """Closed form of the homomorphism tables: every atom for a leaf, else every atom with an edge.

    A tree is 2-colourable and every annulus graph is symmetric, so v's
    subtree folds onto any edge at v's atom.
    """
    degree = np.diff(tables.graph.pairs.indptr)
    return {v: degree >= (1 if kids else 0) for v, kids in tables.children.items()}


def exhaustive_injective(mu: tc.AtomicMeasure, tree: tc.TreeGraph, params) -> bool:
    """Oracle: try every injective vertex->atom map over the adjacency lists.

    Independent of the feasibility tables; prunes only by already-placed
    neighbors, which discards provably dead branches and nothing else.
    """
    n = len(mu)
    adj = np.zeros((n, n), dtype=bool)
    for a in range(n):
        d = tc.pair_distance(mu.atoms, mu.atoms[a])
        adj[a] = (d >= params.inner) & (d <= params.outer)
    placed_edges = [
        [(i, j) for (i, j) in tree.edges if max(i, j) == v]
        for v in range(tree.n_vertices)
    ]

    def rec(v, chosen):
        if v == tree.n_vertices:
            return True
        for atom in range(n):
            if atom in chosen.values():
                continue
            others = [i if j == v else j for i, j in placed_edges[v]]
            if all(adj[chosen[o], atom] for o in others):
                chosen[v] = atom
                if rec(v + 1, chosen):
                    return True
                del chosen[v]
        return False

    return rec(0, {})


@pytest.fixture(scope="session")
def cantor_small():
    """r=0.3 product at depth 5: the worked-example measure (1024 atoms)."""
    return tc.build_ifs_measure(product_cantor_spec(SMALL_RATIO, 5))


@pytest.fixture(scope="session")
def cantor_small_deep():
    """r=0.3 product at depth 6 for the mass-growth fit example."""
    return tc.build_ifs_measure(product_cantor_spec(SMALL_RATIO, 6))


@pytest.fixture(scope="session")
def cantor_accept():
    """Acceptance measure: 4-map product at depth 6, dimension 1.8454."""
    return tc.build_ifs_measure(product_cantor_spec(ACCEPT_RATIO, 6))


@pytest.fixture(scope="session")
def accept_config():
    """Canonical acceptance scan grid: t in [0.4, 0.8], 5-halving eps ladder."""
    return tc.ScanConfig(t_min=0.4, t_max=0.8, t_steps=5, eps0=0.08, halvings=5)


@pytest.fixture(scope="session")
def path5_report(cantor_accept, accept_config):
    return tc.scan_interval(accept_config, measure=cantor_accept, tree=tc.path_tree(4))


@pytest.fixture(scope="session")
def star5_report(cantor_accept, accept_config):
    return tc.scan_interval(accept_config, measure=cantor_accept, tree=tc.star_tree(4))
