"""Search for tree embeddings into the distance graph of an atomic measure.

Two atoms are adjacent at scale (t, eps) when their pair_distance lies in
the closed interval [t - eps, t + eps]: the edges of the annulus graph,
symmetric like every AnnulusGraph of one point set. A tree is 2-colourable,
so it folds onto any one edge (x, y, x, y, ...): a homomorphism exists iff
the graph has an edge. Host tables, a bottom-up DP of mat-vecs on the graph,
keep the atoms that pass degree and counting bounds every injective
embedding obeys (the local step of Matula's subtree-isomorphism DP), so
absence is often proven with no search. A witness is then extracted top-down
by backtracking with an explicit stack over the host tables (every atom with
an edge when repeats are allowed) and per-atom neighbour lists, each cached
as a Python list of ascending atom ids the first time its atom hosts a
parent, enforcing injectivity when asked. Returned witnesses are always
re-verified by direct distance recomputation, independent of the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, ValidationError
from .kernels import AnnulusGraph, KernelParams, annulus_sums, pair_distance
from .measures import AtomicMeasure
from .trees import TreeGraph

DEFAULT_NODE_BUDGET = 10**7


@dataclass
class FeasibilityTables:
    """Per-vertex boolean host tables, rooted at vertex 0.

    order is a BFS preorder from root 0 (parents precede children),
    children lists ascending. hosts[v] holds the atoms that pass every
    injective-necessary bound for v (bottom-up sweep). graph is the annulus
    graph the tables were computed on; extraction walks its neighbour lists.
    """

    tree: TreeGraph
    params: KernelParams
    order: list[int]
    parent: dict[int, int | None]
    children: dict[int, list[int]]
    hosts: dict[int, np.ndarray]
    graph: AnnulusGraph

    def root_feasible(self) -> bool:
        """True iff a (not necessarily injective) homomorphism exists: the graph has an edge."""
        return self.graph.pairs.nnz > 0


@dataclass
class EmbeddingWitness:
    assignment: dict[int, int]  # tree vertex -> atom index
    gaps: dict[tuple[int, int], float]  # tree edge -> realized distance
    distinct: bool
    params: KernelParams

    def to_record(self) -> dict:
        return {
            "assignment": {str(v): int(a) for v, a in self.assignment.items()},
            "gaps": {f"{i}-{j}": g for (i, j), g in self.gaps.items()},
            "distinct": self.distinct,
            "t": self.params.t,
            "eps": self.params.eps,
        }


@dataclass
class SearchResult:
    witness: EmbeddingWitness | None
    exhausted: bool  # full search space covered (meaningful when not found)
    nodes_visited: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def feasibility_dp(
    mu: AtomicMeasure,
    tree: TreeGraph,
    params: KernelParams,
    graph: AnnulusGraph | None = None,
) -> FeasibilityTables:
    """Per-vertex host atoms, rooted at vertex 0.

    Atom p hosts v iff its graph degree is at least v's tree degree, a
    neighbour hosts each child, and (for 2+ children) as many neighbours
    host some child as v has children: bounds every injective embedding
    obeys, one mat-vec per tree edge. The homomorphism question needs no
    table: the graph is symmetric, as every AnnulusGraph of one point set
    is, so any subtree folds onto any edge. graph is mu's annulus graph at
    params, built when not given.
    """
    adj = tree.adjacency()
    order = [0]
    parent: dict[int, int | None] = {0: None}
    children: dict[int, list[int]] = {v: [] for v in range(tree.n_vertices)}
    seen = {0}
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for u in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                parent[u] = v
                children[v].append(u)
                order.append(u)

    if graph is None:
        graph = AnnulusGraph.build(mu.atoms, params)

    def reach(table: np.ndarray) -> np.ndarray:  # per atom, its neighbours in table
        return annulus_sums(mu.atoms, table.astype(float), mu.atoms, params, graph)

    degree = np.diff(graph.pairs.indptr)
    hosts = {}
    for v in reversed(order):
        kids = children[v]
        hosts[v] = degree >= len(kids) + (parent[v] is not None)
        for u in kids:
            hosts[v] &= reach(hosts[u]) > 0.0
        if len(kids) >= 2:
            hosts[v] &= reach(np.logical_or.reduce([hosts[u] for u in kids])) >= len(kids)
    return FeasibilityTables(
        tree=tree,
        params=params,
        order=order,
        parent=parent,
        children=children,
        hosts=hosts,
        graph=graph,
    )


def verify_witness(
    witness: EmbeddingWitness,
    mu: AtomicMeasure,
    tree: TreeGraph,
    require_distinct: bool,
) -> None:
    """Recheck all edge gaps by direct distance computation; raise on failure."""
    a = witness.assignment
    for i, j in tree.edges:
        gap = float(pair_distance(mu.atoms[a[i]], mu.atoms[a[j]]))
        if not witness.params.contains(gap):
            raise InternalConsistencyError(
                f"edge ({i},{j}) realized gap {gap} outside the annulus"
            )
    if require_distinct:
        atoms_used = list(witness.assignment.values())
        if len(set(atoms_used)) != len(atoms_used):
            raise InternalConsistencyError("witness is not injective")


def extract_embedding(
    tables: FeasibilityTables,
    mu: AtomicMeasure,
    tree: TreeGraph,
    params: KernelParams,
    require_distinct: bool = True,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Top-down backtracking over the hosts tables (with repeats, every atom with an edge).

    Atoms are tried in ascending index order; with require_distinct a
    used-set rules out repeats. hosts prunes only dead branches, so the
    witness is the one a walk of every atom with an edge would find first.
    Returns the first witness, or a not-found result whose `exhausted` flag
    tells proven absence apart from a spent node budget; a spent budget
    reports exactly node_budget nodes visited.
    """
    if tables.tree != tree or tables.params != params or tables.graph.pairs.shape[0] != len(mu):
        raise ValidationError("tables were built for a different instance")
    if node_budget < 1:
        raise ValidationError(f"node_budget must be >= 1, got {node_budget}")
    if require_distinct:
        tables_searched = tables.hosts
    else:  # every subtree folds onto an edge at any atom that has one
        tables_searched = dict.fromkeys(tables.order, np.diff(tables.graph.pairs.indptr) > 0)
    if not tables_searched[0].any():
        return SearchResult(witness=None, exhausted=True, nodes_visited=0)
    # Python lists indexed by stack position, so visiting a node makes no numpy call
    order = tables.order
    allowed = [tables_searched[v].tolist() for v in order]
    position = {v: pos for pos, v in enumerate(order)}
    parent_pos = [position.get(tables.parent[v]) for v in order]
    indptr, indices = tables.graph.pairs.indptr.tolist(), tables.graph.pairs.indices
    neighbours: dict[int, list[int]] = {}  # atom -> ascending neighbour ids, once it hosts a parent
    placed = [-1] * len(order)  # atom at each stack position, -1 while unplaced
    used = bytearray(len(mu))  # marks the placed atoms when require_distinct

    def candidates(pos: int) -> list[int]:
        ok = allowed[pos]
        if pos == 0:
            return [a for a, good in enumerate(ok) if good]
        a = placed[parent_pos[pos]]
        nb = neighbours.get(a)
        if nb is None:
            nb = neighbours[a] = indices[indptr[a] : indptr[a + 1]].tolist()
        return [b for b in nb if ok[b] and not used[b]]

    # stack[pos] iterates the candidates for order[pos], computed when the
    # search first reached pos; the top entry is the vertex being placed
    witness = None
    nodes = 0
    budget_hit = False
    stack = [iter(candidates(0))]
    while stack:
        pos = len(stack) - 1
        if placed[pos] >= 0:  # back from the subtree below: undo this choice
            used[placed[pos]] = 0
            placed[pos] = -1
        atom = next(stack[-1], None)
        if atom is None:
            stack.pop()
            continue
        if nodes == node_budget:
            budget_hit = True
            break
        nodes += 1
        placed[pos] = atom
        used[atom] = require_distinct
        if pos + 1 < len(order):
            stack.append(iter(candidates(pos + 1)))
            continue
        assignment = dict(zip(order, placed))
        gaps = {
            (i, j): float(pair_distance(mu.atoms[assignment[i]], mu.atoms[assignment[j]]))
            for i, j in tree.edges
        }
        witness = EmbeddingWitness(
            assignment=assignment,
            gaps=gaps,
            distinct=len(set(placed)) == len(placed),
            params=params,
        )
        break

    if witness is not None:
        verify_witness(witness, mu, tree, require_distinct)
    return SearchResult(
        witness=witness, exhausted=not budget_hit and witness is None, nodes_visited=nodes
    )
