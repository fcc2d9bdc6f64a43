"""Trees on k+1 vertices and their leaf-peeling elimination schedules.

A peel schedule removes the current degree-1 vertices round by round,
recording for each round which host vertex absorbs how many of them, until
a single edge remains. That terminal edge, together with each vertex's
stage (the last round it hosted), is what the configuration integral needs
to place its final double sum.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from .errors import ValidationError, json_int


@dataclass(frozen=True)
class TreeGraph:
    """Tree on n_vertices >= 2 vertices; edges canonical as sorted (i, j), i < j."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        """Edge count (the chain length when the tree is a path)."""
        return self.n_vertices - 1

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(self.n_vertices)}
        for i, j in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    def bfs(self) -> tuple[list[int], list[int | None]]:
        """Preorder from vertex 0, neighbours ascending, and each vertex's parent.

        A vertex 0 does not reach is missing from the preorder; it and the
        root have parent None.
        """
        adj = self.adjacency()
        order = [0]
        parent: list[int | None] = [None] * self.n_vertices
        for v in order:  # the loop also visits the vertices it appends
            for u in sorted(adj[v]):
                if u != 0 and parent[u] is None:
                    parent[u] = v
                    order.append(u)
        return order, parent

    def to_dict(self) -> dict:
        return {"n": self.n_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, obj: dict) -> "TreeGraph":
        try:
            edges = [[json_int(i, "edge vertex") for i in e] for e in obj["edges"]]
            return validate_tree(json_int(obj["n"], "n"), edges)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed tree file: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)

    @classmethod
    def load(cls, path) -> "TreeGraph":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def path_tree(k: int) -> TreeGraph:
    """The k-chain: path on k+1 vertices 0-1-...-k."""
    if k < 1:
        raise ValidationError("a chain needs k >= 1")
    return validate_tree(k + 1, [(i, i + 1) for i in range(k)])


def star_tree(n_leaves: int) -> TreeGraph:
    """Star with center 0 and leaves 1..n_leaves."""
    if n_leaves < 1:
        raise ValidationError("a star needs at least one leaf")
    return validate_tree(n_leaves + 1, [(0, i) for i in range(1, n_leaves + 1)])


def validate_tree(n_vertices: int, edges) -> TreeGraph:
    """Canonicalize and check the tree axioms, naming any violation."""
    if n_vertices < 2:
        raise ValidationError(f"need at least 2 vertices, got {n_vertices}")
    canon = []
    seen = set()
    for e in edges:
        i, j = map(int, e)
        if i == j:
            raise ValidationError(f"self-loop at vertex {i}")
        if not (0 <= i < n_vertices and 0 <= j < n_vertices):
            raise ValidationError(f"edge ({i}, {j}) out of vertex range")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ValidationError(f"duplicate edge {pair}")
        seen.add(pair)
        canon.append(pair)
    if len(canon) != n_vertices - 1:
        raise ValidationError(
            f"edge count {len(canon)} != {n_vertices - 1} (vertices - 1)"
        )
    tree = TreeGraph(n_vertices=n_vertices, edges=tuple(sorted(canon)))
    # edge count is right, so connectivity alone rules out cycles
    order, _ = tree.bfs()
    if len(order) != n_vertices:
        missing = sorted(set(range(n_vertices)) - set(order))
        raise ValidationError(f"graph is disconnected (unreached: {missing})")
    return tree


@dataclass(frozen=True)
class PeelRound:
    """One elimination round: the peeled degree-1 vertices and their hosts.

    leaf_hosts lists (leaf, host) pairs, ascending by leaf id. attachments
    lists (host, multiplicity) pairs, host ids ascending; multiplicities sum
    to len(leaf_hosts).
    """

    attachments: tuple[tuple[int, int], ...]
    leaf_hosts: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PeelSchedule:
    """Peel rounds, the final edge (z1, z2) and the stage of every vertex.

    stages[v] is the last round v hosted, 0 if never, so a leaf peeled in
    round j has stage j - 1. The terminal ends are ordered so that
    stages[z1] < stages[z2]: when both last hosted in the same round, z2 is
    moved one stage deeper.
    """

    tree: TreeGraph
    rounds: tuple[PeelRound, ...]
    terminal: tuple[int, int]
    stages: tuple[int, ...]

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def required_depth(self) -> int:
        """Nested-stage depth the restricted integral needs: the deepest vertex stage."""
        return max(self.stages)


def compute_peel_schedule(tree: TreeGraph) -> PeelSchedule:
    """Deterministic leaf peeling, ascending vertex ids everywhere.

    Each round removes every current degree-1 vertex, except that when doing
    so would leave fewer than 2 vertices, the lowest-id leaf is retained so
    the process always terminates at a single edge. Only a round's hosts can
    become the next round's leaves, so each vertex is looked at O(1) times
    and the sorts cost O(n log n) in all.
    """
    adj = tree.adjacency()  # the live vertices and their live neighbours
    leaves = [v for v in range(tree.n_vertices) if len(adj[v]) == 1]
    stages = [0] * tree.n_vertices
    rounds: list[PeelRound] = []
    while len(adj) > 2:
        if len(adj) - len(leaves) < 2:
            leaves = leaves[1:]  # retain the lowest-id leaf
        counts: dict[int, int] = defaultdict(int)
        leaf_hosts = []
        for v in leaves:
            (host,) = adj.pop(v)
            adj[host].discard(v)
            counts[host] += 1
            leaf_hosts.append((v, host))
        attachments = tuple(sorted(counts.items()))
        for host, _ in attachments:
            stages[host] = len(rounds) + 1
        rounds.append(PeelRound(attachments=attachments, leaf_hosts=tuple(leaf_hosts)))
        leaves = [host for host, _ in attachments if len(adj[host]) == 1]

    z1, z2 = sorted(adj, key=lambda v: (stages[v], v))
    if stages[z1] == stages[z2]:
        stages[z2] += 1
    return PeelSchedule(
        tree=tree, rounds=tuple(rounds), terminal=(z1, z2), stages=tuple(stages)
    )
