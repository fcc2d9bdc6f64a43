"""Trees on k+1 vertices and their leaf-peeling elimination schedules.

A peel schedule removes the current degree-1 vertices round by round,
recording for each round which host vertex absorbs how many of them, until
a single edge remains. That terminal edge, together with the per-vertex
record of the last round each endpoint hosted, is what the configuration
integral needs to place its final double sum.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass

from .errors import ValidationError


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

    def to_dict(self) -> dict:
        return {"n": self.n_vertices, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_dict(cls, obj: dict) -> "TreeGraph":
        try:
            return validate_tree(int(obj["n"]), obj["edges"])
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
    # edge count is right, so connectivity alone rules out cycles
    adj = defaultdict(set)
    for i, j in canon:
        adj[i].add(j)
        adj[j].add(i)
    stack, reached = [0], {0}
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in reached:
                reached.add(u)
                stack.append(u)
    if len(reached) != n_vertices:
        missing = sorted(set(range(n_vertices)) - reached)
        raise ValidationError(f"graph is disconnected (unreached: {missing})")
    return TreeGraph(n_vertices=n_vertices, edges=tuple(sorted(canon)))


@dataclass(frozen=True)
class SubTree:
    """A remaining tree on a subset of the original vertex ids."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class PeelRound:
    """One elimination round: removed degree-1 vertices and their hosts.

    attachments lists (host, multiplicity) pairs, host ids ascending;
    multiplicities sum to len(isolated). leaf_hosts keeps the per-leaf
    host, ascending by leaf id.
    """

    isolated: tuple[int, ...]
    attachments: tuple[tuple[int, int], ...]
    leaf_hosts: tuple[tuple[int, int], ...]
    remaining: SubTree


@dataclass(frozen=True)
class TerminalPair:
    """Final edge (z1, z2) with the last host round j1 <= j2 of each endpoint."""

    z1: int
    z2: int
    j1: int
    j2: int


@dataclass(frozen=True)
class PeelSchedule:
    tree: TreeGraph
    rounds: tuple[PeelRound, ...]
    terminal: TerminalPair

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)

    @property
    def required_depth(self) -> int:
        """Nested-stage depth the restricted integral needs: the deepest vertex stage."""
        return max(self.vertex_stages().values())

    def vertex_stages(self) -> dict[int, int]:
        """Stage per original vertex: the last round it hosted, 0 if never.

        When both terminal endpoints share a stage, z2 is moved one stage
        deeper. A leaf peeled in round j has stage j - 1.
        """
        stages = {v: 0 for v in range(self.tree.n_vertices)}
        for j, rnd in enumerate(self.rounds, start=1):
            for host, _ in rnd.attachments:
                stages[host] = j
        if self.terminal.j1 == self.terminal.j2:
            stages[self.terminal.z2] += 1
        return stages


def compute_peel_schedule(tree: TreeGraph) -> PeelSchedule:
    """Deterministic leaf peeling, ascending vertex ids everywhere.

    Each round removes every current degree-1 vertex, except that when doing
    so would leave fewer than 2 vertices, the lowest-id leaf is retained so
    the process always terminates at a single edge.
    """
    adj = tree.adjacency()
    alive = set(range(tree.n_vertices))
    host_stage: dict[int, int] = {}
    rounds: list[PeelRound] = []

    while True:
        if len(alive) == 2:
            a, b = sorted(alive)
            break
        leaves = sorted(v for v in alive if len(adj[v]) == 1)
        if len(alive) - len(leaves) < 2:
            peeled = leaves[1:]  # retain the lowest-id leaf
        else:
            peeled = leaves
        counts: dict[int, int] = defaultdict(int)
        leaf_hosts = []
        for v in peeled:
            (host,) = adj[v]
            counts[host] += 1
            leaf_hosts.append((v, host))
        for v, host in leaf_hosts:
            adj[host].discard(v)
            del adj[v]
            alive.discard(v)
        j = len(rounds) + 1
        for host in counts:
            host_stage[host] = j
        remaining = SubTree(
            vertices=tuple(sorted(alive)),
            edges=tuple(
                sorted((min(v, u), max(v, u)) for v in alive for u in adj[v] if v < u)
            ),
        )
        rounds.append(
            PeelRound(
                isolated=tuple(peeled),
                attachments=tuple(sorted((h, c) for h, c in counts.items())),
                leaf_hosts=tuple(leaf_hosts),
                remaining=remaining,
            )
        )

    ja, jb = host_stage.get(a, 0), host_stage.get(b, 0)
    if ja <= jb:
        terminal = TerminalPair(z1=a, z2=b, j1=ja, j2=jb)
    else:
        terminal = TerminalPair(z1=b, z2=a, j1=jb, j2=ja)
    return PeelSchedule(tree=tree, rounds=tuple(rounds), terminal=terminal)
