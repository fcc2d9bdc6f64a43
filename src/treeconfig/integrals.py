"""Tree-configuration integrals of atomic measures against the annulus kernel.

The integral attaches one measure variable to each tree vertex and one
kernel factor to each edge:

    value = sum over atom tuples (a_0, ..., a_k) of
            prod_{(i,j) in edges} kernel(x_{a_i} - x_{a_j}) * prod_v w_{a_v}.

Two evaluators are provided. The brute-force one forms every product term
and is the oracle: with a leaf ordered last, it enumerates prefix tuples in
blocks and broadcasts the remaining vertices but the leaf as dense tensor
axes, and one matrix product with the leaf edge's factor forms and sums a
block's terms, at most _CHUNK of them unless the leaf edge alone has more;
the term_cap check bounds the total. Each vertex weight is folded into one
edge factor. The peel evaluator eliminates vertices along a leaf-peeling
schedule, accumulating per-vertex message fields, and reorganizes exactly
the same sum, so the two agree to float reassociation error. With a nested
good-set chain supplied, each vertex v integrates against mu with zero
weight off stage schedule.stages[v], which equals brute force computed with
each vertex's measure replaced by its stage restriction; without one, every
stage is all of mu and every round's field is mu's, so both run one peel.
Adding an exact 0.0 leaves a float sum unchanged, so every message stays a
mat-vec on the one annulus graph of the scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceCapError, ValidationError
from .kernels import AnnulusGraph, KernelParams, annulus_sums, pair_distance
from .measures import AtomicMeasure, finite_fsum
from .pigeonhole import GoodSetChain
from .trees import PeelSchedule, TreeGraph, compute_peel_schedule, path_tree

DEFAULT_TERM_CAP = 10**7
_CHUNK = 500_000


@dataclass
class StageStats:
    """Min/max of the pure host-factor field powers seen in one peel round."""

    label: str
    factor_min: float
    factor_max: float

    def to_record(self) -> dict:
        return {
            "label": self.label,
            "factor_min": self.factor_min,
            "factor_max": self.factor_max,
        }


@dataclass
class IntegralResult:
    value: float
    method: str  # "oracle" | "peel"
    stage_log: list[StageStats]
    params: KernelParams

    def __post_init__(self):
        if not (self.value >= 0 and math.isfinite(self.value)):
            raise ValidationError(f"integral value must be finite >= 0, got {self.value}")

    def to_record(self, tree_label: str = "") -> dict:
        return {
            "t": self.params.t,
            "eps": self.params.eps,
            "tree_label": tree_label,
            "method": self.method,
            "value": self.value,
            "stage_log": [s.to_record() for s in self.stage_log],
        }


def integral_bruteforce(
    mu_per_vertex: list[AtomicMeasure],
    tree: TreeGraph,
    params: KernelParams,
    term_cap: int = DEFAULT_TERM_CAP,
) -> IntegralResult:
    """Literal enumeration of all atom tuples; the correctness oracle.

    Accepts one measure per vertex so restricted variants can be checked
    directly. The number of product terms (product of atom counts) must
    stay under term_cap.

    Every term is formed and summed. The vertices are relabelled so that a
    leaf v is k-1 and its neighbour u is k-2, then split into a prefix
    0..s-1 and the longest tail s..k-1 whose tuples number at most _CHUNK;
    the tail always holds u and v. Each edge's kernel matrix, times the
    weights of the vertices it is the first edge of, is one factor; the edge
    (u, v) comes last, so it carries v's weight. For a block of P prefix
    tuples the k-2 other factors, gathered on their prefix axes and
    broadcast over their tail axes, give a partial block of shape
    (P, n_s, ..., n_u), 1/n_v of the block. The matrix product of its rows
    with the leaf factor, which contracts the u axis, forms each of the
    block's terms once; the product holds 1/n_u of the block. A block has
    at most _CHUNK terms, or is one prefix tuple when n_u * n_v alone
    exceeds _CHUNK, so neither array is larger than _CHUNK or the leaf
    factor, and memory stays bounded. Each product is summed with np.sum,
    and the block sums with math.fsum.
    """
    if len(mu_per_vertex) != tree.n_vertices:
        raise ValidationError(
            f"need one measure per vertex: {len(mu_per_vertex)} != {tree.n_vertices}"
        )
    dims = {m.d for m in mu_per_vertex}
    if len(dims) != 1:
        raise ValidationError(f"measures live in different dimensions: {sorted(dims)}")
    n_terms = math.prod(len(m) for m in mu_per_vertex)
    if n_terms > term_cap:
        raise ResourceCapError(
            f"enumeration needs {n_terms} product terms, over the cap of {term_cap}"
        )

    # Relabel so that a leaf v comes last and its neighbour u just before
    # it, k-1 and k-2; the sum does not change under a relabel.
    k = tree.n_vertices
    adj = tree.adjacency()
    v = max(w for w in range(k) if len(adj[w]) == 1)
    (u,) = adj[v]
    order = [w for w in range(k) if w not in (u, v)] + [u, v]
    label = {w: i for i, w in enumerate(order)}
    measures = [mu_per_vertex[w] for w in order]
    counts = [len(m) for m in measures]

    # One factor per edge kernel, with its vertex axes in ascending order.
    # Each vertex weight is folded into the first edge that touches it (a
    # tree has at least one edge), so a term is a product of k-1 factors.
    # The edge (k-2, k-1) sorts last, so it carries v's weight.
    factors, folded = [], set()
    for i, j in sorted(tuple(sorted((label[i], label[j]))) for i, j in tree.edges):
        a, b = measures[i], measures[j]
        dist = pair_distance(a.atoms[:, None, :], b.atoms[None, :, :])
        factor = params.contains(dist) * params.weight
        if i not in folded:
            factor = factor * a.weights[:, None]
        if j not in folded:
            factor = factor * b.weights[None, :]
        folded.update((i, j))
        factors.append(((i, j), factor))
    *factors, (_, leaf_factor) = factors

    # The tail vertices s..k-1 span a dense block of at most _CHUNK tuples
    # (the leaf edge's n_u * n_v when that alone exceeds it) and 31 axes;
    # the prefix tuples are decoded from a linear index, `block` at a time.
    fits = (s for s in range(k - 1) if math.prod(counts[s:]) <= _CHUNK and k - s <= 31)
    s = next(fits, k - 2)
    n_prefix, tail_shape = math.prod(counts[:s]), counts[s:]
    block = max(1, _CHUNK // math.prod(tail_shape))
    strides = [math.prod(counts[w + 1 : s]) for w in range(s)]
    chunk_sums = []
    for start in range(0, n_prefix, block):
        lin = np.arange(start, min(start + block, n_prefix), dtype=np.int64)
        idx = [(lin // strides[w]) % counts[w] for w in range(s)]
        term = 1.0
        for axes, arr in factors:
            # gather the prefix axes onto the block axis, broadcast the tail axes
            gathered = arr[tuple(idx[w] for w in axes if w < s)]
            shape = [len(lin) if axes[0] < s else 1]
            shape += [counts[w] if w in axes else 1 for w in range(s, k - 1)]
            term = term * gathered.reshape(shape)
        # the leaf factor contracts the partial block's u axis: one
        # (rows x n_u) @ (n_u x n_v) product forms each term once; a one-edge
        # tree's partial is a broadcast 1.0, copied since numpy's matmul
        # leaves a stride-0 operand to a loop many times slower than BLAS
        partial = np.ascontiguousarray(np.broadcast_to(term, [len(lin), *counts[s : k - 1]]))
        products = partial.reshape(-1, counts[k - 2]) @ leaf_factor
        chunk_sums.append(float(np.sum(products)))
    return IntegralResult(
        value=math.fsum(chunk_sums), method="oracle", stage_log=[], params=params
    )


def integral_peel(
    mu: AtomicMeasure,
    schedule: PeelSchedule,
    params: KernelParams,
    good_chain: GoodSetChain | None = None,
    graph: AnnulusGraph | None = None,
) -> IntegralResult:
    """Evaluate the integral by leaf elimination along the schedule.

    Unrestricted (good_chain=None) this reorganizes the brute-force sum
    exactly. With a chain, vertex v integrates against mu with zero weight
    off stage schedule.stages[v]; the chain must have depth >=
    schedule.required_depth and matching parameters. graph is mu's annulus
    graph at params, built when not given; every message is a mat-vec on
    the whole of it, since the zero weights drop out of its sums exactly.
    Messages stay products of fields and meet a weight only where used.
    Three inputs are picked once, from the chain or else from mu: each
    vertex's weights (good_chain.on_stage), each stage's atoms
    (good_chain.stage_indices) and each round's pure field (the chain's
    fields as stored, or mu's field, computed once).
    """
    if graph is None:
        graph = AnnulusGraph.build(mu.atoms, params)

    def field(values: np.ndarray) -> np.ndarray:
        return annulus_sums(mu.atoms, values, mu.atoms, params, graph) * params.weight

    stages, depth = schedule.stages, schedule.required_depth
    if good_chain is None:
        weights = [mu.weights] * len(stages)
        atoms = [slice(None)] * (depth + 1)
        fields = [field(mu.weights)] * depth
    else:
        if good_chain.params != params:
            raise ValidationError("good-set chain was built with different parameters")
        if good_chain.n_atoms != len(mu):
            raise ValidationError("good-set chain belongs to a different measure")
        if good_chain.depth < depth:
            raise ValidationError(f"chain depth {good_chain.depth} < required {depth}")
        weights = [good_chain.on_stage(s, mu.weights) for s in stages]
        atoms = [good_chain.stage_indices(s) for s in range(depth + 1)]
        fields = good_chain.fields

    # message[v][a]: product of eliminated-subtree factors with v at atom a;
    # a vertex without one is still pristine (message == 1)
    messages: dict[int, np.ndarray] = {}
    stage_log: list[StageStats] = []
    for j, rnd in enumerate(schedule.rounds, start=1):
        # round j's pure field; a chain's is zero off stage j, which drops
        # nothing, as every host of round j has stage >= j
        pure = fields[j - 1]
        at_stage = pure[atoms[j]]
        fmin, fmax = math.inf, -math.inf
        for host, mult in rnd.attachments:
            powered = at_stage**mult
            fmin = min(fmin, float(powered.min()))
            fmax = max(fmax, float(powered.max()))
        stage_log.append(StageStats(f"round{j}", fmin, fmax))

        for v, host in rnd.leaf_hosts:
            contrib = field(weights[v] * messages.pop(v)) if v in messages else pure
            messages[host] = messages[host] * contrib if host in messages else contrib

    def vertex_values(v: int) -> np.ndarray:
        return weights[v] * messages[v] if v in messages else weights[v]

    z1, z2 = schedule.terminal
    rows = atoms[stages[z2]]
    inner = field(vertex_values(z1))
    # z2's stage lies inside stage stages[z1] + 1, whose field is fields[stages[z1]]
    pure_term = fields[stages[z1]][rows]
    stage_log.append(StageStats("terminal", float(pure_term.min()), float(pure_term.max())))
    value = finite_fsum((inner * vertex_values(z2))[rows], "configuration integral")
    return IntegralResult(value=value, method="peel", stage_log=stage_log, params=params)


def chain_neighborhood_mass(
    mu: AtomicMeasure, k: int, params: KernelParams, graph: AnnulusGraph | None = None
) -> float:
    """Raw product-measure mass of the epsilon-thickened k-chain constraint set.

    Equals (2*eps)^k times the unrestricted peel integral on the k-chain:
    every edge factor is the annulus indicator divided by 2*eps. graph is
    mu's annulus graph at params, built when not given; a caller scanning an
    eps ladder builds one at its largest eps and filters it down with
    `AnnulusGraph.within`.
    """
    if k < 1:
        raise ValidationError("chain length k must be >= 1")
    schedule = compute_peel_schedule(path_tree(k))
    result = integral_peel(mu, schedule, params, graph=graph)
    return result.value * (2.0 * params.eps) ** k
