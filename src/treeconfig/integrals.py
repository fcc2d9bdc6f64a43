"""Tree-configuration integrals of atomic measures against the annulus kernel.

The integral attaches one measure variable to each tree vertex and one
kernel factor to each edge:

    value = sum over atom tuples (a_0, ..., a_k) of
            prod_{(i,j) in edges} kernel(x_{a_i} - x_{a_j}) * prod_v w_{a_v}.

Two evaluators are provided. The brute-force one forms every product term
and is the oracle: it enumerates prefix tuples in blocks and broadcasts the
remaining vertices as dense tensor axes, so a block holds at most _CHUNK
terms, and the term_cap check bounds the total. The peel evaluator eliminates
vertices along a leaf-peeling schedule, accumulating per-vertex message
fields, and reorganizes exactly the same sum, so the two agree to float
reassociation error. With a nested good-set chain supplied, every vertex
is confined to the stage it reached during peeling (hosts of round j to
stage j; the terminal pair to its recorded stages, the second endpoint one
stage deeper when both coincide), which equals brute force computed with
each vertex's measure replaced by its stage restriction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceCapError, ValidationError
from .kernels import AnnulusGraph, KernelParams, annulus_sums, pair_distance
from .measures import AtomicMeasure
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
    bounds_witness: tuple[float, float] | None = field(default=None)

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

    Every term is formed and summed. The vertices split into a prefix
    0..s-1 and the longest tail s..k-1 whose tuples number at most
    _CHUNK. Each block of P prefix tuples becomes one dense tensor of shape
    (P, n_s, ..., n_{k-1}): every weight and kernel factor is gathered on
    its prefix axes and broadcast over its tail axes, so a block holds at
    most _CHUNK terms and memory stays bounded. Blocks are summed with
    np.sum, and the block sums with math.fsum.
    """
    if len(mu_per_vertex) != tree.n_vertices:
        raise ValidationError(
            f"need one measure per vertex: {len(mu_per_vertex)} != {tree.n_vertices}"
        )
    dims = {m.d for m in mu_per_vertex}
    if len(dims) != 1:
        raise ValidationError(f"measures live in different dimensions: {sorted(dims)}")
    counts = [len(m) for m in mu_per_vertex]
    n_terms = math.prod(counts)
    if n_terms > term_cap:
        raise ResourceCapError(
            f"enumeration needs {n_terms} product terms, over the cap of {term_cap}"
        )

    # One factor per vertex weight and per edge kernel, each with its vertex
    # axes in ascending order.
    factors = [((v,), m.weights) for v, m in enumerate(mu_per_vertex)]
    for i, j in map(sorted, tree.edges):
        a, b = mu_per_vertex[i].atoms, mu_per_vertex[j].atoms
        dist = pair_distance(a[:, None, :], b[None, :, :])
        factors.append(((i, j), ((dist >= params.inner) & (dist <= params.outer)) * params.weight))

    # The tail vertices s..k-1 span a dense block of at most _CHUNK tuples
    # and 31 axes (a block fits numpy's 32 dimensions); the prefix tuples
    # are decoded from a linear index, `block` at a time.
    k = tree.n_vertices
    s = next(s for s in range(k + 1) if math.prod(counts[s:]) <= _CHUNK and k - s <= 31)
    n_prefix, tail_shape = math.prod(counts[:s]), counts[s:]
    block = max(1, _CHUNK // math.prod(tail_shape))
    strides = [math.prod(counts[v + 1 : s]) for v in range(s)]
    chunk_sums = []
    for start in range(0, n_prefix, block):
        lin = np.arange(start, min(start + block, n_prefix), dtype=np.int64)
        idx = [(lin // strides[v]) % counts[v] for v in range(s)]
        term = np.ones((len(lin), *tail_shape))
        for axes, arr in factors:
            # gather the prefix axes onto the block axis, broadcast the tail axes
            gathered = arr[tuple(idx[v] for v in axes if v < s)]
            shape = [len(lin) if axes[0] < s else 1]
            shape += [counts[v] if v in axes else 1 for v in range(s, k)]
            term *= gathered.reshape(shape)
        chunk_sums.append(float(np.sum(term)))
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
    exactly. With a chain, stage sets gate every vertex's summation domain
    as described in the module docstring; the chain must have depth >=
    schedule.required_depth and matching parameters. graph is mu's annulus
    graph at params, built when not given; each message is a mat-vec on the
    rows and columns of its stages. Round j's pure stage field is the
    chain's fields[j-1] when a chain is given.
    """
    n = len(mu)
    atoms = mu.atoms
    w = mu.weights
    all_ids = np.arange(n, dtype=np.int64)
    restricted = good_chain is not None
    if restricted:
        if good_chain.params != params:
            raise ValidationError("good-set chain was built with different parameters")
        if good_chain.n_atoms != n:
            raise ValidationError("good-set chain belongs to a different measure")
        if good_chain.depth < schedule.required_depth:
            raise ValidationError(
                f"chain depth {good_chain.depth} < required {schedule.required_depth}"
            )

    if graph is None:
        graph = AnnulusGraph.build(atoms, params)

    def stage_ids(s: int) -> np.ndarray:
        if not restricted or s == 0:
            return all_ids
        return good_chain.stage_indices(s)

    # message[v][a]: product of eliminated-subtree factors with v at atom a
    messages: dict[int, np.ndarray] = {}
    pristine: set[int] = set(range(schedule.tree.n_vertices))  # message still == 1

    stage_log: list[StageStats] = []
    for j, rnd in enumerate(schedule.rounds, start=1):
        leaf_ids = stage_ids(j - 1)
        eval_ids = stage_ids(j)
        sources, queries = atoms[leaf_ids], atoms[eval_ids]
        stage_graph = graph.subgraph(eval_ids, leaf_ids)

        def field(values: np.ndarray) -> np.ndarray:
            sums = annulus_sums(sources, values[leaf_ids], queries, params, stage_graph)
            return sums * params.weight

        # pure field of the stage measure (the chain's, over the same rows and
        # columns, when restricted), shared by this round's factor log
        pure = good_chain.fields[j - 1] if restricted else field(w)
        fmin, fmax = math.inf, -math.inf
        for host, mult in rnd.attachments:
            powered = pure**mult
            fmin = min(fmin, float(powered.min()))
            fmax = max(fmax, float(powered.max()))
        stage_log.append(StageStats(f"round{j}", fmin, fmax))

        for v, host in rnd.leaf_hosts:
            contrib = pure if v in pristine else field(w * messages[v])
            if host in pristine:
                messages[host] = np.ones(n)
                pristine.discard(host)
            messages[host][eval_ids] *= contrib
            messages.pop(v, None)

    term = schedule.terminal
    s1, s2 = term.j1, term.j2
    if restricted and term.j1 == term.j2:
        s2 += 1
    ids1, ids2 = stage_ids(s1), stage_ids(s2)
    sources, queries2 = atoms[ids1], atoms[ids2]
    term_graph = graph.subgraph(ids2, ids1)

    def vertex_values(v: int) -> np.ndarray:
        if v in pristine:
            return w
        return w * messages[v]

    inner = annulus_sums(sources, vertex_values(term.z1)[ids1], queries2, params, term_graph)
    inner *= params.weight
    pure_term = annulus_sums(sources, w[ids1], queries2, params, term_graph) * params.weight
    stage_log.append(
        StageStats("terminal", float(pure_term.min()), float(pure_term.max()))
    )
    outer_vals = vertex_values(term.z2)[ids2]
    value = math.fsum(inner * outer_vals)
    return IntegralResult(value=value, method="peel", stage_log=stage_log, params=params)


def chain_neighborhood_mass(mu: AtomicMeasure, k: int, params: KernelParams) -> float:
    """Raw product-measure mass of the epsilon-thickened k-chain constraint set.

    Equals (2*eps)^k times the unrestricted peel integral on the k-chain:
    every edge factor is the annulus indicator divided by 2*eps.
    """
    if k < 1:
        raise ValidationError("chain length k must be >= 1")
    schedule = compute_peel_schedule(path_tree(k))
    result = integral_peel(mu, schedule, params)
    return result.value * (2.0 * params.eps) ** k
