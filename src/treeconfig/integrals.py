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
reassociation error. With a nested good-set chain supplied, each vertex v
integrates against mu with zero weight off stage schedule.vertex_stages()[v],
which equals brute force computed with each vertex's measure replaced by
its stage restriction. Adding an exact 0.0 leaves a float sum unchanged,
so every message stays a mat-vec on the one annulus graph of the scale.
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
        factors.append(((i, j), params.contains(dist) * params.weight))

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
    exactly. With a chain, vertex v integrates against mu with zero weight
    off stage schedule.vertex_stages()[v]; the chain must have depth >=
    schedule.required_depth and matching parameters. graph is mu's annulus
    graph at params, built when not given; every message is a mat-vec on
    the whole of it, since the zero weights drop out of its sums exactly.
    Messages stay products of fields and meet a weight only where used.
    With a chain, vertex weights are good_chain.on_stage(stage, mu.weights),
    and round j's pure field is the chain's fields[j-1] as stored (the
    terminal's is that of z1's stage plus one); without one, it is mu's
    field, computed once.
    """
    restricted = good_chain is not None
    if restricted:
        if good_chain.params != params:
            raise ValidationError("good-set chain was built with different parameters")
        if good_chain.n_atoms != len(mu):
            raise ValidationError("good-set chain belongs to a different measure")
        if good_chain.depth < schedule.required_depth:
            raise ValidationError(
                f"chain depth {good_chain.depth} < required {schedule.required_depth}"
            )
    if graph is None:
        graph = AnnulusGraph.build(mu.atoms, params)

    def field(values: np.ndarray) -> np.ndarray:
        return annulus_sums(mu.atoms, values, mu.atoms, params, graph) * params.weight

    stages = schedule.vertex_stages()
    if restricted:
        weights = {v: good_chain.on_stage(s, mu.weights) for v, s in stages.items()}
    else:
        weights = dict.fromkeys(stages, mu.weights)
        pure = field(mu.weights)

    # message[v][a]: product of eliminated-subtree factors with v at atom a;
    # a vertex without one is still pristine (message == 1)
    messages: dict[int, np.ndarray] = {}
    stage_log: list[StageStats] = []
    for j, rnd in enumerate(schedule.rounds, start=1):
        # round j's pure field; restricted, the chain's stage-j field, whose
        # zeros off stage j drop nothing, as every host of round j has stage >= j
        if restricted:
            pure = good_chain.fields[j - 1]
            at_stage = pure[good_chain.stage_indices(j)]
        else:
            at_stage = pure
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

    term = schedule.terminal
    rows = good_chain.stage_indices(stages[term.z2]) if restricted else slice(None)
    inner = field(vertex_values(term.z1))
    # z2's stage lies inside stage stages[z1] + 1, whose field the chain holds
    pure_term = good_chain.fields[stages[term.z1]] if restricted else pure
    stage_log.append(
        StageStats("terminal", float(pure_term[rows].min()), float(pure_term[rows].max()))
    )
    value = finite_fsum((inner * vertex_values(term.z2))[rows], "configuration integral")
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
