"""Pigeonhole selection of field level sets with certified mass bounds.

Given a nonnegative field f, a plain float array with one value per atom
of a measure mu with total mass M, a lower bound c on the integral of f,
and C = integral of f^2, the "good set" keeps the atoms where f is pinched
between a low cutoff and a dyadic ceiling:

    c' = c / (4M),  m = ceil(log2(16 C / c)),  G = { c' < f < 2^m }.

Splitting the integral of f into the parts below c', on G, and over the
dyadic tail l >= m, the low part is at most c'M = c/4 and the tail is at
most sum_l 2^(l+1) * C * 2^(-2l) <= 4C * 2^(-m) <= c/4 (the level masses
obey the Chebyshev bound mass <= C * 2^(-2l)). Hence the integral over G
is at least c/2, and since f < 2^m there, mu(G) >= c / 2^(m+1) = delta.
These are finite-sum theorems, so the code asserts them outright on every
call: a failure is a bug, never a tolerance issue.

Iterating the construction, each time on mu with zero weight off the
last stage and with the field zeroed there, yields a nested chain of
stages, each with its own certified delta. A stage is one array per atom
of mu with zeros off the stage, so every stage shares mu's atom ids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InternalConsistencyError, ResourceCapError, StageFailureError, ValidationError
from .kernels import AnnulusGraph, KernelParams, convolve_field, field_norms
from .measures import AtomicMeasure, exact_sum


# Stages one chain may hold; a tree on V vertices needs at most ceil((V - 1) / 2).
DEPTH_CAP = 256


def _dyadic_level(values: np.ndarray) -> np.ndarray:
    """floor(log2 v) per positive value, exact via frexp (v = m * 2^e, m in [1/2, 1))."""
    _, exp = np.frexp(values)
    return exp.astype(np.int64) - 1


@dataclass
class LevelProfile:
    """Mass split of a field into {f <= c'} plus dyadic levels {2^l <= f < 2^(l+1)}.

    The level at the cutoff boundary is clipped to f > c', so the parts
    partition the total mass exactly. Every level mass satisfies
    mass <= C_bound * 2^(-2l).
    """

    levels: list[tuple[int, float]]
    below_mass: float
    C_bound: float
    c_prime: float
    m_low: int
    total_mass: float


def chebyshev_profile(f, mu_weights, c_prime: float, m_low: int) -> LevelProfile:
    if not (c_prime > 0):
        raise ValidationError("c_prime must be positive")
    _, c_bound = field_norms(f, mu_weights)
    w, v = np.asarray(mu_weights, dtype=float), np.asarray(f, dtype=float)
    below = v <= c_prime
    below_mass = exact_sum(w[below])
    total = exact_sum(w)

    levels: list[tuple[int, float]] = []
    above = ~below
    if np.any(above):
        lev = _dyadic_level(v[above])
        lo = min(int(m_low), int(lev.min()))
        hi = int(lev.max())
        w_above = w[above]
        for l in range(lo, hi + 1):
            mass = exact_sum(w_above[lev == l])
            bound = c_bound * 2.0 ** (-2 * l)
            if mass > bound:
                raise InternalConsistencyError(
                    f"level {l} mass {mass} exceeds Chebyshev bound {bound}"
                )
            levels.append((l, mass))

    parts = below_mass + math.fsum(m for _, m in levels)
    if abs(parts - total) > 1e-12 * max(total, 1.0):
        raise InternalConsistencyError(
            f"level masses sum to {parts}, total mass is {total}"
        )
    return LevelProfile(
        levels=levels,
        below_mass=below_mass,
        C_bound=c_bound,
        c_prime=c_prime,
        m_low=int(m_low),
        total_mass=total,
    )


@dataclass
class GoodSet:
    """Atoms where the field is pinched in (c_low, 2^m), with certified mass.

    indices are the ascending positions of the kept atoms in the measure
    the field was sampled on; in a nested chain, atom ids of mu.
    """

    stage: int
    indices: np.ndarray
    c_low: float
    m: int
    delta: float
    achieved_mass: float

    def __post_init__(self):
        if not (self.achieved_mass >= self.delta > 0):
            raise InternalConsistencyError(
                f"good set mass {self.achieved_mass} below certificate {self.delta}"
            )

    def to_record(self) -> dict:
        return {
            "stage": self.stage,
            "kept": int(len(self.indices)),
            "c_low": self.c_low,
            "m": self.m,
            "delta": self.delta,
            "achieved_mass": self.achieved_mass,
        }


def good_set(
    f, mu: AtomicMeasure, c: float, stage: int = 1, norms: tuple[float, float] | None = None
) -> GoodSet:
    """Pinched level set with the certified bounds asserted.

    Requires 0 < c <= integral of f d(mu); the usual call passes half the
    measured integral. Guarantees (and checks) that the integral of f over
    the kept set is >= c/2 and the kept mass is >= c / 2^(m+1). norms is
    field_norms(f, mu.weights) when the caller already holds it.
    """
    f = np.asarray(f, dtype=float)
    l1, c_sq = norms if norms is not None else field_norms(f, mu.weights)
    if not (0 < c <= l1):
        raise ValidationError(f"need 0 < c <= integral(f dmu) = {l1}, got c = {c}")
    c_prime = c / (4.0 * mu.total_mass)
    if not math.isfinite(ratio := 16.0 * c_sq / c):
        raise ValidationError(f"field too large for a dyadic ceiling: 16 C / c = {ratio}")
    m = math.ceil(math.log2(ratio))
    ceiling = 2.0**m
    kept = (f > c_prime) & (f < ceiling)

    w = mu.weights
    good_l1 = exact_sum((w * f)[kept])
    achieved = exact_sum(w[kept])
    delta = c * 2.0 ** (-(m + 1))
    if good_l1 < c / 2.0:
        raise InternalConsistencyError(
            f"integral over good set {good_l1} < c/2 = {c / 2.0}"
        )
    if achieved < delta:
        raise InternalConsistencyError(
            f"good set mass {achieved} < certified delta {delta}"
        )
    return GoodSet(
        stage=stage,
        indices=np.flatnonzero(kept).astype(np.int64),
        c_low=c_prime,
        m=m,
        delta=delta,
        achieved_mass=achieved,
    )


@dataclass
class GoodSetChain:
    """Nested stages G(1) ⊇ G(2) ⊇ ..., each stage a set of atom ids of one measure.

    stages[j-1].indices are atom ids of the source measure, ascending;
    fields[j-1] is the stage-j field (that of the source with zero weight
    off stage j-1), one value per atom, zero off stage j.
    """

    stages: list[GoodSet]
    fields: list[np.ndarray]
    params: KernelParams
    n_atoms: int

    @property
    def depth(self) -> int:
        return len(self.stages)

    def stage_indices(self, s: int) -> np.ndarray:
        """Atom ids allowed at stage s; stage 0 is the full measure."""
        if s == 0:
            return np.arange(self.n_atoms, dtype=np.int64)
        return self.stages[s - 1].indices

    def on_stage(self, s: int, values: np.ndarray) -> np.ndarray:
        """values (one per atom) with zeros off stage s; values itself for s = 0."""
        if s == 0:
            return values
        ids = self.stages[s - 1].indices
        out = np.zeros(self.n_atoms)
        out[ids] = values[ids]
        return out

    def to_records(self) -> list[dict]:
        return [gs.to_record() for gs in self.stages]


def nested_good_sets(
    mu: AtomicMeasure,
    params: KernelParams,
    depth: int,
    graph: AnnulusGraph | None = None,
    field: np.ndarray | None = None,
    norms: tuple[float, float] | None = None,
) -> GoodSetChain:
    """Iterate good-set selection against the self-convolved field.

    Stage 1 uses f = kernel * mu with c = half the measured integral; stage
    j convolves mu with zero weight off stage j-1, zeroes the field off
    stage j-1, and selects against that staged measure, so no atom outside
    stage j-1 is kept. Raises StageFailureError naming the stage when a
    stage field has zero integral (t outside the viable range). graph is
    mu's annulus graph at params, built when not given; every stage field
    is a mat-vec on all of it. field, when given, is the stage-1 field
    convolve_field(mu, params), used as is; an array does not record its
    params, so only its shape is checked. norms, when given with it, is
    field_norms(field, mu.weights). A depth over DEPTH_CAP is refused with
    ResourceCapError before the first stage.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    if depth > DEPTH_CAP:
        raise ResourceCapError(f"chain depth {depth} is over the cap of {DEPTH_CAP}")
    if field is not None and np.shape(field) != (len(mu),):
        raise ValidationError("stage-1 field must hold one value per atom of mu")
    if norms is not None and field is None:
        raise ValidationError("stage-1 norms need the stage-1 field they were summed from")
    if graph is None:
        graph = AnnulusGraph.build(mu.atoms, params)
    chain = GoodSetChain(stages=[], fields=[], params=params, n_atoms=len(mu))
    staged = mu
    f = convolve_field(mu, params, graph) if field is None else np.asarray(field, dtype=float)
    if norms is None:
        norms = field_norms(f, mu.weights)
    for j in range(1, depth + 1):
        if j > 1:
            staged = replace(mu, weights=chain.on_stage(j - 1, mu.weights))
            f = chain.on_stage(j - 1, convolve_field(staged, params, graph))
            norms = field_norms(f, staged.weights)
        if norms[0] <= 0.0:
            raise StageFailureError(stage=j, t=params.t, eps=params.eps)
        chain.stages.append(good_set(f, staged, norms[0] / 2.0, stage=j, norms=norms))
        chain.fields.append(chain.on_stage(j, f))
    return chain
