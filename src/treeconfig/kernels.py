"""Thickened spherical kernel, the annulus graph of one scale, and fields.

The kernel is the normalized indicator of the closed annulus of radii
[t - eps, t + eps], with weight 1/(2*eps), so annulus masses and normalized
field integrals differ by exact powers of (2*eps).

Every decision "does this pair lie in the annulus" goes through one
formula, `pair_distance` (defined in `measures`, whose ball masses use it
too). An `AnnulusGraph` holds the atom pairs that pass it at one scale as a
symmetric sparse matrix (rows ascending, column indices sorted); fields,
chain stages, peel messages and host tables are mat-vecs on it at the atoms
they sum over, each accumulating in ascending atom order. Restricting to a
subset of atoms zeroes the weights off it; no graph is sliced. A scan makes
one k-d pass: `upper_pairs` keeps the pairs i < j from its smallest inner to
its largest outer radius, and each scale's graph is an exact mask of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import ResourceCapError, ValidationError
from .measures import AtomicMeasure, finite_fsum, pair_distance

# Candidate pairs one k-d pass (a graph build, or a scan's envelope) may
# examine, which bounds the pairs it stores: 4096^2, so 4096 atoms always fit.
DEFAULT_PAIR_CAP = 2**24

# cKDTree rounds distances its own way; it searches a slightly larger ball
# and pair_distance alone decides membership.
_RADIUS_PAD = 1e-9
# Candidate pairs per block of rows, which bounds the build's temporary memory.
_BLOCK_PAIRS = 2**14


@dataclass(frozen=True)
class KernelParams:
    """Gap length t and half-thickness eps, 0 < eps < t, with t - eps < t < t + eps."""

    t: float
    eps: float

    def __post_init__(self):
        if not (self.t > 0 and self.eps > 0):
            raise ValidationError(f"need t > 0 and eps > 0, got t={self.t}, eps={self.eps}")
        if not (self.eps < self.t):
            raise ValidationError(
                f"annulus must not reach the origin: eps={self.eps} >= t={self.t}"
            )
        if not (self.inner < self.t < self.outer):
            raise ValidationError(f"eps={self.eps} is below the rounding unit of t={self.t}")

    @property
    def weight(self) -> float:
        return 1.0 / (2.0 * self.eps)

    @property
    def inner(self) -> float:
        return self.t - self.eps

    @property
    def outer(self) -> float:
        return self.t + self.eps

    def contains(self, d):
        """Whether distance d lies in the closed annulus [inner, outer]; elementwise on arrays."""
        return (d >= self.inner) & (d <= self.outer)


@dataclass
class FieldValues:
    """Kernel-vs-measure convolution sampled at the measure's own atoms."""

    values: np.ndarray
    params: KernelParams

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValidationError("field values must be a flat array")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise ValidationError("field values must be finite and nonnegative")

    def __len__(self) -> int:
        return len(self.values)


def kernel_weight(x, params: KernelParams) -> float:
    """1/(2*eps) if |x| lies in the closed annulus [t-eps, t+eps], else 0."""
    if params.contains(float(pair_distance(x, 0.0))):
        return params.weight
    return 0.0


class AnnulusGraph:
    """Atom pairs whose pair_distance lies in [params.inner, params.outer].

    pairs is a symmetric CSR matrix with one row and one column per atom;
    its stored values are the pair distances. indicator shares that
    structure with all values 1, so indicator @ w sums w over each atom's
    annulus.
    """

    def __init__(self, pairs: sparse.csr_matrix, params: KernelParams):
        self.pairs = pairs
        self.params = params
        self.indicator = sparse.csr_matrix(
            (np.ones(pairs.nnz), pairs.indices, pairs.indptr), shape=pairs.shape
        )

    @classmethod
    def build(cls, points, params: KernelParams) -> "AnnulusGraph":
        """Graph of the atoms at params, from one k-d pass over both triangles."""
        points = np.asarray(points, dtype=float)
        return cls(_annulus_pairs(points, params.inner, params.outer), params)

    @classmethod
    def band(cls, upper: sparse.csr_matrix, params: KernelParams) -> "AnnulusGraph":
        """build()'s graph of the atoms at params, masked from upper_pairs of a wider annulus.

        Exact entry for entry: pair_distance is symmetric, inner > 0 keeps the
        diagonal out, and the sum of two canonical CSRs is canonical.
        """
        u = _in_annulus(upper, params)
        return cls((u + u.T).tocsr(), params)

    def within(self, params: KernelParams) -> "AnnulusGraph":
        """The graph of a nested, no wider annulus, filtered from this one (self if equal)."""
        if params == self.params:
            return self
        if params.inner < self.params.inner or params.outer > self.params.outer:
            raise ValidationError(
                f"annulus [{params.inner}, {params.outer}] is not inside "
                f"[{self.params.inner}, {self.params.outer}]"
            )
        return AnnulusGraph(_in_annulus(self.pairs, params), params)


def _in_annulus(pairs: sparse.csr_matrix, params: KernelParams) -> sparse.csr_matrix:
    """The stored pairs of a distance-valued CSR whose distance lies in the annulus."""
    d = pairs.data
    keep = np.flatnonzero(params.contains(d))
    kept = (d.take(keep), pairs.indices.take(keep), np.searchsorted(keep, pairs.indptr))
    return sparse.csr_matrix(kept, shape=pairs.shape)


def upper_pairs(points: np.ndarray, inner: float, outer: float) -> sparse.csr_matrix:
    """Distance-valued CSR of the atom pairs i < j with inner <= pair_distance <= outer."""
    return _annulus_pairs(points, inner, outer, upper=True)


def _annulus_pairs(points, inner, outer, upper=False) -> sparse.csr_matrix:
    """Distance-valued CSR of the atom pairs in [inner, outer]; upper: column id > row id."""
    radius = outer * (1.0 + _RADIUS_PAD)
    tree = cKDTree(points)
    candidates = int(tree.count_neighbors(tree, radius))
    if candidates > DEFAULT_PAIR_CAP:
        raise ResourceCapError(
            f"annulus graph needs {candidates} candidate pairs, over the cap of {DEFAULT_PAIR_CAP}"
        )
    # blocks of contiguous row ids: each block's pairs, sorted, are its CSR rows
    step = max(1, len(points) * _BLOCK_PAIRS // max(candidates, 1))
    counts, indices, data = [[0]], [np.empty(0, np.int32)], [np.empty(0)]
    for start in range(0, len(points), step):
        block = points[start : start + step]
        found = cKDTree(block).sparse_distance_matrix(tree, radius, output_type="ndarray")
        r, c = found["i"], found["j"]
        if upper:
            above = c > r + start
            r, c = r[above], c[above]
        d = pair_distance(np.take(block, r, axis=0), np.take(points, c, axis=0))
        keep = np.flatnonzero((d >= inner) & (d <= outer))
        keep = keep[np.argsort(r[keep] * len(points) + c[keep])]
        counts.append(np.bincount(r[keep], minlength=len(block)))
        indices.append(c[keep].astype(np.int32))
        data.append(d[keep])
    kept = (np.concatenate(data), np.concatenate(indices), np.cumsum(np.concatenate(counts)))
    return sparse.csr_matrix(kept, shape=(len(points), len(points)))


def annulus_sums(
    source_points: np.ndarray,
    source_values: np.ndarray,
    queries: np.ndarray,
    params: KernelParams,
    graph: AnnulusGraph,
) -> np.ndarray:
    """Per atom: sum of source_values over the atoms in its annulus.

    The one mat-vec shared by field convolution, the integral recursion and
    the embedding host tables. queries are the source atoms themselves, and
    graph is their annulus graph at params.
    """
    if graph.params != params or graph.pairs.shape != (len(queries), len(source_points)):
        raise ValidationError("annulus graph was built for other points or parameters")
    return graph.indicator @ np.asarray(source_values, dtype=float)


def convolve_field(
    source: AtomicMeasure, params: KernelParams, graph: AnnulusGraph | None = None
) -> FieldValues:
    """Field f(a) = sum_b weight_b * kernel(a - atom_b) at each atom a of source.

    A mat-vec on source's annulus graph (built when not given). Matches the
    naive double loop to 1e-12 relative; see the test suite's oracle.
    """
    if graph is None:
        graph = AnnulusGraph.build(source.atoms, params)
    sums = annulus_sums(source.atoms, source.weights, source.atoms, params, graph)
    return FieldValues(values=sums * params.weight, params=params)


def field_norms(f: FieldValues, weights_at_queries) -> tuple[float, float]:
    """(integral of f, integral of f^2) against the weights of the atoms f is sampled at.

    The one place a field's norms are summed; a sum past the float range is refused.
    """
    w = np.asarray(weights_at_queries, dtype=float)
    if w.shape != f.values.shape:
        raise ValidationError(
            f"weights length {w.shape} != field length {f.values.shape}"
        )
    products = w * f.values
    l1 = finite_fsum(products, "field integral")
    return l1, finite_fsum(products * f.values, "field square integral")
