"""Thickened spherical kernel, the annulus graph of one scale, and fields.

The kernel is the normalized indicator of the closed annulus of radii
[t - eps, t + eps], with weight 1/(2*eps), so annulus masses and normalized
field integrals differ by exact powers of (2*eps).

Every decision "does this pair lie in the annulus" goes through one
formula, `pair_distance` (defined in `measures`, whose ball masses use it
too), and one closed test, `_closed`. An `AnnulusGraph` holds the atom
pairs that pass it at one scale as CSR rows, both triangles up to 256 atoms
and the strict lower one above, and their distances; fields, chain stages,
peel messages and host tables are mat-vecs on it at the atoms they sum
over, each accumulating in ascending atom order. A field is a plain float
array, one value per atom; `field_norms` sums its norms and checks it.
Restricting to a subset of atoms zeroes the weights off it; no graph is sliced.

One routine finds pairs, `_annulus_pairs`, as int32 CSR arrays. When all
n^2 pairs fit one chunk (n <= 256) they are one dense block; otherwise it
bins the atoms on a uniform grid of cells at least as wide as the outer
radius and compares each cell's atoms densely with those of its 3^d
neighbour cells below them (the cell-list method for fixed-radius near
neighbours). A graph build is one such pass; a scan makes one at the
envelope of its grid, from the smallest inner to the largest outer radius,
and each scale's graph is an exact mask of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ResourceCapError, ValidationError
from .measures import AtomicMeasure, finite_fsum, pair_distance

# Pairs one pass (a graph build, or a scan's envelope) may examine, counted
# from its cells before any distance is computed; it bounds the pairs the pass
# stores. A pass examines at most n^2 pairs, so 4096 atoms always fit.
DEFAULT_PAIR_CAP = 2**24

# Atoms per grid cell the pass aims at where the annulus allows cells that
# small: smaller cells examine fewer pairs outside it, larger ones make fewer blocks.
_CELL_ATOMS = 32
# Distances evaluated per dense chunk, which bounds the pass's temporary memory.
_CHUNK_PAIRS = 2**16


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
        return _closed(d, self.inner, self.outer)


def _closed(d, inner, outer):
    """The one closed annulus test, inner <= d <= outer, elementwise on arrays."""
    return (d >= inner) & (d <= outer)


def kernel_weight(x, params: KernelParams) -> float:
    """1/(2*eps) if |x| lies in the closed annulus [t-eps, t+eps], else 0."""
    if params.contains(float(pair_distance(x, 0.0))):
        return params.weight
    return 0.0


class AnnulusGraph:
    """Atom pairs whose pair_distance lies in [params.inner, params.outer].

    indptr and indices are the int32 CSR rows of the stored pairs, columns
    ascending, and distances their pair distances in indices order, read only
    by the annulus masks. Up to 256 atoms, where one scipy matrix costs less
    than two, rows hold both triangles; a larger graph is lower: row i holds j < i.
    """

    def __init__(self, indptr, indices, distances, params: KernelParams):
        # int32 index arrays spare scipy a scan of their contents to pick its index dtype
        self.indptr, self.indices = np.asarray(indptr, np.int32), np.asarray(indices, np.int32)
        self.distances = distances
        self.params = params
        self.n_atoms = len(indptr) - 1
        self.lower = self.n_atoms**2 > _CHUNK_PAIRS  # past _annulus_pairs' one dense block

    @functools.cached_property
    def _matrices(self) -> tuple:
        """annulus_sums' matrices, made on its first call: the stored 0/1 CSR L, and if lower
        also C = [I; L] read as an n x 2n CSC (column n + j is L's row j), on one ones array."""
        n, nnz = self.n_atoms, len(self.indices)
        ones = np.ones(nnz + (n if self.lower else 0))
        stored = sparse.csr_matrix((ones[:nnz], self.indices, self.indptr), shape=(n, n))
        if not self.lower:
            return (stored,)
        ids = np.arange(n, dtype=np.int32)
        rows, indptr = np.concatenate([ids, self.indices]), np.concatenate([ids, n + self.indptr])
        return stored, sparse.csc_matrix((ones, rows, indptr), shape=(n, 2 * n))

    def degree(self) -> np.ndarray:
        """Each atom's number of annulus neighbours: its row, and its column when lower."""
        column = np.bincount(self.indices, minlength=self.n_atoms) if self.lower else 0
        return np.diff(self.indptr) + column

    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) of the stored pairs by column, rows ascending: the atoms above."""
        shape = (self.n_atoms,) * 2
        by_column = sparse.csr_matrix((self.distances, self.indices, self.indptr), shape).tocsc()
        return by_column.indptr, by_column.indices

    @classmethod
    def build(cls, points, params: KernelParams) -> "AnnulusGraph":
        """Graph of the atoms at params, from one pass of _annulus_pairs."""
        return cls(*_annulus_pairs(np.asarray(points, float), params.inner, params.outer), params)

    @classmethod
    def band(cls, envelope, params: KernelParams) -> "AnnulusGraph":
        """build()'s graph of the atoms at params, masked from _annulus_pairs of a wider annulus.

        Exact entry for entry, since both test pair_distance with the closed test.
        """
        return cls(*_in_annulus(*envelope, params), params)

    def within(self, params: KernelParams) -> "AnnulusGraph":
        """The graph of a nested, no wider annulus, filtered from this one (self if equal)."""
        if params == self.params:
            return self
        if params.inner < self.params.inner or params.outer > self.params.outer:
            raise ValidationError(
                f"annulus [{params.inner}, {params.outer}] is not inside "
                f"[{self.params.inner}, {self.params.outer}]"
            )
        kept = _in_annulus(self.indptr, self.indices, self.distances, params)
        return AnnulusGraph(*kept, params)


def _in_annulus(indptr, indices, distances, params: KernelParams):
    """(indptr, indices, distances) of the stored pairs whose distance lies in the annulus."""
    keep = np.flatnonzero(params.contains(distances))
    return np.searchsorted(keep, indptr), indices.take(keep), distances.take(keep)


def _annulus_pairs(points, inner, outer):
    """CSR (indptr, indices, distances) of the pairs with inner <= pair_distance <= outer.

    Rows follow the atom ids, each row's int32 columns ascending. All n^2
    pairs are one dense block, both triangles, if they fit one chunk. Else
    only the strict lower triangle is kept (row i, columns j < i): each cell
    of `_grid` is compared densely, in chunks, with the atoms of its 3^d
    neighbour cells below the chunk's last row, and scipy's CSR row gather
    moves its rows to atom order.
    """
    n = len(points)
    if n * n <= _CHUNK_PAIRS:  # binning costs more than it saves when all pairs fit one chunk
        grid, examined = None, n * n
    else:
        grid = order, bounds, runs = _grid(points, outer)
        examined = int(np.diff(bounds) @ (runs[:, :, 1] - runs[:, :, 0]).sum(axis=1))
    if examined > DEFAULT_PAIR_CAP:
        raise ResourceCapError(
            f"annulus graph needs {examined} candidate pairs, over the cap of {DEFAULT_PAIR_CAP}"
        )
    if grid is None:
        d = pair_distance(points[:, None, :], points)
        keep = _closed(d, inner, outer)
        flat = np.flatnonzero(keep)  # kept pairs by flat index, row-major
        indptr = np.zeros(n + 1, np.int32)
        np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
        return indptr, (flat % n).astype(np.int32), d.ravel().take(flat)
    counts, indices, data = [np.zeros(1, np.int32)], [np.empty(0, np.int32)], [np.empty(0)]
    for cell, stencil in enumerate(runs.tolist()):
        rows = order[bounds[cell] : bounds[cell + 1]]
        cols = np.sort(np.concatenate([order[a:b] for a, b in stencil])).astype(np.int32)
        step = max(1, _CHUNK_PAIRS // max(1, len(cols)))
        for first in range(0, len(rows), step):
            chunk = rows[first : first + step]  # ascending, so its pairs j < i have j < chunk[-1]
            below = cols[: np.searchsorted(cols, chunk[-1])]
            d = pair_distance(points[chunk, None, :], points[below])
            keep = _closed(d, inner, outer) & (below < chunk[:, None])
            flat = np.flatnonzero(keep)
            counts.append(np.count_nonzero(keep, axis=1))
            indices.append(below.take(flat % len(below)))
            data.append(d.ravel().take(flat))
    indptr = np.cumsum(np.concatenate(counts), dtype=np.int32)
    indices, distances = np.concatenate(indices), np.concatenate(data)
    if len(runs) == 1:
        return indptr, indices, distances
    moved = sparse.csr_matrix((distances, indices, indptr), shape=(n, n))[np.argsort(order)]
    return moved.indptr, moved.indices, moved.data


def _grid(points, outer):
    """(order, bounds, runs): the atom ids cell by cell, each cell's ascending.

    Made only for a pass whose n^2 pairs exceed one chunk. Cell c holds
    order[bounds[c]:bounds[c + 1]], and its 3^d neighbour cells order[a:b]
    over its runs (a, b) = runs[c, r]. A cell is at least outer wide on every
    axis, past the rounding of the atoms' cell coordinates, so a pair within
    outer is at most one cell apart on each axis.
    """
    n, d = points.shape
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    reach = outer + 1e-9 * (outer + span.max())
    per_axis = math.ceil((n / _CELL_ATOMS) ** (1.0 / d))  # cells of about _CELL_ATOMS atoms
    cells = np.clip(span // reach, 1, per_axis).astype(np.int64)
    # bin along at most three axes, so that a cell has at most 27 neighbours
    axes = np.flatnonzero(cells > 1)[:3]
    if len(axes) == 0:
        return np.arange(n), np.array([0, n]), np.array([[[0, n]]])
    lo, cells, d = lo[axes], cells[axes], len(axes)
    side = np.maximum(span[axes] / cells, reach)
    # coordinates 1..cells, inside a border of empty cells
    coords = np.minimum(((points[:, axes] - lo) / side).astype(np.int64), cells - 1) + 1
    strides = np.append(np.cumprod(cells[:0:-1] + 2)[::-1], 1)
    keys = coords @ strides
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    # a cell's neighbours are 3^(d-1) runs of 3 consecutive keys along the last axis
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=d - 1)), dtype=np.int64)
    centres = keys[first, None] + offsets @ strides[:-1]
    runs = [np.searchsorted(keys, centres - 1), np.searchsorted(keys, centres + 1, "right")]
    return order, np.append(first, n), np.stack(runs, axis=-1)


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
    graph is their annulus graph at params. On a lower graph, C @ [L @ x; x]
    makes the full row's additions in its order, so its sums are the same bits.
    """
    if graph.params != params or (graph.n_atoms,) * 2 != (len(queries), len(source_points)):
        raise ValidationError("annulus graph was built for other points or parameters")
    x = np.asarray(source_values, dtype=float)
    if not graph.lower:
        return graph._matrices[0] @ x
    stored, stacked = graph._matrices
    return stacked @ np.concatenate([stored @ x, x])


def convolve_field(
    source: AtomicMeasure, params: KernelParams, graph: AnnulusGraph | None = None
) -> np.ndarray:
    """Field f(a) = sum_b weight_b * kernel(a - atom_b) at each atom a of source.

    A mat-vec on source's annulus graph (built when not given), one float per
    atom. Matches the naive double loop to 1e-12 relative; see the test
    suite's oracle.
    """
    if graph is None:
        graph = AnnulusGraph.build(source.atoms, params)
    return annulus_sums(source.atoms, source.weights, source.atoms, params, graph) * params.weight


def field_norms(f, weights_at_queries) -> tuple[float, float]:
    """(integral of f, integral of f^2) against the weights of the atoms f is sampled at.

    The one place a field's norms are summed, and the one check of a field:
    a flat array of finite nonnegative floats, one per weight. A sum past
    the float range is refused.
    """
    f, w = np.asarray(f, dtype=float), np.asarray(weights_at_queries, dtype=float)
    if f.ndim != 1:
        raise ValidationError("field values must be a flat array")
    if not np.all(np.isfinite(f)) or np.any(f < 0):
        raise ValidationError("field values must be finite and nonnegative")
    if w.shape != f.shape:
        raise ValidationError(f"weights length {w.shape} != field length {f.shape}")
    with np.errstate(over="ignore"):  # an overflowing term gives an inf norm; good_set refuses it
        products = w * f
        squares = products * f
    return finite_fsum(products, "field integral"), finite_fsum(squares, "field square integral")
