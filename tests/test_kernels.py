import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import treeconfig as tc
from conftest import dense_pairs, naive_field, one_triangle, reference_matrix
from treeconfig.kernels import _annulus_pairs


def test_kernel_weight_center_and_outside():
    p = tc.KernelParams(t=1.0, eps=0.1)
    assert tc.kernel_weight([1.0, 0.0], p) == 5.0  # 1/(2 eps)
    assert tc.kernel_weight([1.2 + 1e-12, 0.0], p) == 0.0
    assert tc.kernel_weight([0.0, 0.0], p) == 0.0


def test_kernel_weight_closed_boundaries():
    p = tc.KernelParams(t=1.0, eps=0.25)
    assert tc.kernel_weight([0.75], p) == p.weight  # inner edge included
    assert tc.kernel_weight([1.25], p) == p.weight  # outer edge included


def test_params_validation():
    with pytest.raises(tc.ValidationError):
        tc.KernelParams(t=1.0, eps=1.0)  # annulus reaches the origin
    with pytest.raises(tc.ValidationError):
        tc.KernelParams(t=-1.0, eps=0.1)
    with pytest.raises(tc.ValidationError):
        tc.KernelParams(t=1.0, eps=0.0)
    # below half an ulp of t, t - eps and t + eps round to t: no annulus is left
    for t, eps in ((1.0, 1e-17), (0.5, 1e-200), (1e20, 1e3)):
        with pytest.raises(tc.ValidationError, match="rounding unit"):
            tc.KernelParams(t=t, eps=eps)
    tc.KernelParams(t=1.0, eps=2.0**-52)  # one ulp still leaves an annulus


def test_closed_test_admits_the_edges_and_not_one_ulp_past():
    # contains and the pair routine share one closed test; no tolerance widens it
    p = tc.KernelParams(t=1.0, eps=0.25)
    edges = np.array([p.inner, p.outer])
    assert p.contains(edges).all()
    assert not p.contains(np.nextafter(edges, [0.0, np.inf])).any()
    for d in (*edges, *np.nextafter(edges, [0.0, np.inf])):
        indptr, _, _ = _annulus_pairs(np.array([[0.0], [d]]), p.inner, p.outer)
        assert indptr[-1] == (2 if d in edges else 0)  # both triangles, or none


@pytest.mark.parametrize("norm", [0.0, 0.5, 0.9, 1.0, 1.1, 2.0])
def test_kernel_scaling_is_indicator(norm):
    p = tc.KernelParams(t=1.0, eps=0.1)
    assert tc.kernel_weight([norm], p) * 2 * p.eps in (0.0, 1.0)


def _with_zero_weight_atoms(atoms, weights, extra) -> tc.AtomicMeasure:
    """atoms with weights, plus the points extra as atoms of weight 0."""
    extra = np.asarray(extra, dtype=float)
    return tc.AtomicMeasure(
        d=extra.shape[1],
        atoms=np.concatenate([np.asarray(atoms, dtype=float), extra]),
        weights=np.concatenate([weights, np.zeros(len(extra))]),
    )


def test_convolve_single_atom_at_gap():
    src = _with_zero_weight_atoms([[0.0, 0.0]], [1.0], [[1.0, 0.0]])
    p = tc.KernelParams(t=1.0, eps=0.1)
    f = tc.convolve_field(src, p)
    assert f[1] == pytest.approx(5.0)
    assert f[0] == 0.0  # the zero-weight atom adds nothing


def test_convolve_two_atoms_partial_hit():
    # one atom at distance t (in), one at 3t (out), weights 1/2 each
    src = _with_zero_weight_atoms([[1.0], [3.0]], [0.5, 0.5], [[0.0]])
    p = tc.KernelParams(t=1.0, eps=0.1)
    f = tc.convolve_field(src, p)
    assert f[2] == pytest.approx(1.0 / (4 * p.eps))


@pytest.mark.parametrize("seed,n,q,d", [(0, 200, 50, 2), (1, 1000, 80, 2), (2, 2000, 60, 3)])
def test_convolve_matches_naive_loop(seed, n, q, d):
    # q off-support points ride along as zero-weight atoms
    rng = np.random.default_rng(seed)
    src = _with_zero_weight_atoms(rng.random((n, d)), rng.random(n), rng.random((q, d)))
    p = tc.KernelParams(t=0.4, eps=0.07)
    fast = tc.convolve_field(src, p)
    slow = naive_field(src, src.atoms, p)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-12)


def test_convolve_cantor_matches_naive(cantor_small):
    p = tc.KernelParams(t=0.5, eps=0.05)
    fast = tc.convolve_field(cantor_small, p)
    slow = naive_field(cantor_small, cantor_small.atoms, p)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_positivity_monotone_in_eps(seed):
    rng = np.random.default_rng(seed)
    src = _with_zero_weight_atoms(rng.random((80, 2)), rng.random(80), rng.random((40, 2)))
    t = 0.5
    small = tc.convolve_field(src, tc.KernelParams(t=t, eps=0.05))
    big = tc.convolve_field(src, tc.KernelParams(t=t, eps=0.1))
    assert np.all((small > 0) <= (big > 0))


def test_field_norms_trivials():
    l1, l2 = tc.field_norms(np.ones(4), np.full(4, 0.25))
    assert (l1, l2) == (1.0, 1.0)
    l1, l2 = tc.field_norms(np.array([2.0, 0.0]), np.array([0.5, 0.5]))
    assert (l1, l2) == (1.0, 2.0)
    assert tc.field_norms([2.0, 0.0], [0.5, 0.5]) == (1.0, 2.0)  # any flat sequence of floats


def test_field_norms_match_naive(cantor_small):
    p = tc.KernelParams(t=0.6, eps=0.06)
    f = tc.convolve_field(cantor_small, p)
    l1, l2 = tc.field_norms(f, cantor_small.weights)
    slow = naive_field(cantor_small, cantor_small.atoms, p)
    assert l1 == pytest.approx(math.fsum(cantor_small.weights * slow), rel=1e-12)
    assert l2 == pytest.approx(math.fsum(cantor_small.weights * slow * slow), rel=1e-12)


def test_field_norms_length_mismatch():
    with pytest.raises(tc.ValidationError, match="field length"):
        tc.field_norms(np.ones(3), np.ones(4))


@pytest.mark.parametrize("seed", range(5))
def test_cauchy_schwarz_on_computed_fields(seed):
    rng = np.random.default_rng(seed)
    src = tc.AtomicMeasure(d=2, atoms=rng.random((60, 2)), weights=rng.random(60))
    p = tc.KernelParams(t=0.4, eps=0.08)
    f = tc.convolve_field(src, p)
    l1, l2sq = tc.field_norms(f, src.weights)
    assert l1 <= math.sqrt(l2sq * src.total_mass) * (1 + 1e-12)


def test_field_values_validation():
    # field_norms is the one check of a field: flat, finite and nonnegative
    with pytest.raises(tc.ValidationError, match="flat"):
        tc.field_norms(np.ones((1, 1)), np.ones(1))
    for bad in (-1.0, np.inf, -np.inf, np.nan):
        with pytest.raises(tc.ValidationError, match="finite and nonnegative"):
            tc.field_norms(np.array([1.0, bad]), np.ones(2))
    assert tc.field_norms(np.array([0.0, 1.0]), np.ones(2)) == (1.0, 1.0)  # zeros are fields


def test_pair_distance_is_symmetric_and_direct():
    rng = np.random.default_rng(4)
    a, b = rng.random((50, 3)) * 1e3, rng.random((50, 3)) * 1e3
    assert np.array_equal(tc.pair_distance(a, b), tc.pair_distance(b, a))
    direct = np.sqrt(
        (a[:, 0] - b[:, 0]) ** 2 + (a[:, 1] - b[:, 1]) ** 2 + (a[:, 2] - b[:, 2]) ** 2
    )
    assert np.array_equal(tc.pair_distance(a, b), direct)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_annulus_graph_matches_dense_predicate(d):
    rng = np.random.default_rng(10 + d)
    atoms = np.round(rng.random((300, d)), 1)  # lattice: boundary hits and duplicates
    p = tc.KernelParams(t=0.3, eps=0.1)
    graph = tc.AnnulusGraph.build(atoms, p)  # 300 atoms: the strict lower triangle
    _assert_identical(_arrays(graph), dense_pairs(atoms, p.inner, p.outer, lower=True))
    ref = reference_matrix(atoms, p)
    assert np.array_equal(graph.degree(), np.diff(ref.indptr))
    narrower = tc.KernelParams(t=0.3, eps=0.05)
    rebuilt = tc.AnnulusGraph.build(atoms, narrower)
    within = graph.within(narrower)
    _assert_identical(_arrays(within), _arrays(rebuilt))
    for g in (graph, within, rebuilt):
        _assert_adjacency_and_distances(g, atoms)


def _arrays(graph):
    return graph.indptr, graph.indices, graph.distances


def _assert_adjacency_and_distances(graph, atoms):
    """distances are the stored pairs' pair_distance in indices order; lower keeps columns j < i."""
    rows = np.repeat(np.arange(graph.n_atoms), np.diff(graph.indptr))
    assert np.array_equal(graph.distances, tc.pair_distance(atoms[rows], atoms[graph.indices]))
    assert graph.lower == (len(atoms) ** 2 > tc.kernels._CHUNK_PAIRS)
    assert not graph.lower or np.all(graph.indices < rows)


@pytest.mark.parametrize("n", [100, 3000])
def test_a_graph_holds_one_scipy_matrix(monkeypatch, n):
    # 100 atoms are one dense block, which makes no matrix, and their graph
    # sums with one full-row CSR matrix; 3000 are many cells, whose rows one
    # scipy row gather moves to atom order, and their one-triangle graph sums
    # with its CSR and one CSC matrix that share one ones array. A graph makes
    # them on its first sum, so a graph that is never summed makes none.
    atoms = np.random.default_rng(8).random((n, 2))
    built = []

    def counted(kind):
        def make(*args, **kwargs):
            built.append(kind)
            return getattr(sparse, kind)(*args, **kwargs)

        return make

    monkeypatch.setattr(
        "treeconfig.kernels.sparse",
        SimpleNamespace(csr_matrix=counted("csr_matrix"), csc_matrix=counted("csc_matrix")),
    )
    wide = tc.KernelParams(t=0.1, eps=0.05)
    envelope = _annulus_pairs(atoms, wide.inner, wide.outer)
    assert len(built) == (0 if n == 100 else 1)
    tc.AnnulusGraph.build(atoms, wide)
    assert len(built) == (0 if n == 100 else 2)
    del built[:]
    band = tc.AnnulusGraph.band(envelope, wide)
    narrow = band.within(tc.KernelParams(t=0.1, eps=0.01))
    assert not built
    for graph in (band, narrow):
        for _ in range(2):
            tc.annulus_sums(atoms, np.ones(n), atoms, graph.params, graph)
    assert built == (["csr_matrix"] if n == 100 else ["csr_matrix", "csc_matrix"]) * 2
    _assert_adjacency_and_distances(band, atoms)
    for graph in (tc.AnnulusGraph.build(atoms, wide), band, narrow):
        assert graph.indptr.dtype == graph.indices.dtype == np.int32
        matrices = graph._matrices
        assert len(matrices) == (1 if n == 100 else 2)
        for matrix in matrices:
            assert matrix.indptr.dtype == matrix.indices.dtype == np.int32
            assert np.all(matrix.data == 1.0)
            assert np.shares_memory(matrix.data, matrices[-1].data)


def test_within_the_same_annulus_is_the_graph_itself():
    atoms = np.random.default_rng(6).random((30, 2))
    graph = tc.AnnulusGraph.build(atoms, tc.KernelParams(0.5, 0.1))
    assert graph.within(graph.params) is graph


def test_annulus_graph_rejects_wider_annulus_and_foreign_points():
    atoms = np.random.default_rng(5).random((40, 2))
    p = tc.KernelParams(t=0.5, eps=0.1)
    graph = tc.AnnulusGraph.build(atoms, p)
    with pytest.raises(tc.ValidationError, match="not inside"):
        graph.within(tc.KernelParams(t=0.5, eps=0.2))
    with pytest.raises(tc.ValidationError, match="other points"):
        tc.annulus_sums(atoms[:10], np.ones(10), atoms, p, graph)


def test_annulus_graph_pair_cap(monkeypatch):
    monkeypatch.setattr("treeconfig.kernels.DEFAULT_PAIR_CAP", 50)
    atoms = np.random.default_rng(6).random((100, 2))
    with pytest.raises(tc.ResourceCapError, match="cap of 50"):
        tc.AnnulusGraph.build(atoms, tc.KernelParams(t=0.5, eps=0.1))


@pytest.mark.parametrize("n", [100, 3000])
def test_pair_cap_counts_examined_pairs_before_any_distance(monkeypatch, n):
    # 100 atoms are one cell (n^2 pairs); 3000 spread over many cells, whose
    # stencils examine fewer than n^2 pairs
    atoms = np.random.default_rng(7).random((n, 2))
    params = tc.KernelParams(t=0.05, eps=0.01)
    distances = []

    def counted(a, b):
        distances.append(1)
        return tc.pair_distance(a, b)

    monkeypatch.setattr("treeconfig.kernels.pair_distance", counted)
    monkeypatch.setattr("treeconfig.kernels.DEFAULT_PAIR_CAP", 50)
    with pytest.raises(tc.ResourceCapError, match="cap of 50") as exc:
        tc.AnnulusGraph.build(atoms, params)
    assert not distances
    examined = int(re.search(r"needs (\d+) candidate pairs", str(exc.value)).group(1))
    assert examined == n * n if n == 100 else examined < n * n / 10
    monkeypatch.setattr("treeconfig.kernels.DEFAULT_PAIR_CAP", examined - 1)
    with pytest.raises(tc.ResourceCapError):
        tc.AnnulusGraph.build(atoms, params)
    assert not distances
    monkeypatch.setattr("treeconfig.kernels.DEFAULT_PAIR_CAP", examined)
    graph = tc.AnnulusGraph.build(atoms, params)
    assert distances and len(graph.indices) > 0


def test_import_loads_no_scipy_beyond_sparse():
    code = (
        "import sys, treeconfig, treeconfig.cli; "
        "print([m for m in ('scipy.spatial', 'scipy.optimize') if m in sys.modules])"
    )
    src = str(Path(tc.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.stdout.strip() == "[]"


def test_the_acceptance_envelope_grows_peak_rss_by_at_most_180_mb():
    # the 4096-atom acceptance measure's envelope [0.32, 0.88] sets a path5
    # scan's memory peak. Its 5.6M lower-triangle pairs grew ru_maxrss by
    # about 135 MB in a fresh process; both triangles grew it by about 262 MB.
    code = (
        "import resource, treeconfig as tc; "
        "from conftest import ACCEPT_RATIO, product_cantor_spec; "
        "mu = tc.build_ifs_measure(product_cantor_spec(ACCEPT_RATIO, 6)); "
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss; "
        "pairs = tc.kernels._annulus_pairs(mu.atoms, 0.32, 0.88); "
        "print(len(pairs[1]), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)"
    )
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(tc.__file__).resolve().parents[1]), str(here)])
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    pairs, growth_kib = map(int, done.stdout.split())  # ru_maxrss counts KiB on Linux
    assert pairs == 5_591_518
    assert growth_kib <= 180 * 1024


def _dense_pairs(points, inner, outer):
    """dense_pairs as the pair routine keeps them: the strict lower triangle past one chunk."""
    return dense_pairs(points, inner, outer, lower=len(points) ** 2 > tc.kernels._CHUNK_PAIRS)


def _assert_identical(arrays, expected):
    """Each array has the dtype and the bytes of its expected twin."""
    for got, want in zip(arrays, expected, strict=True):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@st.composite
def pair_inputs(draw):
    """Shuffled atoms in d = 1-3, some duplicated, and an annulus of any width.

    lattice: atoms and radii on multiples of one step, so many pairs lie on
    the annulus boundaries; offset: a 1e-3 lattice shifted by 10^6, whose
    coordinates round at 1e-10; uniform: random atoms.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 400))  # up to 256 atoms are one block, both triangles
    kind = draw(st.sampled_from(["lattice", "offset", "uniform"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        atoms = rng.random((n, d))
        inner = draw(st.floats(0.001, 0.5))
        outer = inner + draw(st.sampled_from([0.001, 0.02, 0.2, 1.0]))
    else:
        step = 1e-3 if kind == "offset" else draw(st.sampled_from([0.1, 0.125, 0.05]))
        atoms = rng.integers(0, 11, size=(n, d)) * step + (1e6 if kind == "offset" else 0.0)
        k = draw(st.integers(1, 10))
        inner, outer = draw(st.integers(0, k - 1)) * step, k * step
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    atoms[dup] = atoms[rng.integers(0, n, size=dup.sum())]
    return atoms[rng.permutation(n)], inner, outer


def _twelve_dimensional_lattice():
    """100 lattice atoms in d = 12, each with 3 neighbours 0.25 away: the grid bins 3 axes."""
    rng = np.random.default_rng(12)
    base = rng.integers(0, 5, size=(100, 12)) * 0.25
    steps = np.eye(12)[rng.integers(0, 12, size=300)] * 0.25
    return np.concatenate([base, np.tile(base, (3, 1)) + steps])


@given(case=pair_inputs())
@example(case=(_twelve_dimensional_lattice(), 0.2, 0.3))
@example(case=(np.empty((0, 2)), 0.1, 0.2))
@settings(max_examples=200, deadline=None)
def test_annulus_pairs_equal_the_dense_reference(case):
    atoms, inner, outer = case
    _assert_identical(_annulus_pairs(atoms, inner, outer), _dense_pairs(atoms, inner, outer))


@pytest.mark.parametrize("points", [6, 11])
@pytest.mark.parametrize("seed", range(3))
def test_annulus_pairs_on_a_lattice_whose_step_is_outer(points, seed):
    # 300 atoms on a 1-D lattice of step outer = 1/3, each moved by up to two
    # ulps: the grid's cells are then about outer wide, and a pair outer
    # apart lands two cells apart unless _grid pads the cell side
    rng = np.random.default_rng(seed)
    outer = 1 / 3
    lattice = rng.integers(0, points, size=(300, 1)) * outer
    atoms = lattice + rng.integers(-2, 3, size=lattice.shape) * np.spacing(lattice + outer)
    _assert_identical(_annulus_pairs(atoms, 0.0, outer), _dense_pairs(atoms, 0.0, outer))


@pytest.mark.parametrize("kind", ["lattice", "duplicated"])
@pytest.mark.parametrize("n", [256, 257])
def test_one_block_and_grid_passes_equal_the_dense_reference(monkeypatch, n, kind):
    # 256 atoms fill one chunk of distances and are compared in one block with
    # no grid, both triangles; 257 are binned, the strict lower triangle.
    # Lattice atoms put many pairs on both annulus edges; duplicated ones put
    # pairs at distance 0 and repeat rows.
    rng = np.random.default_rng(n)
    atoms = rng.integers(0, 12, size=(n, 2)) * 0.1
    if kind == "duplicated":
        atoms[rng.random(n) < 0.5] = atoms[0]
    grids = []

    def counted(*args):
        grids.append(args)
        return grid(*args)

    grid = tc.kernels._grid
    monkeypatch.setattr("treeconfig.kernels._grid", counted)
    for inner, outer in ((0.1, 0.3), (0.0, 0.2), (0.3, 0.3)):
        _assert_identical(_annulus_pairs(atoms, inner, outer), _dense_pairs(atoms, inner, outer))
    assert len(grids) == (0 if n == 256 else 3)


@st.composite
def lattice_scans(draw):
    """Lattice atoms, some duplicated, and the eps0 annuli of a 2-5 point t-grid."""
    d = draw(st.integers(1, 3))
    step = draw(st.sampled_from([0.1, 0.125, 0.05]))
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    atoms = rng.integers(0, 11, size=(n, d)) * step
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    atoms[dup] = atoms[rng.integers(0, n, size=dup.sum())]
    k = draw(st.integers(2, 8))
    config = tc.ScanConfig(
        t_min=k * step,
        t_max=(k + draw(st.integers(0, 8))) * step,
        t_steps=draw(st.integers(2, 5)),
        eps0=draw(st.integers(1, 2 * k - 1)) * step / 2,
        halvings=0,
    )
    return atoms, [tc.KernelParams(t=float(t), eps=config.eps0) for t in config.t_values]


@given(scan=lattice_scans())
@settings(max_examples=120, deadline=None)
def test_mask_of_the_symmetric_envelope_is_the_built_graph(scan):
    # boundary distances and coincident atoms meet here: each t's graph must
    # be build()'s CSR entry for entry, since extraction walks its indices in
    # stored order; the envelope holds both triangles of the symmetric
    # relation up to 256 atoms, and its strict lower triangle past them
    atoms, annuli = scan
    inner, outer = min(p.inner for p in annuli), max(p.outer for p in annuli)
    envelope = _annulus_pairs(atoms, inner, outer)
    _assert_identical(envelope, _dense_pairs(atoms, inner, outer))
    for params in annuli:
        band = tc.AnnulusGraph.band(envelope, params)
        built = tc.AnnulusGraph.build(atoms, params)
        _assert_identical(_arrays(band), _arrays(built))
        _assert_adjacency_and_distances(band, atoms)


_SPECIAL_VALUES = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300, np.inf, -np.inf]


@st.composite
def sum_inputs(draw):
    """5-60 lattice atoms in d = 1-3, some duplicated, a lattice annulus, and values.

    Radii on half lattice steps put many pairs on the annulus edges. Values
    mix zeros of both signs, subnormals, +-1e300, infinities and any finite
    float, so sums overflow, cancel and meet -0.0.
    """
    d = draw(st.integers(1, 3))
    n = draw(st.integers(5, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.1, 0.125, 0.05]))
    atoms = rng.integers(0, 6, size=(n, d)) * step
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))
    atoms[dup] = atoms[rng.integers(0, n, size=dup.sum())]
    k = draw(st.integers(1, 6))
    params = tc.KernelParams(t=k * step, eps=draw(st.integers(1, 2 * k - 1)) * step / 2)
    value = st.one_of(st.sampled_from(_SPECIAL_VALUES), st.floats(allow_nan=False))
    return atoms, params, np.array(draw(st.lists(value, min_size=n, max_size=n)))


@given(case=sum_inputs())
@settings(max_examples=100, deadline=None)
def test_one_triangle_graph_sums_like_the_full_row_matrix(case):
    # the chained mat-vec of a one-triangle graph makes the full row's
    # additions in the same order, so it equals a full-row CSR mat-vec byte
    # for byte; its degrees and neighbour lists are the full rows' too
    atoms, params, values = case
    ref = reference_matrix(atoms, params)
    with one_triangle():
        graph = tc.AnnulusGraph.build(atoms, params)
    assert graph.lower
    _assert_identical(_arrays(graph), dense_pairs(atoms, params.inner, params.outer, lower=True))
    for x in (values, values[::-1].copy(), np.ones(len(atoms))):
        got = tc.annulus_sums(atoms, x, atoms, params, graph)
        _assert_identical([got], [ref @ x])
    assert np.array_equal(graph.degree(), np.diff(ref.indptr))
    above_ptr, above = graph.columns()
    for a in range(len(atoms)):
        row = graph.indices[graph.indptr[a] : graph.indptr[a + 1]]
        column = above[above_ptr[a] : above_ptr[a + 1]]
        full = ref.indices[ref.indptr[a] : ref.indptr[a + 1]]
        assert np.array_equal(np.concatenate([row, column]), full)
