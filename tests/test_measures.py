import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeconfig as tc
from conftest import SMALL_RATIO, product_cantor_spec
from treeconfig.measures import exact_sum


def test_single_map_fixed_point():
    spec = tc.IFSSpec(d=1, maps=[(0.5, (0.0,))], depth=3)
    mu = tc.build_ifs_measure(spec)
    assert len(mu) == 1
    assert mu.atoms[0, 0] == 0.0
    assert mu.weights[0] == 1.0


def _literal_ifs_levels(spec):
    """build_ifs_measure's atoms and weights by a loop over every level."""
    pos, wts = np.zeros((1, spec.d)), np.ones(1)
    for _ in range(spec.depth):
        pos = np.concatenate([t + r * pos for r, t in spec.maps])
        wts = np.concatenate([p * wts for p in spec.probabilities])
    return pos, wts


def test_single_map_at_the_default_atom_cap_is_fast():
    # one map at depth 10^6: the orbit of 0 reaches its fixed point long before
    spec = tc.IFSSpec(d=2, maps=[(0.9, (0.3, -0.7))], depth=10**6)
    start = time.perf_counter()
    mu = tc.build_ifs_measure(spec)
    assert time.perf_counter() - start < 1.0
    fixed = np.array([0.3, -0.7]) / (1 - 0.9)
    assert len(mu) == 1 and np.allclose(mu.atoms[0], fixed, rtol=1e-14)
    assert mu.weights.tolist() == [1.0]


def test_single_map_just_below_probability_one_at_the_default_atom_cap_is_fast():
    # the weight shrinks on every level, so it never repeats as the atom does
    p = 1 - 1e-13
    spec = tc.IFSSpec(d=2, maps=[(0.9, (0.3, -0.7))], depth=10**6, probabilities=[p])
    start = time.perf_counter()
    mu = tc.build_ifs_measure(spec)
    assert time.perf_counter() - start < 1.0
    assert len(mu) == 1 and mu.weights[0] == pytest.approx(p**10**6, rel=1e-9)
    assert mu.weights[0] < 1.0


@pytest.mark.parametrize("ratio", [0.5, 0.9, 0.999])
def test_single_map_equals_the_literal_loop_bit_for_bit(ratio):
    # ratio 0.999 is still moving at depth 2,000; the others stop early, and
    # below probability 1 the weight moves on after the atom has stopped
    for p in (1.0, 1 - 1e-13):
        spec = tc.IFSSpec(d=3, maps=[(ratio, (0.3, -0.7, 1e-3))], depth=2000, probabilities=[p])
        mu = tc.build_ifs_measure(spec)
        pos, wts = _literal_ifs_levels(spec)
        assert mu.atoms.tobytes() == pos.tobytes()
        assert mu.weights.tobytes() == wts.tobytes()


def test_two_map_depth_one():
    spec = tc.IFSSpec(d=1, maps=[(1 / 3, (0.0,)), (1 / 3, (2 / 3,))], depth=1)
    mu = tc.build_ifs_measure(spec)
    assert sorted(mu.atoms[:, 0]) == pytest.approx([0.0, 2 / 3])
    assert list(mu.weights) == [0.5, 0.5]


def _similarity_dim_bisect(ratios, lo=0.0, hi=10.0, iters=200):
    # independent oracle: plain bisection on sum(r^s) - 1
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if sum(r**mid for r in ratios) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_cantor_product_counts_and_dimension(cantor_small):
    assert len(cantor_small) == 4**5 == 1024
    assert cantor_small.total_mass == pytest.approx(1.0, abs=1e-12)
    spec = product_cantor_spec(SMALL_RATIO, 5)
    oracle = _similarity_dim_bisect([SMALL_RATIO] * 4)
    # analytically log 4 / log(10/3) = 1.15143...
    assert oracle == pytest.approx(math.log(4) / math.log(10 / 3), abs=1e-9)
    assert spec.similarity_dimension() == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 8])
@pytest.mark.parametrize("ratio", [0.1, 0.25, 1 / 3, SMALL_RATIO, 0.47179, 0.5])
def test_similarity_dimension_of_equal_ratios_to_two_ulps(k, ratio):
    spec = tc.IFSSpec(d=1, maps=[(ratio, (float(i),)) for i in range(k)], depth=1)
    exact = math.log(k) / math.log(1 / ratio)
    assert abs(spec.similarity_dimension() - exact) <= 2 * math.ulp(exact)


def test_similarity_dimension_solves_unequal_ratios():
    rng = np.random.default_rng(22)
    for _ in range(200):
        ratios = rng.uniform(0.05, 0.95, size=int(rng.integers(2, 8))).tolist()
        spec = tc.IFSSpec(d=1, maps=[(r, (float(i),)) for i, r in enumerate(ratios)], depth=1)
        s = spec.similarity_dimension()
        assert abs(math.fsum(r**s for r in ratios) - 1.0) <= 1e-15
    assert tc.IFSSpec(d=2, maps=[(0.3, (0.0, 0.0))], depth=3).similarity_dimension() == 0.0


def test_build_respects_atom_cap():
    spec = product_cantor_spec(SMALL_RATIO, 5)
    with pytest.raises(tc.ResourceCapError, match="1000"):
        tc.build_ifs_measure(spec, atom_cap=1000)


def test_ifs_validation():
    with pytest.raises(tc.ValidationError):
        tc.IFSSpec(d=1, maps=[(1.5, (0.0,))], depth=1)
    with pytest.raises(tc.ValidationError):
        tc.IFSSpec(d=1, maps=[(0.5, (0.0, 1.0))], depth=1)  # wrong translation dim
    with pytest.raises(tc.ValidationError):
        tc.IFSSpec(
            d=1,
            maps=[(0.5, (0.0,)), (0.5, (1.0,))],
            depth=1,
            probabilities=np.array([0.7, 0.7]),
        )


@pytest.mark.parametrize(
    "probabilities", [[math.nan, math.nan], [math.nan, 1.0], [math.inf, 0.0], [0.5, -math.inf]]
)
def test_ifs_rejects_non_finite_probabilities(probabilities):
    # a nan sum is not more than 1e-12 away from 1, so the sum check alone passed it
    with pytest.raises(tc.ValidationError, match="probabilities must be finite, got"):
        tc.IFSSpec(
            d=1, maps=[(0.5, (0.0,)), (0.5, (0.5,))], depth=2, probabilities=probabilities
        )


def test_ball_mass_single_atom():
    mu = tc.AtomicMeasure(d=2, atoms=[[0.0, 0.0]], weights=[1.0])
    for r in (1e-9, 0.5, 100.0):
        assert tc.ball_mass(mu, [0.0, 0.0], r) == 1.0


def test_ball_mass_two_atoms():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [2 / 3]], weights=[0.5, 0.5])
    assert tc.ball_mass(mu, [0.0], 0.5) == 0.5


def test_ball_mass_depth3_cell(cantor_small):
    # words are lexicographic, so a 3-prefix is a contiguous block of 4^2
    # indices. Center on the word (w1,w2,w3, 3, 0): suffix offset per axis is
    # r^3 * (0.7 + 0.3*0) = 0.0189, middle enough that the r^3-ball covers the
    # whole cell, and other cells stay >= 0.7*r^2 = 0.063 away.
    r3 = SMALL_RATIO**3
    prefix_block = 4**2
    center_idx = 5 * prefix_block + 3 * 4 + 0  # prefix (0,1,1), suffix (3,0)
    mass = tc.ball_mass(cantor_small, cantor_small.atoms[center_idx], r3)
    block_start = 5 * prefix_block
    oracle = math.fsum(cantor_small.weights[block_start : block_start + prefix_block])
    assert oracle == pytest.approx((1 / 4) ** 3, abs=1e-15)
    assert mass == pytest.approx(oracle, rel=1e-12)


def test_ball_mass_boundary_follows_pair_distance_in_high_dimension():
    # numpy's row norm sums 8 or more squares pairwise: for this atom it
    # gives 1.6673332000533068, one ulp above its pair_distance from 0
    atom = [0.3, 0.7, 0.1, 0.6, 0.4, 0.9, 0.2, 0.9, 0.1]
    mu = tc.AtomicMeasure(d=9, atoms=[atom], weights=[1.0])
    r = float(tc.pair_distance(np.array(atom), 0.0))
    assert r == 1.6673332000533065
    assert tc.ball_mass(mu, np.zeros(9), r) == 1.0


def test_ball_mass_validation():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0]], weights=[1.0])
    with pytest.raises(tc.ValidationError):
        tc.ball_mass(mu, [0.0], -1.0)
    with pytest.raises(tc.ValidationError):
        tc.ball_mass(mu, [0.0, 0.0], 1.0)


@given(
    r1=st.floats(min_value=1e-3, max_value=10.0),
    r2=st.floats(min_value=1e-3, max_value=10.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None)
def test_ball_mass_monotone_in_radius(r1, r2, seed):
    rng = np.random.default_rng(seed)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((20, 2)), weights=rng.random(20))
    lo, hi = sorted((r1, r2))
    center = rng.random(2)
    assert tc.ball_mass(mu, center, lo) <= tc.ball_mass(mu, center, hi)


def test_ball_mass_saturates_at_total():
    rng = np.random.default_rng(5)
    mu = tc.AtomicMeasure(d=3, atoms=rng.random((50, 3)), weights=rng.random(50))
    assert tc.ball_mass(mu, mu.atoms[0], 10.0) == pytest.approx(
        mu.total_mass, rel=1e-12
    )
    assert tc.ball_mass(mu, mu.atoms[0], 0.3) <= mu.total_mass


@st.composite
def float_arrays(draw):
    """0-5,000 floats of one shape, with a few drawn special values scattered in."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(0, 5000))
    shape = draw(st.sampled_from(["spread", "subnormal", "cancel", "equal", "huge"]))
    if shape == "spread":  # exponents over the whole finite range
        v = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, 1024, n))
    elif shape == "subnormal":
        v = np.ldexp(rng.integers(-(2**52), 2**52, n).astype(float), -1074)
    elif shape == "cancel":  # each term beside its negation, plus one small remainder
        half = np.ldexp(rng.uniform(-1.0, 1.0, n // 2), rng.integers(-1074, 1000, n // 2))
        v = np.concatenate([half, -half, rng.uniform(-1e-300, 1e-300, n % 2)])
        rng.shuffle(v)
    elif shape == "equal":  # all-equal weights
        v = np.full(n, draw(st.floats(allow_nan=False, allow_infinity=False)))
    else:  # near the top of the range, where fsum's partials may overflow
        v = rng.uniform(-1.0, 1.0, n) * 1.7e308
    specials = draw(st.lists(st.floats(), max_size=4 if n else 0))  # inf, nan, -0.0, ...
    v[rng.integers(0, max(n, 1), len(specials))] = specials
    return v


def _fsum_outcome(sum_, values):
    try:
        return struct.pack("<d", sum_(values))  # the sign of zero counts
    except (OverflowError, ValueError) as exc:
        return type(exc)


@given(values=float_arrays())
@settings(max_examples=300, deadline=None)
def test_exact_sum_is_fsum_bit_for_bit(values):
    # the reference iterates the array's numpy scalars; exact_sum hands fsum Python floats
    assert _fsum_outcome(exact_sum, values) == _fsum_outcome(math.fsum, values)


@pytest.mark.parametrize("seed", range(20))
def test_exact_sum_off_the_buffer_equals_fsum_of_the_list(seed):
    # exact_sum reads the array's buffer; fsum of its Python floats gets the
    # same floats in the same order, on contiguous and strided views alike
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 3000))
    v = 10.0 ** rng.uniform(-300, 300, n) * rng.choice([-1.0, 1.0], n)
    grid = v[: n - n % 3].reshape(-1, 3)
    for values in (v, v[::3], v[::-2], grid[:, 1], grid.T[2], v[:0], v[::-1][:0]):
        expected = _fsum_outcome(lambda a: math.fsum(np.asarray(a, dtype=float).tolist()), values)
        assert _fsum_outcome(exact_sum, values) == expected


def test_exact_sum_edge_cases():
    assert struct.pack("<d", exact_sum(np.array([-0.0, -0.0]))) == struct.pack(
        "<d", math.fsum([-0.0, -0.0])
    )
    # fsum's overflow depends on term order; exact_sum's follows it
    assert exact_sum(np.array([1e308, -1e308, 1e308])) == 1e308
    with pytest.raises(OverflowError):
        exact_sum(np.array([1e308, 1e308, -1e308]))
    assert math.isnan(exact_sum(np.array([1.0, math.nan])))
    assert exact_sum(np.array([math.inf, 1.0, -5.0])) == math.inf
    with pytest.raises(ValueError):
        exact_sum(np.array([math.inf, -math.inf]))
    assert exact_sum(np.empty(0)) == 0.0
    with pytest.raises(TypeError):
        exact_sum(np.float64(1.0))
    with pytest.raises(tc.ValidationError, match="mass overflows"):
        tc.measures.finite_fsum(np.array([1e308, 1e308]), "mass")


def test_restrict_identity_and_single():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    same = tc.restrict_measure(mu, [0, 1])
    assert np.array_equal(same.atoms, mu.atoms)
    assert same.total_mass == mu.total_mass
    one = tc.restrict_measure(mu, [0])
    assert len(one) == 1 and one.total_mass == 0.5


def test_restrict_errors():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    with pytest.raises(tc.ValidationError, match="kept no atoms"):
        tc.restrict_measure(mu, [])
    with pytest.raises(tc.ValidationError):
        tc.restrict_measure(mu, [0, 7])


def test_restrict_complement_partition():
    rng = np.random.default_rng(11)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((200, 2)), weights=rng.random(200))
    keep = np.flatnonzero(rng.random(200) < 0.4)
    rest = np.setdiff1d(np.arange(200), keep)
    total = (
        tc.restrict_measure(mu, keep).total_mass
        + tc.restrict_measure(mu, rest).total_mass
    )
    assert total == pytest.approx(mu.total_mass, rel=1e-12)


def test_measure_validation():
    with pytest.raises(tc.ValidationError):
        tc.AtomicMeasure(d=1, atoms=np.empty((0, 1)), weights=np.empty(0))
    with pytest.raises(tc.ValidationError):
        tc.AtomicMeasure(d=1, atoms=[[0.0]], weights=[-1.0])
    with pytest.raises(tc.ValidationError):
        tc.AtomicMeasure(d=1, atoms=[[np.nan]], weights=[1.0])


def test_measure_json_roundtrip(tmp_path):
    mu = tc.AtomicMeasure(
        d=2, atoms=[[0.0, 1.0], [0.5, 0.25]], weights=[0.25, 0.75], label="pair"
    )
    path = tmp_path / "m.json"
    mu.save(path)
    raw = json.loads(path.read_text())
    assert set(raw) == {"d", "atoms", "weights", "label"}
    assert len(raw["atoms"]) == len(raw["weights"])
    back = tc.AtomicMeasure.load(path)
    assert np.array_equal(back.atoms, mu.atoms)
    assert np.array_equal(back.weights, mu.weights)
    assert back.label == "pair"


def test_frostman_single_atom():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0]], weights=[1.0])
    report = tc.estimate_frostman(mu, 1, [0.1, 0.2, 0.5])
    assert report.s_hat == pytest.approx(0.0, abs=1e-9)


def test_frostman_uniform_grid_fits_plane_dimension():
    xs = (np.arange(64) + 0.5) / 64
    atoms = np.array([(x, y) for x in xs for y in xs])
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(64 * 64, 1.0 / 64**2))
    radii = [2.0**-i for i in range(2, 6)]
    report = tc.estimate_frostman(mu, 24, radii, seed=1)
    assert report.s_hat == pytest.approx(2.0, abs=0.15)
    # independent oracle: recount a few sampled balls with a direct loop
    for center_idx, r, mass in report.samples[:8]:
        d = np.sqrt(((atoms - atoms[center_idx]) ** 2).sum(axis=1))
        assert mass == pytest.approx(float((d <= r).sum()) / 64**2, rel=1e-12)


def test_frostman_cantor_matches_similarity_dimension(cantor_small_deep):
    radii = [SMALL_RATIO**i for i in range(2, 6)]
    report = tc.estimate_frostman(cantor_small_deep, 32, radii, seed=2)
    target = math.log(4) / math.log(1 / SMALL_RATIO)  # 1.15143...
    assert report.s_hat == pytest.approx(target, abs=0.1)


def test_frostman_growth_bound_holds_on_every_sample(cantor_small):
    report = tc.estimate_frostman(cantor_small, 16, [0.3**i for i in range(1, 5)])
    for _, r, mass in report.samples:
        assert mass <= report.C_hat * r**report.s_hat * (1 + 1e-9)


def test_frostman_validation_and_degenerate():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    with pytest.raises(tc.ValidationError):
        tc.estimate_frostman(mu, 2, [0.1, 0.2])  # too few radii
    with pytest.raises(tc.ValidationError):
        tc.estimate_frostman(mu, 2, [0.1, 0.15, 0.2])  # under 2 octaves
    with pytest.raises(tc.ValidationError):
        tc.estimate_frostman(mu, 3, [0.1, 0.2, 0.5])  # more centers than atoms
    hollow = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.0, 0.0])
    with pytest.raises(tc.DegenerateRadiiError):
        tc.estimate_frostman(hollow, 2, [0.1, 0.2, 0.5])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_frostman_rejects_non_finite_radii(bad):
    # an infinite radius once reached np.polyfit and failed there with an SVD error
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    with pytest.raises(tc.ValidationError, match="finite"):
        tc.estimate_frostman(mu, 2, [0.1, 0.2, bad])


def test_ifs_json_roundtrip():
    spec = product_cantor_spec(SMALL_RATIO, 2)
    back = tc.IFSSpec.from_dict(spec.to_dict())
    assert back.d == spec.d and back.depth == spec.depth
    assert back.similarity_dimension() == pytest.approx(spec.similarity_dimension())
    mu_a = tc.build_ifs_measure(spec)
    mu_b = tc.build_ifs_measure(back)
    assert np.array_equal(mu_a.atoms, mu_b.atoms)
