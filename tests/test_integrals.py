import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeconfig as tc
from conftest import pruefer_tree, random_tree


def _pair_measure(eps=0.1):
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    return mu, tc.KernelParams(t=1.0, eps=eps)


def test_bruteforce_single_edge_pair():
    mu, p = _pair_measure()
    res = tc.integral_bruteforce([mu, mu], tc.path_tree(1), p)
    assert res.value == pytest.approx(1.0 / (4 * p.eps))
    assert res.method == "oracle"


def test_bruteforce_one_atom_vanishes():
    mu = tc.AtomicMeasure(d=2, atoms=[[0.0, 0.0]], weights=[1.0])
    p = tc.KernelParams(t=0.5, eps=0.1)
    for tree in (tc.path_tree(1), tc.star_tree(2)):
        assert tc.integral_bruteforce([mu] * tree.n_vertices, tree, p).value == 0.0


def test_bruteforce_three_collinear_chain():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    p = tc.KernelParams(t=1.0, eps=0.1)
    res = tc.integral_bruteforce([mu] * 3, tc.path_tree(2), p)
    # six ordered homomorphisms of the 2-chain into 0-1-2
    assert res.value == pytest.approx(6 / 27 / (2 * p.eps) ** 2)


def test_bruteforce_cap():
    rng = np.random.default_rng(0)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((40, 2)), weights=rng.random(40))
    with pytest.raises(tc.ResourceCapError, match="cap of 100"):
        tc.integral_bruteforce([mu] * 4, tc.path_tree(3), tc.KernelParams(1, 0.1), term_cap=100)


def test_bruteforce_dimension_mismatch():
    a = tc.AtomicMeasure(d=1, atoms=[[0.0]], weights=[1.0])
    b = tc.AtomicMeasure(d=2, atoms=[[0.0, 0.0]], weights=[1.0])
    with pytest.raises(tc.ValidationError, match="dimension"):
        tc.integral_bruteforce([a, b], tc.path_tree(1), tc.KernelParams(1, 0.1))


def literal_sum(measures, tree, params):
    """The tree integral as a Python loop over itertools.product."""
    kernel = {
        (i, j): [
            [tc.kernel_weight(a - b, params) for b in measures[j].atoms]
            for a in measures[i].atoms
        ]
        for i, j in tree.edges
    }
    terms = []
    for tup in itertools.product(*(range(len(m)) for m in measures)):
        term = math.prod(float(m.weights[a]) for m, a in zip(measures, tup))
        for (i, j), km in kernel.items():
            term *= km[tup[i]][tup[j]]
        terms.append(term)
    return math.fsum(terms)


@st.composite
def oracle_instances(draw):
    d = draw(st.integers(1, 3))
    n_vertices = draw(st.integers(2, 5))
    pruefer = st.integers(0, n_vertices - 1)
    seq = draw(st.lists(pruefer, min_size=n_vertices - 2, max_size=n_vertices - 2))
    cell = st.tuples(*[st.integers(0, 6)] * d)
    weight = st.sampled_from([0.0, 0.125, 0.5, 1.0, 0.3])
    measures = []
    for _ in range(n_vertices):
        n = draw(st.integers(1, 5))
        cells = draw(st.lists(cell, min_size=n, max_size=n))
        weights = draw(st.lists(weight, min_size=n, max_size=n))
        # atoms on the 0.1-lattice, duplicates allowed
        measures.append(tc.AtomicMeasure(d=d, atoms=np.array(cells) / 10, weights=weights))
    k = draw(st.integers(1, 6))
    params = tc.KernelParams(t=k / 10, eps=draw(st.integers(1, 2 * k - 1)) / 20)
    return measures, pruefer_tree(seq, n_vertices), params


@given(instance=oracle_instances(), chunk=st.sampled_from([1, 3, 8, 40, 500_000]))
@settings(max_examples=150, deadline=None)
def test_bruteforce_equals_literal_sum(instance, chunk):
    # distinct measures per vertex, 1-atom vertices, duplicate atoms, zero
    # weights and boundary distances; small chunks force several prefix
    # blocks and every prefix/tail split
    measures, tree, params = instance
    expected = literal_sum(measures, tree, params)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("treeconfig.integrals._CHUNK", chunk)
        value = tc.integral_bruteforce(measures, tree, params).value
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_bruteforce_builds_one_kernel_per_pair_of_measures(monkeypatch):
    # [mu] * 5 gives the four edges one pair of measures, so one kernel; five
    # equal copies give four pairs. Folding a weight into a factor leaves the
    # shared kernel as it was, so both sums are the same bits
    calls = []

    def counted(a, b):
        calls.append(1)
        return tc.pair_distance(a, b)

    monkeypatch.setattr("treeconfig.integrals.pair_distance", counted)
    rng = np.random.default_rng(30)
    mu = tc.AtomicMeasure(d=2, atoms=rng.integers(0, 6, (12, 2)) / 10, weights=rng.random(12))
    tree = pruefer_tree([1, 1, 3], 5)
    params = tc.KernelParams(t=0.2, eps=0.1)
    shared = tc.integral_bruteforce([mu] * 5, tree, params).value
    assert len(calls) == 1
    copies = [tc.AtomicMeasure(d=2, atoms=mu.atoms, weights=mu.weights) for _ in range(5)]
    assert tc.integral_bruteforce(copies, tree, params).value == shared > 0
    assert len(calls) == 1 + 4


@pytest.mark.parametrize(
    "counts, chunk",
    [
        # a path keeps its order: the leaf 2 (or 1) is last, its neighbour before
        # it; the tail always holds both
        ([3, 4, 5], 500_000),  # one block, all vertices in the tail
        ([3, 4, 5], 6),  # n_u * n_v = 20 > 6: tail {1, 2}, one prefix tuple per block
        ([3, 4, 5], 45),  # tail {1, 2}, two prefix tuples per block
        ([3, 4, 5], 4),  # n_v = 5 > 4 too: tail {1, 2}, one prefix tuple per block
        ([20_000, 2], 1_000),  # skewed: no prefix, one block of 40,000 terms
        ([2, 20_000], 1_000),  # skewed the other way: no prefix, one block of 40,000 terms
    ],
)
def test_bruteforce_prefix_tail_splits(counts, chunk, monkeypatch):
    _check_split(tc.path_tree(len(counts) - 1), counts, chunk, False, monkeypatch)


@pytest.mark.parametrize(
    "tree, counts, chunk",
    [
        # the star's leaf 3 goes last after its neighbour 0: order 1, 2, 0, 3
        (tc.star_tree(3), [3, 4, 5, 2], 25),  # tail {0, 3}, four prefix tuples per block
        (tc.star_tree(3), [3, 4, 5, 2], 3),  # n_u * n_v = 6 > 3: tail {0, 3}, 20 one-tuple blocks
        (tc.star_tree(3), [3, 4, 5, 2], 1),  # n_v = 2 > 1 too: tail {0, 3}, 20 one-tuple blocks
        # edges (0,3) (1,3) (1,4) (2,3); the leaf 4 goes last after its
        # neighbour 1: order 0, 2, 3, 1, 4, so the factors run over (0,3)
        # (2,3) (3,1) (1,4). Vertex 3 is folded into its first edge only,
        # vertex 1 into an edge it shares with a folded vertex, 4 into the leaf edge
        (pruefer_tree([3, 3, 1], 5), [3, 2, 4, 3, 2], 15),  # tail {3, 1, 4}, blocks of 1
        (pruefer_tree([3, 3, 1], 5), [3, 2, 4, 3, 2], 30),  # tail {3, 1, 4}, blocks of 2
        (pruefer_tree([3, 3, 1], 5), [3, 2, 4, 3, 2], 5),  # tail {1, 4}, blocks of 1
    ],
)
def test_bruteforce_prefix_tail_splits_on_branching_trees(tree, counts, chunk, monkeypatch):
    _check_split(tree, counts, chunk, True, monkeypatch)


def _check_split(tree, counts, chunk, zero_weights, monkeypatch):
    """Oracle == literal sum under a forced _CHUNK; repeatable; inputs untouched."""
    rng = np.random.default_rng(sum(counts) + chunk)
    measures = []
    for n in counts:
        weights = rng.random(n)
        if zero_weights:
            weights[::3] = 0.0
        measures.append(tc.AtomicMeasure(d=2, atoms=rng.random((n, 2)), weights=weights))
    before = [(m.atoms.copy(), m.weights.copy()) for m in measures]
    # the wider annulus keeps branching trees with zero weights off a zero sum
    params = tc.KernelParams(t=0.5, eps=0.3 if zero_weights else 0.2)
    expected = literal_sum(measures, tree, params)
    monkeypatch.setattr("treeconfig.integrals._CHUNK", chunk)
    value = tc.integral_bruteforce(measures, tree, params).value
    assert value > 0
    assert value == pytest.approx(expected, rel=1e-12, abs=0.0)
    # no factor is written in place: a second call repeats the value bit for
    # bit and every measure is as it was
    assert tc.integral_bruteforce(measures, tree, params).value == value
    for m, (atoms, weights) in zip(measures, before):
        assert np.array_equal(m.atoms, atoms) and np.array_equal(m.weights, weights)


def test_bruteforce_memory_stays_within_a_few_blocks():
    # 24^5 = 7,962,624 terms in 24 blocks of 24^4; at most two blocks of
    # _CHUNK float64 terms may be live at once, so 4 blocks is ample
    rng = np.random.default_rng(24)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((24, 2)), weights=rng.random(24) + 0.01)
    tree = pruefer_tree([1, 1, 3], 5)
    params = tc.KernelParams(t=0.5, eps=0.2)
    tracemalloc.start()
    try:
        value = tc.integral_bruteforce([mu] * 5, tree, params).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * tc.integrals._CHUNK * 8
    peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), params).value
    assert value == pytest.approx(peel, rel=1e-9, abs=0.0)
    assert value > 0


@pytest.mark.parametrize("n_vertices", [40, 70])
def test_bruteforce_long_path_of_single_atoms(n_vertices):
    # at most 31 tail axes, however small the tail's tuple count
    measures = [
        tc.AtomicMeasure(d=1, atoms=[[float(v)]], weights=[0.5 + v % 3 / 4])
        for v in range(n_vertices)
    ]
    tree = tc.path_tree(n_vertices - 1)
    params = tc.KernelParams(t=1.0, eps=0.1)
    value = tc.integral_bruteforce(measures, tree, params).value
    assert value == pytest.approx(literal_sum(measures, tree, params), rel=1e-12, abs=0.0)
    assert value > 0


_ORACLE_BATTERY = """
import numpy as np
import treeconfig as tc

rng = np.random.default_rng(23)
trees = [tc.path_tree(1), tc.path_tree(3), tc.star_tree(3), tc.star_tree(4)]
for chunk in (tc.integrals._CHUNK, 2_560_000):
    tc.integrals._CHUNK = chunk
    for tree in trees:
        for n in (7, 25, 40):
            if n**tree.n_vertices <= 10**7:
                mu = tc.AtomicMeasure(d=2, atoms=rng.random((n, 2)), weights=rng.random(n))
                measures = [mu] * tree.n_vertices
                print(tc.integral_bruteforce(measures, tree, tc.KernelParams(0.5, 0.3)).value.hex())
"""


_BLAS = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get("name", "")


@pytest.mark.skipif("openblas" not in _BLAS.lower(), reason="OPENBLAS_NUM_THREADS needs OpenBLAS")
def test_bruteforce_is_independent_of_the_blas_thread_count():
    # At _CHUNK = 2,560,000 a 40-atom 4-vertex tree is one block, whose
    # product (1600 x 40) @ (40 x 40) has m*n*k = 2.56M, over the size at
    # which OpenBLAS 0.3 splits a GEMM across threads; the blocks at the
    # default _CHUNK have m*n*k at most 500,000 and stay on one thread.
    # The test checks that the values are equal under both settings, not
    # that a second thread ran.
    src = str(Path(tc.__file__).resolve().parents[1])
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _ORACLE_BATTERY], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outputs[0].split()) == 22
    assert outputs[0] == outputs[1]


def test_peel_matches_oracle_on_trivials():
    mu, p = _pair_measure()
    sched = tc.compute_peel_schedule(tc.path_tree(1))
    assert tc.integral_peel(mu, sched, p).value == pytest.approx(1 / (4 * p.eps))

    mu3 = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    sched3 = tc.compute_peel_schedule(tc.path_tree(2))
    assert tc.integral_peel(mu3, sched3, p).value == pytest.approx(
        6 / 27 / (2 * p.eps) ** 2
    )


def test_peel_stage_log_shape():
    mu3 = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    sched = tc.compute_peel_schedule(tc.path_tree(2))
    res = tc.integral_peel(mu3, sched, tc.KernelParams(1.0, 0.1))
    assert res.method == "peel"
    assert len(res.stage_log) == sched.n_rounds + 1
    assert res.stage_log[-1].label == "terminal"


@pytest.mark.parametrize("seed", range(25))
def test_peel_equals_oracle_random_sweep(seed):
    rng = np.random.default_rng(1000 + seed)
    n_vertices = int(rng.integers(2, 6))
    n_atoms = int(rng.integers(2, 41 if n_vertices <= 3 else 16))
    tree = random_tree(n_vertices, rng)
    mu = tc.AtomicMeasure(
        d=2, atoms=rng.random((n_atoms, 2)), weights=rng.random(n_atoms) + 0.01
    )
    t = float(rng.uniform(0.15, 0.9))
    p = tc.KernelParams(t=t, eps=float(rng.uniform(0.1, 0.9)) * t)
    oracle = tc.integral_bruteforce([mu] * n_vertices, tree, p, term_cap=10**7)
    peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), p)
    assert peel.value == pytest.approx(oracle.value, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_restricted_peel_equals_per_vertex_restricted_oracle(seed):
    rng = np.random.default_rng(2000 + seed)
    n_atoms = int(rng.integers(8, 15))
    # half clustered, a few flung far so good sets actually prune
    atoms = np.vstack(
        [rng.random((n_atoms - 3, 2)), rng.random((3, 2)) * 8 + 15]
    )
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=rng.random(n_atoms) + 0.05)
    tree = random_tree(int(rng.integers(2, 7)), rng)
    sched = tc.compute_peel_schedule(tree)
    p = tc.KernelParams(t=0.45, eps=0.15)
    try:
        chain = tc.nested_good_sets(mu, p, sched.required_depth)
    except tc.StageFailureError:
        pytest.skip("no viable field at this seed")
    restricted = tc.integral_peel(mu, sched, p, chain)
    per_vertex = [tc.restrict_measure(mu, chain.stage_indices(s)) for s in sched.stages]
    oracle = tc.integral_bruteforce(per_vertex, tree, p, term_cap=10**8)
    assert restricted.value == pytest.approx(oracle.value, rel=1e-9, abs=1e-12)


def test_restricted_peel_reuses_the_chain_fields(monkeypatch, cantor_small):
    # path_tree(2): one round whose leaf is pristine, then the terminal pair
    p = tc.KernelParams(t=0.6, eps=0.06)
    sched = tc.compute_peel_schedule(tc.path_tree(2))
    chain = tc.nested_good_sets(cantor_small, p, sched.required_depth)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return tc.annulus_sums(*args, **kwargs)

    monkeypatch.setattr("treeconfig.integrals.annulus_sums", counted)
    restricted = tc.integral_peel(cantor_small, sched, p, chain)
    assert len(calls) == 1  # the terminal's inner sum only
    calls.clear()
    tc.integral_peel(cantor_small, sched, p)
    assert len(calls) == 2  # mu's field once, then the terminal's inner sum
    stage_min = chain.fields[0][chain.stage_indices(1)].min()
    assert restricted.stage_log[0].factor_min == float(stage_min)


@pytest.mark.parametrize("k", [3, 4])
def test_restricted_terminal_log_is_the_field_of_z1s_stage(k, cantor_small):
    # the terminal's pure field is that of mu restricted to z1's stage, read
    # on z2's stage (path_tree(3) bumps z2 from z1's stage, path_tree(4) not);
    # at this scale G(1) drops atoms, so the stage-1 and stage-2 fields differ
    p = tc.KernelParams(t=0.45, eps=0.05)
    sched = tc.compute_peel_schedule(tc.path_tree(k))
    chain = tc.nested_good_sets(cantor_small, p, sched.required_depth)
    (z1, z2), stages = sched.terminal, sched.stages
    weights = chain.on_stage(stages[z1], cantor_small.weights)
    source = replace(cantor_small, weights=weights)
    ref = tc.convolve_field(source, p)[chain.stage_indices(stages[z2])]
    log = tc.integral_peel(cantor_small, sched, p, chain).stage_log[-1]
    assert (log.factor_min, log.factor_max) == (ref.min(), ref.max())


def test_restricted_round_logs_are_the_stage_fields(cantor_small):
    # round j's log is the field of mu restricted to stage j-1, read on stage j
    # and raised to each host's multiplicity. Only round 1's pristine leaves
    # take that field as a message, so this log is the one reader of the
    # later rounds' fields. The spider's round 2 has a host of multiplicity 2;
    # at this scale G(1) drops atoms, so rounds 1 and 2 read different fields.
    p = tc.KernelParams(t=0.45, eps=0.05)
    spider = tc.TreeGraph(8, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6), (6, 7)))
    for tree in (tc.path_tree(4), tc.path_tree(5), spider):
        sched = tc.compute_peel_schedule(tree)
        chain = tc.nested_good_sets(cantor_small, p, sched.required_depth)
        log = tc.integral_peel(cantor_small, sched, p, chain).stage_log
        assert len(log) == sched.n_rounds + 1 >= 3
        for j, rnd in enumerate(sched.rounds, start=1):
            source = replace(cantor_small, weights=chain.on_stage(j - 1, cantor_small.weights))
            ref = tc.convolve_field(source, p)[chain.stage_indices(j)]
            powered = [ref**mult for _, mult in rnd.attachments]
            expected = (min(x.min() for x in powered), max(x.max() for x in powered))
            assert (log[j - 1].factor_min, log[j - 1].factor_max) == expected
    assert max(mult for rnd in sched.rounds for _, mult in rnd.attachments) == 2


def test_peel_rejects_mismatched_chain():
    mu, p = _pair_measure()
    sched = tc.compute_peel_schedule(tc.path_tree(1))
    chain = tc.nested_good_sets(mu, p, 1)
    other = tc.KernelParams(t=1.0, eps=0.05)
    with pytest.raises(tc.ValidationError, match="parameters"):
        tc.integral_peel(mu, sched, other, chain)
    deep_tree = tc.compute_peel_schedule(tc.path_tree(4))
    mu5 = tc.AtomicMeasure(d=1, atoms=[[float(i)] for i in range(5)], weights=[0.2] * 5)
    chain5 = tc.nested_good_sets(mu5, p, 1)
    with pytest.raises(tc.ValidationError, match="depth"):
        tc.integral_peel(mu5, deep_tree, p, chain5)


def test_automorphism_invariance_path_reversal():
    # reversing the path permutes the per-vertex measures but not the value
    rng = np.random.default_rng(9)
    measures = [
        tc.AtomicMeasure(d=2, atoms=rng.random((7, 2)), weights=rng.random(7) + 0.1)
        for _ in range(4)
    ]
    tree = tc.path_tree(3)
    p = tc.KernelParams(t=0.5, eps=0.2)
    forward = tc.integral_bruteforce(measures, tree, p)
    backward = tc.integral_bruteforce(measures[::-1], tree, p)
    assert forward.value == pytest.approx(backward.value, rel=1e-12)


def test_monotone_in_added_atom():
    rng = np.random.default_rng(4)
    atoms = rng.random((12, 2))
    w = rng.random(12) + 0.05
    mu = tc.AtomicMeasure(d=2, atoms=atoms, weights=w)
    bigger = tc.AtomicMeasure(
        d=2,
        atoms=np.vstack([atoms, rng.random((1, 2))]),
        weights=np.concatenate([w, [0.3]]),
    )
    p = tc.KernelParams(t=0.4, eps=0.12)
    for tree in (tc.path_tree(2), tc.star_tree(3)):
        sched = tc.compute_peel_schedule(tree)
        small_v = tc.integral_peel(mu, sched, p).value
        big_v = tc.integral_peel(bigger, sched, p).value
        assert big_v >= small_v - 1e-12


def test_chain_mass_three_collinear():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0], [2.0]], weights=[1 / 3] * 3)
    p = tc.KernelParams(t=1.0, eps=0.1)
    assert tc.chain_neighborhood_mass(mu, 2, p) == pytest.approx(6 / 27)


def test_chain_mass_single_atom():
    mu = tc.AtomicMeasure(d=2, atoms=[[0.0, 0.0]], weights=[1.0])
    assert tc.chain_neighborhood_mass(mu, 1, tc.KernelParams(0.5, 0.1)) == 0.0


def test_chain_mass_algebraic_relation():
    rng = np.random.default_rng(12)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((30, 2)), weights=rng.random(30))
    p = tc.KernelParams(t=0.5, eps=0.1)
    # a graph filtered down from a wider annulus gives the same mass exactly
    graph = tc.AnnulusGraph.build(mu.atoms, tc.KernelParams(t=0.5, eps=0.2)).within(p)
    for k in (1, 2, 3):
        sched = tc.compute_peel_schedule(tc.path_tree(k))
        expected = tc.integral_peel(mu, sched, p).value * (2 * p.eps) ** k
        mass = tc.chain_neighborhood_mass(mu, k, p)
        assert mass == pytest.approx(expected, rel=1e-12)
        assert tc.chain_neighborhood_mass(mu, k, p, graph=graph) == mass


def test_chain_mass_bounds_nondegenerate_tuples():
    # the integral counts repeats too, so (2 eps)^k * integral dominates the
    # mass of injective chains, enumerated here directly
    rng = np.random.default_rng(21)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((8, 2)), weights=rng.random(8))
    p = tc.KernelParams(t=0.5, eps=0.2)
    k = 2
    injective = 0.0
    for tup in itertools.permutations(range(8), k + 1):
        if all(
            p.inner <= np.linalg.norm(mu.atoms[tup[i + 1]] - mu.atoms[tup[i]]) <= p.outer
            for i in range(k)
        ):
            injective += math.prod(mu.weights[list(tup)])
    assert tc.chain_neighborhood_mass(mu, k, p) >= injective - 1e-12


def test_result_validation():
    p = tc.KernelParams(1.0, 0.1)
    with pytest.raises(tc.ValidationError):
        tc.IntegralResult(value=-1.0, method="peel", stage_log=[], params=p)
    with pytest.raises(tc.ValidationError):
        tc.IntegralResult(value=math.nan, method="peel", stage_log=[], params=p)
