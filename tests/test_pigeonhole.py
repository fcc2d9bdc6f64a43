import math

import numpy as np
import pytest

import treeconfig as tc

P = tc.KernelParams(t=1.0, eps=0.1)


def _field(values):
    return tc.FieldValues(values=np.asarray(values, dtype=float), params=P)


def test_profile_constant_field():
    prof = tc.chebyshev_profile(_field([1.0] * 4), np.full(4, 0.25), c_prime=0.25, m_low=0)
    assert prof.below_mass == 0.0
    assert prof.C_bound == 1.0
    assert prof.levels == [(0, 1.0)]


def test_profile_tight_chebyshev_level():
    prof = tc.chebyshev_profile(_field([4.0, 0.0]), np.array([0.25, 0.75]), 0.1, 0)
    assert prof.C_bound == 4.0
    assert prof.below_mass == 0.75
    # level 2 mass 1/4 meets the bound 4 * 2^-4 = 1/4 exactly
    assert (2, 0.25) in prof.levels
    assert prof.C_bound * 2.0**-4 == 0.25


@pytest.mark.parametrize("seed", range(8))
def test_profile_random_fields(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 200))
    vals = rng.exponential(2.0, size=n) * (rng.random(n) < 0.8)
    w = rng.random(n)
    prof = tc.chebyshev_profile(_field(vals), w, c_prime=float(rng.uniform(0.01, 1.0)), m_low=-2)
    total = prof.below_mass + math.fsum(m for _, m in prof.levels)
    assert total == pytest.approx(math.fsum(w), rel=1e-12)
    for l, mass in prof.levels:
        assert mass <= prof.C_bound * 2.0 ** (-2 * l)


def test_profile_validation():
    with pytest.raises(tc.ValidationError):
        tc.chebyshev_profile(_field([1.0]), np.ones(2), 0.1, 0)
    with pytest.raises(tc.ValidationError):
        tc.chebyshev_profile(_field([1.0]), np.ones(1), -0.1, 0)


def test_good_set_constant_field_formulas():
    mu = tc.AtomicMeasure(d=1, atoms=[[float(i)] for i in range(4)], weights=[0.25] * 4)
    gs = tc.good_set(_field([1.0] * 4), mu, c=0.9)
    assert gs.m == 5  # ceil(log2(16 * 1 / 0.9))
    assert gs.c_low == pytest.approx(0.9 / 4)
    assert gs.delta == pytest.approx(0.9 / 64)
    assert len(gs.indices) == 4
    assert gs.achieved_mass == 1.0


def test_good_set_two_level_field():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    gs = tc.good_set(_field([2.0, 0.0]), mu, c=0.5)
    assert gs.m == 6  # C = 2, ceil(log2(64))
    assert gs.delta == pytest.approx(0.5 / 128)
    assert list(gs.indices) == [0]
    assert gs.achieved_mass == 0.5


@pytest.mark.parametrize("seed", range(10))
def test_good_set_certificates_random(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 300))
    vals = rng.exponential(1.0, size=n) * (rng.random(n) < 0.9)
    w = rng.random(n) + 1e-3
    mu = tc.AtomicMeasure(d=1, atoms=rng.random((n, 1)), weights=w)
    l1 = math.fsum(w * vals)
    if l1 <= 0:
        pytest.skip("degenerate draw")
    gs = tc.good_set(_field(vals), mu, c=l1 / 2)
    # re-verify both certificates externally
    kept = np.zeros(n, dtype=bool)
    kept[gs.indices] = True
    assert math.fsum((w * vals)[kept]) >= l1 / 4  # = c/2
    assert math.fsum(w[kept]) >= gs.delta
    assert np.all(vals[kept] > gs.c_low)
    assert np.all(vals[kept] < 2.0**gs.m)


def test_good_set_preconditions():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    f = _field([1.0, 1.0])
    with pytest.raises(tc.ValidationError):
        tc.good_set(f, mu, c=0.0)
    with pytest.raises(tc.ValidationError):
        tc.good_set(f, mu, c=1.5)  # above the actual integral
    with pytest.raises(tc.ValidationError):
        tc.good_set(_field([1.0]), mu, c=0.5)  # length mismatch


def test_good_set_rejects_a_field_without_a_finite_ceiling():
    # 16 C / c overflows although C itself is finite (first) or not (second)
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    for value in (1e154, 1e200):
        f = _field([value, value])
        with np.errstate(over="ignore"), pytest.raises(tc.ValidationError, match="dyadic ceiling"):
            tc.good_set(f, mu, c=value / 2)
    # each w * f^2 is finite but their sum is not: field_norms refuses it
    f = _field([1.3e154, 1.3e154])
    with pytest.raises(tc.ValidationError, match="field square integral overflows"):
        tc.good_set(f, tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[1.0, 1.0]), c=1.0)
    with pytest.raises(tc.ValidationError, match="field square integral overflows"):
        tc.chebyshev_profile(f, [1.0, 1.0], c_prime=1.0, m_low=0)


def test_nested_depth_one_equals_good_set():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    chain = tc.nested_good_sets(mu, P, depth=1)
    f = tc.convolve_field(mu, P)
    l1, _ = tc.field_norms(f, mu.weights)
    direct = tc.good_set(f, mu, l1 / 2)
    assert list(chain.stages[0].indices) == list(direct.indices)
    assert chain.stages[0].m == direct.m
    assert chain.stages[0].delta == direct.delta


def test_nested_two_atoms_keep_both_at_depth_two():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    chain = tc.nested_good_sets(mu, P, depth=2)
    assert list(chain.stages[0].indices) == [0, 1]
    assert list(chain.stages[1].indices) == [0, 1]
    assert chain.stages[1].achieved_mass == 1.0


def _escaping_atom():
    # Atom 100 (weight 0.01) sits at distance 1 from atoms 99 and 101, so
    # its stage-1 field, 755, is above the ceiling 2^m = 512 and it leaves
    # G(1). Atom 101 (weight 150, field 0.05) falls below the cutoff and
    # leaves G(1) too, which drops atom 100's stage-2 field to 5, back
    # inside the stage-2 range: only the zeroing of the field off G(1)
    # keeps atom 100 out of G(2).
    weights = [1.0] * 100 + [0.01, 150.0]
    mu = tc.AtomicMeasure(d=1, atoms=np.arange(102.0).reshape(-1, 1), weights=weights)
    return mu, tc.KernelParams(t=1.0, eps=0.1), 2


@pytest.mark.parametrize("case", ["cantor_small", "escaping_atom"])
def test_nested_chain_invariants(case, request):
    if case == "cantor_small":
        mu, p, depth = request.getfixturevalue(case), tc.KernelParams(t=0.6, eps=0.06), 3
    else:
        mu, p, depth = _escaping_atom()
    chain = tc.nested_good_sets(mu, p, depth=depth)
    assert chain.depth == depth
    prev = set(range(len(mu)))
    prev_mass = mu.total_mass
    for gs in chain.stages:
        cur = set(int(i) for i in gs.indices)
        assert cur and cur <= prev
        mass = tc.restrict_measure(mu, gs.indices).total_mass
        assert mass <= prev_mass + 1e-15
        assert mass == gs.achieved_mass
        assert gs.achieved_mass >= gs.delta
        prev, prev_mass = cur, mass


def test_chain_keeps_each_stage_field_at_its_atoms(cantor_small):
    # reference: each stage selected on the previous stage's restricted
    # measure, its positions remapped to atom ids
    p = tc.KernelParams(t=0.6, eps=0.06)
    chain = tc.nested_good_sets(cantor_small, p, depth=3)
    prev_ids = np.arange(len(cantor_small))
    for j in range(1, chain.depth + 1):
        prev = tc.restrict_measure(cantor_small, prev_ids)
        f = tc.convolve_field(prev, p)
        l1, _ = tc.field_norms(f, prev.weights)
        ref = tc.good_set(f, prev, l1 / 2, stage=j)
        gs, ids = chain.stages[j - 1], chain.stage_indices(j)
        assert np.array_equal(ids, prev_ids[ref.indices])
        assert (gs.m, gs.c_low, gs.delta) == (ref.m, ref.c_low, ref.delta)
        assert gs.achieved_mass == ref.achieved_mass
        stored = chain.fields[j - 1]
        assert stored.shape == (len(cantor_small),)
        assert np.array_equal(stored[ids], f.values[ref.indices])
        assert not np.any(np.delete(stored, ids))
        prev_ids = ids


def test_handed_in_field_is_used_and_checked(cantor_small):
    p = tc.KernelParams(t=0.6, eps=0.06)
    f = tc.convolve_field(cantor_small, p)
    chain = tc.nested_good_sets(cantor_small, p, depth=2, field=f)
    plain = tc.nested_good_sets(cantor_small, p, depth=2)
    for a, b in zip(chain.fields, plain.fields):
        assert np.array_equal(a, b)
    other = tc.convolve_field(cantor_small, tc.KernelParams(t=0.6, eps=0.05))
    with pytest.raises(tc.ValidationError, match="stage-1 field"):
        tc.nested_good_sets(cantor_small, p, depth=1, field=other)
    short = tc.FieldValues(values=f.values[:-1], params=p)
    with pytest.raises(tc.ValidationError, match="stage-1 field"):
        tc.nested_good_sets(cantor_small, p, depth=1, field=short)


def test_restricted_mass_meets_certificate(cantor_small):
    # cross-module consistency: restricting to G(1) keeps at least delta
    p = tc.KernelParams(t=0.6, eps=0.06)
    chain = tc.nested_good_sets(cantor_small, p, depth=1)
    restricted = tc.restrict_measure(cantor_small, chain.stages[0].indices)
    assert restricted.total_mass >= chain.stages[0].delta


def test_stage_failure_names_stage_and_params():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    far = tc.KernelParams(t=7.0, eps=0.5)
    with pytest.raises(tc.StageFailureError, match=r"stage 1.*t=7.0") as exc:
        tc.nested_good_sets(mu, far, depth=1)
    assert exc.value.stage == 1
    assert exc.value.t == 7.0


def test_nested_depth_validation():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    with pytest.raises(tc.ValidationError):
        tc.nested_good_sets(mu, P, depth=0)


def test_chain_records_roundtrip():
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    chain = tc.nested_good_sets(mu, P, depth=2)
    recs = chain.to_records()
    assert [r["stage"] for r in recs] == [1, 2]
    assert all(
        set(r) == {"stage", "kept", "c_low", "m", "delta", "achieved_mass"}
        for r in recs
    )
