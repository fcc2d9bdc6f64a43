"""Metamorphic relations of whole scans on small lattice measures.

A scan's outputs must transform exactly as its inputs do:

- scaling the atoms, t_min, t_max and eps0 by 2^j keeps every decision
  (statuses, stage deltas, witness outcomes, search node counts) bit for
  bit, divides l1 by 2^j, l2sq by 4^j and the restricted integral by
  2^(j(n-1)) on a tree with n vertices, and multiplies the interval by 2^j.
  Doubling is exact in floating point and sqrt is correctly rounded, so
  every pair distance scales exactly and every annulus test keeps its
  outcome; 1/(2 eps) and every math.fsum scale exactly too;
- reflecting one axis changes no pair distance, so every row is identical;
- swapping the two axes in d = 2 changes no pair distance either, as a sum
  of two squares commutes exactly, so every row is identical;
- permuting the atoms changes only the order of each mat-vec's sums, so
  statuses and witness outcomes agree and values agree to rounding.

The atoms and t lie on a 0.1-lattice and eps on the 0.05-lattice, so many
pairs sit on annulus boundaries. Coordinates are at most 0.4 and scales at
most 2^3 either way, and an integral has at most 4 edge factors, so no
value comes near underflow or overflow, where scaling would stop being
exact.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treeconfig as tc
from conftest import pruefer_tree


@st.composite
def lattice_scans(draw, dims=st.integers(1, 3)):
    """(measure, tree, config): 2-12 atoms in d = 1-3, duplicates allowed."""
    d = draw(dims)
    cells = st.tuples(*[st.integers(0, 4)] * d)
    coords = draw(st.lists(cells, min_size=2, max_size=10))
    coords += coords[: draw(st.integers(0, 2))]  # duplicate atoms
    dyadic = st.integers(1, 8).map(lambda m: m / 8)
    weight = draw(st.sampled_from([dyadic, st.floats(0.01, 1.0)]))
    weights = draw(st.lists(weight, min_size=len(coords), max_size=len(coords)))
    mu = tc.AtomicMeasure(d=d, atoms=np.array(coords, float) * 0.1, weights=weights)

    n = draw(st.integers(2, 5))
    seq = draw(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
    tree = pruefer_tree(seq, n)

    a = draw(st.integers(1, 4))
    config = tc.ScanConfig(
        t_min=a * 0.1,
        t_max=(a + draw(st.integers(0, 3))) * 0.1,
        t_steps=draw(st.integers(2, 3)),
        eps0=draw(st.integers(1, 2 * a - 1)) * 0.05,
        halvings=draw(st.integers(0, 2)),
    )
    return mu, tree, config


def _with_atoms(mu, atoms, weights=None):
    return tc.AtomicMeasure(
        d=mu.d, atoms=atoms, weights=mu.weights if weights is None else weights
    )


@given(case=lattice_scans(), j=st.integers(-3, 3))
@settings(max_examples=40, deadline=None)
def test_scaling_by_a_power_of_two_is_exact(case, j):
    mu, tree, config = case
    scaled_config = tc.ScanConfig(
        t_min=math.ldexp(config.t_min, j),
        t_max=math.ldexp(config.t_max, j),
        t_steps=config.t_steps,
        eps0=math.ldexp(config.eps0, j),
        halvings=config.halvings,
    )
    base = tc.scan_interval(config, mu, tree)
    scaled = tc.scan_interval(scaled_config, _with_atoms(mu, np.ldexp(mu.atoms, j)), tree)

    for r, s in zip(base.rows, scaled.rows, strict=True):
        assert (s.t, s.eps) == (math.ldexp(r.t, j), math.ldexp(r.eps, j))
        assert s.status == r.status
        assert s.stage_deltas == r.stage_deltas
        assert (s.witness, s.embed_nodes) == (r.witness, r.embed_nodes)
        assert (s.homomorphism, s.distinct_witness) == (r.homomorphism, r.distinct_witness)
        if r.l1 is not None:
            assert (s.l1, s.l2sq) == (math.ldexp(r.l1, -j), math.ldexp(r.l2sq, -2 * j))
        assert (s.integral is None) == (r.integral is None)
        if r.integral is not None:
            assert s.integral.value == math.ldexp(r.integral.value, -j * tree.k)
    if base.interval is None:
        assert scaled.interval is None
    else:
        assert scaled.interval == tuple(math.ldexp(x, j) for x in base.interval)
        assert (scaled.c_k, scaled.C_k) == (
            math.ldexp(base.c_k, -j * tree.k),
            math.ldexp(base.C_k, -j * tree.k),
        )


@given(case=lattice_scans(), axis=st.integers(0, 2))
@settings(max_examples=25, deadline=None)
def test_reflecting_an_axis_keeps_every_row(case, axis):
    mu, tree, config = case
    atoms = mu.atoms.copy()
    atoms[:, axis % mu.d] *= -1.0
    base = tc.scan_interval(config, mu, tree).to_dict()
    reflected = tc.scan_interval(config, _with_atoms(mu, atoms), tree).to_dict()
    assert reflected["rows"] == base["rows"]
    assert reflected["interval"] == base["interval"]


@given(case=lattice_scans(dims=st.just(2)))
@settings(max_examples=25, deadline=None)
def test_swapping_the_axes_in_the_plane_keeps_every_row(case):
    mu, tree, config = case
    base = tc.scan_interval(config, mu, tree).to_dict()
    swapped = tc.scan_interval(config, _with_atoms(mu, mu.atoms[:, ::-1]), tree).to_dict()
    assert swapped["rows"] == base["rows"]
    assert swapped["interval"] == base["interval"]


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=0.0)


@given(case=lattice_scans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_permuting_the_atoms_keeps_decisions_and_values(case, seed):
    mu, tree, config = case
    order = np.random.default_rng(seed).permutation(len(mu))
    base = tc.scan_interval(config, mu, tree)
    shuffled = _with_atoms(mu, mu.atoms[order], mu.weights[order])
    permuted = tc.scan_interval(config, shuffled, tree)

    for r, p in zip(base.rows, permuted.rows, strict=True):
        assert (p.t, p.eps, p.status) == (r.t, r.eps, r.status)
        assert (p.homomorphism, p.distinct_witness, p.witness) == (
            r.homomorphism, r.distinct_witness, r.witness,
        )
        if r.l1 is not None:
            assert _close(p.l1, r.l1) and _close(p.l2sq, r.l2sq)
        assert len(p.stage_deltas) == len(r.stage_deltas)
        assert all(map(_close, p.stage_deltas, r.stage_deltas))
        assert (p.integral is None) == (r.integral is None)
        if r.integral is not None:
            assert _close(p.integral.value, r.integral.value)
    assert permuted.interval == base.interval
