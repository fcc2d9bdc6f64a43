"""Lattice inputs: atoms on the 0.1-grid of [0,1]^2, t and eps on its half-grid.

Many atom pairs then sit exactly on an annulus boundary, so every layer has
to make the same in/out decision for them: the peel integral must equal the
brute-force oracle, and every extracted witness must pass re-verification.
"""

import numpy as np
import pytest

import treeconfig as tc
from conftest import pruefer_tree, random_tree

LATTICE = np.array([[i / 10, j / 10] for i in range(11) for j in range(11)])


def lattice_instance(rng, n_vertices: int, n_atoms: int):
    seq = [int(v) for v in rng.integers(0, n_vertices, n_vertices - 2)]
    tree = pruefer_tree(seq, n_vertices)
    picks = rng.choice(len(LATTICE), size=n_atoms, replace=False)
    mu = tc.AtomicMeasure(d=2, atoms=LATTICE[picks], weights=rng.random(n_atoms) + 0.01)
    k = int(rng.integers(1, 11))  # t = k/10
    m = int(rng.integers(1, 2 * k))  # eps = m/20 < t
    return mu, tree, tc.KernelParams(t=k / 10, eps=m / 20)


@pytest.mark.parametrize("n_vertices", [2, 3, 4, 5])
def test_peel_equals_oracle_and_witnesses_verify(n_vertices):
    rng = np.random.default_rng(1100 + n_vertices)
    for _ in range(100):
        mu, tree, params = lattice_instance(rng, n_vertices, 10)
        oracle = tc.integral_bruteforce([mu] * n_vertices, tree, params).value
        peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), params).value
        assert peel == pytest.approx(oracle, rel=1e-9, abs=0.0)
        # a witness failing re-verification raises InternalConsistencyError
        tables = tc.feasibility_dp(mu, tree, params)
        tc.extract_embedding(tables, mu, tree, params, require_distinct=True)


def lattice_points(d: int) -> np.ndarray:
    """The 0.1-lattice with at least 40 points: [0, 4] for d = 1, else [0, 1]^d."""
    side = 41 if d == 1 else 11
    grid = np.indices((side,) * d).reshape(d, -1).T
    return grid / 10


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n_vertices", [2, 3, 4, 5])
def test_peel_equals_oracle_on_lattices_up_to_the_caps(d, n_vertices):
    # atom counts up to the criterion-1 caps, about 10% zero weights
    rng = np.random.default_rng(1200 + 10 * d + n_vertices)
    points = lattice_points(d)
    cap = 25 if n_vertices == 5 else 40
    for _ in range(20):
        tree = random_tree(n_vertices, rng)
        n_atoms = int(rng.integers(2, cap + 1))
        weights = (rng.random(n_atoms) + 0.01) * (rng.random(n_atoms) >= 0.1)
        mu = tc.AtomicMeasure(
            d=d, atoms=points[rng.choice(len(points), n_atoms, replace=False)], weights=weights
        )
        k = int(rng.integers(1, 11))  # t = k/10
        params = tc.KernelParams(t=k / 10, eps=int(rng.integers(1, 2 * k)) / 20)
        oracle = tc.integral_bruteforce([mu] * n_vertices, tree, params).value
        peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), params).value
        assert peel == pytest.approx(oracle, rel=1e-9, abs=0.0)
        tables = tc.feasibility_dp(mu, tree, params)
        tc.extract_embedding(tables, mu, tree, params, require_distinct=True)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_restricted_peel_equals_per_vertex_oracle_on_lattices(d):
    # each vertex's measure restricted to its stage of the chain
    rng = np.random.default_rng(1300 + d)
    points = lattice_points(d)
    depths = []
    for i in range(60):
        # every fourth tree is the 6-path, whose round-2 hosts absorb no
        # pristine leaf: only their weights confine them to their stage
        n_vertices = 6 if i % 4 == 0 else int(rng.integers(2, 7))
        tree = tc.path_tree(5) if i % 4 == 0 else random_tree(n_vertices, rng)
        n_atoms = int(rng.integers(2, (14 if n_vertices == 6 else 20) + 1))
        mu = tc.AtomicMeasure(
            d=d,
            atoms=points[rng.choice(len(points), n_atoms, replace=False)],
            weights=rng.random(n_atoms) + 0.01,
        )
        k = int(rng.integers(1, 11))  # t = k/10
        params = tc.KernelParams(t=k / 10, eps=int(rng.integers(1, 2 * k)) / 20)
        sched = tc.compute_peel_schedule(tree)
        try:
            chain = tc.nested_good_sets(mu, params, sched.required_depth)
        except tc.StageFailureError:
            continue
        depths.append(chain.depth)
        per_vertex = [tc.restrict_measure(mu, chain.stage_indices(s)) for s in sched.stages]
        oracle = tc.integral_bruteforce(per_vertex, tree, params).value
        peel = tc.integral_peel(mu, sched, params, chain).value
        assert peel == pytest.approx(oracle, rel=1e-9, abs=0.0)
    # most instances keep a chain, and some need three stages
    assert len(depths) > 30 and max(depths) == 3
