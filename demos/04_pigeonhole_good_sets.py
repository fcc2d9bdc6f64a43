"""Pigeonhole good sets: pinching the convolved field with certified mass.

Given the field f = kernel * mu and a lower bound c on its integral, the
good set keeps atoms with c/(4M) < f < 2^m for the minimal dyadic ceiling
m = ceil(log2(16 C / c)). The Chebyshev level profile shows why the dyadic
tail above 2^m cannot carry much integral, and the nested construction
iterates the selection with zero weight off the previous stage.
"""

import treeconfig as tc


def product_cantor(ratio, depth):
    g = 1.0 - ratio
    return tc.IFSSpec(
        d=2,
        maps=[(ratio, (0.0, 0.0)), (ratio, (g, 0.0)), (ratio, (0.0, g)), (ratio, (g, g))],
        depth=depth,
    )


def main():
    mu = tc.build_ifs_measure(product_cantor(0.47179, 5))
    params = tc.KernelParams(t=0.6, eps=0.02)
    f = tc.convolve_field(mu, params)
    l1, l2sq = tc.field_norms(f, mu.weights)
    print(f"field on {len(mu)} atoms: integral {l1:.4f}, square integral {l2sq:.4f}")

    profile = tc.chebyshev_profile(f, mu.weights, c_prime=l1 / 4, m_low=0)
    print(f"mass below cutoff {profile.c_prime:.3f}: {profile.below_mass:.4f}")
    for level, mass in profile.levels:
        bound = profile.C_bound * 2.0 ** (-2 * level)
        print(f"  level 2^{level}..2^{level + 1}: mass {mass:.5f} <= bound {bound:.5f}")

    gs = tc.good_set(f, mu, c=l1 / 2)
    print(f"\ngood set: kept {len(gs.indices)}/{len(mu)} atoms, "
          f"cutoffs ({gs.c_low:.4f}, 2^{gs.m}), "
          f"mass {gs.achieved_mass:.4f} >= certified delta {gs.delta:.6f}")

    chain = tc.nested_good_sets(mu, params, depth=3)
    print("\nnested stages:")
    for stage in chain.stages:
        print(f"  stage {stage.stage}: kept {len(stage.indices)}, "
              f"mass {stage.achieved_mass:.4f} >= delta {stage.delta:.6f}")

    # a gap no pair of atoms realizes fails at stage 1, by design
    try:
        tc.nested_good_sets(mu, tc.KernelParams(t=9.0, eps=0.5), depth=1)
    except tc.StageFailureError as exc:
        print(f"\nout-of-range gap reports: {exc}")


if __name__ == "__main__":
    main()
