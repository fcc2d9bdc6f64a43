"""Tree-configuration integrals: brute force vs leaf peeling, and eps scaling.

The integral sums, over all atom tuples, the product of annulus-kernel
factors along tree edges times the atom weights. Peeling reorganizes that
sum into nested convolutions and must agree with the enumeration exactly;
multiplying by (2 eps)^k turns the normalized k-chain integral into the
raw mass of the eps-thickened chain constraint set, whose log-log slope
against eps should approach k.
"""

import numpy as np

import treeconfig as tc


def product_cantor(ratio, depth):
    g = 1.0 - ratio
    return tc.IFSSpec(
        d=2,
        maps=[(ratio, (0.0, 0.0)), (ratio, (g, 0.0)), (ratio, (0.0, g)), (ratio, (g, g))],
        depth=depth,
    )


def main():
    rng = np.random.default_rng(42)
    mu = tc.AtomicMeasure(d=2, atoms=rng.random((20, 2)), weights=rng.random(20) + 0.1)
    params = tc.KernelParams(t=0.45, eps=0.1)

    for name, tree in (("2-chain", tc.path_tree(2)), ("star-3", tc.star_tree(3))):
        sched = tc.compute_peel_schedule(tree)
        oracle = tc.integral_bruteforce([mu] * tree.n_vertices, tree, params)
        peel = tc.integral_peel(mu, sched, params)
        print(f"{name}: oracle {oracle.value:.9g}, peel {peel.value:.9g}, "
              f"rel diff {abs(oracle.value - peel.value) / max(oracle.value, 1e-300):.2e}")
        for s in peel.stage_log:
            print(f"   {s.label}: host factor in [{s.factor_min:.3g}, {s.factor_max:.3g}]")

    big = tc.build_ifs_measure(product_cantor(0.47179, 5))
    print(f"\neps scaling of chain masses on {big.label}:")
    eps_ladder = [0.08 * 2.0**-i for i in range(5)]
    # one annulus graph at the largest eps; each smaller eps filters the last
    graphs = [tc.AnnulusGraph.build(big.atoms, tc.KernelParams(t=0.6, eps=eps_ladder[0]))]
    for e in eps_ladder[1:]:
        graphs.append(graphs[-1].within(tc.KernelParams(t=0.6, eps=e)))
    for k in (1, 2):
        masses = [tc.chain_neighborhood_mass(big, k, g.params, g) for g in graphs]
        slope = np.polyfit(np.log(eps_ladder), np.log(masses), 1)[0]
        print(f"  k={k}: masses {[f'{m:.3e}' for m in masses]} -> slope {slope:.3f}")


if __name__ == "__main__":
    main()
