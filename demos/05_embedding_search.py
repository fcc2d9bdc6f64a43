"""Embedding trees into the distance graph at tolerance eps.

Atoms are vertices of a graph whose edges join pairs at distance within
[t - eps, t + eps]. Bottom-up feasibility tables certify which atoms can
host each tree vertex in a homomorphism; host tables keep those that also
pass the degree and counting bounds of an injective embedding.
Backtracking over the host tables extracts an injective witness, or proves
there is none; an empty host table proves it without a search node.
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
    params = tc.KernelParams(t=0.6, eps=0.01)
    graph = tc.AnnulusGraph.build(mu.atoms, params)  # one graph serves every tree

    for name, tree in (
        ("path on 5", tc.path_tree(4)),
        ("star with 4 leaves", tc.star_tree(4)),
        ("spider", tc.validate_tree(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])),
    ):
        tables = tc.feasibility_dp(mu, tree, params, graph)
        feasible = [int(tables.feasible[v].sum()) for v in range(tree.n_vertices)]
        hosts = [int(tables.hosts[v].sum()) for v in range(tree.n_vertices)]
        res = tc.extract_embedding(tables, mu, tree, params, require_distinct=True)
        print(f"{name}: feasible atoms per vertex {feasible}")
        print(f"  host atoms per vertex {hosts}")
        if res.found:
            gaps = ", ".join(f"{g:.4f}" for g in res.witness.gaps.values())
            print(f"  witness {res.witness.assignment} with gaps [{gaps}] "
                  f"after {res.nodes_visited} nodes")
        else:
            verdict = "proven absent" if res.exhausted else "budget exhausted"
            print(f"  no witness ({verdict}, {res.nodes_visited} nodes)")

    # at spacing t the 8x8 lattice's distance graph is the 4-neighbour grid:
    # the broom (path 0-4, four leaves on vertex 4) maps into it, but no atom
    # has the 5 neighbours vertex 4 needs, so absence takes no search node
    grid = [[0.05 * i, 0.05 * j] for i in range(8) for j in range(8)]
    lattice = tc.AtomicMeasure(d=2, atoms=grid, weights=[1 / 64] * 64)
    broom = tc.validate_tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (4, 8)])
    p = tc.KernelParams(t=0.05, eps=0.01)
    tables = tc.feasibility_dp(lattice, broom, p)
    res = tc.extract_embedding(tables, lattice, broom, p)
    print(f"\nbroom on the 8x8 lattice: homomorphism={tables.root_feasible()}, "
          f"host atoms per vertex {[int(tables.hosts[v].sum()) for v in range(9)]}, "
          f"injective found={res.found} after {res.nodes_visited} nodes")

    # two atoms cannot injectively host a 3-leaf star, but can with repeats;
    # the centre needs 3 neighbours, so no atom hosts it and the search is skipped
    pair = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    p = tc.KernelParams(t=1.0, eps=0.1)
    tables = tc.feasibility_dp(pair, tc.star_tree(3), p)
    strict = tc.extract_embedding(tables, pair, tc.star_tree(3), p)
    loose = tc.extract_embedding(tables, pair, tc.star_tree(3), p, require_distinct=False)
    print(f"\n3-leaf star on two atoms: injective found={strict.found} "
          f"(exhausted={strict.exhausted}, {strict.nodes_visited} nodes); "
          f"with repeats found={loose.found}, assignment {loose.witness.assignment}")


if __name__ == "__main__":
    main()
