"""Leaf-peeling elimination schedules for trees.

Each round strips the current degree-1 vertices, attaching their kernel
factors to host vertices; when stripping them all would leave a single
vertex, the lowest-id leaf is kept so the process ends at one edge, the
terminal pair (z1, z2). Each vertex's stage is the last round it hosted (the terminal z2 one deeper when both
endpoints share a stage); the restricted integral gives each vertex the
measure with zero weight off its stage, and the deepest stage is the
chain depth the restriction needs.
"""

import treeconfig as tc


def show(name, tree):
    s = tc.compute_peel_schedule(tree)
    print(f"{name} (n={tree.n_vertices}, edges={tree.edges})")
    for j, rnd in enumerate(s.rounds, start=1):
        leaves = ", ".join(f"{v} -> {h}" for v, h in rnd.leaf_hosts)
        hosts = ", ".join(f"{h} absorbs {m}" for h, m in rnd.attachments)
        print(f"  round {j}: peel {leaves}; {hosts}")
    z1, z2 = s.terminal
    print(f"  terminal edge ({z1}, {z2}) with stages ({s.stages[z1]}, {s.stages[z2]}); "
          f"restricted evaluation needs depth {s.required_depth}")
    print(f"  vertex stages (terminal-adjusted): {s.stages}\n")


def main():
    show("single edge", tc.path_tree(1))
    show("path on 5", tc.path_tree(4))
    show("star, 3 leaves", tc.star_tree(3))
    show("double star", tc.validate_tree(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]))
    show("caterpillar", tc.validate_tree(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]))

    for k in range(2, 9):
        s = tc.compute_peel_schedule(tc.path_tree(k))
        print(f"k-chain k={k}: {s.n_rounds} rounds (ceil((k-1)/2) = {-(-(k - 1) // 2)})")


if __name__ == "__main__":
    main()
