"""Leaf-peeling elimination schedules for trees.

Each round strips the current degree-1 vertices, attaching their kernel
factors to host vertices; when stripping them all would leave a single
vertex, the lowest-id leaf is kept so the process ends at one edge. The
terminal pair records the last round each endpoint hosted. Each vertex's
stage is the last round it hosted (the terminal z2 one deeper when both
endpoints share a stage); the restricted integral gives each vertex the
measure with zero weight off its stage, and the deepest stage is the
chain depth the restriction needs.
"""

import treeconfig as tc


def show(name, tree):
    s = tc.compute_peel_schedule(tree)
    print(f"{name} (n={tree.n_vertices}, edges={tree.edges})")
    for j, rnd in enumerate(s.rounds, start=1):
        hosts = ", ".join(f"{h} absorbs {m}" for h, m in rnd.attachments)
        print(f"  round {j}: peel {rnd.isolated}; {hosts}; "
              f"left {rnd.remaining.vertices}")
    t = s.terminal
    print(f"  terminal edge ({t.z1}, {t.z2}) with stages ({t.j1}, {t.j2}); "
          f"restricted evaluation needs depth {s.required_depth}")
    print(f"  vertex stages (terminal-adjusted): {s.vertex_stages()}\n")


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
