"""The four benchmark workloads: input generation, one timed run, output checks.

Each workload has three parts:

- ``setup(work_dir, seed, smoke)`` builds the inputs from the seed through
  the library and writes the files the command line reads;
- ``run(state)`` is the timed part, one workload run: one scan, one oracle
  battery or one embedding search;
- ``check(state, outcome)`` judges the outputs outside the timed region and
  returns a ``Checked`` record.

Importing this module imports ``treeconfig``; the worker times that import
as part of set-up.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import treeconfig as tc
from treeconfig import cli

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# The acceptance fixture's 4-map product Cantor measure (dimension 1.8454).
CANTOR_RATIO = 0.47179
REL_TOL = 1e-9


@dataclass
class Checked:
    """Verdict on one workload run.

    ops counts the distinct operations of one run; failed holds the indices
    of those that raised an unexpected error or failed their check.
    known_defects is the part of failed that stems from a defect the roadmap
    already records. fatal lists findings
    that make the whole run untrustworthy (a wrong scan, an unexpected
    exception, output that differs between repetitions of the same input).
    """

    ops: int
    failed: set[int] = field(default_factory=set)
    known_defects: set[int] = field(default_factory=set)
    fatal: list[str] = field(default_factory=list)
    fingerprint: object = None
    counts: dict[str, int] = field(default_factory=dict)


def product_cantor(depth: int) -> tc.AtomicMeasure:
    g = 1.0 - CANTOR_RATIO
    spec = tc.IFSSpec(
        d=2,
        maps=[
            (CANTOR_RATIO, (0.0, 0.0)),
            (CANTOR_RATIO, (g, 0.0)),
            (CANTOR_RATIO, (0.0, g)),
            (CANTOR_RATIO, (g, g)),
        ],
        depth=depth,
    )
    return tc.build_ifs_measure(spec)


def permuted(mu: tc.AtomicMeasure, rng: np.random.Generator) -> tc.AtomicMeasure:
    """The same measure with its atoms listed in a seeded random order."""
    order = rng.permutation(len(mu))
    return tc.AtomicMeasure(
        d=mu.d, atoms=mu.atoms[order], weights=mu.weights[order], label=mu.label
    )


def quiet_cli(argv: list[str]) -> int:
    """Run one CLI invocation, discarding what it prints."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.run_pipeline(argv)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


# --------------------------------------------------------------------------
# scan-dense and scan-sparse: `treeconfig scan` through cli.run_pipeline


@dataclass(frozen=True)
class ScanSize:
    depth: int  # product Cantor depth: 4**depth atoms
    tree: str  # "path5" or "star5"
    t_min: float
    t_max: float
    t_steps: int
    eps0: float
    halvings: int

    @property
    def rows(self) -> int:
        return self.t_steps * (self.halvings + 1)


SCAN_SIZES = {
    # Dense annuli: the acceptance grid, on the depth-5 measure (1024 atoms).
    "scan-dense": ScanSize(5, "path5", 0.4, 0.8, 5, 0.08, 5),
    "scan-dense.smoke": ScanSize(3, "path5", 0.4, 0.8, 2, 0.08, 1),
    # Sparse annuli: small gaps on a 4x larger atom set (4096 atoms).
    "scan-sparse": ScanSize(6, "star5", 0.04, 0.08, 5, 0.008, 3),
    "scan-sparse.smoke": ScanSize(4, "star5", 0.04, 0.08, 2, 0.008, 1),
}


def _tree(name: str) -> tc.TreeGraph:
    return tc.path_tree(4) if name == "path5" else tc.star_tree(4)


def scan_key(name: str, smoke: bool) -> str:
    return f"{name}.smoke" if smoke else name


def scan_setup(name: str, work_dir: Path, seed: int, smoke: bool) -> dict:
    key = scan_key(name, smoke)
    size = SCAN_SIZES[key]
    mu = permuted(product_cantor(size.depth), np.random.default_rng(seed))
    measure_file = work_dir / "measure.json"
    tree_file = work_dir / "tree.json"
    config_file = work_dir / "scan.json"
    mu.save(measure_file)
    _tree(size.tree).save(tree_file)
    config = {
        "measure_file": str(measure_file),
        "tree_file": str(tree_file),
        "t_min": size.t_min,
        "t_max": size.t_max,
        "t_steps": size.t_steps,
        "eps0": size.eps0,
        "halvings": size.halvings,
        "seed": seed,
        "out_dir": str(work_dir / "scan_out"),
    }
    config_file.write_text(json.dumps(config))
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    return {
        "argv": ["scan", "--config", str(config_file)],
        "out_dir": work_dir / "scan_out",
        "ops": size.rows,
        "reference": references.get(key),
    }


def scan_run(state: dict) -> int:
    return quiet_cli(state["argv"])


def scan_check(state: dict, exit_code: int) -> Checked:
    ref = state["reference"]
    out = state["out_dir"]
    checked = Checked(ops=state["ops"])
    if ref is None:
        checked.failed = set(range(checked.ops))
        checked.fatal.append(f"no reference outputs in {REFERENCE_FILE.name}")
    try:
        csv_bytes = (out / "scan.csv").read_bytes()
        interval = json.loads((out / "interval.json").read_text())
        rows = json.loads((out / "report.json").read_text())["rows"]
    except (OSError, ValueError, KeyError) as exc:
        checked.failed = set(range(checked.ops))
        checked.fatal.append(f"scan outputs unreadable: {exc}")
        return checked
    finally:
        # the next repetition must write its own outputs
        for name in ("scan.csv", "interval.json", "report.json"):
            (out / name).unlink(missing_ok=True)
    checked.fingerprint = csv_bytes

    if ref is None:
        return checked
    problems = []
    if exit_code != ref["exit"]:
        problems.append(f"exit {exit_code}, expected {ref['exit']}")
    for key in ("I_lo", "I_hi", "c_k", "C_k"):
        if not _close(interval.get(key), ref[key]):
            problems.append(f"{key} {interval.get(key)!r}, expected {ref[key]!r}")
    if len(rows) != len(ref["rows"]):
        problems.append(f"{len(rows)} rows, expected {len(ref['rows'])}")
    if problems:
        checked.failed = set(range(checked.ops))
        checked.fatal.extend(problems)
        return checked

    for i, (row, want) in enumerate(zip(rows, ref["rows"])):
        ok = (
            _close(row["t"], want["t"])
            and _close(row["eps"], want["eps"])
            and row["status"] == want["status"]
            and row["homomorphism"] == want["homomorphism"]
            and row["distinct_witness"] == want["distinct_witness"]
            and _close(row["integral_restricted"], want["integral_restricted"])
        )
        if not ok:
            checked.failed.add(i)
            checked.fatal.append(f"row t={row['t']} eps={row['eps']} differs from reference")
    return checked


# --------------------------------------------------------------------------
# oracle-lattice: a battery of small lattice instances through the library

# The 0.1-lattice in [0, 1]^2, coordinates as the doubles nearest k/10.
LATTICE = np.array([[i / 10, j / 10] for i in range(11) for j in range(11)])
BATTERY = 200
BATTERY_SMOKE = 8


def battery_shapes(count: int) -> list[tuple[int, int]]:
    """(tree vertices, atoms) per instance, the same for every seed.

    Vertices cycle through 2..5. Atom counts rise from 2 to the caps of
    acceptance criterion 1 (25 atoms for 5 vertices, 40 otherwise) along a
    quartic, so most instances are tiny and a few reach the caps. Fixing
    the shapes fixes the brute-force work, so runs on different seeds do
    the same amount of it.
    """
    per_size = math.ceil(count / 4)
    shapes = []
    for i in range(count):
        n_vertices = 2 + i % 4
        cap = 25 if n_vertices == 5 else 40
        x = (i // 4 + 0.5) / per_size
        shapes.append((n_vertices, 2 + round((cap - 2) * x**4)))
    return shapes


def pruefer_tree(seq: list[int], n: int) -> tc.TreeGraph:
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        edges.append((heapq.heappop(leaves), v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return tc.validate_tree(n, edges)


def oracle_setup(work_dir: Path, seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    instances = []
    for n_vertices, n_atoms in battery_shapes(BATTERY_SMOKE if smoke else BATTERY):
        tree = pruefer_tree([int(v) for v in rng.integers(0, n_vertices, n_vertices - 2)], n_vertices)
        picks = rng.choice(len(LATTICE), size=n_atoms, replace=False)
        mu = tc.AtomicMeasure(d=2, atoms=LATTICE[picks], weights=rng.random(n_atoms) + 0.01)
        k = int(rng.integers(1, 11))  # t = k/10 in [0.1, 1.0]
        m = int(rng.integers(1, 2 * k))  # eps = m/20 < t
        instances.append((mu, tree, tc.KernelParams(t=k / 10, eps=m / 20)))
    return {"instances": instances, "ops": len(instances)}


def oracle_run(state: dict) -> list[tuple]:
    results = []
    for mu, tree, params in state["instances"]:
        oracle = peel = found = nodes = None
        error = None
        try:
            oracle = tc.integral_bruteforce([mu] * tree.n_vertices, tree, params).value
            peel = tc.integral_peel(mu, tc.compute_peel_schedule(tree), params).value
            tables = tc.feasibility_dp(mu, tree, params)
            search = tc.extract_embedding(tables, mu, tree, params, require_distinct=True)
            found, nodes = search.found, search.nodes_visited
        except Exception as exc:  # every error is classified by oracle_check
            error = type(exc).__name__
        results.append((oracle, peel, found, nodes, error))
    return results


def oracle_check(state: dict, results: list[tuple]) -> Checked:
    checked = Checked(ops=state["ops"], fingerprint=results)
    mismatches = internal = 0
    for i, (oracle, peel, _found, _nodes, error) in enumerate(results):
        if error not in (None, "InternalConsistencyError"):
            checked.failed.add(i)
            checked.fatal.append(f"instance {i} raised {error}")
            continue
        # both known defects come from the disagreeing edge predicates
        # (roadmap item 2): peel != oracle, and witnesses failing re-verification
        mismatch = peel is not None and not _close(peel, oracle)
        mismatches += mismatch
        internal += error is not None
        if mismatch or error is not None:
            checked.failed.add(i)
            checked.known_defects.add(i)
    checked.counts = {"integrals.peel_mismatch": mismatches, "embedding.internal_errors": internal}
    return checked


# --------------------------------------------------------------------------
# embed-absent: `treeconfig embed` proving that no injective embedding exists

LATTICE_SPACING = 0.05
EMBED_SIDE = 8
EMBED_SIDE_SMOKE = 4
EMBED_T = 0.05
EMBED_EPS = 0.01


def broom() -> tc.TreeGraph:
    """Path 0-1-2-3-4 plus four leaves on vertex 4, which has degree 5."""
    return tc.validate_tree(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (4, 8)])


def embed_setup(work_dir: Path, seed: int, smoke: bool) -> dict:
    rng = np.random.default_rng(seed)
    side = EMBED_SIDE_SMOKE if smoke else EMBED_SIDE
    offset = rng.uniform(0.0, 0.5, size=2)
    grid = np.array([[i, j] for i in range(side) for j in range(side)], dtype=float)
    atoms = offset + LATTICE_SPACING * grid
    mu = permuted(
        tc.AtomicMeasure(d=2, atoms=atoms, weights=np.full(len(atoms), 1.0 / len(atoms))),
        rng,
    )
    measure_file = work_dir / "lattice.json"
    tree_file = work_dir / "broom.json"
    record_file = work_dir / "embed.json"
    mu.save(measure_file)
    broom().save(tree_file)
    argv = [
        "embed", "--measure", str(measure_file), "--tree", str(tree_file),
        "--t", repr(EMBED_T), "--eps", repr(EMBED_EPS), "--out", str(record_file),
    ]
    return {"argv": argv, "record_file": record_file, "ops": 1}


def embed_run(state: dict) -> int:
    return quiet_cli(state["argv"])


def embed_check(state: dict, exit_code: int) -> Checked:
    checked = Checked(ops=1)
    try:
        record = json.loads(state["record_file"].read_text())
    except (OSError, ValueError) as exc:
        record = {}
        checked.fatal.append(f"embed record unreadable: {exc}")
    finally:
        state["record_file"].unlink(missing_ok=True)
    if exit_code != 4 or record.get("found") is not False or record.get("exhausted") is not True:
        checked.failed = {0}
        checked.fatal.append(
            f"embed: exit {exit_code}, found={record.get('found')}, "
            f"exhausted={record.get('exhausted')}; expected exit 4, found=false, exhausted=true"
        )
    checked.fingerprint = record.get("nodes_visited")
    checked.counts = {"embedding.search_nodes": record.get("nodes_visited", 0)}
    return checked


# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # what one operation is
    setup: object
    run: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "scan-dense", "scan grid row",
            lambda d, s, smoke: scan_setup("scan-dense", d, s, smoke), scan_run, scan_check,
        ),
        Workload(
            "scan-sparse", "scan grid row",
            lambda d, s, smoke: scan_setup("scan-sparse", d, s, smoke), scan_run, scan_check,
        ),
        Workload("oracle-lattice", "instance", oracle_setup, oracle_run, oracle_check),
        Workload("embed-absent", "search", embed_setup, embed_run, embed_check),
    )
}
