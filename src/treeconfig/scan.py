"""End-to-end parameter scans: detect the viable gap interval empirically.

For every gap t on a grid and every eps on a halving ladder the scan
computes the convolved field and its norms, builds the nested good-set
chain to the depth the tree's peel schedule requires, evaluates the
restricted configuration integral, and (at the smallest eps of each t)
searches for an injective tree embedding. The detected interval I is the
longest run of consecutive grid points where every ladder eps succeeded
with a positive restricted integral; the observed extrema of the
restricted integral over I x ladder are reported as the bound candidates.

Scans are deterministic: they make no random choices (the config's seed
is only recorded), iterate in a fixed order and write CSV floats as
shortest round-trip decimals, so identical configs produce byte-identical
outputs.

The scan examines each candidate pair once: one k-d pass keeps the pairs
from the t-grid's smallest eps0 inner radius to its largest outer one, each
t's eps0 graph is masked from them, and each smaller eps filters the graph
of the one before (`AnnulusGraph.within`); the feasibility DP and the
witness search run on the ladder's last graph. Each grid point computes its
stage-1 field once: the scan takes the norms from it and hands it to the
chain, and the chain keeps every stage's field, zero off its stage, for the
restricted integral's peel rounds.

A row's status is `ok`, `stage<j>_failure` (pigeonhole stage j kept no
mass) or `cap_exceeded` (the scan's pairs exceed the pair cap); any other
error stops the scan.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
from scipy import sparse

from .embedding import DEFAULT_NODE_BUDGET, extract_embedding, feasibility_dp
from .errors import ResourceCapError, StageFailureError, ValidationError
from .integrals import IntegralResult, integral_peel
from .kernels import AnnulusGraph, KernelParams, convolve_field, field_norms, upper_pairs
from .measures import DEFAULT_ATOM_CAP, AtomicMeasure, IFSSpec, build_ifs_measure
from .pigeonhole import nested_good_sets
from .trees import PeelSchedule, TreeGraph, compute_peel_schedule

CSV_HEADER = "t,eps,l1,l2sq,delta_min,integral_restricted,homomorphism,distinct_witness,status"


def _json_matches(value, annotation: str) -> bool:
    """Whether a JSON value fits a ScanConfig annotation; int fields reject bool and float."""
    kinds = annotation.split(" | ")
    if type(value) is int:
        return "int" in kinds or "float" in kinds
    return ("None" if value is None else type(value).__name__) in kinds


@dataclass
class ScanConfig:
    """Inputs and grid for one scan; exactly one measure source is set."""

    tree_file: str | None = None
    measure_file: str | None = None
    ifs_file: str | None = None
    t_min: float = 0.5
    t_max: float = 1.5
    t_steps: int = 11
    eps0: float = 0.1
    halvings: int = 4
    seed: int = 0
    out_dir: str = "scan_out"
    atom_cap: int = DEFAULT_ATOM_CAP
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        for name in ("t_min", "t_max", "eps0"):
            if not np.isfinite(value := getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {value}")
        if not (self.t_min > 0):
            raise ValidationError(f"t_min must be positive, got {self.t_min}")
        if not (self.t_max >= self.t_min):
            raise ValidationError("t_max must be >= t_min")
        if self.t_steps < 2:
            raise ValidationError(f"t_steps must be >= 2, got {self.t_steps}")
        if not (0 < self.eps0 < self.t_min):
            raise ValidationError(
                f"eps0 must satisfy 0 < eps0 < t_min, got {self.eps0}"
            )
        if self.halvings < 0:
            raise ValidationError("halvings must be >= 0")
        KernelParams(t=self.t_max, eps=math.ldexp(self.eps0, -self.halvings))  # thinnest annulus
        if self.node_budget < 1:
            raise ValidationError(f"node_budget must be >= 1, got {self.node_budget}")

    @property
    def t_values(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.t_steps)

    @property
    def eps_ladder(self) -> list[float]:
        return [self.eps0 * 2.0**-i for i in range(self.halvings + 1)]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "ScanConfig":
        if not isinstance(obj, dict):
            raise ValidationError("a scan config must be a JSON object")
        types = {f.name: f.type for f in fields(cls)}
        unknown = set(obj) - set(types)
        if unknown:
            raise ValidationError(f"unknown scan config keys: {sorted(unknown)}")
        for key, value in obj.items():
            if not _json_matches(value, types[key]):
                raise ValidationError(f"scan config {key} must be {types[key]}, got {value!r}")
        return cls(**obj)

    @classmethod
    def load(cls, path) -> "ScanConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


@dataclass
class ScanRow:
    t: float
    eps: float
    status: str = "ok"
    l1: float | None = None
    l2sq: float | None = None
    delta_min: float | None = None
    stage_deltas: list[float] = field(default_factory=list)
    integral: IntegralResult | None = None
    homomorphism: bool | None = None
    distinct_witness: bool | None = None
    witness: str | None = None  # found | absent | budget_exhausted; None: over the pair cap
    embed_nodes: int | None = None

    @property
    def succeeded(self) -> bool:
        return (
            self.status == "ok"
            and self.integral is not None
            and self.integral.value > 0.0
        )

    def to_record(self) -> dict:
        return {
            "t": self.t,
            "eps": self.eps,
            "status": self.status,
            "l1": self.l1,
            "l2sq": self.l2sq,
            "delta_min": self.delta_min,
            "stage_deltas": self.stage_deltas,
            "integral_restricted": None if self.integral is None else self.integral.value,
            "stage_log": []
            if self.integral is None
            else [s.to_record() for s in self.integral.stage_log],
            "homomorphism": self.homomorphism,
            "distinct_witness": self.distinct_witness,
            "witness": self.witness,
            "embed_nodes": self.embed_nodes,
        }


@dataclass
class ScanReport:
    config: ScanConfig
    rows: list[ScanRow]
    interval: tuple[float, float] | None
    c_k: float | None
    C_k: float | None
    measure_label: str = ""
    tree_label: str = ""
    depth: int = 1

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "measure_label": self.measure_label,
            "tree_label": self.tree_label,
            "depth": self.depth,
            "interval": None if self.interval is None else list(self.interval),
            "c_k": self.c_k,
            "C_k": self.C_k,
            "rows": [r.to_record() for r in self.rows],
        }


def load_measure_for(config: ScanConfig) -> AtomicMeasure:
    if (config.measure_file is None) == (config.ifs_file is None):
        raise ValidationError("set exactly one of measure_file / ifs_file")
    if config.measure_file is not None:
        return AtomicMeasure.load(config.measure_file)
    with open(config.ifs_file) as fh:
        spec = IFSSpec.from_dict(json.load(fh))
    return build_ifs_measure(spec, atom_cap=config.atom_cap)


def _scan_one_t(
    t: float,
    config: ScanConfig,
    mu: AtomicMeasure,
    tree: TreeGraph,
    schedule: PeelSchedule,
    envelope: sparse.csr_matrix | None,
) -> list[ScanRow]:
    rows = [ScanRow(t=float(t), eps=float(eps)) for eps in config.eps_ladder]
    if envelope is None:  # the scan's annulus pairs exceed the pair cap
        for row in rows:
            row.status, row.homomorphism, row.distinct_witness = "cap_exceeded", False, False
        return rows
    # The eps0 graph is masked from the envelope; the ladder's annuli are
    # nested, so each smaller eps filters the last.
    graph = AnnulusGraph.band(envelope, KernelParams(t=float(t), eps=float(config.eps0)))
    for row in rows:
        graph = graph.within(KernelParams(t=row.t, eps=row.eps))
        params = graph.params
        try:
            f = convolve_field(mu, params, graph)
            row.l1, row.l2sq = field_norms(f, mu.weights)
            chain = nested_good_sets(mu, params, schedule.required_depth, graph, f)
            row.stage_deltas = [gs.delta for gs in chain.stages]
            row.delta_min = min(row.stage_deltas)
            row.integral = integral_peel(mu, schedule, params, chain, graph)
        except StageFailureError as exc:
            row.status = f"stage{exc.stage}_failure"

    # embedding search once per t, on the ladder's last graph (the smallest
    # eps); a witness at the smallest tolerance is a witness at every larger
    # one. Both calls are handed the graph, so neither builds one, and any
    # error they raise propagates.
    tables = feasibility_dp(mu, tree, graph.params, graph)
    hom = tables.root_feasible()
    search = extract_embedding(
        tables, mu, tree, graph.params,
        require_distinct=True, node_budget=config.node_budget,
    )
    witness = "found" if search.found else "absent" if search.exhausted else "budget_exhausted"
    for row in rows:
        row.homomorphism, row.distinct_witness = hom, search.found
        row.witness, row.embed_nodes = witness, search.nodes_visited
    return rows


def scan_interval(
    config: ScanConfig,
    measure: AtomicMeasure | None = None,
    tree: TreeGraph | None = None,
) -> ScanReport:
    """Run the full grid and detect the viable interval.

    measure/tree may be passed directly (tests, library use); otherwise
    they are loaded from the files named in the config.
    """
    config.__post_init__()  # recheck fields assigned since construction
    mu = measure if measure is not None else load_measure_for(config)
    if tree is None:
        if config.tree_file is None:
            raise ValidationError("no tree given: set tree_file or pass tree=")
        tree = TreeGraph.load(config.tree_file)
    schedule = compute_peel_schedule(tree)

    t_values = config.t_values
    annuli = [KernelParams(t=float(t), eps=float(config.eps0)) for t in t_values]
    try:
        envelope = upper_pairs(mu.atoms, min(p.inner for p in annuli), max(p.outer for p in annuli))
    except ResourceCapError:
        envelope = None
    per_t = [_scan_one_t(t, config, mu, tree, schedule, envelope) for t in t_values]
    rows = [row for group in per_t for row in group]

    ok_per_t = [all(r.succeeded for r in group) for group in per_t]
    best_run: tuple[int, int] | None = None
    start = None
    for i, ok in enumerate(ok_per_t + [False]):
        if ok and start is None:
            start = i
        elif not ok and start is not None:
            if best_run is None or (i - start) > (best_run[1] - best_run[0]):
                best_run = (start, i)
            start = None

    interval = None
    c_k = C_k = None
    if best_run is not None:
        lo, hi = best_run
        interval = (float(t_values[lo]), float(t_values[hi - 1]))
        values = [r.integral.value for group in per_t[lo:hi] for r in group]
        c_k, C_k = min(values), max(values)

    return ScanReport(
        config=config,
        rows=rows,
        interval=interval,
        c_k=c_k,
        C_k=C_k,
        measure_label=mu.label,
        tree_label=f"tree[n={tree.n_vertices}]",
        depth=schedule.required_depth,
    )


def _csv_cell(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    return x if isinstance(x, str) else repr(float(x))


def emit_report(report: ScanReport, out_dir) -> dict[str, Path]:
    """Write report.json, its rows' CSV_HEADER fields as scan.csv, and interval.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    record = report.to_dict()
    columns = CSV_HEADER.split(",")
    lines = [CSV_HEADER]
    lines += [",".join(_csv_cell(row[c]) for c in columns) for row in record["rows"]]
    csv_path = out / "scan.csv"
    csv_path.write_text("\n".join(lines) + "\n")

    report_path = out / "report.json"
    with open(report_path, "w") as fh:
        json.dump(record, fh, indent=2)

    interval_path = out / "interval.json"
    lo, hi = report.interval if report.interval is not None else (None, None)
    with open(interval_path, "w") as fh:
        json.dump({"I_lo": lo, "I_hi": hi, "c_k": report.c_k, "C_k": report.C_k}, fh, indent=2)

    return {"csv": csv_path, "report": report_path, "interval": interval_path}
