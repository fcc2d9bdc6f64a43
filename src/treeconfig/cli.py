"""Command-line surface over the library.

Subcommands: generate, frostman, integral, pigeonhole, embed, scan.
Exit codes: 0 success, 2 validation error or a file that cannot be read or
written, 3 resource cap exceeded, 4 empty result (no witness / empty interval
/ failed pigeonhole stage: an outcome, not an error), 1 internal consistency error (a bug).

One parser serves every call in a process: `build_parser` builds it on first
use, and each `run_pipeline` call parses its argv into a fresh namespace.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .embedding import DEFAULT_NODE_BUDGET, extract_embedding, feasibility_dp
from .errors import ResourceCapError, StageFailureError, TreeConfigError, ValidationError
from .integrals import DEFAULT_TERM_CAP, integral_bruteforce, integral_peel
from .kernels import KernelParams
from .measures import (
    DEFAULT_ATOM_CAP,
    AtomicMeasure,
    IFSSpec,
    build_ifs_measure,
    estimate_frostman,
)
from .pigeonhole import nested_good_sets
from .scan import ScanConfig, emit_report, scan_interval
from .trees import TreeGraph, compute_peel_schedule

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CAP = 3
EXIT_EMPTY = 4


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_generate(args) -> int:
    with open(args.ifs) as fh:
        spec = IFSSpec.from_dict(json.load(fh))
    mu = build_ifs_measure(spec, atom_cap=args.atom_cap)
    mu.save(args.out)
    print(f"wrote {len(mu)} atoms to {args.out} (total mass {mu.total_mass})")
    return EXIT_OK


def _cmd_frostman(args) -> int:
    mu = AtomicMeasure.load(args.measure)
    try:
        radii = [float(r) for r in args.radii.split(",")]
    except ValueError:
        raise ValidationError(f"--radii must be numbers, got {args.radii!r}") from None
    report = estimate_frostman(mu, args.centers, radii, seed=args.seed)
    _emit(report.to_dict(), args.out)
    return EXIT_OK


def _cmd_integral(args) -> int:
    mu = AtomicMeasure.load(args.measure)
    tree = TreeGraph.load(args.tree)
    params = KernelParams(t=args.t, eps=args.eps)
    if args.method == "oracle":
        result = integral_bruteforce(
            [mu] * tree.n_vertices, tree, params, term_cap=args.term_cap
        )
    else:
        result = integral_peel(mu, compute_peel_schedule(tree), params)
    _emit(result.to_record(tree_label=args.tree), args.out)
    return EXIT_OK


def _cmd_pigeonhole(args) -> int:
    mu = AtomicMeasure.load(args.measure)
    params = KernelParams(t=args.t, eps=args.eps)
    try:
        chain = nested_good_sets(mu, params, args.depth)
    except StageFailureError as exc:
        _emit(
            {"stages": [], "failed_stage": exc.stage, "t": exc.t, "eps": exc.eps},
            args.out,
        )
        return EXIT_EMPTY
    _emit({"stages": chain.to_records(), "t": args.t, "eps": args.eps}, args.out)
    return EXIT_OK


def _cmd_embed(args) -> int:
    mu = AtomicMeasure.load(args.measure)
    tree = TreeGraph.load(args.tree)
    params = KernelParams(t=args.t, eps=args.eps)
    tables = feasibility_dp(mu, tree, params)
    result = extract_embedding(
        tables,
        mu,
        tree,
        params,
        require_distinct=not args.allow_repeats,
        node_budget=args.budget,
    )
    if result.found:
        _emit(result.witness.to_record(), args.out)
        return EXIT_OK
    _emit(
        {
            "found": False,
            "exhausted": result.exhausted,
            "nodes_visited": result.nodes_visited,
            "t": args.t,
            "eps": args.eps,
        },
        args.out,
    )
    return EXIT_EMPTY


def _cmd_scan(args) -> int:
    config = ScanConfig.load(args.config)
    if args.out_dir:
        config.out_dir = args.out_dir
    report = scan_interval(config)
    paths = emit_report(report, config.out_dir)
    print(f"wrote {paths['csv']}, {paths['report']}, {paths['interval']}")
    if report.interval is None:
        return EXIT_EMPTY
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by later ones; do not mutate it."""
    p = argparse.ArgumentParser(
        prog="treeconfig",
        description="tree configurations in fractal atomic measures",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="build a measure file from an IFS spec")
    g.add_argument("--ifs", required=True, help="IFS spec JSON file")
    g.add_argument("--out", required=True, help="output measure JSON file")
    g.add_argument("--atom-cap", type=int, default=DEFAULT_ATOM_CAP)
    g.set_defaults(func=_cmd_generate)

    f = sub.add_parser("frostman", help="fit the ball-mass growth exponent")
    f.add_argument("--measure", required=True)
    f.add_argument("--centers", type=int, required=True)
    f.add_argument("--radii", required=True, help="comma-separated radii")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--out", default=None)
    f.set_defaults(func=_cmd_frostman)

    i = sub.add_parser("integral", help="tree-configuration integral")
    i.add_argument("--measure", required=True)
    i.add_argument("--tree", required=True)
    i.add_argument("--t", type=float, required=True)
    i.add_argument("--eps", type=float, required=True)
    i.add_argument("--method", choices=("oracle", "peel"), default="peel")
    i.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)
    i.add_argument("--out", default=None)
    i.set_defaults(func=_cmd_integral)

    h = sub.add_parser("pigeonhole", help="nested good-set chain")
    h.add_argument("--measure", required=True)
    h.add_argument("--t", type=float, required=True)
    h.add_argument("--eps", type=float, required=True)
    h.add_argument("--depth", type=int, required=True)
    h.add_argument("--out", default=None)
    h.set_defaults(func=_cmd_pigeonhole)

    e = sub.add_parser("embed", help="search a tree embedding in the distance graph")
    e.add_argument("--measure", required=True)
    e.add_argument("--tree", required=True)
    e.add_argument("--t", type=float, required=True)
    e.add_argument("--eps", type=float, required=True)
    e.add_argument("--allow-repeats", action="store_true")
    e.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    e.add_argument("--out", default=None)
    e.set_defaults(func=_cmd_embed)

    s = sub.add_parser("scan", help="grid scan with interval detection")
    s.add_argument("--config", required=True, help="scan config JSON file")
    s.add_argument("--out-dir", default=None)
    s.set_defaults(func=_cmd_scan)

    return p


def run_pipeline(argv=None) -> int:
    """Dispatch a CLI invocation and return the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except StageFailureError as exc:
        print(f"empty result: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load input or write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TreeConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_pipeline())
