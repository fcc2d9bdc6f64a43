"""One workload in one process: set up, warm up, run for a fixed time, check.

Started by ``run.py``; each workload gets a process of its own so that its
peak resident memory is its own. Prints one JSON object on its last line.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --work-dir DIR [--smoke] [--setup-only]

Set-up is timed from before ``import treeconfig`` to the end of input
generation. The first workload run is an untimed warm-up. After it,
workload runs repeat until the next one would end past ``--seconds``
(at least ``MIN_RUNS`` are timed). With ``--trace 1`` traced and untraced
runs alternate, so the two medians give the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_RUNS = 3


def blas_info() -> dict:
    """OpenBLAS build string and live thread count, read from the loaded library."""
    info = {"library": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return info
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return {"library": config().decode(), "threads": threads()}
    return info


def thread_count() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    work_dir = Path(args.work_dir)

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports treeconfig, numpy and scipy

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        with tracer:
            state = workload.setup(work_dir, args.seed, args.smoke)
    else:
        state = workload.setup(work_dir, args.seed, args.smoke)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # an operation is one scan row, one battery instance or one search; it
    # counts once per run however often it is repeated, and it has failed if
    # any repetition of it failed
    failed: set[int] = set()
    known_defects: set[int] = set()
    fatal: list[str] = []
    counts: dict[str, int] | None = None
    fingerprint = None
    times = {"untraced": [], "traced": []}

    def one_run(request: str) -> float:
        nonlocal counts, fingerprint
        t0 = time.perf_counter()
        if request.startswith("traced"):
            tracer.request = request
            with tracer:
                outcome = workload.run(state)
        else:
            outcome = workload.run(state)
        elapsed = time.perf_counter() - t0
        checked = workload.check(state, outcome)
        failed.update(checked.failed)
        known_defects.update(checked.known_defects)
        fatal.extend(checked.fatal)
        if fingerprint is None:
            fingerprint = checked.fingerprint
        elif checked.fingerprint != fingerprint:
            fatal.append(f"{request}: outputs differ from the first run on the same inputs")
        if request.startswith("traced"):
            run_counts = {**tracer.counts[request], **checked.counts}
            if counts is None:
                counts = run_counts
            elif run_counts != counts:
                fatal.append(f"{request}: counts differ from the first traced run")
        elif counts is None and not args.trace:
            counts = dict(checked.counts)
        return elapsed

    window = time.perf_counter()
    warmup_s = one_run("warmup")
    n = 0
    while True:
        kind = "traced" if args.trace and n % 2 == 0 else "untraced"
        times[kind].append(one_run(f"{kind}-{n}"))
        n += 1
        elapsed = time.perf_counter() - window
        expected = statistics.median(times["untraced"] or times["traced"])
        if n >= MIN_RUNS * (1 + args.trace) and elapsed + expected > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "op": workload.op,
        "ops_per_run": state["ops"],
        "setup_s": setup_s,
        "warmup_s": warmup_s,
        "run_s": times["untraced"],
        "run_s_traced": times["traced"],
        "attempted": state["ops"],
        "failed": len(failed),
        "known_defects": len(known_defects),
        "fatal": fatal[:20] + ([f"... and {len(fatal) - 20} more"] if len(fatal) > 20 else []),
        "counts": counts or {},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": thread_count(),
        "versions": {
            "python": platform.python_version(),
            "numpy": sys.modules["numpy"].__version__,
            "scipy": sys.modules["scipy"].__version__,
        },
        "blas": blas_info(),
    }
    if tracer is not None:
        from tracing import self_times

        result["self_s"] = self_times(tracer.spans)
        result["untraced_functions"] = tracer.missing
        tracer.dump(work_dir / "spans.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
