"""treeconfig benchmark: end-to-end and per-layer timings of four workloads.

Run one workload with the settings BENCHMARK.json names:

    python3 benchmarks/run.py --workload scan-dense --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four in turn. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--smoke`` shrinks
every input to a few seconds' work. The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the details, and each run is also
appended to ``--out`` (default ``benchmarks/out/results.json``).

Compare two result files, run by run:

    python3 benchmarks/run.py --compare before.json after.json

See benchmarks/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
OUT_DIR = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes per run
DEADLINE_S = 170.0  # a run must end within 180 s

# The per-layer timings reported on every workload, besides BENCHMARK.json's
# per_layer set (see README.md, "Per-layer metrics").
LAYER_TIMES = [
    "kernels.annulus_sums", "kernels.convolve_field", "pigeonhole.nested_good_sets",
    "integrals.integral_peel", "integrals.integral_bruteforce",
    "embedding.feasibility_dp", "embedding.extract_embedding",
    "scan.scan_interval", "scan.emit_report", "cli.run_pipeline",
    "measures.load",
]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_block(worker: dict) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "loadavg_1m": os.getloadavg()[0],
        **worker["versions"],
        "openblas": worker["blas"]["library"],
        "blas_threads": worker["blas"]["threads"],
        "worker_threads": worker["threads"],
        "src_lines": sum(
            len(f.read_text().splitlines()) for f in sorted((ROOT / "src").rglob("*.py"))
        ),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    # serial workloads: no scan thread pool, single-threaded BLAS
    env.pop("TREECONFIG_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workload: str, work_dir: Path, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(0 if setup_only else args.trace), "--work-dir", str(work_dir),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(args, workload: str, deadline: float) -> dict:
    """Time set-up in fresh processes, then run the workload in one more."""
    OUT_DIR.mkdir(exist_ok=True)
    setups = []
    work_root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
    try:
        if not args.trace:
            for i in range(SETUP_SAMPLES - 1):
                work_dir = work_root / f"setup{i}"
                work_dir.mkdir()
                setups.append(run_worker(args, workload, work_dir, deadline, True)["setup_s"])
        work_dir = work_root / "run"
        work_dir.mkdir()
        res = run_worker(args, workload, work_dir, deadline, False)
        if args.trace:
            spans = OUT_DIR / f"spans-{workload}-seed{args.seed}.jsonl"
            shutil.move(str(work_dir / "spans.jsonl"), spans)
            res["spans_file"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    res["setup_samples"] = setups + [res["setup_s"]]
    return res


def summarize(res: dict) -> dict:
    """The run record: metrics (value, unit, samples), counts and checks."""
    metrics = {}

    def put(name: str, value: float, samples: list[float] | None = None, unit: str | None = None):
        unit = unit or (E2E.get(name) or PER_LAYER.get(name) or {}).get("unit", "s")
        metrics[name] = {"value": value, "unit": unit}
        if samples is not None:
            metrics[name]["samples"] = samples

    if res["trace"]:
        traced = statistics.median(res["run_s_traced"])
        untraced = statistics.median(res["run_s"])
        put("trace.run_s", traced, res["run_s_traced"])
        put("trace.untraced_run_s", untraced, res["run_s"])
        put("trace.overhead_ratio", traced / untraced)
        runs = [r for r in res["self_s"] if r.startswith("traced")]
        for span in LAYER_TIMES:
            put(f"{span}.self_s", statistics.median(res["self_s"][r].get(span, 0.0) for r in runs))
        for span, secs in sorted(res["self_s"].get("setup", {}).items()):
            put(f"setup.{span}.self_s", secs)
        nodes = res["counts"].get("embedding.search_nodes", 0)
        put("embedding.us_per_node",
            1e6 * metrics["embedding.extract_embedding.self_s"]["value"] / nodes if nodes else 0.0,
            unit="us")
        for name, spec in PER_LAYER.items():
            if spec["unit"] == "count":
                put(name, res["counts"].get(name, 0))
    else:
        setup = statistics.median(res["setup_samples"])
        run_s = statistics.median(res["run_s"])
        put("setup_s", setup, res["setup_samples"])
        put("run_s", run_s, res["run_s"])
        put("ops_per_s", res["ops_per_run"] / run_s)
        put("peak_rss_mb", res["peak_rss_mb"])
    return {
        "workload": res["workload"],
        "seed": res["seed"],
        "trace": res["trace"],
        "smoke": res["smoke"],
        "op": res["op"],
        "ops_per_run": res["ops_per_run"],
        "correct": not res["fatal"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "known_defects": res["known_defects"],
        "fatal": res["fatal"],
        "warmup_s": res["warmup_s"],
        "metrics": metrics,
        "counts": res["counts"],
        "untraced_functions": res.get("untraced_functions", []),
        "spans_file": res.get("spans_file"),
        "machine": machine_block(res),
    }


def print_record(rec: dict) -> None:
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}"
          f"{'  smoke' if rec['smoke'] else ''}  ({rec['ops_per_run']} x {rec['op']} per run)")
    for name, m in rec["metrics"].items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        line = f"  {name:<44} {value} {m['unit']}"
        if len(m.get("samples", [])) > 1:
            q1, _, q3 = quartiles(m["samples"])
            line += f"  (q1 {q1:.6g}, q3 {q3:.6g}, n={len(m['samples'])})"
        print(line)
    print(f"  failed_frac {rec['failed_frac']:.4g} ({rec['failed']}/{rec['attempted']}; "
          f"{rec['known_defects']} from known defects, see README)")
    if rec["counts"]:
        print("  counts: " + ", ".join(f"{k}={v}" for k, v in sorted(rec["counts"].items())))
    for msg in rec["fatal"]:
        print(f"  CHECK FAILED: {msg}")
    print("  machine: " + json.dumps(rec["machine"]))


def append_record(path: Path, rec: dict) -> None:
    data = {"runs": []}
    if path.exists():
        data = json.loads(path.read_text())
    data["runs"].append(rec)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n")


def result_line(records: list[dict]) -> dict:
    wanted = PER_LAYER if records[0]["trace"] else E2E
    prefix = len(records) > 1
    metrics = {}
    for rec in records:
        for name in wanted:
            m = rec["metrics"][name]
            key = f"{rec['workload']}.{name}" if prefix else name
            metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def compare(path_a: Path, path_b: Path) -> int:
    """Per workload and metric: each side's median and quartiles over runs, the ratio."""
    sides = []
    for path in (path_a, path_b):
        by_key: dict[tuple, list[float]] = {}
        for rec in json.loads(path.read_text())["runs"]:
            workload = rec["workload"] + (".smoke" if rec["smoke"] else "")
            for name, m in rec["metrics"].items():
                by_key.setdefault((workload, name, m["unit"]), []).append(m["value"])
        sides.append(by_key)
    print(f"A = {path_a}\nB = {path_b}")
    print(f"{'workload':<15} {'metric':<40} {'A median [q1, q3] n':<36} "
          f"{'B median [q1, q3] n':<36} {'B/A':>7}  verdict")
    for key in sorted(set(sides[0]) & set(sides[1])):
        workload, name, unit = key
        a, b = sides[0][key], sides[1][key]
        qa, qb = quartiles(a), quartiles(b)
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        verdict = ""
        spec = E2E.get(name)
        if spec is not None:
            bound = spec["bound"]
            spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (qa, qb))
            worse = ratio - 1 if spec["better"] == "lower" else 1 - ratio
            if min(len(a), len(b)) < 3 or spread > bound:
                verdict = f"unresolved (spread {spread:.1%} vs bound {bound:.0%}, n={len(a)}/{len(b)})"
            elif worse > bound:
                verdict = f"WORSE by {worse:.1%} (bound {bound:.0%})"
            else:
                verdict = "within bound"
        fa = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}] {len(a)}"
        fb = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {len(b)}"
        print(f"{workload:<15} {name + ' (' + unit + ')':<40} {fa:<36} {fb:<36} {ratio:>7.3f}  {verdict}")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    p.add_argument("--out", type=Path, default=OUT_DIR / "results.json",
                   help="result file each run is appended to")
    p.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                   help="compare two result files and exit")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "treeconfig" / "__init__.py").is_file():
        print(f"no treeconfig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    records = []
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        deadline = time.monotonic() + DEADLINE_S
        try:
            rec = summarize(run_workload(args, workload, deadline))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{workload}: {exc}", file=sys.stderr)
            return 1
        append_record(args.out, rec)
        print_record(rec)
        records.append(rec)
    print(json.dumps(result_line(records)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
