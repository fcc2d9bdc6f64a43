"""The benchmark's own tests: span bookkeeping, and smoke runs of the command.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_self_time_subtracts_children():
    spans = [
        ["outer", 0.0, 10.0, -1, "r"],
        ["child", 1.0, 3.0, 0, "r"],
        ["child", 5.0, 6.0, 0, "r"],
        ["leaf", 1.5, 2.5, 1, "r"],
    ]
    got = self_times(spans)["r"]
    assert got["outer"] == pytest.approx(7.0)
    assert got["child"] == pytest.approx(2.0)  # (2 - 1) + 1
    assert got["leaf"] == pytest.approx(1.0)


def test_tracer_patches_every_binding_and_restores():
    import numpy as np

    import treeconfig as tc
    from treeconfig import embedding, integrals, kernels

    original = kernels.annulus_sums
    mu = tc.AtomicMeasure(d=1, atoms=[[0.0], [1.0]], weights=[0.5, 0.5])
    params = tc.KernelParams(t=1.0, eps=0.1)
    with Tracer() as tracer:
        tracer.request = "r"
        assert integrals.annulus_sums is kernels.annulus_sums is embedding.annulus_sums
        assert kernels.annulus_sums is not original
        tc.integral_peel(mu, tc.compute_peel_schedule(tc.path_tree(1)), params)
    assert kernels.annulus_sums is original and integrals.annulus_sums is original
    names = {s[0] for s in tracer.spans}
    assert {"integrals.integral_peel", "kernels.annulus_sums"} <= names
    peel = next(i for i, s in enumerate(tracer.spans) if s[0] == "integrals.integral_peel")
    assert all(s[3] == peel for s in tracer.spans if s[0] == "kernels.annulus_sums")
    counts = tracer.counts["r"]
    assert counts["kernels.annulus_sums.calls"] == 2
    assert counts["kernels.annulus_sums.pairs_offered"] == 2 * 2 * 2
    assert not tracer.missing
    assert np.isfinite([s[2] - s[1] for s in tracer.spans]).all()


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "results.json"
    procs = {
        trace: run_bench("--workload", "all", "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke", "--out", str(out))
        for trace in (0, 1)
    }
    return procs, out


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(smoke_runs, trace, kind):
    proc = smoke_runs[0][trace]
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {
        f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[kind]
    }
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    for metric in SPEC[kind]:
        assert f"  {metric['name']} " in proc.stdout


def test_smoke_records_counts_and_machine(smoke_runs):
    runs = json.loads(smoke_runs[1].read_text())["runs"]
    traced = {r["workload"]: r for r in runs if r["trace"]}
    assert set(traced) == set(WORKLOADS)
    assert traced["embed-absent"]["counts"]["embedding.outcome.absent"] == 1
    assert traced["scan-dense"]["counts"]["scan.rows"] == 4
    assert traced["oracle-lattice"]["counts"]["integrals.bruteforce_terms"] > 0
    machine = runs[0]["machine"]
    assert machine["blas_threads"] in (1, None)
    assert machine["src_lines"] > 0
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "openblas"} <= set(machine)


def test_compare_reports_each_metric(smoke_runs):
    out = smoke_runs[1]
    proc = run_bench("--compare", str(out), str(out))
    assert proc.returncode == 0, proc.stderr
    for workload in WORKLOADS:
        assert f"{workload}.smoke " in proc.stdout
    # one smoke run per side is too few runs to call anything unchanged
    assert "unresolved" in proc.stdout and "WORSE" not in proc.stdout


def test_refuses_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "scan-dense", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
