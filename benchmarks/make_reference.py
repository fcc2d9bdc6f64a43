"""Write reference.json: the scan outputs the scan workloads are checked against.

    python3 benchmarks/make_reference.py

Runs each scan workload once, full size and smoke size, on seed 0, and
records the exit code, the detected interval,
c_k, C_k and every row's status, restricted integral and witness flags.
Regenerate only when a change is meant to alter scan results, and say so
in the change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

ROW_KEYS = ("t", "eps", "status", "integral_restricted", "homomorphism", "distinct_witness")


def reference_for(name: str, smoke: bool) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        work_dir = Path(tmp)
        state = workloads.scan_setup(name, work_dir, 0, smoke)
        exit_code = workloads.scan_run(state)
        out = state["out_dir"]
        interval = json.loads((out / "interval.json").read_text())
        rows = json.loads((out / "report.json").read_text())["rows"]
    return {"exit": exit_code, **interval, "rows": [{k: r[k] for k in ROW_KEYS} for r in rows]}


def main() -> None:
    ref = {
        workloads.scan_key(name, smoke): reference_for(name, smoke)
        for name in ("scan-dense", "scan-sparse")
        for smoke in (False, True)
    }
    workloads.REFERENCE_FILE.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {workloads.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
