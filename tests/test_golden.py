"""Golden scans: small path5 and star5 scans must reproduce committed bytes.

The files under tests/data/golden/ pin scan.csv and interval.json of two
scans of the depth-4 acceptance Cantor measure (256 atoms) over a grid that
reaches past the measure's diameter, so the last t fails at stage 1. A change
that reorders a sum or moves an annulus boundary decision shows up here as a
byte difference. Regenerate deliberately with `python tests/test_golden.py`.
"""

import shutil
import tempfile
from pathlib import Path

import pytest

import treeconfig as tc
from conftest import ACCEPT_RATIO, product_cantor_spec

GOLDEN = Path(__file__).parent / "data" / "golden"
TREES = {"path5": tc.path_tree(4), "star5": tc.star_tree(4)}
FILES = ("scan.csv", "interval.json")


def golden_scan(name: str, out_dir) -> None:
    mu = tc.build_ifs_measure(product_cantor_spec(ACCEPT_RATIO, 4))
    config = tc.ScanConfig(t_min=0.3, t_max=1.5, t_steps=7, eps0=0.08, halvings=2)
    tc.emit_report(tc.scan_interval(config, measure=mu, tree=TREES[name]), out_dir)


@pytest.mark.parametrize("name", sorted(TREES))
def test_scan_reproduces_golden_bytes(name, tmp_path):
    golden_scan(name, tmp_path)
    for file in FILES:
        assert (tmp_path / file).read_bytes() == (GOLDEN / name / file).read_bytes(), file


if __name__ == "__main__":
    for name in TREES:
        with tempfile.TemporaryDirectory() as tmp:
            golden_scan(name, tmp)
            (GOLDEN / name).mkdir(parents=True, exist_ok=True)
            for file in FILES:
                shutil.copy(Path(tmp) / file, GOLDEN / name / file)
