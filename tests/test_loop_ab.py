"""tools/loop_ab.py, the stepping-loop and export A/B, on HEAD against the working tree."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_head_against_the_working_tree_runs_every_cell():
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True)
    if head.returncode != 0:
        pytest.skip("not a git checkout")
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "loop_ab.py"), "HEAD",
         "--rounds", "1", "--duration", "0.05"],
        capture_output=True, text=True, timeout=300)
    # the working tree's exports match HEAD's, as every change keeps them
    assert result.returncode == 0, result.stdout + result.stderr
    header, *lines = result.stdout.splitlines()
    assert header.split()[1:5] == ["loop", "iqr", "export", "iqr"]
    rows = {line.split()[0]: [float(v) for v in line.split()[1:]] for line in lines}
    assert len(rows) == 12 and {"scenarios-sat", "scenarios-co"} <= set(rows)
    # loop and export ratios with their spreads, then both sides' calls/s
    assert all(len(values) == 6 for values in rows.values())
    assert all(values[0] > 0.0 and values[2] > 0.0 and min(values[4:]) > 0.0
               for values in rows.values())
