"""tools/loop_ab.py, the stepping-loop A/B, on HEAD against the working tree."""
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
    rows = {line.split()[0]: line.split()[1:]
            for line in result.stdout.splitlines()[1:]}
    assert len(rows) == 12 and {"scenarios-sat", "scenarios-co"} <= set(rows)
    assert all(float(rate) > 0.0 for values in rows.values() for rate in values[-2:])
