"""The line and branch counter in tools/complexity.py, on sources written here."""
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "complexity.py"
_SPEC = importlib.util.spec_from_file_location("complexity", _PATH)
complexity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(complexity)

SAT = '''\
def _helper(x):
    return [y for y in x if y] or None


def detect_a_b(x):
    if x and x > 1:
        return _helper(x)
    return 1 if x else 2
'''

CONVEX = '''\
def _inner(x):
    try:
        return x
    except ValueError:
        return None


def _outer(x):
    while x:
        x = _inner(x)
    return x


def _convex_a_b(x):
    for _ in range(2):
        x = _outer(x)
    return x


def unused(x):
    if x:
        return x


_PAIRINGS = {(int, int): ("a-b", _convex_a_b)}
'''


def test_counts_lines_and_branches(tmp_path):
    (tmp_path / "sat.py").write_text(SAT)
    (tmp_path / "convex.py").write_text(CONVEX)
    rows = [row.split() for row in complexity.report(tmp_path).splitlines()]
    # sat: comprehension, its if, `or`, if, `and`, conditional expression
    assert rows[1] == ["sat.py", "8", "6"]
    assert rows[2] == ["a-b", "(detect_a_b)", "4", "3", "6", "6"]
    # convex: try, while, for, if; the pairing reaches both helpers
    assert rows[3] == ["convex.py", "25", "4"]
    assert rows[4] == ["a-b", "(_convex_a_b)", "4", "1", "13", "3"]


def test_reports_the_package(capsys):
    assert complexity.main([]) == 0
    out = capsys.readouterr().out
    for name in ("sat.py", "convex.py", "detect_rect_rect", "_convex_rect_rect"):
        assert name in out
