"""The line and branch counter in tools/complexity.py, on sources written here.

Its pairing rows come from sat's ``PAIRINGS`` table: in co, rect-rect is
``_convex_rect_rect``, and any other pairing is sat's detector plus
``_with_margin`` and ``_resolve_margin``."""
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


PAIRINGS = {(Box, Box): ("rect-rect", detect_a_b)}
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


def _convex_rect_rect(x):
    for _ in range(2):
        x = _outer(x)
    return x


def unused(x):
    if x:
        return x
'''


def test_counts_lines_and_branches(tmp_path):
    (tmp_path / "sat.py").write_text(SAT)
    (tmp_path / "convex.py").write_text(CONVEX)
    (tmp_path / "contact.py").write_text("")
    rows = [row.split() for row in complexity.report(tmp_path).splitlines()]
    # sat: comprehension, its if, `or`, if, `and`, conditional expression
    assert rows[1] == ["sat.py", "11", "6"]
    assert rows[2] == ["rect-rect", "(detect_a_b)", "4", "3", "6", "6"]
    # convex: try, while, for, if; the box-box solver reaches both helpers
    assert rows[3] == ["convex.py", "22", "4"]
    assert rows[4] == ["rect-rect", "(_convex_rect_rect)", "4", "1", "13", "3"]


# A shared module, called from both backends: by its own name, under an
# alias and through the other backend.  Imports from outside the package, of
# a module the package lacks, or of a name that is no function add nothing.
SHARED = '''\
from math import sqrt

LIMIT = 2


def rule(x):
    if x:
        return _inner(x)
    return sqrt(x)


def _inner(x):
    return x or LIMIT
'''

SAT_SHARED = '''\
from .contact import LIMIT, rule
from .missing import helper


def detect_a_b(x):
    return rule(x) if x else helper(LIMIT)


PAIRINGS = {(Box, Circle): ("a-b", detect_a_b)}
'''

CONVEX_SHARED = '''\
from .contact import rule as shared


def _with_margin(x):
    while x:
        x = shared(x)
    return x


def _resolve_margin(x):
    return rule(x)


def rule(x):
    return x
'''


def test_follows_calls_into_other_modules(tmp_path):
    (tmp_path / "contact.py").write_text(SHARED)
    (tmp_path / "sat.py").write_text(SAT_SHARED)
    (tmp_path / "convex.py").write_text(CONVEX_SHARED)
    rows = [row.split() for row in complexity.report(tmp_path).splitlines()]
    # sat: the conditional expression; with rule (if) and _inner (`or`)
    assert rows[1] == ["sat.py", "9", "1"]
    assert rows[2] == ["a-b", "(detect_a_b)", "2", "1", "8", "3"]
    # convex: while.  a-b is not rect-rect, so it is sat's detector plus
    # the margin: alone _with_margin and _resolve_margin, and with them
    # shared = contact.rule, _inner, sat's detect_a_b and convex's own rule,
    # which the bare name calls; contact.rule counts once, although the
    # pairing reaches it through _with_margin and through detect_a_b
    assert rows[3] == ["convex.py", "15", "1"]
    assert rows[4] == ["a-b", "(detect_a_b", "+", "margin)", "6", "1", "16", "4"]


def test_ends_with_the_shared_module(tmp_path):
    (tmp_path / "contact.py").write_text(SHARED)
    (tmp_path / "sat.py").write_text(SAT_SHARED)
    (tmp_path / "convex.py").write_text(CONVEX_SHARED)
    rows = [row.split() for row in complexity.report(tmp_path).splitlines()]
    # contact: if and `or`, one row with no pairing rows under it
    assert len(rows) == 6
    assert rows[5] == ["contact.py", "13", "2"]


def test_reports_the_package(capsys):
    assert complexity.main([]) == 0
    out = capsys.readouterr().out
    for name in ("sat.py", "convex.py", "contact.py", "detect_rect_rect",
                 "_convex_rect_rect"):
        assert name in out


def test_readme_table_is_the_package_report():
    readme = (_PATH.parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("At this commit it prints:\n\n```\n", 1)[1]
    table = complexity.report(_PATH.parent.parent / "src" / "contactsim")
    assert block.split("```", 1)[0] == table + "\n"
    # the sentence under the table states the two backends' difference
    rows = {row.split()[0]: row.split()[1:] for row in table.splitlines()[1:]}
    lines, branches = (int(c) - int(s) for c, s in zip(rows["convex.py"], rows["sat.py"]))
    assert (f"`convex.py` is still larger than `sat.py`, by {lines} lines and "
            f"{branches} branches") in readme
