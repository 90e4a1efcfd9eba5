"""Fuzz of the ``simulate --config`` surface: every document exits 0, 1 or 2.

Documents mix the known keys, unknown ones and junk (nulls, bools, strings,
NaN, +-inf, integers beyond the float range).  ``--dt`` and ``--duration``
are fixed on the command line, so every run takes five steps whatever the
document says.  A run that exits 0 must have printed finite positions.
"""
import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from contactsim.cli import main
from contactsim.scenarios import SCENARIO_NAMES

numbers = st.one_of(
    st.floats(0.01, 10.0),
    st.integers(-5, 50),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 0.5, 1e-300, 1e300]),
)
leaves = st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=4))
junk = st.recursive(
    leaves,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=4), children,
                                               max_size=3)),
    max_leaves=8,
)
vectors = st.one_of(st.lists(numbers, min_size=2, max_size=2),
                    st.lists(numbers, min_size=3, max_size=3),
                    st.lists(numbers, max_size=4))


def mostly(good, rare):
    """``good`` seven times in eight, else ``rare``."""
    return st.integers(0, 7).flatmap(lambda k: good if k else rare)


def field(good):
    """A well-typed value, now and then junk or an integer beyond the float
    range."""
    return mostly(good, st.one_of(junk, st.just(10 ** 400)))


def mapping(fields):
    """Any subset of the fields, now and then with an unknown key."""
    return mostly(st.fixed_dictionaries({}, optional=fields),
                  st.fixed_dictionaries({}, optional={**fields, "bogus": junk}))


shapes = st.fixed_dictionaries(
    {"type": field(st.sampled_from(["circle", "rectangle", "sphere", "cuboid",
                                    "blob"]))},
    optional={"radius": field(numbers), "half_length": field(numbers),
              "half_width": field(numbers), "half_extents": field(vectors),
              "bogus": junk},
)
bodies = st.one_of(st.none(), mapping({
    "position": field(vectors), "velocity": field(vectors),
    "orientation": field(st.one_of(numbers, vectors)),
    "angular_velocity": field(st.one_of(numbers, vectors)),
    "mass": field(numbers),
    "static": field(st.booleans()), "shape": field(shapes),
}))
documents = mostly(mapping({
    "dt": field(numbers),
    "duration": field(numbers),
    "gravity": field(vectors),
    # tol and max_iters are no longer solver keys (the box-box loop's
    # stopping test and budget are constants): a document with either exits 1
    "solver": field(mapping({
        "tol": field(numbers), "max_iters": st.integers(-2, 30),
        "shrink_margin": field(st.one_of(st.none(), numbers)),
    })),
    "material": field(mapping({name: field(numbers) for name in
                               ("stiffness", "damping", "friction", "v_scale")})),
    "bodies": field(st.lists(bodies, max_size=3)),
}), junk)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(document=documents, scenario=st.sampled_from(SCENARIO_NAMES),
       backend=st.sampled_from(["sat", "co"]))
# finite inputs that diverge: body 1's velocity turns inf in one step, or
# body 0's angle, whose cosine the next step cannot take
@example(document={"gravity": [0.0, 1.7e308],
                   "bodies": [None, {"velocity": [0.0, 1.797e308]}]},
         scenario="circle-circle", backend="sat")
@example(document={"bodies": [{"orientation": 1.797e308, "angular_velocity": 1e308}]},
         scenario="rect-circle", backend="co")
def test_config_documents_exit_with_a_code(tmp_path_factory, document,
                                           scenario, backend):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(document))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--scenario", scenario, "--backend", backend,
                     "--dt", "1e-3", "--duration", "0.005",
                     "--config", str(path)])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("contactsim: ")
    else:  # a diverged run exits 2, so every printed position is finite
        lines = [line for line in out.getvalue().splitlines() if "position (" in line]
        assert lines
        for line in lines:
            coords = line.split("position (")[1].rstrip(")").split(", ")
            assert all(math.isfinite(float(c)) for c in coords), line
