"""The call-time lookup points that the benchmark's tracer wraps.

``perfbench/tracing.py`` swaps these module attributes and table entries for
timing wrappers, so each must still be looked up at call time by every
registry run.  Counting wrappers stand in for the tracer here.  A step whose
pair has disjoint world-axis boxes skips the narrow phase, so the detector
counts equal the oracle's count of steps with overlapping boxes.
"""
from collections import Counter

import pytest

from contactsim import convex, simulate
from contactsim.scenarios import SCENARIO_NAMES
from contactsim.simulate import SimConfig, run_scenario

from oracles import overlapping_box_pair_steps

SIMULATE_POINTS = ("build_scenario", "run_world", "collision_response",
                   "_integrate", "relative_velocity_at_contact",
                   "contact_force", "wrench_on_bodies")


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in SIMULATE_POINTS:
        monkeypatch.setattr(simulate, name,
                            counting(name, getattr(simulate, name)))
    for key, detector in list(simulate._DETECTORS_SAT.items()):
        monkeypatch.setitem(simulate._DETECTORS_SAT, key,
                            counting(f"sat.{detector.__name__}", detector))
    monkeypatch.setattr(convex, "_warm_start",
                        counting("_warm_start", convex._warm_start))
    detect_convex = convex.detect_convex

    def counting_detect_convex(state_a, shape_a, state_b, shape_b,
                               settings=None, context=None):
        counts["detect_convex"] += 1
        context.last_iterations = 0
        info = detect_convex(state_a, shape_a, state_b, shape_b, settings,
                             context)
        if context.last_iterations >= 1:
            counts["detect_convex.last_iterations"] += 1
        return info

    monkeypatch.setattr(convex, "detect_convex", counting_detect_convex)
    return counts


@pytest.mark.parametrize("backend", ["sat", "co"])
@pytest.mark.parametrize("name", SCENARIO_NAMES)
def test_registry_run_goes_through_every_hook(name, backend, calls):
    # 0.6 s brings every registry pair into contact
    trajectory = run_scenario(name, SimConfig(backend=backend, duration=0.6))
    for point in SIMULATE_POINTS:
        assert calls[point] >= 1, point
    assert calls["collision_response"] == calls["_integrate"] == 600
    overlapping = overlapping_box_pair_steps(trajectory)
    assert 1 <= overlapping < 600
    if backend == "sat":
        assert sum(n for key, n in calls.items()
                   if key.startswith("sat.")) == overlapping
        assert calls["detect_convex"] == 0
    else:
        assert calls["detect_convex"] == overlapping
        assert calls["detect_convex.last_iterations"] == overlapping
        assert not any(key.startswith("sat.") for key in calls)
        # only the box-box pairing warm-starts, once per solve
        assert calls["_warm_start"] == (overlapping if name == "rect-rect" else 0)


def test_every_canonical_sat_entry_is_reached(calls):
    for name in SCENARIO_NAMES:
        run_scenario(name, SimConfig(duration=0.6))
    assert len(simulate._DETECTORS_SAT) == 4
    assert {key for key in calls if key.startswith("sat.")} == {
        "sat.detect_rect_circle", "sat.detect_circle_circle",
        "sat.detect_rect_rect", "sat.detect_sphere_cuboid"}
