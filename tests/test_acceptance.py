"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one [acceptance] PASS/FAIL line (run with -s or check
captured output).  Random sweeps use fixed seeds.  The co sweeps go through
``detect_convex`` on rect-circle poses, which it solves in closed form, and
keep the fictitious shapes clearly disjoint (surrogate gap >= 1e-3 m), so
that the recovered depth is measured rather than saturated.
"""
import filecmp
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from contactsim.bench import run_bench
from contactsim.cli import main
from contactsim.convex import PairContext, SolverSettings, detect_convex
from contactsim.geometry import Circle, Rectangle, body2d
from contactsim.penalty import ContactKinematics, MaterialParams, contact_force
from contactsim.sat import detect_rect_circle
from contactsim.simulate import (
    Backend,
    SimConfig,
    kinetic_energy,
    linear_momentum,
    run_scenario,
)

from oracles import (
    circle_boundary_points,
    frame_coords,
    min_pair_distance,
    rect_boundary_points,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    print(f"[acceptance] {name}: PASS")


def random_rect_circle_pose(rng):
    c1, c2 = rng.uniform(0.3, 1.8, 2)
    radius = rng.uniform(0.3, 1.2)
    theta = rng.uniform(-math.pi, math.pi)
    state_a = body2d(tuple(rng.uniform(-1.0, 1.0, 2)), angle=theta)
    state_b = body2d(tuple(np.asarray(state_a.position) + rng.uniform(-3.5, 3.5, 2)))
    return state_a, Rectangle(c1, c2), state_b, Circle(radius)


def circle_in_rect_frame(state_a, state_b):
    """The circle center in the rectangle's body frame."""
    offset = np.subtract(state_b.position, state_a.position)
    return tuple(float(v) for v in frame_coords(state_a.orientation, offset))


def fictitious_gap(state_a, rect, state_b, circle, b):
    """Distance between the rectangle and the shrunk circle; negative or
    zero when the fictitious shapes touch (center inside counts as zero)."""
    q = circle_in_rect_frame(state_a, state_b)
    if abs(q[0]) <= rect.half_length and abs(q[1]) <= rect.half_width:
        return 0.0
    info = detect_rect_circle(state_a, rect, state_b, circle)
    return info.phi + b


def test_backend_equivalence_rect_circle():
    with criterion("backend equivalence (rect-circle)"):
        rng = np.random.default_rng(2024)
        poses = []
        while len(poses) < 1000:
            state_a, rect, state_b, circle = random_rect_circle_pose(rng)
            if fictitious_gap(state_a, rect, state_b, circle,
                              circle.radius / 2.0) >= 1e-3:
                poses.append((state_a, rect, state_b, circle))
        settings = SolverSettings()
        start = time.perf_counter()
        for state_a, rect, state_b, circle in poses:
            sat_info = detect_rect_circle(state_a, rect, state_b, circle)
            co_info = detect_convex(state_a, rect, state_b, circle, settings)
            assert abs(sat_info.phi - co_info.phi) <= 1e-8
            assert abs(sat_info.rho - co_info.rho) <= 1e-8
            assert math.dist(sat_info.p_tilde, co_info.p_tilde) <= 1e-6
            assert math.dist(sat_info.q_tilde, co_info.q_tilde) <= 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"equivalence sweep took {elapsed:.2f}s"


def test_closed_form_against_brute_force_oracle():
    with criterion("closed form vs brute-force boundary oracle"):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            state_a, rect, state_b, circle = random_rect_circle_pose(rng)
            info = detect_rect_circle(state_a, rect, state_b, circle)
            if info.colliding:
                continue
            checked += 1
            # 1000 boundary points per shape -> 1e6 candidate pairs
            rect_local = rect_boundary_points(rect.half_length, rect.half_width, 250)
            theta = state_a.orientation
            rot = np.array([[math.cos(theta), -math.sin(theta)],
                            [math.sin(theta), math.cos(theta)]])
            rect_world = np.asarray(state_a.position) + rect_local @ rot.T
            circle_world = circle_boundary_points(state_b.position,
                                                  circle.radius, 1000)
            oracle = min_pair_distance(rect_world, circle_world)
            # sampled pairs bracket the true minimum from above by at most
            # half a sample spacing on each boundary
            h_rect = 2.0 * max(rect.half_length, rect.half_width) / 249
            h_circle = 2.0 * math.pi * circle.radius / 1000
            bound = 0.5 * h_rect + 0.5 * h_circle + 1e-12
            assert 0.0 <= oracle - info.phi <= bound


def test_interpenetration_recovery_from_surrogate():
    with criterion("interpenetration recovery from surrogate proximity"):
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 100:
            state_a, rect, state_b, circle = random_rect_circle_pose(rng)
            b = circle.radius / 2.0
            sat_info = detect_rect_circle(state_a, rect, state_b, circle)
            rho_true = sat_info.rho
            if not (1e-3 <= rho_true <= b - 1e-3):
                continue
            if fictitious_gap(state_a, rect, state_b, circle, b) < 1e-3:
                continue
            checked += 1
            info = detect_convex(state_a, rect, state_b, circle)
            assert not info.saturated
            assert abs(info.rho - rho_true) <= 1e-8


def test_contact_force_point_checks():
    with criterion("contact force law point checks"):
        mat = MaterialParams(stiffness=1e5, damping=0.1)
        f_n, f_t = contact_force(0.01, ContactKinematics(0.0, 0.0), mat)
        assert f_n == 1e5 * 0.01 ** 3 * (1.0 - 0.1 * 0.0)
        assert abs(f_n - 0.1) <= math.ulp(0.1)
        assert f_t == 0.0
        rng = np.random.default_rng(5)
        mat = MaterialParams(stiffness=1e5, damping=0.2, friction=0.3)
        for _ in range(1000):
            rho = rng.uniform(0.0, 0.2)
            v_n = rng.uniform(-5.0, 5.0)
            v_t = rng.uniform(-100.0, 100.0)
            f_n, f_t = contact_force(rho, ContactKinematics(v_n, v_t), mat)
            assert f_n >= 0.0
            assert abs(f_t) <= mat.friction * f_n + 1e-15


def _separation_energy(trajectory):
    """Kinetic energy before the first contact and after the last one."""
    t_first = trajectory.events[0].t
    t_last = trajectory.events[-1].t
    before = after = None
    for t, states in trajectory.samples:
        if t < t_first:
            before = kinetic_energy(states)
        if t > t_last and after is None:
            after = kinetic_energy(states)
    return before, after


def test_conservation_elastic_circle_collision():
    with criterion("conservation (elastic two-circle collision)"):
        mat = MaterialParams(damping=0.0, friction=0.0)
        errors = {}
        for dt in (4e-4, 2e-4, 1e-4):
            config = SimConfig(dt=dt, duration=2.0, material=mat)
            trajectory = run_scenario("circle-circle", config)
            p0 = linear_momentum(trajectory.samples[0][1])
            drift = max(math.dist(linear_momentum(states), p0)
                        for _, states in trajectory.samples)
            assert drift <= 1e-9
            before, after = _separation_energy(trajectory)
            assert after is not None, "bodies never separated"
            errors[dt] = abs(after - before) / before
        assert errors[1e-4] <= 0.02
        # refinement must shrink the energy error at least linearly in dt
        assert errors[2e-4] <= 0.75 * errors[4e-4] + 1e-12
        assert errors[1e-4] <= 0.75 * errors[2e-4] + 1e-12


def test_dissipation_with_damping_and_friction():
    with criterion("dissipation (damped two-circle collision)"):
        mat = MaterialParams(damping=0.2, friction=0.3)
        config = SimConfig(dt=1e-4, duration=2.0, material=mat)
        trajectory = run_scenario("circle-circle", config)
        before, after = _separation_energy(trajectory)
        assert after is not None and after < before
        contact_times = {event.t for event in trajectory.events}
        energies = [kinetic_energy(states) for t, states in trajectory.samples
                    if t not in contact_times]
        for first, second in zip(energies, energies[1:]):
            assert second <= first * (1.0 + 1e-12) + 1e-12


def test_static_settling_sphere_on_cuboid():
    with criterion("static settling (sphere on cuboid)"):
        # higher damping and a near-surface start decay the transients well
        # inside the run; stiffness and gravity come from the registry
        material = MaterialParams(stiffness=1e7, damping=2.0, friction=0.3)
        overrides = {"bodies": [None, {"position": [0.0, 0.0, 0.51],
                                       "velocity": [0.0, 0.0, 0.0]}]}
        config = SimConfig(dt=1e-3, duration=3.0, material=material)
        trajectory = run_scenario("sphere-cuboid", config, overrides)
        sphere = trajectory.samples[-1][1][1]
        assert max(abs(v) for v in sphere.velocity) < 1e-6, "transients remain"
        final_events = [e for e in trajectory.events
                        if e.t == trajectory.events[-1].t]
        rho_eq = final_events[-1].rho
        weight = sphere.mass * 9.81
        assert abs(material.stiffness * rho_eq ** 3 - weight) <= 0.01 * weight


def test_bench_report_structure_and_micro_costs():
    with criterion("benchmark harness (all cells, micro costs, CO/SAT ratio)"):
        report = run_bench(repeat=10, micro_calls=100_000)
        rows = report["rows"]
        assert len(rows) == 10
        for row in rows:
            assert "error" not in row, row
            assert row["mean_s"] > 0.0
            assert row["repeat"] == 10
        micro = report["micro"]
        assert len(micro) == 8
        for cell in micro:
            assert cell["calls"] == 100_000
            assert cell["per_call_s"] > 0.0
        ratio = report["sphere_cuboid_co_vs_sat_ratio"]
        assert ratio is not None and ratio > 0.0
        # informational, non-failing: the reference direction is CO <= SAT;
        # a closed-form clamp makes this implementation's SAT much cheaper
        direction = "matches" if ratio <= 1.0 else "does not match"
        print(f"[acceptance]   sphere-cuboid narrow-phase CO/SAT per-call "
              f"ratio = {ratio:.2f} ({direction} the reference direction)")


def test_determinism_byte_identical_csv(tmp_path):
    with criterion("determinism (byte-identical simulate output)"):
        args = ["simulate", "--scenario", "rect-circle", "--backend", "sat",
                "--dt", "0.001", "--duration", "1.0"]
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert filecmp.cmp(out_a, out_b, shallow=False)
        assert filecmp.cmp(str(out_a) + ".events.csv",
                           str(out_b) + ".events.csv", shallow=False)
        assert out_a.read_bytes() == out_b.read_bytes()


def test_solver_convergence_sweep():
    with criterion("solver convergence (10^4 disjoint instances)"):
        # each instance is a box and a ball of the drawn radius, posed as a
        # circle of twice that radius shrunk by its default margin, half the
        # radius; the true circle may overlap the box by up to the margin
        rng = np.random.default_rng(90210)
        settings = SolverSettings()
        state_a = body2d((0.0, 0.0))
        produced = 0
        while produced < 10_000:
            c1, c2 = rng.uniform(0.2, 2.0, 2)
            center = tuple(rng.uniform(-4.0, 4.0, 2))
            radius = rng.uniform(0.1, 1.2)
            clamped = (max(-c1, min(c1, center[0])), max(-c2, min(c2, center[1])))
            if math.dist(center, clamped) - radius < 1e-3:
                continue
            produced += 1
            rect, circle = Rectangle(c1, c2), Circle(2.0 * radius)
            state_b = body2d(center)
            context = PairContext()
            info = detect_convex(state_a, rect, state_b, circle, settings, context)
            reference = detect_rect_circle(state_a, rect, state_b, circle)
            assert context.last_iterations == 1
            assert abs(info.phi - reference.phi) <= 1e-12
            assert abs(info.rho - reference.rho) <= 1e-12
