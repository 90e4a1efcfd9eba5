import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from contactsim import convex, simulate
from contactsim.convex import SolverSettings
from contactsim.errors import UnknownScenario, UnsupportedPair
from contactsim.geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    body2d,
    body3d,
    disc_inertia,
    mat3_inverse,
    mat3_vec,
)
from contactsim.penalty import BodyWrench, ContactKinematics, MaterialParams, contact_force
from contactsim.simulate import (
    MAX_STEPS,
    Backend,
    SimConfig,
    _body_constants,
    _integrate,
    collision_response,
    kinetic_energy,
    linear_momentum,
    run_scenario,
    run_world,
)
from contactsim.scenarios import SCENARIO_NAMES, build_scenario

from oracles import quat_multiply, quat_normalize, rk4_free_body_2d, world_box


class TestIntegrator:
    def test_drift_without_forces(self):
        config = SimConfig(dt=0.01)
        states = [body2d((0.0, 0.0), velocity=(1.0, 0.0))]
        out = _integrate(states, [None], config, (0.0, 0.0))
        assert out[0].position == (0.01, 0.0)

    def test_semi_implicit_gravity_ordering(self):
        # the velocity update happens first, so the first position step
        # already uses the post-gravity velocity
        config = SimConfig(dt=0.01)
        states = [body2d((0.0, 0.0))]
        out = _integrate(states, [None], config, (0.0, -9.81))
        assert math.isclose(out[0].velocity[1], -9.81 * 0.01, abs_tol=1e-15)
        assert math.isclose(out[0].position[1], -9.81 * 0.01 * 0.01, abs_tol=1e-15)

    def test_static_body_never_moves(self):
        config = SimConfig(dt=0.01)
        states = [body2d((1.0, 2.0), static=True)]
        out = _integrate(states, [BodyWrench((5.0, 5.0), 3.0)], config, (0.0, -9.81))
        assert out[0] == states[0]

    def test_off_center_force_matches_rk4_reference(self):
        dt = 1e-5
        config = SimConfig(dt=dt)
        mass, inertia = 2.0, 0.5
        force, moment = (0.4, -0.3), 0.7
        states = [body2d((0.1, -0.2), velocity=(0.5, 0.25),
                         angular_velocity=-0.4, mass=mass, inertia=inertia)]
        wrench = [BodyWrench(force, moment)]
        for _ in range(10):
            states = _integrate(states, wrench, config, (0.0, 0.0))
        ref = rk4_free_body_2d((0.1, -0.2), (0.5, 0.25), 0.0, -0.4,
                               mass, inertia, force, moment, dt, 10)
        got = states[0]
        assert math.isclose(got.angular_velocity, ref[5], abs_tol=1e-12)
        assert math.isclose(got.angular_velocity,
                            -0.4 + 10 * dt * moment / inertia, abs_tol=1e-12)
        assert np.allclose(got.position, ref[:2], atol=1e-8)
        assert np.allclose(got.velocity, ref[2:4], atol=1e-12)
        assert math.isclose(got.orientation, ref[4], abs_tol=1e-8)

    def test_quaternion_stays_normalized(self):
        config = SimConfig(dt=1e-3)
        states = [body3d((0.0, 0.0, 0.0), angular_velocity=(0.3, -0.5, 0.9))]
        for _ in range(200):
            states = _integrate(states, [None], config, (0.0, 0.0, 0.0))
        assert math.isclose(sum(c * c for c in states[0].orientation), 1.0,
                            abs_tol=1e-12)


def _checked_successor(state, wrench, dt, gravity):
    """One integrator step built with dataclasses.replace, which re-runs the
    construction checks, and the inverse inertia taken afresh each step."""
    dim = state.dim
    force = wrench.force if wrench is not None else (0.0,) * dim
    inv_m = 1.0 / state.mass
    velocity = tuple(state.velocity[k] + dt * (force[k] * inv_m + gravity[k])
                     for k in range(dim))
    position = tuple(state.position[k] + dt * velocity[k] for k in range(dim))
    if dim == 2:
        moment = wrench.moment if wrench is not None else 0.0
        omega = state.angular_velocity + dt * moment / state.inertia
        orientation = state.orientation + dt * omega
    else:
        moment = wrench.moment if wrench is not None else (0.0, 0.0, 0.0)
        alpha = mat3_vec(mat3_inverse(state.inertia), moment)
        omega = tuple(state.angular_velocity[k] + dt * alpha[k] for k in range(3))
        spin = quat_multiply((0.0,) + omega, state.orientation)
        orientation = quat_normalize(tuple(
            state.orientation[k] + dt * 0.5 * spin[k] for k in range(4)))
    return replace(state, position=position, orientation=orientation,
                   velocity=velocity, angular_velocity=omega)


def _bits(value):
    """Exact bit pattern of a float or nested tuple of floats; -0.0 != 0.0."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float.hex(value) if isinstance(value, float) else value


class TestSuccessorStates:
    """Integrator successors skip the construction checks but not a bit of state."""

    FIELDS = ("position", "orientation", "velocity", "angular_velocity",
              "mass", "inertia", "static")

    def _assert_bitwise_equal(self, got, expected):
        assert type(got) is BodyState
        assert got == expected
        for name in self.FIELDS:
            assert _bits(getattr(got, name)) == _bits(getattr(expected, name)), name

    @staticmethod
    def _wrenches(dim, steps, seed):
        """No wrench, an all-zero one with negative zeros, or a random one."""
        rng = random.Random(seed)
        zero = BodyWrench((0.0, -0.0, 0.0)[:dim], -0.0 if dim == 2 else (-0.0, 0.0, -0.0))
        for k in range(steps):
            if k % 3 == 0:
                yield None
            elif k % 3 == 1:
                yield zero
            else:
                force = tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))
                moment = (rng.uniform(-0.3, 0.3) if dim == 2
                          else tuple(rng.uniform(-0.3, 0.3) for _ in range(3)))
                yield BodyWrench(force, moment)

    def test_3d_successors_match_checked_construction_over_500_steps(self):
        inertia = ((0.9, 0.12, -0.05), (0.12, 1.3, 0.08), (-0.05, 0.08, 0.7))
        state = body3d((0.0, -0.0, 1.0), orientation=quat_normalize((0.9, 0.1, -0.3, 0.2)),
                       velocity=(0.0, -0.0, -1.0), angular_velocity=(0.0, -0.0, 0.4),
                       mass=1.7, inertia=inertia)
        dt = 1e-3
        gravity = (0.0, -0.0, -9.81)
        config = SimConfig(dt=dt)
        constants = _body_constants([state])
        assert constants[0] == (1.0 / 1.7, mat3_inverse(inertia))
        reference = state
        for wrench in self._wrenches(3, 500, seed=5):
            reference = _checked_successor(reference, wrench, dt, gravity)
            (state,) = _integrate([state], [wrench], config, gravity, constants)
            self._assert_bitwise_equal(state, reference)

    def test_2d_successors_match_checked_construction(self):
        state = body2d((0.0, -0.0), angle=-0.0, velocity=(-0.0, 0.0),
                       angular_velocity=0.0, mass=2.3, inertia=0.37)
        dt = 1e-3
        gravity = (0.0, -9.81)
        config = SimConfig(dt=dt)
        reference = state
        for wrench in self._wrenches(2, 500, seed=6):
            reference = _checked_successor(reference, wrench, dt, gravity)
            (state,) = _integrate([state], [wrench], config, gravity)
            self._assert_bitwise_equal(state, reference)

    def test_user_built_states_are_still_checked(self):
        with pytest.raises(ValueError):
            BodyState((0.0,), 0.0, (0.0,), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            BodyState((0.0, 0.0), 0.0, (0.0, 0.0, 0.0), 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            body3d((0.0, 0.0, 0.0), orientation=(1.0, 0.1, 0.0, 0.0))
        with pytest.raises(ValueError):
            BodyState((0.0, 0.0, 0.0), 1.0, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                      1.0, 1.0)
        for mass in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                body2d((0.0, 0.0), mass=mass)
        with pytest.raises(ValueError):
            replace(body2d((0.0, 0.0)), mass=-2.0)


class TestConfigChecks:
    @pytest.mark.parametrize("kwargs", [
        {"dt": math.inf}, {"dt": math.nan}, {"dt": 0.0}, {"dt": -1e-3},
        {"duration": math.inf}, {"duration": math.nan}, {"duration": 0.0},
        {"duration": -1.0},
    ])
    def test_sim_config_rejects(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("name", ["stiffness", "damping", "friction", "v_scale"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_material_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=name):
            MaterialParams(**{name: value})

    @pytest.mark.parametrize("kwargs", [
        {"tol": math.inf}, {"tol": math.nan}, {"tol": 0.0}, {"tol": "abc"},
        {"max_iters": 1.5}, {"max_iters": 0}, {"max_iters": True},
        {"shrink_margin": math.inf}, {"shrink_margin": math.nan},
        {"shrink_margin": -0.1},
    ])
    def test_solver_settings_reject(self, kwargs):
        with pytest.raises(ValueError):
            SolverSettings(**kwargs)

    @pytest.mark.parametrize("name", ["tol", "max_iters", "shrink_margin"])
    @pytest.mark.parametrize("value", [True, False])
    def test_solver_settings_reject_bools(self, name, value):
        # a bool is an int to isinstance, and True passes 0 < value < inf
        with pytest.raises(ValueError, match=name):
            SolverSettings(**{name: value})

    @pytest.mark.parametrize("gravity", [(0.0, math.nan), (0.0, -math.inf)])
    def test_gravity_must_be_finite(self, gravity):
        with pytest.raises(ValueError, match="gravity"):
            build_scenario("circle-circle", {"gravity": gravity})

    def test_override_duration_shorter_than_a_step_runs_one_step(self):
        trajectory = run_scenario("circle-circle", SimConfig(), {"duration": 1e-4})
        assert [t for t, _ in trajectory.samples] == [0.0, 1e-3]

    @pytest.mark.parametrize("key", ["dt", "solver"])
    def test_run_options_are_no_scenario_overrides(self, key):
        # dt and solver belong to SimConfig; only the --config document has them
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            build_scenario("circle-circle", {key: {}})

    def test_override_dimensions_must_match(self):
        with pytest.raises(ValueError, match="body 1"):
            build_scenario("circle-circle", {"bodies": [
                None, {"shape": {"type": "sphere", "radius": 0.5}}]})
        with pytest.raises(ValueError, match="gravity"):
            build_scenario("sphere-cuboid", {"gravity": [0.0, -9.81]})

    def test_scenario_override_duration_is_checked(self):
        with pytest.raises(ValueError, match="finite"):
            run_scenario("circle-circle", SimConfig(), {"duration": math.inf})

    @pytest.mark.parametrize("config", [
        SimConfig(dt=1e-300, duration=1e10),
        SimConfig(dt=1e-320),
    ])
    def test_step_count_overflow_is_rejected(self, config):
        scenario = build_scenario("circle-circle")
        with pytest.raises(ValueError, match="finite"):
            run_world(scenario.bodies, scenario.shapes, config, scenario.gravity)
        with pytest.raises(ValueError, match="finite"):
            run_scenario("circle-circle", config)

    def test_step_count_above_the_cap_is_rejected(self):
        # 2e300 steps is finite; it must fail before anything is allocated
        scenario = build_scenario("circle-circle")
        for dt in (1e-300, 2.0 / (MAX_STEPS + 1)):
            with pytest.raises(ValueError, match="steps"):
                run_world(scenario.bodies, scenario.shapes,
                          SimConfig(dt=dt, duration=2.0), scenario.gravity)

    def test_step_longer_than_scenario_duration_runs_one_step(self):
        trajectory = run_scenario("circle-circle", SimConfig(dt=2.5))
        assert [t for t, _ in trajectory.samples] == [0.0, 2.5]

    def test_overflowing_quaternion_is_rejected(self):
        # the squared norm overflows, so quat_normalize returns no unit quaternion
        states = [body3d((0.0, 0.0, 0.0), angular_velocity=(1e300, 0.0, 0.0))]
        with pytest.raises(OverflowError, match="body 0: .*normalized"):
            _integrate(states, [None], SimConfig(), (0.0, 0.0, 0.0))


class TestCollisionResponse:
    def test_distant_pair_yields_no_wrench(self):
        config = SimConfig()
        states = [body2d((0.0, 0.0)), body2d((5.0, 0.0))]
        shapes = [Circle(0.5), Circle(0.5)]
        wrenches, diagnostics = collision_response(states, shapes, config)
        assert wrenches == [None, None]
        assert diagnostics == []

    def test_wrench_composes_module_results(self):
        material = MaterialParams()
        config = SimConfig(material=material)
        states = [body2d((0.0, 0.0)), body2d((1.8, 0.0), velocity=(-1.0, 0.0))]
        shapes = [Rectangle(1.0, 1.0), Circle(1.0)]
        wrenches, diagnostics = collision_response(states, shapes, config)
        rho = diagnostics[0].info.rho
        f_n, f_t = contact_force(rho, ContactKinematics(-1.0, 0.0), material)
        assert math.isclose(wrenches[1].force[0], f_n, rel_tol=1e-12)
        assert math.isclose(wrenches[0].force[0], -f_n, rel_tol=1e-12)
        assert math.isclose(diagnostics[0].f_normal, f_n, rel_tol=1e-12)

    def test_three_bodies_single_colliding_pair(self):
        config = SimConfig()
        states = [body2d((0.0, 0.0)), body2d((0.8, 0.0)), body2d((5.0, 0.0))]
        shapes = [Circle(0.5), Circle(0.5), Circle(0.5)]
        wrenches, diagnostics = collision_response(states, shapes, config)
        assert wrenches[0] is not None and wrenches[1] is not None
        assert wrenches[2] is None
        colliding = [d for d in diagnostics if d.info.colliding]
        assert len(colliding) == 1 and colliding[0].pair == (0, 1)

    def test_wrenches_sum_over_pairs(self):
        config = SimConfig()
        states = [body2d((-0.9, 0.05)), body2d((0.0, 0.0), angular_velocity=0.3),
                  body2d((0.85, -0.1), velocity=(-0.2, 0.1))]
        shapes = [Circle(0.5), Circle(0.5), Circle(0.5)]
        wrenches, _ = collision_response(states, shapes, config)
        left, _ = collision_response(states[:2], shapes[:2], config)
        right, _ = collision_response(states[1:], shapes[1:], config)
        middle = wrenches[1]
        assert middle.force == (left[1].force[0] + right[0].force[0],
                                left[1].force[1] + right[0].force[1])
        assert middle.moment == left[1].moment + right[0].moment
        assert wrenches[0] == left[0] and wrenches[2] == right[1]

    def test_pair_context_is_built_once_per_pair_and_run(self, monkeypatch):
        built = []

        class CountedContext(convex.PairContext):
            def __init__(self):
                super().__init__()
                built.append(self)
        monkeypatch.setattr(convex, "PairContext", CountedContext)
        scenario = build_scenario("rect-rect")
        states = list(scenario.bodies) + [body2d((9.0, 9.0))]
        shapes = list(scenario.shapes) + [Rectangle(0.5, 0.5)]
        n = len(states)
        run_world(states, shapes, SimConfig(backend="co", duration=0.05),
                  scenario.gravity)
        assert len(built) == n * (n - 1) // 2

    def test_unsupported_pairing_raises(self):
        config = SimConfig()
        states = [body3d((0.0, 0.0, 0.0)), body3d((1.0, 0.0, 0.0))]
        shapes = [Sphere(0.5), Sphere(0.5)]
        with pytest.raises(UnsupportedPair):
            collision_response(states, shapes, config)

    def test_pairs_are_checked_before_the_first_step(self, monkeypatch):
        # the pairs stay 10 m apart, so no narrow phase would ever see them
        steps = []
        monkeypatch.setattr(simulate, "collision_response",
                            lambda *args: steps.append(args))
        with pytest.raises(UnsupportedPair, match=r"pair \(0, 1\): .*Sphere-Sphere"):
            run_world([body3d((0.0, 0.0, 0.0)), body3d((10.0, 0.0, 0.0))],
                      [Sphere(0.5), Sphere(0.5)], SimConfig(duration=0.01),
                      (0.0, 0.0, 0.0))
        config = SimConfig(backend="co", duration=0.01,
                           solver=SolverSettings(shrink_margin=5.0))
        with pytest.raises(ValueError, match=r"pair \(0, 1\): shrink margin"):
            run_world([body2d((0.0, 0.0)), body2d((10.0, 0.0))],
                      [Circle(0.5), Circle(0.5)], config, (0.0, 0.0))
        assert steps == []

    def test_swapped_shape_order_gives_same_physics(self):
        config = SimConfig()
        rect_state = body2d((0.0, 0.0))
        circ_state = body2d((1.8, 0.0), velocity=(-1.0, 0.0))
        forward, _ = collision_response([rect_state, circ_state],
                                        [Rectangle(1.0, 1.0), Circle(1.0)], config)
        reversed_, _ = collision_response([circ_state, rect_state],
                                          [Circle(1.0), Rectangle(1.0, 1.0)], config)
        assert np.allclose(forward[0].force, reversed_[1].force, atol=1e-15)
        assert np.allclose(forward[1].force, reversed_[0].force, atol=1e-15)
        assert math.isclose(forward[0].moment, reversed_[1].moment, abs_tol=1e-15)

    def test_default_material_is_not_built_per_contact(self, monkeypatch):
        scenario = build_scenario("circle-circle")
        explicit = SimConfig(duration=0.7, material=MaterialParams())
        expected, _ = run_world(scenario.bodies, scenario.shapes, explicit,
                                scenario.gravity)
        assert expected.events
        built = []
        check = MaterialParams.__post_init__

        def counting(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(MaterialParams, "__post_init__", counting)
        got, _ = run_world(scenario.bodies, scenario.shapes, SimConfig(duration=0.7),
                           scenario.gravity)
        assert built == []
        assert got == expected

    def test_step_advances_states(self):
        config = SimConfig(dt=1e-3, duration=1e-3)
        states = [body2d((0.0, 0.0), velocity=(1.0, 0.0)), body2d((5.0, 0.0))]
        shapes = [Circle(0.5), Circle(0.5)]
        trajectory, _ = run_world(states, shapes, config, (0.0, 0.0))
        assert len(trajectory.samples) == 2
        out = trajectory.samples[-1][1]
        assert math.isclose(out[0].position[0], 1e-3, abs_tol=1e-15)


# one shape pair per pairing; each runs in both body orders
BOX_REJECT_PAIRS = {
    "rect-circle": (Rectangle(0.8, 0.5), Circle(0.5)),
    "circle-circle": (Circle(0.5), Circle(0.3)),
    "rect-rect": (Rectangle(0.4, 0.4), Rectangle(0.4, 0.6)),
    "sphere-cuboid": (Cuboid((1.0, 0.6, 0.25)), Sphere(0.25)),
}
# signed gap between the two bodies' unpadded boxes along the separating axis
BOX_GAPS = (-1e-3, -1e-6, -1e-12, 0.0, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2)


def _random_orientation(rng, dim, rotated):
    if dim == 2:
        return rng.uniform(-math.pi, math.pi) if rotated else 0.0
    if not rotated:
        return (1.0, 0.0, 0.0, 0.0)
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    length = math.sqrt(sum(x * x for x in q))
    return tuple(x / length for x in q)


class TestBoxReject:
    """A pair the box reject skips is one both backends call apart."""

    @pytest.mark.parametrize("pairing", BOX_REJECT_PAIRS)
    def test_skipped_poses_do_not_collide(self, pairing, monkeypatch):
        reached = []  # the sat verdict of every pose that reached a detector
        canonical = dict(simulate._DETECTORS_SAT)
        detect_convex = convex.detect_convex

        def recording(detect):
            def wrapper(*args):
                info = detect(*args)
                reached.append(info.colliding)
                return info
            return wrapper

        for key, detector in canonical.items():
            monkeypatch.setitem(simulate._DETECTORS_SAT, key, recording(detector))
        monkeypatch.setattr(convex, "detect_convex", recording(detect_convex))
        rng = random.Random(f"box-reject-{pairing}")
        first, second = BOX_REJECT_PAIRS[pairing]
        dim = 3 if isinstance(first, Cuboid) else 2
        make = body3d if dim == 3 else body2d
        skipped = 0
        for shapes, rotated, _ in itertools.product(
                ((first, second), (second, first)), (False, True), range(4)):
            q_a = _random_orientation(rng, dim, rotated)
            q_b = _random_orientation(rng, dim, rotated)
            center_a = tuple(rng.uniform(-2.0, 2.0) for _ in range(dim))
            low_a, high_a = world_box(center_a, q_a, shapes[0])
            reach = (high_a - low_a) / 2.0 + world_box((0.0,) * dim, q_b, shapes[1])[1]
            for axis, sign, gap in itertools.product(range(dim), (1.0, -1.0),
                                                     BOX_GAPS):
                # across the axis, mostly near the line of centers
                offset = [rng.uniform(-1.0, 1.0) ** 3 * r for r in reach]
                offset[axis] = sign * (reach[axis] + gap)
                center_b = tuple(float(c + o) for c, o in zip(center_a, offset))
                states = [make(center_a, q_a), make(center_b, q_b)]
                before = len(reached)
                collision_response(states, list(shapes), SimConfig())
                if len(reached) > before:
                    assert gap < 1e-6, (states, shapes)
                    continue
                skipped += 1
                assert gap > 0.0, (states, shapes)
                # the canonical detectors take the pair in their own order:
                # swapped when only the reversed type pair has a detector
                key = (type(shapes[0]), type(shapes[1]))
                order = (0, 1) if key in canonical else (1, 0)
                args = [value for k in order for value in (states[k], shapes[k])]
                verdicts = (canonical[tuple(type(shapes[k]) for k in order)](*args),
                            detect_convex(*args, SolverSettings(), None))
                for backend, info in zip(Backend, verdicts):
                    assert not info.colliding, (backend, states)
        # the sweep straddles the boundary: skipped, reached and colliding poses
        assert skipped > 0 and len(reached) > 0 and any(reached)


class TestScenarios:
    def test_unknown_scenario_raises(self):
        with pytest.raises(UnknownScenario):
            run_scenario("bogus")

    def test_registry_names(self):
        assert SCENARIO_NAMES == ("bouncing-circle", "circle-circle",
                                  "rect-circle", "rect-rect", "sphere-cuboid")

    def test_trajectory_structure(self):
        config = SimConfig(dt=1e-3, duration=0.5)
        trajectory = run_scenario("circle-circle", config)
        assert len(trajectory.samples) == 501
        for k, (t, states) in enumerate(trajectory.samples):
            assert t == k * 1e-3
            assert len(states) == 2
        for event in trajectory.events:
            assert event.rho > 0.0

    def test_determinism_bitwise(self):
        config = SimConfig(dt=1e-3, duration=1.0)
        a = run_scenario("rect-circle", config)
        b = run_scenario("rect-circle", config)
        assert len(a.samples) == len(b.samples)
        for (ta, sa), (tb, sb) in zip(a.samples, b.samples):
            assert ta == tb
            for x, y in zip(sa, sb):
                assert x.position == y.position
                assert x.velocity == y.velocity
                assert x.orientation == y.orientation
                assert x.angular_velocity == y.angular_velocity
        assert a.events == b.events

    def test_momentum_conservation_isolated_pair(self):
        config = SimConfig(dt=1e-3,
                           material=MaterialParams(damping=0.0, friction=0.0))
        trajectory = run_scenario("circle-circle", config)
        p0 = linear_momentum(trajectory.samples[0][1])
        drift = max(
            math.dist(linear_momentum(states), p0)
            for _, states in trajectory.samples
        )
        assert drift <= 1e-9 * (math.hypot(*p0) + 1.0)

    def test_energy_never_increases_with_dissipation(self):
        config = SimConfig(dt=1e-3)
        trajectory = run_scenario("circle-circle", config)
        contact_times = {event.t for event in trajectory.events}
        energies = [kinetic_energy(states) for t, states in trajectory.samples
                    if t not in contact_times]
        for before, after in zip(energies, energies[1:]):
            assert after <= before * (1.0 + 1e-12) + 1e-12
        assert energies[-1] < energies[0]

    def test_no_tunneling_at_default_settings(self):
        margins = {
            "bouncing-circle": 0.125,
            "circle-circle": 0.25,
            "rect-circle": 0.25,
            "rect-rect": 0.2,
            "sphere-cuboid": 0.125,
        }
        for name in SCENARIO_NAMES:
            for backend in (Backend.SAT, Backend.CO):
                trajectory = run_scenario(name, SimConfig(backend=backend))
                assert trajectory.events, f"{name} never made contact"
                peak = max(event.rho for event in trajectory.events)
                assert peak < margins[name], (name, backend, peak)
                assert not any(event.saturated for event in trajectory.events)

    def test_backend_substitutability_on_defaults(self):
        for name in SCENARIO_NAMES:
            sat_traj = run_scenario(name, SimConfig(backend=Backend.SAT))
            co_traj = run_scenario(name, SimConfig(backend=Backend.CO))
            assert len(sat_traj.samples) == len(co_traj.samples)
            worst = 0.0
            for (_, sa), (_, sb) in zip(sat_traj.samples, co_traj.samples):
                for x, y in zip(sa, sb):
                    worst = max(worst, math.dist(x.position, y.position))
            assert worst < 1e-3, (name, worst)

    def test_saturated_contact_is_flagged_and_run_continues(self):
        config = SimConfig(backend=Backend.CO,
                           solver=SolverSettings(shrink_margin=0.02),
                           duration=1.5)
        trajectory = run_scenario("circle-circle", config)
        assert any(event.saturated for event in trajectory.events)
        saturated_depths = {event.rho for event in trajectory.events
                            if event.saturated}
        assert saturated_depths == {0.02}

    def test_elastic_bounce_restores_approach_speed(self):
        mat = MaterialParams(stiffness=1e7, damping=0.0, friction=0.0)
        config = SimConfig(dt=1e-4, duration=1.0, material=mat)
        trajectory = run_scenario("bouncing-circle", config)
        dt = config.dt
        event_steps = sorted({round(e.t / dt) for e in trajectory.events})
        first = event_steps[0]
        # end of the first contact episode: first gap in the event steps
        last = first
        for step_index in event_steps[1:]:
            if step_index != last + 1:
                break
            last = step_index
        v_in = abs(trajectory.samples[first][1][1].velocity[1])
        v_out = abs(trajectory.samples[last + 1][1][1].velocity[1])
        assert abs(v_out - v_in) / v_in < 0.02

    def test_equal_mass_head_on_exchanges_velocities(self):
        mat = MaterialParams(damping=0.0, friction=0.0)
        config = SimConfig(dt=1e-4, duration=2.0, material=mat)
        trajectory = run_scenario("circle-circle", config)
        v0 = [s.velocity[0] for s in trajectory.samples[0][1]]
        v1 = [s.velocity[0] for s in trajectory.samples[-1][1]]
        assert abs(v1[0] - v0[1]) / abs(v0[1]) < 0.02
        assert abs(v1[1] - v0[0]) / abs(v0[0]) < 0.02

    def test_gravity_override(self):
        config = SimConfig(dt=1e-3, duration=0.2)
        trajectory = run_scenario("bouncing-circle", config, {"gravity": [0, 0]})
        ball0 = trajectory.samples[0][1][1]
        ball1 = trajectory.samples[-1][1][1]
        # without gravity the initial downward speed is preserved before contact
        assert math.isclose(ball1.velocity[1], ball0.velocity[1], abs_tol=1e-12)

    def test_inertia_follows_shape_and_mass(self):
        # a solid sphere of 8 kg and radius 0.5 has 0.4 * 8 * 0.25 = 0.8
        scenario = build_scenario("sphere-cuboid", {"bodies": [
            None, {"mass": 8.0, "shape": {"type": "sphere", "radius": 0.5}}]})
        inertia = scenario.bodies[1].inertia
        assert [inertia[k][k] for k in range(3)] == [0.8, 0.8, 0.8]
        scenario = build_scenario("bouncing-circle",
                                  {"bodies": [None, {"mass": 10.0}]})
        assert scenario.bodies[1].inertia == disc_inertia(10.0, 0.25)

    def test_body_override_surface(self):
        overrides = {"bodies": [None, {"position": [0.0, 2.0],
                                       "velocity": [0.0, 0.0]}]}
        trajectory = run_scenario("bouncing-circle",
                                  SimConfig(duration=0.1), overrides)
        assert trajectory.samples[0][1][1].position == (0.0, 2.0)
