import math

import numpy as np
import pytest

from contactsim import convex
from contactsim.convex import (
    PairContext,
    SolverSettings,
    detect_convex,
    rho_from_surrogate,
)
from contactsim.errors import NotConverged, UnsupportedPair
from contactsim.geometry import (
    EPS_DEGENERATE,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    body2d,
    body3d,
    box_clamp,
    quat_to_matrix,
    tangent3,
)
from contactsim.sat import (
    detect_circle_circle,
    detect_rect_circle,
    detect_rect_rect,
    detect_sphere_cuboid,
)
from contactsim.simulate import SimConfig, run_scenario, run_world

from oracles import ball_projection
from test_golden_bytes import WORLDS

SQRT2 = math.sqrt(2.0)


def assert_sat_plus_margin(co_info, sat_info, b, where=None):
    """co's ball contact is sat's while the surrogate distance phi + b stays
    at least EPS_DEGENERATE; below it, every field but phi -b, rho b and the
    saturation flag."""
    assert co_info.saturated == (sat_info.phi + b < EPS_DEGENERATE), where
    if co_info.saturated:
        assert (co_info.phi, co_info.rho) == (-b, b), where
        co_info = co_info._replace(phi=sat_info.phi, rho=sat_info.rho,
                                   saturated=False)
    assert co_info == sat_info, where


class TestProjections:
    """The box clamp, the exact projection of the box-box solver, and the
    oracle's ball projection, which the far-start loop below pairs with it."""

    def test_rectangle_corner_clamp(self):
        assert convex._clamp_box((3.0, 2.0), (1.0, 1.0)) == (1.0, 1.0)

    def test_rectangle_identity_inside(self):
        assert convex._clamp_box((0.5, -0.5), (1.0, 1.0)) == (0.5, -0.5)

    def test_rectangle_edge_clamp(self):
        assert convex._clamp_box((0.0, -5.0), (2.0, 1.0)) == (0.0, -1.0)

    def test_rectangle_idempotent_sweep(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            extents = tuple(rng.uniform(0.2, 2.0, 2))
            p = tuple(rng.uniform(-4, 4, 2))
            once = convex._clamp_box(p, extents)
            assert convex._clamp_box(once, extents) == once

    def test_ball_outside(self):
        assert ball_projection((1.0, 0.0), (3.0, 0.0), 0.5) == (2.5, 0.0)

    def test_ball_identity_inside(self):
        assert ball_projection((2.9, 0.1), (3.0, 0.0), 0.5) == (2.9, 0.1)

    def test_ball_center_degenerate_rule(self):
        # the projection onto the solid ball keeps its center where it is
        assert ball_projection((3.0, 0.0), (3.0, 0.0), 0.5) == (3.0, 0.0)

    def test_ball_projection_lands_on_ball(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            center = tuple(rng.uniform(-2, 2, 2))
            radius = rng.uniform(0.2, 1.5)
            p = tuple(rng.uniform(-4, 4, 2))
            once = ball_projection(p, center, radius)
            assert math.dist(once, center) <= radius + 1e-12
            twice = ball_projection(once, center, radius)
            assert math.dist(once, twice) < 1e-12


class TestBoxBall:
    """The box-ball rule both backends share, through sat's detectors."""

    def test_collinear_by_hand(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((3.0, 0.0)), Circle(0.5))
        assert (info.p_tilde, info.q_tilde, info.phi) == \
            ((1.0, 0.0), (2.5, 0.0), 1.5)
        assert info.normal == (1.0, 0.0)

    def test_corner_case_matches_closed_form(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((2.0, 2.0)), Circle(0.5))
        # the corner distance sqrt(2) minus the radius
        assert math.isclose(info.phi, SQRT2 - 0.5, abs_tol=1e-12)
        assert info.p_tilde == (1.0, 1.0)
        assert np.allclose(info.normal, (SQRT2 / 2.0, SQRT2 / 2.0),
                           rtol=0.0, atol=1e-15)

    def test_intersecting_sets_measure_the_depth(self):
        # the center outside the box, the circle reaching 0.3 into it
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((1.2, 0.0)), Circle(0.5))
        assert info.colliding and not info.saturated
        assert math.isclose(info.phi, -0.3, abs_tol=1e-12)
        assert math.isclose(info.rho, 0.3, abs_tol=1e-12)
        assert (info.p_tilde, info.q_tilde) == ((1.0, 0.0), (0.7, 0.0))

    def test_three_dimensional_box(self):
        info = detect_sphere_cuboid(body3d((0.0, 0.0, 0.0)),
                                    Cuboid((1.0, 1.0, 1.0)),
                                    body3d((3.0, 0.0, 0.0)), Sphere(0.5))
        assert (info.p_tilde, info.q_tilde, info.phi) == \
            ((1.0, 0.0, 0.0), (2.5, 0.0, 0.0), 1.5)
        assert info.normal == (1.0, 0.0, 0.0)

    def test_feasibility_sweep(self):
        # A's point on the rectangle, B's on the circle
        rng = np.random.default_rng(11)
        for _ in range(300):
            c1, c2 = rng.uniform(0.3, 2.0, 2)
            center = tuple(rng.uniform(-4, 4, 2))
            radius = rng.uniform(0.1, 1.0)
            info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(c1, c2),
                                      body2d(center), Circle(radius))
            p, q = info.p_tilde, info.q_tilde
            assert abs(p[0]) <= c1 and abs(p[1]) <= c2
            assert abs(math.dist(q, center) - radius) <= 1e-12

    def test_stationarity_certificate_sweep(self):
        # at the optimum the normal must lie in the cone of the active
        # rectangle constraints: zero along inactive axes, outward along
        # active ones; a center in the rectangle takes its nearest side's
        rng = np.random.default_rng(17)
        for _ in range(300):
            c1, c2 = rng.uniform(0.3, 2.0, 2)
            center = tuple(rng.uniform(-4, 4, 2))
            radius = rng.uniform(0.1, 1.0)
            info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(c1, c2),
                                      body2d(center), Circle(radius))
            p, n = info.p_tilde, info.normal
            assert math.isclose(math.hypot(*n), 1.0, abs_tol=1e-12)
            for axis, extent in ((0, c1), (1, c2)):
                if abs(p[axis]) < extent - 1e-7:
                    assert abs(n[axis]) < 1e-6
                else:
                    assert n[axis] * math.copysign(1.0, p[axis]) > -1e-9


class TestFarStartFejer:
    """The alternating-projection loop, Fejer-monotone from a far start.

    Box-box contacts run this loop.  Run on a box and a ball (the oracle's
    ball projection) from a far iterate it takes many steps and never
    lengthens the pair distance.  It ends at or above the box-ball
    distance, the clamp's distance to the center less the radius: the stop
    once the distance improves by less than ``_TOL`` leaves up to 1.1e-8 on
    these draws, where the pair creeps slowly to its minimum.
    """

    @pytest.mark.parametrize("dim", [2, 3])
    def test_monotone_history(self, dim):
        rng = np.random.default_rng(37 + dim)
        longest = 0
        for _ in range(300):
            ext = tuple(rng.uniform(0.3, 2.0, dim))
            center = tuple(rng.uniform(-4, 4, dim))
            radius = rng.uniform(0.1, 1.0)
            far = tuple(rng.uniform(-40, 40, dim))
            history = []

            def project_ball(p):
                q = ball_projection(p, center, radius)
                history.append(convex.distance(p, q))
                return q

            _, _, d, iterations = convex._alternating_projections(
                lambda y: convex._clamp_box(y, ext), project_ball, far)
            assert len(history) == iterations and history[-1] == d
            longest = max(longest, iterations)
            for before, after in zip(history, history[1:]):
                assert after <= before + 1e-12 * (1.0 + before)
            clamp_distance = box_clamp(ext, *center, *(0.0,) * (3 - dim))[-1]
            reference = max(0.0, clamp_distance - radius)
            assert -1e-12 <= d - reference <= 1e-7
        assert longest > 2


class TestRhoFromSurrogate:
    def test_no_contact(self):
        assert rho_from_surrogate(0.7, 0.5) == (0.0, False)

    def test_recovery_branch(self):
        rho, saturated = rho_from_surrogate(0.3, 0.5)
        assert math.isclose(rho, 0.2, abs_tol=1e-15)
        assert not saturated

    def test_saturation_clamp(self):
        assert rho_from_surrogate(0.0, 0.5) == (0.5, True)

    def test_saturation_below_the_degenerate_threshold(self):
        # a rounded projection can leave ~1e-17 where the shapes touch
        assert rho_from_surrogate(1e-17, 0.5) == (0.5, True)

    def test_continuity_at_margin(self):
        eps = 1e-12
        below, _ = rho_from_surrogate(0.5 - eps, 0.5)
        above, _ = rho_from_surrogate(0.5 + eps, 0.5)
        assert abs(below - 0.0) < 1e-11 and above == 0.0

    def test_monotone_nonincreasing(self):
        values = [rho_from_surrogate(phi, 0.5)[0]
                  for phi in np.linspace(0.0, 1.0, 1000)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestNormalTangent:
    """The contact normal points from the first body's minimum-distance
    point toward the second's; the tangent is its +90 degree rotation in 2D
    and ``tangent3`` of the body-frame normal in 3D."""

    def test_axis_aligned(self):
        info = detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                             body2d((3.0, 0.0)), Circle(1.0))
        assert info.normal == (1.0, 0.0) and info.tangent == (0.0, 1.0)

    def test_diagonal(self):
        info = detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                             body2d((3.0, 3.0)), Circle(1.0))
        assert np.allclose(info.normal, (1.0 / SQRT2, 1.0 / SQRT2))

    def test_three_dimensional_tangent(self):
        n = (0.0, 0.0, 1.0)
        t = tangent3(*n)
        assert math.isclose(np.linalg.norm(t), 1.0, abs_tol=1e-12)
        assert abs(np.dot(n, t)) < 1e-12


class TestDetectConvex:
    def test_matches_closed_form_when_separated(self):
        settings = SolverSettings(shrink_margin=0.5)
        info = detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                             body2d((3.0, 0.0)), Circle(1.0), settings)
        reference = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                       body2d((3.0, 0.0)), Circle(1.0))
        assert not info.colliding
        assert math.isclose(info.phi, reference.phi, abs_tol=1e-9)
        assert np.allclose(info.p_tilde, reference.p_tilde, atol=1e-8)
        assert np.allclose(info.q_tilde, reference.q_tilde, atol=1e-8)

    def test_penetration_recovery_by_hand(self):
        settings = SolverSettings(shrink_margin=0.5)
        info = detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                             body2d((1.8, 0.0)), Circle(1.0), settings)
        assert info.colliding
        assert math.isclose(info.rho, 0.2, abs_tol=1e-9)
        assert math.isclose(info.phi, -0.2, abs_tol=1e-9)
        assert not info.saturated

    def test_sphere_cuboid_at_margin_saturates(self):
        settings = SolverSettings(shrink_margin=0.5)
        info = detect_convex(body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 1.0)),
                             body3d((1.5, 0.0, 0.0)), Sphere(1.0), settings)
        assert math.isclose(info.rho, 0.5, abs_tol=1e-12)
        assert info.saturated
        assert info.normal == (1.0, 0.0, 0.0)

    def test_margin_must_stay_below_radius(self):
        with pytest.raises(ValueError):
            detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                          body2d((3.0, 0.0)), Circle(1.0),
                          SolverSettings(shrink_margin=1.0))

    def test_unsupported_pairing(self):
        with pytest.raises(UnsupportedPair):
            detect_convex(body2d((0.0, 0.0)), Circle(1.0),
                          body2d((1.0, 0.0)), Rectangle(1.0, 1.0))

    def test_backend_agreement_rect_circle_sweep(self):
        rng = np.random.default_rng(23)
        saturated = 0
        for _ in range(1000):
            c1, c2 = rng.uniform(0.3, 1.5, 2)
            radius = rng.uniform(0.3, 1.2)
            theta = rng.uniform(-math.pi, math.pi)
            state_a = body2d(tuple(rng.uniform(-1, 1, 2)), angle=theta)
            state_b = body2d(tuple(np.array(state_a.position) +
                                   rng.uniform(-3.5, 3.5, 2)))
            rect, circle = Rectangle(c1, c2), Circle(radius)
            co_info = detect_convex(state_a, rect, state_b, circle)
            assert_sat_plus_margin(co_info, detect_rect_circle(state_a, rect,
                                                               state_b, circle),
                                   radius / 2.0)
            saturated += co_info.saturated
        assert 100 <= saturated <= 900

    @pytest.mark.parametrize("center", [(0.55, 0.45), (0.69, 0.31)])
    @pytest.mark.parametrize("detect", [detect_rect_circle, detect_convex])
    def test_corner_normal_points_from_corner_to_center(self, detect, center):
        # a circle beyond the rectangle's (0.5, 0.3) corner: the normal runs
        # from the corner to the center, not along the rectangle's diagonal
        info = detect(body2d((0.0, 0.0)), Rectangle(0.5, 0.3), body2d(center),
                      Circle(0.2))
        dx, dy = center[0] - 0.5, center[1] - 0.3
        d = math.hypot(dx, dy)
        assert info.colliding
        assert np.allclose(info.normal, (dx / d, dy / d), rtol=0.0, atol=1e-12)
        assert np.allclose(info.anchor_a, (0.5, 0.3), rtol=0.0, atol=1e-12)
        assert np.allclose(info.anchor_b, (-0.2 * dx / d, -0.2 * dy / d),
                           rtol=0.0, atol=1e-12)

    def test_backend_agreement_circle_circle(self):
        rng = np.random.default_rng(29)
        saturated = 0
        for _ in range(300):
            ra, rb = rng.uniform(0.3, 1.2, 2)
            state_a = body2d(tuple(rng.uniform(-1, 1, 2)))
            state_b = body2d(tuple(np.array(state_a.position) +
                                   rng.uniform(-3, 3, 2)))
            co_info = detect_convex(state_a, Circle(ra), state_b, Circle(rb))
            assert_sat_plus_margin(co_info, detect_circle_circle(
                state_a, Circle(ra), state_b, Circle(rb)), rb / 2.0)
            saturated += co_info.saturated
        assert 10 <= saturated <= 290

    def test_backend_agreement_sphere_cuboid(self):
        rng = np.random.default_rng(31)
        saturated = 0
        for _ in range(300):
            ext = tuple(rng.uniform(0.3, 1.2, 3))
            radius = rng.uniform(0.3, 1.0)
            state_a = body3d((0.0, 0.0, 0.0))
            state_b = body3d(tuple(rng.uniform(-3, 3, 3)))
            cuboid, sphere = Cuboid(ext), Sphere(radius)
            co_info = detect_convex(state_a, cuboid, state_b, sphere)
            assert_sat_plus_margin(co_info, detect_sphere_cuboid(
                state_a, cuboid, state_b, sphere), radius / 2.0)
            saturated += co_info.saturated
        assert 10 <= saturated <= 290

    def test_rect_rect_parallel_faces_match_closed_form(self):
        # face-on geometry from the benchmark scenario: erosion recovery is
        # exact along the translation axis and both backends pick the same
        # leading corner
        state_a = body2d((0.0, 0.0))
        state_b = body2d((0.76, 0.3))
        rect_a, rect_b = Rectangle(0.4, 0.6), Rectangle(0.4, 0.3)
        sat_info = detect_rect_rect(state_a, rect_a, state_b, rect_b)
        co_info = detect_convex(state_a, rect_a, state_b, rect_b)
        assert sat_info.colliding and co_info.colliding
        assert abs(co_info.rho - sat_info.rho) <= 1e-9
        assert np.allclose(co_info.anchor_a, sat_info.anchor_a, atol=1e-7)
        assert np.allclose(co_info.anchor_b, sat_info.anchor_b, atol=1e-7)
        assert np.allclose(co_info.normal, sat_info.normal, atol=1e-9)

    def test_rect_rect_corner_contact_is_documented_approximation(self):
        # a rotated corner contact inflates the surrogate gap by up to
        # b * (|n.u1| + |n.u2| - 1); the depth may differ by that much
        state_a = body2d((0.0, 0.0))
        state_b = body2d((0.95, 0.0), angle=math.pi / 4)
        rect_a, rect_b = Rectangle(0.5, 0.5), Rectangle(0.4, 0.4)
        settings = SolverSettings(shrink_margin=0.1)
        sat_info = detect_rect_rect(state_a, rect_a, state_b, rect_b)
        co_info = detect_convex(state_a, rect_a, state_b, rect_b, settings)
        assert sat_info.colliding
        bound = 0.1 * (SQRT2 - 1.0) + 1e-6
        assert abs(co_info.rho - sat_info.rho) <= bound
        assert co_info.phi_approx

    def test_warm_start_reduces_iterations(self):
        context = PairContext()
        state_a = body2d((0.0, 0.0))
        rect, other = Rectangle(0.4, 0.6), Rectangle(0.4, 0.3)
        detect_convex(state_a, rect, body2d((1.0, 0.5), 0.2), other, context=context)
        cold_iterations = context.last_iterations
        detect_convex(state_a, rect, body2d((1.0005, 0.5003), 0.2), other,
                      context=context)
        assert context.last_iterations < cold_iterations

    def test_saturated_rect_circle_takes_the_clamp_normal(self):
        settings = SolverSettings(shrink_margin=0.4)
        info = detect_convex(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                             body2d((0.9, 0.0)), Circle(0.5), settings)
        assert info.saturated
        assert math.isclose(info.rho, 0.4, abs_tol=1e-12)
        assert info.normal == (1.0, 0.0)


class TestBallAnchorFacesA:
    """B's anchor is the point of the ball facing A, -n r, and A's point and
    anchor are the point of A's face below the center, whether the ball
    center lies just outside A's face, on it, just inside or 0.05 inside,
    in both backends."""

    @pytest.mark.parametrize("backend", ["sat", "co"])
    @pytest.mark.parametrize("offset", [1e-7, 0.0, -1e-7, -0.05])
    def test_rect_circle(self, backend, offset):
        detect = detect_rect_circle if backend == "sat" else detect_convex
        info = detect(body2d((0.0, 0.0)), Rectangle(0.5, 0.3),
                      body2d((0.1, 0.3 + offset)), Circle(0.2))
        assert info.normal == (0.0, 1.0)
        assert info.p_tilde == info.anchor_a == (0.1, 0.3)
        assert np.allclose(info.anchor_b, (0.0, -0.2), rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("backend", ["sat", "co"])
    @pytest.mark.parametrize("offset", [1e-7, 0.0, -1e-7, -0.05])
    def test_sphere_cuboid(self, backend, offset):
        detect = detect_sphere_cuboid if backend == "sat" else detect_convex
        info = detect(body3d((0.0, 0.0, 0.0)), Cuboid((0.5, 0.3, 0.4)),
                      body3d((0.1, 0.1, 0.4 + offset)), Sphere(0.2))
        assert info.normal == (0.0, 0.0, 1.0)
        assert info.p_tilde == info.anchor_a == (0.1, 0.1, 0.4)
        assert np.allclose(info.anchor_b, (0.0, 0.0, -0.2), rtol=0.0, atol=1e-15)


def _random_quat(rng):
    q = rng.normal(size=4)
    return tuple(q / np.linalg.norm(q))


def _box_local_centers(rng, ext, radius, b):
    """Ball centers in the box frame: inside, on a face, edge or corner,
    touching the true or the shrunk ball, and anywhere around the box."""
    dim = len(ext)
    ext = np.asarray(ext)
    inside = rng.uniform(-ext, ext)
    yield "inside", inside
    yield "box center", np.zeros(dim)
    for active in range(1, dim + 1):  # face, edge (3D) and corner
        point = inside.copy()
        axes = rng.permutation(dim)[:active]
        point[axes] = ext[axes] * rng.choice((-1.0, 1.0), active)
        yield f"{active} active", point
        direction = np.zeros(dim)
        direction[axes] = np.sign(point[axes])
        direction /= np.linalg.norm(direction)
        yield "touching", point + direction * radius
        yield "shrunk touching", point + direction * (radius - b)
        yield "shallow", point + direction * rng.uniform(radius - b, radius)
        yield "deep", point + direction * rng.uniform(0.0, radius - b)
    yield "around", rng.uniform(-ext - 2.0 * radius, ext + 2.0 * radius)


def _check_cold(info, context, reference, b, where):
    """One iteration, and sat's contact plus the margin b."""
    assert context.last_iterations == 1, where
    assert_sat_plus_margin(info, reference, b, where)


class TestColdBallPairings:
    """Cold ball pairings take one step to sat's exact answer.

    Where the shrunk ball still separates from the other body, the contact
    is the closed-form backend's, field for field; deeper contacts, a ball
    center in the box among them, are saturated at the margin.
    """

    def test_rect_circle(self):
        rng = np.random.default_rng(43)
        for trial in range(400):
            c1, c2 = rng.uniform(0.2, 2.0, 2)
            radius = rng.uniform(0.1, 1.2)
            b = radius / 2.0
            # every fourth pose axis-aligned at the origin, so that face,
            # edge and touching poses are exact in the rectangle frame
            aligned = trial % 4 == 0
            theta = 0.0 if aligned else rng.uniform(-math.pi, math.pi)
            position = (0.0, 0.0) if aligned else tuple(rng.uniform(-1, 1, 2))
            state_a = body2d(position, angle=theta)
            c, s = math.cos(theta), math.sin(theta)
            for kind, q in _box_local_centers(rng, (c1, c2), radius, b):
                world = (position[0] + c * q[0] - s * q[1],
                         position[1] + s * q[0] + c * q[1])
                state_b = body2d(world)
                rect, circle = Rectangle(c1, c2), Circle(radius)
                context = PairContext()
                info = detect_convex(state_a, rect, state_b, circle, None, context)
                reference = detect_rect_circle(state_a, rect, state_b, circle)
                _check_cold(info, context, reference, b, (trial, kind))

    def test_sphere_cuboid(self):
        rng = np.random.default_rng(47)
        for trial in range(300):
            ext = tuple(rng.uniform(0.2, 2.0, 3))
            radius = rng.uniform(0.1, 1.2)
            b = radius / 2.0
            aligned = trial % 4 == 0
            quat = (1.0, 0.0, 0.0, 0.0) if aligned else _random_quat(rng)
            position = (0.0, 0.0, 0.0) if aligned else tuple(rng.uniform(-1, 1, 3))
            state_a = body3d(position, quat)
            rot = np.array(quat_to_matrix(quat))
            for kind, q in _box_local_centers(rng, ext, radius, b):
                state_b = body3d(tuple(np.asarray(position) + rot @ q))
                cuboid, sphere = Cuboid(ext), Sphere(radius)
                context = PairContext()
                info = detect_convex(state_a, cuboid, state_b, sphere, None, context)
                reference = detect_sphere_cuboid(state_a, cuboid, state_b, sphere)
                _check_cold(info, context, reference, b, (trial, kind))

    def test_circle_circle(self):
        rng = np.random.default_rng(53)
        for _ in range(500):
            ra, rb = rng.uniform(0.1, 1.2, 2)
            b = rb / 2.0
            state_a = body2d(tuple(rng.uniform(-1, 1, 2)),
                             angle=rng.uniform(-math.pi, math.pi))
            direction = rng.normal(size=2)
            direction /= np.linalg.norm(direction)
            for gap in (0.0, ra + rb, ra + rb - b, rng.uniform(ra + rb - b, ra + rb),
                        rng.uniform(0.0, ra + rb - b), rng.uniform(0.0, 4.0)):
                state_b = body2d(tuple(np.asarray(state_a.position) + direction * gap))
                context = PairContext()
                info = detect_convex(state_a, Circle(ra), state_b, Circle(rb),
                                     None, context)
                reference = detect_circle_circle(state_a, Circle(ra), state_b,
                                                 Circle(rb))
                _check_cold(info, context, reference, b, gap)
                if gap <= ra + rb - b:  # the shrunk balls overlap or touch
                    assert info.saturated, gap

    def test_solver_exhausting_rect_circle_pose(self):
        # a pose from the benchmark's cold sweep on which the box-center
        # start ran out of its 10^4 iterations
        state_a = body2d((0.9658154878279542, 0.533452594077078),
                         angle=-3.316759695276441)
        state_b = body2d((-0.1846403029856371, 1.2057537575996933))
        rect, circle = Rectangle(1.0, 0.6), Circle(0.5)
        context = PairContext()
        info = detect_convex(state_a, rect, state_b, circle, None, context)
        reference = detect_rect_circle(state_a, rect, state_b, circle)
        assert context.last_iterations == 1
        assert abs(info.rho - reference.rho) <= 1e-12

    def test_only_box_box_queries_the_warm_start(self, monkeypatch):
        calls = []
        warm_start = convex._warm_start
        monkeypatch.setattr(convex, "_warm_start",
                            lambda *args: calls.append(args) or warm_start(*args))
        # every ball pairing solves in closed form: one iteration
        cases = [
            (body2d((0.0, 0.0)), Rectangle(1.0, 1.0), body2d((2.4, 0.9)), Circle(0.8)),
            (body2d((0.0, 0.0)), Circle(0.5), body2d((0.9, 0.1)), Circle(0.5)),
            (body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 0.5)),
             body3d((0.5, 0.2, 0.7)), Sphere(0.3)),
        ]
        for case in cases:
            context = PairContext()
            for _ in range(2):
                detect_convex(*case, context=context)
                assert context.last_iterations == 1
        assert calls == []
        context = PairContext()
        detect_convex(body2d((0.0, 0.0)), Rectangle(0.4, 0.6),
                      body2d((0.76, 0.3)), Rectangle(0.4, 0.3), context=context)
        assert len(calls) == 1 and context.last_iterations > 0

    def test_ball_pairings_read_no_budget(self, monkeypatch):
        # _TOL and _MAX_ITERS bound the box-box solve only: a budget of one
        # and an unreachable tolerance leave every ball contact as it was
        cases = [
            (body2d((0.0, 0.0)), Rectangle(1.0, 1.0), body2d((2.4, 0.9)), Circle(0.8)),
            (body2d((0.0, 0.0), 0.3), Rectangle(1.0, 0.6), body2d((1.1, 0.2)),
             Circle(0.5)),
            (body2d((0.0, 0.0)), Circle(0.5), body2d((0.9, 0.1)), Circle(0.5)),
            (body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 0.5)),
             body3d((0.5, 0.2, 0.7)), Sphere(0.3)),
        ]
        expected = [detect_convex(*case) for case in cases]
        monkeypatch.setattr(convex, "_TOL", 1e-300)
        monkeypatch.setattr(convex, "_MAX_ITERS", 1)
        for case, info in zip(cases, expected):
            context = PairContext()
            assert detect_convex(*case, context=context) == info
            assert context.last_iterations == 1

    @pytest.mark.parametrize("backend", ["sat", "co"])
    def test_exactly_touching_pairs_report_positive_zero_rho(self, backend):
        # dyadic sizes, so that phi is exactly 0.0; rho was once -phi = -0.0
        cases = [
            (detect_rect_circle, body2d((0.0, 0.0)), Rectangle(0.5, 0.25),
             body2d((0.75, 0.0)), Circle(0.25)),
            (detect_circle_circle, body2d((0.0, 0.0)), Circle(0.5),
             body2d((0.0, 0.75)), Circle(0.25)),
            (detect_sphere_cuboid, body3d((0.0, 0.0, 0.0)), Cuboid((0.5, 0.25, 0.5)),
             body3d((0.0, 0.0, 0.75)), Sphere(0.25)),
        ]
        for sat_detect, *pose in cases:
            info = sat_detect(*pose) if backend == "sat" else detect_convex(*pose)
            assert info.phi == 0.0 and not info.colliding and not info.saturated
            assert math.copysign(1.0, info.rho) == 1.0, (sat_detect.__name__, info)


class TestNotConvergedNamesThePose:
    def test_rect_rect_cold_pose(self):
        # a near-parallel pose from the benchmark's cold sweep that still
        # exhausts the box-box solver
        pose_a = ((0.6148929585902956, 0.4010170418666701), -0.7933711212338372)
        pose_b = ((0.13716740227539026, 0.9009474543484768), 3.9194136025085258)
        with pytest.raises(NotConverged) as excinfo:
            detect_convex(body2d(*pose_a), Rectangle(0.5, 0.5),
                          body2d(*pose_b), Rectangle(0.4, 0.3))
        exc = excinfo.value
        assert exc.iterations == 10_000
        assert exc.displacement > convex._TOL
        assert exc.pairing == "rect-rect"
        assert exc.pose_a == pose_a and exc.pose_b == pose_b
        message = str(exc)
        assert "rect-rect" in message
        for value in (*pose_a[0], pose_a[1], *pose_b[0], pose_b[1]):
            assert repr(value) in message

    def test_budget_of_one(self, monkeypatch):
        # the box-box stopping test compares two iterates, so one never passes
        monkeypatch.setattr(convex, "_MAX_ITERS", 1)
        with pytest.raises(NotConverged) as excinfo:
            detect_convex(body2d((0.0, 0.0)), Rectangle(0.4, 0.6),
                          body2d((0.76, 0.3)), Rectangle(0.4, 0.3))
        assert excinfo.value.iterations == 1
        assert excinfo.value.t is None and "the run" not in str(excinfo.value)

    def test_loop_keeps_its_tolerance_and_budget(self):
        assert (convex._TOL, convex._MAX_ITERS) == (1e-10, 10_000)

    def test_loop_reads_the_tolerance_when_called(self, monkeypatch):
        # the cold pose above exhausts the budget at _TOL; a looser stopping
        # test ends it after two iterations
        pose_a = ((0.6148929585902956, 0.4010170418666701), -0.7933711212338372)
        pose_b = ((0.13716740227539026, 0.9009474543484768), 3.9194136025085258)
        monkeypatch.setattr(convex, "_TOL", 1e-8)
        context = PairContext()
        info = detect_convex(body2d(*pose_a), Rectangle(0.5, 0.5),
                             body2d(*pose_b), Rectangle(0.4, 0.3), context=context)
        assert context.last_iterations == 2 and info.colliding

    def test_a_run_adds_time_pair_and_backend(self, monkeypatch):
        # with a budget of one, the registry rect-rect run stops at its first
        # box-box contact
        monkeypatch.setattr(convex, "_MAX_ITERS", 1)
        with pytest.raises(NotConverged) as excinfo:
            run_scenario("rect-rect", SimConfig(backend="co"))
        exc = excinfo.value
        assert (exc.t, exc.pair, exc.backend) == (0.518, (0, 1), "co")
        assert exc.iterations == 1 and exc.pairing == "rect-rect"
        assert str(exc).startswith("the run stopped at t=0.518 in pair (0, 1) "
                                   "(co backend): solver did not converge after "
                                   "1 iterations")
        assert "body B at (0.48199999999999954, 0.0)" in str(exc)


# ROADMAP item 2: co's box-box solve must terminate on every pose a run
# reaches.  Until it does, these runs stop where noted; once it does, strict
# xfail fails them, and they become plain tests.
_REACHED = pytest.mark.xfail(strict=True, raises=NotConverged,
                             reason="co rect-rect exhausts its budget (ROADMAP item 2)")


class TestReachedPosesConverge:
    @_REACHED
    def test_box_settling_on_a_floor(self):
        # a rectangle settling on a static floor stops at t=0.099 on a
        # face-on pose
        overrides = {"gravity": [0.0, -9.81], "bodies": [
            {"shape": {"type": "rectangle", "half_length": 3.0, "half_width": 0.2},
             "position": [0.0, -0.2], "orientation": 0.0, "velocity": [0.0, 0.0],
             "static": True},
            {"shape": {"type": "rectangle", "half_length": 0.3, "half_width": 0.25},
             "position": [0.58, 0.23], "orientation": 0.05, "velocity": [0.0, 0.0],
             "mass": 2.0}]}
        try:
            run_scenario("rect-rect", SimConfig(backend="co", duration=1.0), overrides)
        except NotConverged as exc:
            assert (exc.t, exc.pair, exc.iterations) == (0.099, (0, 1), 10_000)
            raise

    @_REACHED
    def test_four_body_world(self):
        # the square on the floor, pair (1, 2), stops at t=0.872
        states, shapes, gravity = WORLDS["four-body"]()
        try:
            run_world(states, shapes, SimConfig(backend="co", duration=1.0), gravity)
        except NotConverged as exc:
            assert (exc.t, exc.pair, exc.iterations) == (0.872, (1, 2), 10_000)
            raise
