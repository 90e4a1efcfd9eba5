import math

import numpy as np
import pytest

from contactsim.contact import body_frame_2d
from contactsim.geometry import EPS_TIE, body2d, body3d
from contactsim.geometry import Circle, Cuboid, Rectangle, Sphere
from contactsim.sat import (
    detect_circle_circle,
    detect_rect_circle,
    detect_rect_rect,
    detect_sphere_cuboid,
)

from oracles import (
    circle_boundary_points,
    clip_polygon,
    cuboid_face_points,
    min_pair_distance,
    polygon_area,
    polygon_sat,
    quat_from_angle_z,
    rect_boundary_points,
    rect_corners,
)

SQRT2 = math.sqrt(2.0)


def _rect_circle(center, radius, half_extents=(1.0, 1.0)):
    """detect_rect_circle of a circle at ``center`` against an unrotated
    rectangle at the origin."""
    return detect_rect_circle(body2d((0.0, 0.0)), Rectangle(*half_extents),
                              body2d(center), Circle(radius))


def _expected_rect_point(q0, q1, c1, c2):
    """A's point and normal of a circle centered at (q0, q1) in the frame of
    a rectangle of half-extents c1 x c2.

    A center outside the rectangle takes its clamp and the direction from
    the clamp to the center.  A center on or in it takes the nearest side,
    moved to from the center along that side's normal; a side wins only
    when it is nearer than the sides before it, in the order +x, -x, +y, -y,
    by more than EPS_TIE.
    """
    px, py = max(-c1, min(c1, q0)), max(-c2, min(c2, q1))
    d = math.hypot(px - q0, py - q1)
    if d > 0.0:
        return (px, py), ((q0 - px) / d, (q1 - py) / d)
    best, normal = math.inf, None
    for dist, side in ((c1 - q0, (1.0, 0.0)), (c1 + q0, (-1.0, 0.0)),
                       (c2 - q1, (0.0, 1.0)), (c2 + q1, (0.0, -1.0))):
        if dist < best - EPS_TIE:
            best, normal = dist, side
    return (q0 + normal[0] * best, q1 + normal[1] * best), normal


class TestRectCircleClosestPoint:
    """A's point ``p_tilde`` and the normal of ``detect_rect_circle``: the
    clamp of the circle center outside the rectangle, the nearest side on or
    in it."""

    def test_point_on_boundary_sweep(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            c1, c2 = rng.uniform(0.2, 3.0, 2)
            q0, q1 = rng.uniform(-5.0, 5.0, 2)
            x, y = _rect_circle((q0, q1), 0.5, (c1, c2)).p_tilde
            assert abs(x) <= c1 + 1e-12 and abs(y) <= c2 + 1e-12
            assert abs(abs(x) - c1) < 1e-12 or abs(abs(y) - c2) < 1e-12

    def test_grid_with_ties_edges_and_signed_zeros(self):
        c1, c2 = 2.0, 1.0
        coords = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.2, -1.2, 1.5, -1.5,
                  2.0, -2.0, 3.0, -3.0)
        seen = set()
        for x in coords:
            for y in coords + (0.2, -0.2):
                state_a, state_b = body2d((0.0, 0.0)), body2d((x, y))
                info = detect_rect_circle(state_a, Rectangle(c1, c2), state_b,
                                          Circle(0.5))
                _, _, q0, q1 = body_frame_2d(state_a, state_b)
                point, normal = _expected_rect_point(q0, q1, c1, c2)
                assert [v.hex() for v in info.p_tilde] == [v.hex() for v in point], (x, y)
                assert info.normal == normal, (x, y)
                assert info.tangent == (-normal[1], normal[0]), (x, y)
                outside = (abs(x) > c1) + (abs(y) > c2)
                seen.add((outside, abs(x) == c1 or abs(y) == c2,
                          abs((c1 - abs(x)) - (c2 - abs(y))) < 1e-9))
        # outside beyond one side or a corner, on a side or a corner, inside,
        # and inside at equal depth below two sides
        assert {(1, False, False), (2, False, False), (0, True, False),
                (0, True, True), (0, False, False), (0, False, True)} <= seen

    @pytest.mark.parametrize("theta", [0.0, 0.7, -2.3])
    @pytest.mark.parametrize("local, side", [
        ((1.0, 0.25), (1.0, 0.0)), ((-1.0, -0.5), (-1.0, 0.0)),
        ((-0.3, 2.0), (0.0, 1.0)), ((0.6, -2.0), (0.0, -1.0)),
    ])
    def test_center_on_a_side_takes_its_normal(self, theta, local, side):
        c, s = math.cos(theta), math.sin(theta)
        position = (0.3, -0.4)
        center = (position[0] + c * local[0] - s * local[1],
                  position[1] + s * local[0] + c * local[1])
        info = detect_rect_circle(body2d(position, theta), Rectangle(1.0, 2.0),
                                  body2d(center), Circle(0.5))
        assert info.colliding
        assert math.isclose(info.rho, 0.5, abs_tol=1e-12)
        assert np.allclose(info.normal, (c * side[0] - s * side[1],
                                         s * side[0] + c * side[1]), atol=1e-12)
        assert np.allclose(info.p_tilde, local, atol=1e-12)
        assert np.allclose(info.q_tilde, np.subtract(local, np.multiply(side, 0.5)),
                           atol=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.7, math.pi / 2, -2.3])
    @pytest.mark.parametrize("offset", [0.0, -0.0, 0.25 * EPS_TIE, -0.25 * EPS_TIE])
    def test_inside_tie_goes_to_the_plus_side(self, theta, offset):
        # on the rectangle's first axis, so the +x and -x sides tie within
        # EPS_TIE, however the frame map rounds the center
        c, s = math.cos(theta), math.sin(theta)
        local = (offset, 0.1)
        center = (c * local[0] - s * local[1], s * local[0] + c * local[1])
        info = detect_rect_circle(body2d((0.0, 0.0), theta), Rectangle(1.0, 2.0),
                                  body2d(center), Circle(0.5))
        assert np.allclose(info.normal, (c, s), rtol=0.0, atol=1e-15)
        assert math.isclose(info.rho, 1.5, abs_tol=1e-12)
        assert np.allclose(info.p_tilde, (1.0, 0.1), atol=1e-12)


class TestCircleMdp:
    """q_tilde, the circle point closest to the rectangle point p_tilde."""

    def test_collinear(self):
        assert _rect_circle((3.0, 0.0), 1.0).q_tilde == (2.0, 0.0)

    def test_reaches_rect_point_exactly(self):
        info = _rect_circle((2.0, 2.0), SQRT2)
        assert info.p_tilde == (1.0, 1.0)
        assert np.allclose(info.q_tilde, (1.0, 1.0), atol=1e-15)


class TestProximityAndRho:
    """phi and rho of a circle outside the rectangle: the distance from the
    closest rectangle point to the center, less the radius."""

    def test_separated(self):
        info = _rect_circle((3.0, 0.0), 1.0)
        assert (info.phi, info.rho) == (1.0, 0.0)

    def test_overlapping(self):
        info = _rect_circle((1.8, 0.0), 1.0)
        assert math.isclose(info.phi, -0.2, abs_tol=1e-15)
        assert math.isclose(info.rho, 0.2, abs_tol=1e-15)

    def test_contact_onset_continuity(self):
        info = _rect_circle((2.0, 0.0), 1.0)
        assert info.phi == 0.0 and info.rho == 0.0
        assert not info.colliding

    def test_depth_is_continuous_nonnegative_zero_iff_separated(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            # centers beyond the right side, at 0.1 to 4 from it
            info = _rect_circle((1.0 + rng.uniform(0.1, 4.0), 0.0),
                                rng.uniform(0.2, 2.0))
            assert info.rho >= 0.0
            assert (info.rho == 0.0) == (info.phi >= 0.0)
            assert info.rho == max(0.0, -info.phi)


class TestDetectRectCircle:
    def test_separated_collinear(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((3.0, 0.0)), Circle(1.0))
        assert not info.colliding
        assert info.phi == 1.0
        assert info.p_tilde == (1.0, 0.0)
        assert info.q_tilde == (2.0, 0.0)
        assert info.anchor_b == (-1.0, 0.0)

    def test_overlapping(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((1.8, 0.0)), Circle(1.0))
        assert info.colliding
        assert math.isclose(info.rho, 0.2, abs_tol=1e-15)
        assert info.normal == (1.0, 0.0)

    def test_corner_geometry(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((2.0, 2.0)), Circle(1.0))
        assert math.isclose(info.phi, SQRT2 - 1.0, abs_tol=1e-12)
        assert np.allclose(info.p_tilde, (1.0, 1.0))
        ray = np.array([1.0, 1.0]) / SQRT2
        assert np.allclose(info.q_tilde, np.array([2.0, 2.0]) - ray, atol=1e-12)
        # dense boundary-pair oracle around the corner
        rect_pts = rect_boundary_points(1.0, 1.0, 400)
        circ_pts = circle_boundary_points((2.0, 2.0), 1.0, 1600)
        oracle = min_pair_distance(rect_pts, circ_pts)
        assert abs(oracle - info.phi) < 2e-4

    def test_center_inside_measures_depth_to_get_clear(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(2.0, 2.0),
                                  body2d((0.5, 0.2)), Circle(0.5))
        assert info.colliding
        assert info.phi == -0.5 and info.rho == 2.0
        assert info.normal == (1.0, 0.0)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 0.9, 1.2, -2.3])
    def test_center_inside_matches_sphere_cuboid(self, theta):
        c1, c2, radius = 2.0, 1.2, 0.5
        position = (0.3, -0.4)
        c, s = math.cos(theta), math.sin(theta)
        checked = 0
        # the even counts keep the grid off the axes; the appended 0.0 puts
        # centers on them, where two opposite faces tie and nearest_face
        # gives the tie to the + face in 2D and 3D alike
        for x in np.append(np.linspace(-1.95, 1.95, 26), 0.0):
            for y in np.append(np.linspace(-1.15, 1.15, 12), 0.0):
                center = (position[0] + c * x - s * y, position[1] + s * x + c * y)
                flat = detect_rect_circle(body2d(position, theta), Rectangle(c1, c2),
                                          body2d(center), Circle(radius))
                deep = detect_sphere_cuboid(
                    body3d(position + (0.0,), quat_from_angle_z(theta)),
                    Cuboid((c1, c2, 100.0)), body3d(center + (0.0,)), Sphere(radius))
                assert flat.colliding and deep.colliding
                assert math.isclose(flat.phi, deep.phi, abs_tol=1e-12)
                assert math.isclose(flat.rho, deep.rho, abs_tol=1e-12)
                for name in ("p_tilde", "q_tilde", "anchor_a", "anchor_b",
                             "normal", "tangent"):
                    value = getattr(deep, name)
                    assert abs(value[2]) < 1e-12
                    assert np.allclose(getattr(flat, name), value[:2],
                                       rtol=0.0, atol=1e-12), name
                checked += 1
        assert checked > 300

    def test_rotated_pose_world_quantities(self):
        theta = 0.35
        state_a = body2d((0.5, -0.25), angle=theta)
        # circle placed along the rotated +x axis of the rectangle
        axis = (math.cos(theta), math.sin(theta))
        center = (0.5 + 2.5 * axis[0], -0.25 + 2.5 * axis[1])
        info = detect_rect_circle(state_a, Rectangle(1.0, 0.6),
                                  body2d(center), Circle(0.8))
        assert math.isclose(info.phi, 2.5 - 1.0 - 0.8, abs_tol=1e-12)
        assert np.allclose(info.normal, axis, atol=1e-12)
        assert np.allclose(info.anchor_a, (axis[0], axis[1]), atol=1e-12)

    def test_boundary_properties_sweep(self):
        rng = np.random.default_rng(401)
        checked = 0
        while checked < 10_000:
            c1, c2 = rng.uniform(0.3, 2.0, 2)
            radius = rng.uniform(0.2, 1.5)
            q = tuple(rng.uniform(-5.0, 5.0, 2))
            state_a = body2d((0.0, 0.0))
            info = detect_rect_circle(state_a, Rectangle(c1, c2),
                                      body2d(q), Circle(radius))
            if info.colliding:
                continue
            checked += 1
            px, py = info.p_tilde
            assert abs(abs(px) - c1) < 1e-12 or abs(abs(py) - c2) < 1e-12
            assert abs(math.dist(info.q_tilde, q) - radius) < 1e-10
            assert abs(math.dist(info.p_tilde, info.q_tilde) - info.phi) < 1e-10


class TestDetectCircleCircle:
    def test_separated(self):
        info = detect_circle_circle(body2d((0.0, 0.0)), Circle(1.0),
                                    body2d((3.0, 0.0)), Circle(1.0))
        assert info.phi == 1.0
        assert info.p_tilde == (1.0, 0.0)
        assert info.q_tilde == (2.0, 0.0)

    def test_overlapping(self):
        info = detect_circle_circle(body2d((0.0, 0.0)), Circle(1.0),
                                    body2d((1.5, 0.0)), Circle(1.0))
        assert math.isclose(info.rho, 0.5, abs_tol=1e-15)
        assert info.normal == (1.0, 0.0)

    def test_concentric_fallback(self):
        info = detect_circle_circle(body2d((0.0, 0.0)), Circle(1.0),
                                    body2d((0.0, 0.0)), Circle(0.5))
        assert info.colliding
        assert info.normal == (1.0, 0.0)
        assert math.isclose(info.rho, 1.5, abs_tol=1e-15)

    def test_swap_symmetry_sweep(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            pa = tuple(rng.uniform(-2, 2, 2))
            pb = tuple(rng.uniform(-2, 2, 2))
            ra, rb = rng.uniform(0.3, 1.4, 2)
            if math.dist(pa, pb) < 1e-3:
                continue
            fwd = detect_circle_circle(body2d(pa), Circle(ra), body2d(pb), Circle(rb))
            rev = detect_circle_circle(body2d(pb), Circle(rb), body2d(pa), Circle(ra))
            assert math.isclose(fwd.phi, rev.phi, abs_tol=1e-12)
            assert math.isclose(fwd.rho, rev.rho, abs_tol=1e-12)
            assert np.allclose(fwd.normal, tuple(-c for c in rev.normal), atol=1e-12)
            assert np.allclose(fwd.anchor_a, rev.anchor_b, atol=1e-12)
            assert np.allclose(fwd.anchor_b, rev.anchor_a, atol=1e-12)


class TestDetectRectRect:
    def test_separated_axis_aligned(self):
        info = detect_rect_rect(body2d((0.0, 0.0)), Rectangle(0.5, 0.5),
                                body2d((2.0, 0.0)), Rectangle(0.5, 0.5))
        assert not info.colliding
        assert math.isclose(info.phi, 1.0, abs_tol=1e-15)
        assert info.phi_approx

    def test_overlapping_axis_aligned(self):
        info = detect_rect_rect(body2d((0.0, 0.0)), Rectangle(0.5, 0.5),
                                body2d((0.8, 0.0)), Rectangle(0.5, 0.5))
        assert info.colliding
        assert math.isclose(info.rho, 0.2, abs_tol=1e-12)
        assert info.normal == (1.0, 0.0)

    def test_rotated_square_against_polygon_oracles(self):
        state_a = body2d((0.0, 0.0))
        state_b = body2d((1.2, 0.0), angle=math.pi / 4)
        info = detect_rect_rect(state_a, Rectangle(0.5, 0.5),
                                state_b, Rectangle(0.5, 0.5))
        verts_a = rect_corners((0.0, 0.0), 0.0, 0.5, 0.5)
        verts_b = rect_corners((1.2, 0.0), math.pi / 4, 0.5, 0.5)
        area = polygon_area(clip_polygon(verts_a, verts_b))
        colliding_oracle, depth_oracle, _ = polygon_sat(verts_a, verts_b)
        assert info.colliding == colliding_oracle == (area > 0.0)
        assert abs(info.rho - depth_oracle) < 1e-9

    def test_verdict_matches_polygon_oracle_sweep(self):
        rng = np.random.default_rng(907)
        disagreements = 0
        for _ in range(10_000):
            c1a, c2a, c1b, c2b = rng.uniform(0.2, 1.2, 4)
            pa = tuple(rng.uniform(-0.5, 0.5, 2))
            pb = tuple(rng.uniform(-2.2, 2.2, 2))
            ta, tb = rng.uniform(-math.pi, math.pi, 2)
            info = detect_rect_rect(body2d(pa, angle=ta), Rectangle(c1a, c2a),
                                    body2d(pb, angle=tb), Rectangle(c1b, c2b))
            verts_a = rect_corners(pa, ta, c1a, c2a)
            verts_b = rect_corners(pb, tb, c1b, c2b)
            colliding_oracle, depth, gap = polygon_sat(verts_a, verts_b)
            # skip the degenerate band where verdicts legitimately flip
            if abs(depth if colliding_oracle else gap) < 1e-9:
                continue
            if info.colliding != colliding_oracle:
                disagreements += 1
                continue
            # phi is the least overlap negated: the oracle's largest gap
            assert abs(info.phi - gap) < 1e-9
            if info.colliding:
                assert abs(info.rho - depth) < 1e-9
                continue
            # separated: A's and B's support vertices, a gap of phi apart
            # along the normal, which points from A toward B
            wa = np.add(pa, info.anchor_a)
            wb = np.add(pb, info.anchor_b)
            assert np.dot(info.normal, np.subtract(pb, pa)) >= 0.0
            assert abs(np.dot(info.normal, wb - wa) - info.phi) < 1e-9
            assert np.abs(verts_a - wa).max(axis=1).min() < 1e-12
            assert np.abs(verts_b - wb).max(axis=1).min() < 1e-12
        assert disagreements == 0

    def test_swap_symmetry_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            c1a, c2a, c1b, c2b = rng.uniform(0.2, 1.2, 4)
            pa = tuple(rng.uniform(-0.5, 0.5, 2))
            pb = tuple(rng.uniform(-2.0, 2.0, 2))
            ta, tb = rng.uniform(-math.pi, math.pi, 2)
            fwd = detect_rect_rect(body2d(pa, angle=ta), Rectangle(c1a, c2a),
                                   body2d(pb, angle=tb), Rectangle(c1b, c2b))
            rev = detect_rect_rect(body2d(pb, angle=tb), Rectangle(c1b, c2b),
                                   body2d(pa, angle=ta), Rectangle(c1a, c2a))
            assert math.isclose(fwd.rho, rev.rho, abs_tol=1e-12)
            if fwd.colliding:
                assert np.allclose(fwd.normal, tuple(-c for c in rev.normal),
                                   atol=1e-12)
                assert np.allclose(fwd.anchor_a, rev.anchor_b, atol=1e-12)
                assert np.allclose(fwd.anchor_b, rev.anchor_a, atol=1e-12)

    def test_contact_point_on_penetrating_vertex(self):
        # B's lower-left corner is the unique deepest vertex here
        info = detect_rect_rect(body2d((0.0, 0.0)), Rectangle(0.4, 0.6),
                                body2d((0.75, 0.3)), Rectangle(0.4, 0.3))
        assert info.colliding
        corner_world = (0.75 - 0.4, 0.0)
        assert np.allclose(info.anchor_a, corner_world, atol=1e-12)
        assert np.allclose(info.anchor_b, (-0.4, -0.3), atol=1e-12)


class TestDetectSphereCuboid:
    def test_separated(self):
        info = detect_sphere_cuboid(body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 1.0)),
                                    body3d((3.0, 0.0, 0.0)), Sphere(1.0))
        assert info.phi == 1.0
        assert info.p_tilde == (1.0, 0.0, 0.0)

    def test_overlapping_from_outside(self):
        info = detect_sphere_cuboid(body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 1.0)),
                                    body3d((1.5, 0.0, 0.0)), Sphere(1.0))
        assert math.isclose(info.rho, 0.5, abs_tol=1e-15)
        assert info.normal == (1.0, 0.0, 0.0)

    def test_center_inside_uses_nearest_face(self):
        info = detect_sphere_cuboid(body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 1.0)),
                                    body3d((0.5, 0.2, 0.0)), Sphere(0.2))
        assert math.isclose(info.rho, 0.7, abs_tol=1e-12)
        assert info.normal == (1.0, 0.0, 0.0)
        # surface-sampling oracle: rho = radius + min distance to the surface
        surface = cuboid_face_points((1.0, 1.0, 1.0), 201)
        dist = np.linalg.norm(surface - np.array([0.5, 0.2, 0.0]), axis=1).min()
        assert abs(info.rho - (0.2 + dist)) < 1e-3

    def test_center_on_face_tie_break(self):
        # equidistant from the +x and +y faces: the first face in scan order wins
        info = detect_sphere_cuboid(body3d((0.0, 0.0, 0.0)), Cuboid((1.0, 1.0, 1.0)),
                                    body3d((0.5, 0.5, 0.0)), Sphere(0.1))
        assert info.normal == (1.0, 0.0, 0.0)
        assert math.isclose(info.rho, 0.6, abs_tol=1e-12)

    def test_rotated_cuboid_matches_local_clamp(self):
        quat = quat_from_angle_z(0.6)
        state_a = body3d((0.2, -0.1, 0.3), orientation=quat)
        center_world = (1.8, 0.9, 0.5)
        info = detect_sphere_cuboid(state_a, Cuboid((1.0, 0.5, 0.4)),
                                    body3d(center_world), Sphere(0.3))
        rel = np.array(center_world) - np.array(state_a.position)
        rot = np.array([[math.cos(0.6), -math.sin(0.6), 0.0],
                        [math.sin(0.6), math.cos(0.6), 0.0],
                        [0.0, 0.0, 1.0]])
        local = rot.T @ rel
        clamped = np.clip(local, [-1.0, -0.5, -0.4], [1.0, 0.5, 0.4])
        expected_phi = np.linalg.norm(local - clamped) - 0.3
        assert math.isclose(info.phi, expected_phi, abs_tol=1e-12)
        assert math.isclose(np.linalg.norm(info.normal), 1.0, abs_tol=1e-12)
        assert abs(np.dot(info.normal, info.tangent)) < 1e-12


class TestContactBasisInvariant:
    def test_unit_and_orthogonal_everywhere(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            kind = rng.integers(0, 3)
            if kind == 0:
                info = detect_rect_circle(
                    body2d(tuple(rng.uniform(-1, 1, 2)), angle=rng.uniform(-3, 3)),
                    Rectangle(*rng.uniform(0.3, 1.5, 2)),
                    body2d(tuple(rng.uniform(-3, 3, 2))),
                    Circle(rng.uniform(0.2, 1.0)))
            elif kind == 1:
                info = detect_circle_circle(
                    body2d(tuple(rng.uniform(-2, 2, 2))),
                    Circle(rng.uniform(0.2, 1.0)),
                    body2d(tuple(rng.uniform(-2, 2, 2))),
                    Circle(rng.uniform(0.2, 1.0)))
            else:
                info = detect_rect_rect(
                    body2d(tuple(rng.uniform(-1, 1, 2)), angle=rng.uniform(-3, 3)),
                    Rectangle(*rng.uniform(0.3, 1.5, 2)),
                    body2d(tuple(rng.uniform(-2, 2, 2)), angle=rng.uniform(-3, 3)),
                    Rectangle(*rng.uniform(0.3, 1.5, 2)))
            assert math.isclose(math.hypot(*info.normal), 1.0, abs_tol=1e-12)
            assert math.isclose(math.hypot(*info.tangent), 1.0, abs_tol=1e-12)
            assert abs(info.normal[0] * info.tangent[0] +
                       info.normal[1] * info.tangent[1]) < 1e-12
            assert info.colliding == (info.rho > 0.0)
