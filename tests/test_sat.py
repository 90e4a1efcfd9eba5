import math

import numpy as np
import pytest

from contactsim.geometry import body2d, body3d
from contactsim.geometry import Circle, Cuboid, Rectangle, Sphere
from contactsim.sat import (
    Region,
    _rect_case,
    detect_circle_circle,
    detect_rect_circle,
    detect_rect_rect,
    detect_sphere_cuboid,
    rect_circle_normal,
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


class TestRegionClassify:
    """The region the case table names, with its closest point and raw normal.

    alpha = |q0| - c1 and beta = |q1| - c2 are the distances beyond the
    rectangle's sides (negative inside).
    """

    def test_corner_outside(self):
        # alpha = beta = 1
        assert _rect_case(3.0, 2.0, 2.0, 1.0) == (
            Region.CORNER_OUTSIDE, (2.0, 1.0), (2.0, 1.0))

    def test_top_bottom_outside(self):
        # alpha = -2, beta = 1
        assert _rect_case(0.0, 2.0, 2.0, 1.0) == (
            Region.TOP_BOTTOM_OUTSIDE, (0.0, 1.0), (0.0, 1.0))

    def test_inside_near_top_bottom(self):
        # alpha = -1 < beta = -0.5: the top side is nearer
        assert _rect_case(1.0, 0.5, 2.0, 1.0) == (
            Region.INSIDE_NEAR_TB, (1.0, 1.0), (0.0, 1.0))

    def test_left_right_outside(self):
        assert _rect_case(3.0, 0.0, 2.0, 1.0)[0] is Region.LEFT_RIGHT_OUTSIDE

    def test_inside_near_left_right(self):
        assert _rect_case(1.8, 0.1, 2.0, 1.0) == (
            Region.INSIDE_NEAR_LR, (2.0, 0.1), (1.0, 0.0))

    def test_inside_diagonal_tie(self):
        # alpha = beta = -0.8
        assert _rect_case(1.2, 0.2, 2.0, 1.0) == (
            Region.INSIDE_DIAGONAL, (2.0, 1.0), (1.0, 1.0))

    def test_boundary_alpha_zero_goes_outside(self):
        # alpha == 0 counts as outside the side (sign rule makes tables total)
        assert _rect_case(2.0, 0.0, 2.0, 1.0)[0] is Region.LEFT_RIGHT_OUTSIDE


class TestRectMdp:
    """The closest boundary point of the case table."""

    def test_right_edge(self):
        assert _rect_case(3.0, 0.0, 1.0, 1.0)[1] == (1.0, 0.0)

    def test_corner(self):
        assert _rect_case(2.0, 2.0, 1.0, 1.0)[1] == (1.0, 1.0)

    def test_inside_clamps_nearest_edge(self):
        assert _rect_case(1.0, 0.5, 2.0, 1.0)[1] == (1.0, 1.0)

    def test_mdp_on_boundary_sweep(self):
        rng = np.random.default_rng(101)
        for _ in range(2000):
            c1, c2 = rng.uniform(0.2, 3.0, 2)
            q0, q1 = rng.uniform(-5.0, 5.0, 2)
            x, y = _rect_case(q0, q1, c1, c2)[1]
            assert abs(x) <= c1 + 1e-12 and abs(y) <= c2 + 1e-12
            assert abs(abs(x) - c1) < 1e-12 or abs(abs(y) - c2) < 1e-12


class TestCaseTable:
    """The closest point and rect_circle_normal follow the region the case
    table names."""

    @staticmethod
    def _expected(q, c1, c2, region):
        sx = 1.0 if q[0] >= 0.0 else -1.0
        sy = 1.0 if q[1] >= 0.0 else -1.0
        if region is Region.CORNER_OUTSIDE:
            return (sx * c1, sy * c2), (sx * c1, sy * c2)
        if region is Region.INSIDE_DIAGONAL:
            return (sx * c1, sy * c2), (sx, sy)
        if region in (Region.TOP_BOTTOM_OUTSIDE, Region.INSIDE_NEAR_TB):
            return (q[0], sy * c2), (0.0, sy)
        return (sx * c1, q[1]), (sx, 0.0)

    def test_grid_with_ties_edges_and_signed_zeros(self):
        c1, c2 = 2.0, 1.0
        coords = (0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1.2, -1.2, 1.5, -1.5,
                  2.0, -2.0, 3.0, -3.0)
        seen = set()
        for x in coords:
            for y in coords + (0.2, -0.2):
                q = (x, y)
                region, got, _ = _rect_case(x, y, c1, c2)
                seen.add(region)
                point, raw = self._expected(q, c1, c2, region)
                assert [v.hex() for v in got] == [v.hex() for v in point], q
                norm = math.hypot(*raw)
                n, t = rect_circle_normal(q, c1, c2)
                assert n == (raw[0] / norm, raw[1] / norm), q
                assert t == (-n[1], n[0]), q
        assert seen == set(Region)


def _rect_circle(center, radius, half_extents=(1.0, 1.0)):
    """detect_rect_circle of a circle at ``center`` against an unrotated
    rectangle at the origin."""
    return detect_rect_circle(body2d((0.0, 0.0)), Rectangle(*half_extents),
                              body2d(center), Circle(radius))


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


class TestRectCircleNormal:
    def test_right_edge(self):
        n, t = rect_circle_normal((3.0, 0.0), 1.0, 1.0)
        assert n == (1.0, 0.0) and t == (0.0, 1.0)

    def test_bottom_edge(self):
        n, t = rect_circle_normal((0.0, -3.0), 1.0, 1.0)
        assert np.allclose(n, (0.0, -1.0)) and np.allclose(t, (1.0, 0.0))

    def test_corner_uses_extent_weighted_direction(self):
        # The corner case scales by the half-extents, which differs from the
        # geometric vertex-to-center direction; both are recorded here.
        n, _ = rect_circle_normal((2.0, 2.0), 2.0, 1.0)
        expected = (2.0 / math.sqrt(5.0), 1.0 / math.sqrt(5.0))
        assert np.allclose(n, expected, atol=1e-15)
        p = _rect_case(2.0, 2.0, 2.0, 1.0)[1]
        geometric = np.array([2.0, 2.0]) - p
        geometric = geometric / np.linalg.norm(geometric)
        assert not np.allclose(n, geometric, atol=1e-3)

    def test_orthonormal_sweep(self):
        rng = np.random.default_rng(13)
        for _ in range(2000):
            c1, c2 = rng.uniform(0.2, 3.0, 2)
            q = tuple(rng.uniform(-5.0, 5.0, 2))
            n, t = rect_circle_normal(q, c1, c2)
            assert math.isclose(math.hypot(*n), 1.0, abs_tol=1e-12)
            assert math.isclose(math.hypot(*t), 1.0, abs_tol=1e-12)
            assert abs(n[0] * t[0] + n[1] * t[1]) < 1e-12


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

    def test_center_on_boundary_falls_back_to_case_normal(self):
        info = detect_rect_circle(body2d((0.0, 0.0)), Rectangle(1.0, 1.0),
                                  body2d((1.0, 0.0)), Circle(0.5))
        assert info.colliding
        assert math.isclose(info.rho, 0.5, abs_tol=1e-12)
        assert info.normal == (1.0, 0.0)
        assert np.allclose(info.q_tilde, (1.5, 0.0))

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
        # centers on them, where two opposite faces tie and both tables
        # give the tie to the + face
        for x in np.append(np.linspace(-1.95, 1.95, 26), 0.0):
            for y in np.append(np.linspace(-1.15, 1.15, 12), 0.0):
                if abs((c1 - abs(x)) - (c2 - abs(y))) < 1e-6:
                    continue  # diagonal tie: the 2D table takes the diagonal
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
            elif info.colliding:
                assert abs(info.rho - depth) < 1e-9
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
