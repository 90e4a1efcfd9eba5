import math
import random
from dataclasses import replace

import numpy as np
import pytest

from contactsim.geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    EPS_TIE,
    body2d,
    body3d,
    box_clamp,
    nearest_face,
    quat_to_matrix,
    rot2_apply,
    rot2_apply_t,
)

from oracles import frame_coords, quat_from_angle_z


def rotation_matrix(theta):
    """Matrix of the planar body-from-world map, read off rot2_apply."""
    e1 = rot2_apply(theta, (1.0, 0.0))
    e2 = rot2_apply(theta, (0.0, 1.0))
    return np.array([[e1[0], e2[0]], [e1[1], e2[1]]])


def transpose_matrix(theta):
    """Matrix of the world-from-body map, read off rot2_apply_t."""
    e1 = rot2_apply_t(theta, (1.0, 0.0))
    e2 = rot2_apply_t(theta, (0.0, 1.0))
    return np.array([[e1[0], e2[0]], [e1[1], e2[1]]])


class TestRotationMatrix:
    def test_identity_at_zero(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn_rows(self):
        m = rotation_matrix(math.pi / 2)
        expected = ((0.0, 1.0), (-1.0, 0.0))
        assert np.allclose(m, expected, atol=1e-15)

    def test_orthonormal_at_sample_angle(self):
        m = rotation_matrix(0.37)
        assert np.allclose(m @ m.T, np.eye(2), atol=1e-12)

    def test_orthonormal_unit_det_sweep(self):
        rng = random.Random(7)
        for _ in range(1000):
            theta = rng.uniform(-20.0, 20.0)
            m = rotation_matrix(theta)
            assert np.allclose(m @ m.T, np.eye(2), atol=1e-12)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_negative_angle_is_transpose(self):
        rng = random.Random(11)
        for _ in range(200):
            theta = rng.uniform(-10.0, 10.0)
            assert np.allclose(rotation_matrix(-theta), rotation_matrix(theta).T,
                               atol=1e-15)
            assert np.allclose(transpose_matrix(theta), rotation_matrix(theta).T,
                               atol=0.0)


def relative_center(r_a, theta, r_b):
    """The second center in the first body's frame, as every 2D detector
    computes it: rot2_apply of the world offset."""
    return rot2_apply(theta, (r_b[0] - r_a[0], r_b[1] - r_a[1]))


class TestRelativeCenter:
    def test_identity_rotation(self):
        assert relative_center((0.0, 0.0), 0.0, (3.0, 1.0)) == (3.0, 1.0)

    def test_pure_translation(self):
        assert relative_center((1.0, 0.0), 0.0, (3.0, 0.0)) == (2.0, 0.0)

    def test_quarter_turn_against_projection_oracle(self):
        q = relative_center((0.0, 0.0), math.pi / 2, (1.0, 0.0))
        expected = frame_coords(math.pi / 2, (1.0, 0.0))
        assert np.allclose(q, expected, atol=1e-15)
        assert np.allclose(q, (0.0, -1.0), atol=1e-15)

    def test_inverse_consistency_sweep(self):
        rng = random.Random(3)
        for _ in range(1000):
            r_a = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            r_b = (rng.uniform(-5, 5), rng.uniform(-5, 5))
            theta = rng.uniform(-10, 10)
            q = relative_center(r_a, theta, r_b)
            back = rot2_apply_t(theta, q)
            assert math.isclose(back[0], r_b[0] - r_a[0], abs_tol=1e-12)
            assert math.isclose(back[1], r_b[1] - r_a[1], abs_tol=1e-12)

    def test_matches_full_matrix(self):
        rng = random.Random(5)
        for _ in range(100):
            theta = rng.uniform(-10, 10)
            v = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            expected = frame_coords(theta, v)
            q = relative_center((0.0, 0.0), theta, v)
            assert np.allclose(q, expected, atol=1e-15)


class TestBoxRules:
    """The two box-ball rules both backends share: the clamp and the nearest
    face."""

    def test_clamp_outside_a_corner(self):
        assert box_clamp((1.0, 2.0, 3.0), 4.0, -6.0, 0.5) == (
            1.0, -2.0, 0.5, -3.0, 4.0, 0.0, 5.0)

    def test_clamp_of_a_point_inside_is_the_point(self):
        assert box_clamp((1.0, 2.0, 3.0), 0.5, -1.5, -0.0) == (
            0.5, -1.5, -0.0, 0.0, 0.0, 0.0, 0.0)

    def test_clamp_2d_is_the_zero_third_axis(self):
        rng = random.Random(5)
        for _ in range(500):
            c1, c2 = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
            x, y = rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)
            px, py, pz, dx, dy, dz, d = box_clamp((c1, c2), x, y, 0.0)
            assert (px, py) == (max(-c1, min(c1, x)), max(-c2, min(c2, y)))
            assert (pz, dz) == (0.0, 0.0) and (dx, dy) == (px - x, py - y)
            assert d == math.sqrt(dx * dx + dy * dy)

    @pytest.mark.parametrize("q, face", [
        ((0.9, 0.1), (1.0, 0.0, 0.0)), ((-0.9, 0.1), (-1.0, 0.0, 0.0)),
        ((0.1, 1.9), (0.0, 1.0, 0.0)), ((0.1, -1.9), (0.0, -1.0, 0.0)),
    ])
    def test_nearest_side_2d(self, q, face):
        dist, normal = nearest_face(q, (1.0, 2.0))
        assert normal == face
        assert math.isclose(dist, 0.1, abs_tol=1e-15)

    def test_2d_scans_no_third_axis(self):
        # a third axis of extent 0 would win at distance 0 if it were scanned
        assert nearest_face((0.5, 0.0, 0.0), (1.0, 1.0)) == (0.5, (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("ext", [(1.0, 2.0), (1.0, 2.0, 3.0)])
    def test_tie_goes_to_the_first_face(self, ext):
        # on the axis, +x and -x tie; -x wins only when nearer by over EPS_TIE
        q = (0.0, 0.1, 0.0)[:len(ext)]
        assert nearest_face(q, ext)[1] == (1.0, 0.0, 0.0)
        q = (-0.25 * EPS_TIE, 0.1, 0.0)[:len(ext)]
        assert nearest_face(q, ext)[1] == (1.0, 0.0, 0.0)
        q = (-2.0 * EPS_TIE, 0.1, 0.0)[:len(ext)]
        assert nearest_face(q, ext)[1] == (-1.0, 0.0, 0.0)

    def test_2d_matches_a_deep_cuboid(self):
        rng = random.Random(9)
        for _ in range(500):
            ext = (rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0))
            q = tuple(rng.uniform(-e, e) for e in ext)
            assert nearest_face(q, ext) == nearest_face(q + (0.0,), ext + (100.0,))


class TestShapesAndBodies:
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_circle_rejects_nonpositive_radius(self, bad):
        with pytest.raises(ValueError):
            Circle(bad)

    def test_rectangle_rejects_nonpositive_extents(self):
        with pytest.raises(ValueError):
            Rectangle(1.0, 0.0)
        with pytest.raises(ValueError):
            Rectangle(-0.5, 1.0)

    def test_sphere_and_cuboid_validation(self):
        with pytest.raises(ValueError):
            Sphere(-1.0)
        with pytest.raises(ValueError):
            Cuboid((1.0, 0.0, 1.0))

    def test_body_dims(self):
        assert body2d((0.0, 0.0)).dim == 2
        assert body3d((0.0, 0.0, 0.0)).dim == 3

    def test_body_validation(self):
        with pytest.raises(ValueError):
            body2d((0.0, 0.0), mass=0.0)
        with pytest.raises(ValueError):
            BodyState((0.0, 0.0, 0.0), (2.0, 0.0, 0.0, 0.0),
                      (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 1.0, 1.0)

    @pytest.mark.parametrize("build", [
        lambda: body2d((math.nan, 0.0)),
        lambda: body2d((0.0, 0.0), velocity=(math.inf, 0.0)),
        lambda: body2d((0.0, 0.0), angle=math.inf),
        lambda: body2d((0.0, 0.0), angular_velocity=-math.inf),
        lambda: body2d((0.0, 0.0), inertia=0.0),
        lambda: body2d((0.0, 0.0), inertia=math.nan),
        lambda: BodyState((0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0), 0.0,
                          1.0, 1.0),
        lambda: body3d((0.0, 0.0, math.inf)),
        lambda: body3d((0.0, 0.0, 0.0), angular_velocity=(0.0, math.nan, 0.0)),
        lambda: body3d((0.0, 0.0, 0.0), inertia=math.inf),
        lambda: BodyState((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                          (0.0, 0.0, 0.0), 1.0, 1.0),
        lambda: BodyState((0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                          0.0, 1.0, ((1.0, 0.0, 0.0),) * 3),
    ])
    def test_body_rejects_non_finite_or_malformed_entries(self, build):
        with pytest.raises(ValueError):
            build()

    def test_body_state_is_slotted_and_replace_checks(self):
        state = body3d((0.0, 0.0, 1.0), velocity=(0.5, 0.0, 0.0))
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.mass = 2.0
        successor = state._successor((1.0, 0.0, 0.0), state.orientation,
                                     (0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        assert not hasattr(successor, "__dict__")
        assert successor == replace(state, position=(1.0, 0.0, 0.0),
                                    velocity=(0.0, 0.0, 0.0))
        for change in ({"mass": -1.0}, {"position": (math.nan, 0.0, 0.0)},
                       {"orientation": (2.0, 0.0, 0.0, 0.0)},
                       {"velocity": (0.0, 0.0)}):
            with pytest.raises(ValueError):
                replace(state, **change)

    def test_quaternion_matches_planar_rotation(self):
        rng = random.Random(29)
        for _ in range(100):
            theta = rng.uniform(-6.0, 6.0)
            m = np.array(quat_to_matrix(quat_from_angle_z(theta)))
            v = np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0])
            expected2 = rot2_apply_t(theta, (v[0], v[1]))
            assert np.allclose((m @ v)[:2], expected2, atol=1e-12)
