import math

import numpy as np
import pytest

from contactsim.geometry import body2d, body3d
from contactsim.penalty import (
    ContactKinematics,
    MaterialParams,
    contact_force,
    relative_velocity_at_contact,
    wrench_on_bodies,
)

from oracles import rot_ccw


def kin(v_n=0.0, v_t=0.0):
    return ContactKinematics(v_n, v_t)


class TestRelativeVelocity:
    def test_both_at_rest(self):
        out = relative_velocity_at_contact(body2d((0.0, 0.0)), (1.0, 0.0),
                                           body2d((2.0, 0.0)), (-1.0, 0.0),
                                           (1.0, 0.0), (0.0, 1.0))
        assert out.v_normal == 0.0 and out.v_tangent == 0.0

    def test_translating_approach(self):
        out = relative_velocity_at_contact(
            body2d((0.0, 0.0)), (1.0, 0.0),
            body2d((2.0, 0.0), velocity=(-2.0, 0.0)), (-1.0, 0.0),
            (1.0, 0.0), (0.0, 1.0))
        assert out.v_normal == -2.0 and out.v_tangent == 0.0

    def test_zero_projection_is_positive_zero(self):
        # both products of the tangent projection are -0.0 here; the sign of
        # a zero sliding speed decides the sign of a zero friction force,
        # which the events export prints
        for dim_bodies in ((body2d((0.0, 0.0), velocity=(1.0, 0.0)),
                            body2d((2.0, 0.0), velocity=(-1.0, 0.0))),
                           (body3d((0.0, 0.0, 0.0), velocity=(1.0, 0.0, 0.0)),
                            body3d((2.0, 0.0, 0.0), velocity=(-1.0, 0.0, 0.0)))):
            a, b = dim_bodies
            dim = a.dim
            axis = (1.0,) + (0.0,) * (dim - 1)
            tangent = (0.0, -1.0) + (0.0,) * (dim - 2)
            out = relative_velocity_at_contact(
                a, tuple(0.5 * c for c in axis), b, tuple(-0.5 * c for c in axis),
                axis, tangent)
            assert out.v_normal == -2.0
            assert math.copysign(1.0, out.v_tangent) == 1.0
            f_n, f_t = contact_force(1e-3, out, MaterialParams())
            assert f_n > 0.0 and math.copysign(1.0, f_t) == -1.0

    def test_spinning_first_body(self):
        out = relative_velocity_at_contact(
            body2d((0.0, 0.0), angular_velocity=1.0), (1.0, 0.0),
            body2d((2.0, 0.0)), (-1.0, 0.0),
            (1.0, 0.0), (0.0, 1.0))
        assert math.isclose(out.v_tangent, -1.0, abs_tol=1e-15)
        assert out.v_normal == 0.0

    def test_matches_finite_difference_of_contact_points(self):
        rng = np.random.default_rng(7)
        dt = 1e-6
        for _ in range(100):
            pa = rng.uniform(-1, 1, 2)
            pb = rng.uniform(-1, 1, 2)
            va = rng.uniform(-2, 2, 2)
            vb = rng.uniform(-2, 2, 2)
            wa, wb = rng.uniform(-3, 3, 2)
            anchor_a = rng.uniform(-1, 1, 2)
            anchor_b = rng.uniform(-1, 1, 2)
            angle = rng.uniform(0, 2 * math.pi)
            normal = (math.cos(angle), math.sin(angle))
            tangent = (-normal[1], normal[0])
            state_a = body2d(tuple(pa), velocity=tuple(va), angular_velocity=wa)
            state_b = body2d(tuple(pb), velocity=tuple(vb), angular_velocity=wb)
            out = relative_velocity_at_contact(state_a, tuple(anchor_a),
                                               state_b, tuple(anchor_b),
                                               normal, tangent)
            # world contact points a moment later (anchors rotate with bodies)
            contact_a0 = pa + anchor_a
            contact_b0 = pb + anchor_b
            contact_a1 = (pa + va * dt) + rot_ccw(wa * dt) @ anchor_a
            contact_b1 = (pb + vb * dt) + rot_ccw(wb * dt) @ anchor_b
            v_rel = ((contact_b1 - contact_b0) - (contact_a1 - contact_a0)) / dt
            assert math.isclose(out.v_normal, v_rel @ np.array(normal),
                                abs_tol=1e-5)
            assert math.isclose(out.v_tangent, v_rel @ np.array(tangent),
                                abs_tol=1e-5)

    def test_three_dimensional_spin(self):
        state_a = body3d((0.0, 0.0, 0.0), angular_velocity=(0.0, 0.0, 1.0))
        state_b = body3d((2.0, 0.0, 0.0))
        out = relative_velocity_at_contact(state_a, (1.0, 0.0, 0.0),
                                           state_b, (-1.0, 0.0, 0.0),
                                           (1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        assert math.isclose(out.v_tangent, -1.0, abs_tol=1e-15)


class TestContactForce:
    def test_elastic_point_value(self):
        mat = MaterialParams(stiffness=1e5, damping=0.1)
        f_n, f_t = contact_force(0.01, kin(), mat)
        assert f_n == 1e5 * 0.01 ** 3 * (1.0 - 0.1 * 0.0)
        assert abs(f_n - 0.1) <= math.ulp(0.1)
        assert f_t == 0.0

    def test_zero_sliding_gives_zero_friction(self):
        mat = MaterialParams()
        _, f_t = contact_force(0.02, kin(v_n=-1.0, v_t=0.0), mat)
        assert f_t == 0.0

    def test_friction_saturates_at_coulomb_limit(self):
        mat = MaterialParams(stiffness=1e5, damping=0.0, friction=0.3)
        f_n, f_t = contact_force(0.01, kin(v_t=1e6), mat)
        assert math.isclose(f_t, -0.3 * f_n, rel_tol=1e-12)
        _, f_t_neg = contact_force(0.01, kin(v_t=-1e6), mat)
        assert math.isclose(f_t_neg, 0.3 * f_n, rel_tol=1e-12)

    def test_no_penetration_no_force(self):
        assert contact_force(0.0, kin(v_n=-3.0, v_t=2.0), MaterialParams()) == (0.0, 0.0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            contact_force(-0.01, kin(), MaterialParams())

    def test_fast_separation_clamps_to_zero(self):
        mat = MaterialParams(stiffness=1e5, damping=0.5)
        f_n, f_t = contact_force(0.05, kin(v_n=10.0, v_t=1.0), mat)
        assert f_n == 0.0 and f_t == 0.0

    def test_approach_strengthens_normal_force(self):
        mat = MaterialParams(stiffness=1e5, damping=0.2)
        resting, _ = contact_force(0.02, kin(v_n=0.0), mat)
        approaching, _ = contact_force(0.02, kin(v_n=-1.0), mat)
        assert approaching > resting

    def test_matches_printed_sigmoid_form(self):
        mat = MaterialParams(stiffness=2e4, damping=0.1, friction=0.4, v_scale=0.02)
        rng = np.random.default_rng(11)
        for _ in range(500):
            rho = rng.uniform(0.0, 0.1)
            v_n = rng.uniform(-3.0, 3.0)
            v_t = rng.uniform(-1.0, 1.0)
            f_n, f_t = contact_force(rho, kin(v_n, v_t), mat)
            direct_n = max(0.0, mat.stiffness * rho ** 3 * (1 - mat.damping * v_n))
            sigmoid = 2.0 / (1.0 + math.exp(-v_t / mat.v_scale)) - 1.0
            direct_t = -mat.friction * direct_n * sigmoid
            assert math.isclose(f_n, direct_n, rel_tol=1e-12, abs_tol=1e-300)
            assert math.isclose(f_t, direct_t, rel_tol=1e-9, abs_tol=1e-14)

    def test_friction_is_odd_in_sliding_velocity(self):
        mat = MaterialParams()
        rng = np.random.default_rng(13)
        for _ in range(200):
            v_t = rng.uniform(-5.0, 5.0)
            _, pos = contact_force(0.03, kin(0.0, v_t), mat)
            _, neg = contact_force(0.03, kin(0.0, -v_t), mat)
            assert abs(pos + neg) < 1e-12

    def test_friction_bounded_by_coulomb_cone(self):
        mat = MaterialParams(friction=0.37)
        rng = np.random.default_rng(17)
        for _ in range(1000):
            rho = rng.uniform(0.0, 0.2)
            v_n = rng.uniform(-4.0, 4.0)
            v_t = rng.uniform(-50.0, 50.0)
            f_n, f_t = contact_force(rho, kin(v_n, v_t), mat)
            assert f_n >= 0.0
            assert abs(f_t) <= 0.37 * f_n + 1e-15

    def test_normal_force_monotone_in_depth(self):
        mat = MaterialParams()
        depths = np.linspace(0.0, 0.2, 100)
        forces = [contact_force(d, kin(v_n=-0.5), mat)[0] for d in depths]
        assert all(b > a for a, b in zip(forces, forces[1:]))

    def test_zero_damping_ignores_normal_velocity(self):
        mat = MaterialParams(damping=0.0)
        base, _ = contact_force(0.04, kin(v_n=0.0), mat)
        fast, _ = contact_force(0.04, kin(v_n=-8.0), mat)
        assert base == fast


class TestWrenches:
    def test_collinear_anchor_no_torque(self):
        wa, wb = wrench_on_bodies(1.0, 0.0, (1.0, 0.0), (0.0, 1.0),
                                  (1.0, 0.0), (-1.0, 0.0))
        assert wa.force == (-1.0, -0.0)
        assert wa.moment == 0.0
        assert wb.force == (1.0, 0.0)
        assert wb.moment == 0.0

    def test_offset_anchor_torque_by_hand(self):
        wa, _ = wrench_on_bodies(1.0, 0.0, (1.0, 0.0), (0.0, 1.0),
                                 (1.0, 0.5), (-1.0, 0.0))
        # anchor x force on A: (1, 0.5) x (-1, 0) = 0.5 out of plane
        assert math.isclose(wa.moment, 0.5, abs_tol=1e-15)

    def test_newtons_third_law_sweep(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            f_n = rng.uniform(0.0, 10.0)
            f_t = rng.uniform(-3.0, 3.0)
            angle = rng.uniform(0.0, 2 * math.pi)
            normal = (math.cos(angle), math.sin(angle))
            tangent = (-normal[1], normal[0])
            wa, wb = wrench_on_bodies(f_n, f_t, normal, tangent,
                                      tuple(rng.uniform(-1, 1, 2)),
                                      tuple(rng.uniform(-1, 1, 2)))
            assert wa.force[0] + wb.force[0] == 0.0
            assert wa.force[1] + wb.force[1] == 0.0

    def test_three_dimensional_moments(self):
        wa, wb = wrench_on_bodies(2.0, 0.0, (0.0, 0.0, 1.0), (0.0, 1.0, 0.0),
                                  (0.5, 0.0, 0.0), (-0.5, 0.0, 0.0))
        assert wb.force == (0.0, 0.0, 2.0)
        # (-0.5, 0, 0) x (0, 0, 2) = (0, 1, 0)
        assert np.allclose(wb.moment, (0.0, 1.0, 0.0))
        assert np.allclose(wa.moment, (0.0, 1.0, 0.0))

    def test_positive_normal_force_separates(self):
        wa, wb = wrench_on_bodies(5.0, 0.0, (1.0, 0.0), (0.0, 1.0),
                                  (0.5, 0.0), (-0.5, 0.0))
        # force on B points along the normal (away from A), on A against it
        assert wb.force[0] > 0.0
        assert wa.force[0] < 0.0


class TestMaterialValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            MaterialParams(stiffness=0.0)
        with pytest.raises(ValueError):
            MaterialParams(damping=-0.1)
        with pytest.raises(ValueError):
            MaterialParams(friction=-1.0)
        with pytest.raises(ValueError):
            MaterialParams(v_scale=0.0)
