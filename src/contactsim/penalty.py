"""Elastic-plastic penalty contact forces and their center-of-mass wrenches.

The normal force combines a cubic stiffness term with velocity-dependent
damping; the tangential force is a friction force smoothed by a sigmoid of
the sliding velocity.  Forces are converted to an equivalent force-moment
system at each body's center of mass so the integrator never needs the
contact point itself.

Sign conventions: the contact normal points from body A toward body B, so a
negative normal relative velocity means approach.  With that convention the
damping factor exceeds one during approach, dissipating energy on impact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

from .geometry import Vec, Vec3, cross3


@dataclass(frozen=True)
class MaterialParams:
    """Contact material constants.

    stiffness:  N/m^3, multiplies the cubed penetration depth
    damping:    s/m, scales the normal-velocity correction
    friction:   dimensionless Coulomb-like coefficient
    v_scale:    m/s, sliding-velocity scale of the friction sigmoid
    """

    stiffness: float = 1e5
    damping: float = 0.2
    friction: float = 0.3
    v_scale: float = 0.01

    def __post_init__(self):
        for name in ("stiffness", "damping", "friction", "v_scale"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.stiffness > 0.0:
            raise ValueError("stiffness must be positive")
        if self.damping < 0.0:
            raise ValueError("damping must be nonnegative")
        if self.friction < 0.0:
            raise ValueError("friction must be nonnegative")
        if not self.v_scale > 0.0:
            raise ValueError("v_scale must be positive")


class ContactKinematics(NamedTuple):
    """Relative velocity of the contact points, split along normal and tangent."""

    v_normal: float
    v_tangent: float


class BodyWrench(NamedTuple):
    """Force at the center of mass plus the equivalent moment."""

    force: Vec
    moment: Union[float, Vec3]


def relative_velocity_at_contact(state_a, anchor_a: Vec, state_b, anchor_b: Vec,
                                 normal: Vec, tangent: Vec) -> ContactKinematics:
    """Velocity of B's contact point relative to A's, in the contact basis.

    Anchors and directions must be world-frame; anchors run from each body's
    center to its contact point.  A negative normal component means the
    bodies are approaching.
    """
    va = state_a.velocity
    vb = state_b.velocity
    wa = state_a.angular_velocity
    wb = state_b.angular_velocity
    # each point moves with v + omega x r; the projections add onto 0.0, so
    # a zero projection is +0.0, never -0.0
    if len(va) == 2:
        rx = (vb[0] + -wb * anchor_b[1]) - (va[0] + -wa * anchor_a[1])
        ry = (vb[1] + wb * anchor_b[0]) - (va[1] + wa * anchor_a[0])
        return ContactKinematics(0.0 + rx * normal[0] + ry * normal[1],
                                 0.0 + rx * tangent[0] + ry * tangent[1])
    spin_a = cross3(wa, anchor_a)
    spin_b = cross3(wb, anchor_b)
    rx = (vb[0] + spin_b[0]) - (va[0] + spin_a[0])
    ry = (vb[1] + spin_b[1]) - (va[1] + spin_a[1])
    rz = (vb[2] + spin_b[2]) - (va[2] + spin_a[2])
    return ContactKinematics(
        0.0 + rx * normal[0] + ry * normal[1] + rz * normal[2],
        0.0 + rx * tangent[0] + ry * tangent[1] + rz * tangent[2])


def contact_force(rho: float, kin: ContactKinematics,
                  mat: MaterialParams) -> tuple[float, float]:
    """Normal and tangential force magnitudes for a penetration depth.

    The normal force is clamped at zero when fast separation would make the
    damped spring attractive; a depth whose cube overflows raises
    OverflowError naming it.  The friction sigmoid 2/(1+exp(-v/vs)) - 1 is
    evaluated as tanh(v/(2 vs)), which is the same function without overflow
    for large sliding speeds.
    """
    if rho < 0.0:
        raise ValueError("penetration depth must be nonnegative")
    try:  # a float power is the one operation here that raises on overflow
        f_n = mat.stiffness * rho ** 3 * (1.0 - mat.damping * kin.v_normal)
    except OverflowError:
        raise OverflowError("the cubic penalty force overflows at depth "
                            f"{rho!r}") from None
    if f_n < 0.0:
        f_n = 0.0
    f_t = -mat.friction * f_n * math.tanh(kin.v_tangent / (2.0 * mat.v_scale))
    return f_n, f_t


def wrench_on_bodies(f_n: float, f_t: float, normal: Vec, tangent: Vec,
                     anchor_a: Vec, anchor_b: Vec) -> tuple[BodyWrench, BodyWrench]:
    """Equal-and-opposite center-of-mass wrenches for one contact.

    Body B receives the composed force (positive normal force pushes the
    bodies apart), body A its exact negation; moments are the cross products
    of each anchor with the force acting on that body.
    """
    if len(normal) == 2:
        fx = f_n * normal[0] + f_t * tangent[0]
        fy = f_n * normal[1] + f_t * tangent[1]
        ax, ay = -fx, -fy
        return (BodyWrench((ax, ay), anchor_a[0] * ay - anchor_a[1] * ax),
                BodyWrench((fx, fy), anchor_b[0] * fy - anchor_b[1] * fx))
    force_b = (f_n * normal[0] + f_t * tangent[0],
               f_n * normal[1] + f_t * tangent[1],
               f_n * normal[2] + f_t * tangent[2])
    force_a = (-force_b[0], -force_b[1], -force_b[2])
    return (BodyWrench(force_a, cross3(anchor_a, force_a)),
            BodyWrench(force_b, cross3(anchor_b, force_b)))
