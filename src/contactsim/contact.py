"""Contact record handed from the detection backends to the resolver, and
the body-frame map that both backends build it with.

Every detector but sat's circle-circle and rect-rect works in body A's
frame, origin at its center.  With c and s the cosine and sine of A's angle,
a 2D world vector (x, y) has body coordinates (c x + s y, -s x + c y); with
``rot`` A's world-from-body matrix, a 3D one has rot^T v.  ``body_frame_2d``
and ``body_frame_3d`` put B's center into A's frame.  A detector's own rule
turns it into the proximity, the depth, both points, both anchors and the
normal, in A's frame.  ``local_contact_2d`` and ``local_contact_3d`` turn the
anchors and the normal into the world frame and add the tangent: the normal
turned by +90 degrees in 2D, its ``tangent3`` in 3D.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .geometry import Mat3, Vec, Vec2, Vec3, quat_to_matrix, tangent3


class ContactInfo(NamedTuple):
    """Result of one narrow-phase query between bodies A and B.

    ``p_tilde``/``q_tilde`` are the minimum-distance points of A and B in
    A's frame.  ``anchor_a``/``anchor_b`` are world-frame vectors from each
    body's center to the contact point on that body; ``normal`` is the
    world-frame unit contact normal oriented from A toward B and ``tangent``
    completes the contact basis.

    ``phi`` is the proximity (negative on overlap), ``rho`` the
    interpenetration depth (positive exactly when ``colliding``).
    ``phi_approx`` marks proximities that are only axis-gap lower bounds or
    eroded-shape estimates rather than exact distances; ``saturated`` marks
    penetrations that exceeded the convex backend's measurable range and were
    clamped to the shrink margin.

    A named tuple: immutable and equal by value, cheaper to build than a
    frozen dataclass on the per-step path.
    """

    colliding: bool
    phi: float
    rho: float
    p_tilde: Vec
    q_tilde: Vec
    anchor_a: Vec
    anchor_b: Vec
    normal: Vec
    tangent: Vec
    saturated: bool = False
    phi_approx: bool = False

    def flipped(self) -> "ContactInfo":
        """Swap the roles of body A and B.

        World-frame anchors swap and the contact basis is negated; the
        detection-frame MDPs swap slots but stay expressed in the original
        detection frame.
        """
        return self._replace(
            p_tilde=self.q_tilde,
            q_tilde=self.p_tilde,
            anchor_a=self.anchor_b,
            anchor_b=self.anchor_a,
            normal=tuple(-c for c in self.normal),
            tangent=tuple(-c for c in self.tangent),
        )


def body_frame_2d(state_a, state_b) -> tuple:
    """(c, s, q0, q1): the cosine and sine of A's angle and B's center in
    A's frame."""
    theta = state_a.orientation
    c = math.cos(theta)
    s = math.sin(theta)
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    return c, s, c * rx + s * ry, -s * rx + c * ry


def body_frame_3d(state_a, state_b) -> tuple:
    """(rot, q0, q1, q2): A's world-from-body matrix, B's center in A's frame."""
    rot = quat_to_matrix(state_a.orientation)
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rot
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    rz = pb[2] - pa[2]
    return (rot, m00 * rx + m10 * ry + m20 * rz, m01 * rx + m11 * ry + m21 * rz,
            m02 * rx + m12 * ry + m22 * rz)


def local_contact_2d(c: float, s: float, phi: float, rho: float, p: Vec2,
                     q: Vec2, u: Vec2, v: Vec2, n: Vec2, saturated: bool = False,
                     phi_approx: bool = False) -> ContactInfo:
    """The ``ContactInfo`` of a 2D body-frame result: points p and q, the
    anchors u of A and v of B and the unit normal n, in the frame (c, s)."""
    ux, uy = u
    vx, vy = v
    nx, ny = n
    return ContactInfo(rho > 0.0, phi, rho, p, q,
                       (c * ux - s * uy, s * ux + c * uy),
                       (c * vx - s * vy, s * vx + c * vy),
                       (c * nx - s * ny, s * nx + c * ny),
                       (c * -ny - s * nx, s * -ny + c * nx),
                       saturated, phi_approx)


def local_contact_3d(rot: Mat3, phi: float, rho: float, p: Vec3, q: Vec3,
                     u: Vec3, v: Vec3, n: Vec3, saturated: bool = False
                     ) -> ContactInfo:
    """The ``ContactInfo`` of a 3D body-frame result, as ``local_contact_2d``
    with A's world-from-body matrix ``rot``."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    ux, uy, uz = u
    vx, vy, vz = v
    nx, ny, nz = n
    tx, ty, tz = tangent3(nx, ny, nz)
    return ContactInfo(
        rho > 0.0, phi, rho, p, q,
        (r00 * ux + r01 * uy + r02 * uz, r10 * ux + r11 * uy + r12 * uz,
         r20 * ux + r21 * uy + r22 * uz),
        (r00 * vx + r01 * vy + r02 * vz, r10 * vx + r11 * vy + r12 * vz,
         r20 * vx + r21 * vy + r22 * vz),
        (r00 * nx + r01 * ny + r02 * nz, r10 * nx + r11 * ny + r12 * nz,
         r20 * nx + r21 * ny + r22 * nz),
        (r00 * tx + r01 * ty + r02 * tz, r10 * tx + r11 * ty + r12 * tz,
         r20 * tx + r21 * ty + r22 * tz),
        saturated)
