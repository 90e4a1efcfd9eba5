"""Closed-form / separating-axis narrow-phase detection.

Supports the four shape pairings of the engine: rectangle-circle,
circle-circle, rectangle-rectangle (2D) and cuboid-sphere (3D).  All
rectangle-circle quantities are computed in the rectangle's body frame; the
returned ContactInfo additionally carries world-frame anchors and directions
for the resolver.  Signs follow sgn(0) = +1 (``1.0 if x >= 0.0 else -1.0``),
which keeps the case tables and support tie-breaks total.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .contact import ContactInfo
from .errors import DegenerateCenter
from .geometry import (
    EPS_DEGENERATE,
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    Vec2,
    Vec3,
    add,
    cross3,
    distance,
    mat3_t_vec,
    mat3_vec,
    normalize,
    perp,
    quat_to_matrix,
    scale,
    sub,
)

# Tolerance for the diagonal tie between the two inside-region depth gaps.
EPS_TIE = 1e-12


class Region(Enum):
    CORNER_OUTSIDE = "corner-outside"
    TOP_BOTTOM_OUTSIDE = "top-bottom-outside"
    LEFT_RIGHT_OUTSIDE = "left-right-outside"
    INSIDE_NEAR_LR = "inside-near-left-right"
    INSIDE_NEAR_TB = "inside-near-top-bottom"
    INSIDE_DIAGONAL = "inside-diagonal"


@dataclass(frozen=True)
class RegionClass:
    """Signed side distances of a point from a rectangle and the region they select."""

    alpha: float
    beta: float
    region: Region


def region_classify(q: Vec2, c1: float, c2: float) -> RegionClass:
    """Classify where a point lies relative to a centered rectangle.

    alpha and beta are the distances of the point beyond the rectangle's
    sides (negative inside).  The region is the one ``_rect_case`` picks, so
    the classification and the detectors share one case table.
    """
    region, _, _ = _rect_case(q[0], q[1], c1, c2)
    return RegionClass(abs(q[0]) - c1, abs(q[1]) - c2, region)


def _rect_case(q0: float, q1: float, c1: float, c2: float
               ) -> tuple[Region, Vec2, Vec2]:
    """The region case table: where (q0, q1) lies relative to a centered
    rectangle, the closest boundary point and the raw outward normal.

    The raw normal is unnormalized in the corner and diagonal cases.  The
    inside diagonal case uses a tie tolerance since exact float equality of
    the two depth gaps is measure-zero.
    """
    alpha = abs(q0) - c1
    beta = abs(q1) - c2
    sx = 1.0 if q0 >= 0.0 else -1.0
    sy = 1.0 if q1 >= 0.0 else -1.0
    if alpha >= 0.0 and beta >= 0.0:
        corner = (sx * c1, sy * c2)
        return Region.CORNER_OUTSIDE, corner, corner
    if alpha < 0.0 and beta >= 0.0:
        return Region.TOP_BOTTOM_OUTSIDE, (q0, sy * c2), (0.0, sy)
    if alpha >= 0.0 and beta < 0.0:
        return Region.LEFT_RIGHT_OUTSIDE, (sx * c1, q1), (sx, 0.0)
    if abs(alpha - beta) < EPS_TIE:
        return Region.INSIDE_DIAGONAL, (sx * c1, sy * c2), (sx, sy)
    if alpha > beta:
        return Region.INSIDE_NEAR_LR, (sx * c1, q1), (sx, 0.0)
    return Region.INSIDE_NEAR_TB, (q0, sy * c2), (0.0, sy)


_INSIDE = (Region.INSIDE_NEAR_LR, Region.INSIDE_NEAR_TB, Region.INSIDE_DIAGONAL)


def rect_mdp(q: Vec2, c1: float, c2: float) -> Vec2:
    """Boundary point of the rectangle closest to q, per the region case table."""
    return _rect_case(q[0], q[1], c1, c2)[1]


def circle_mdp(p_tilde: Vec2, q: Vec2, radius: float) -> Vec2:
    """Point of a circle centered at q closest to the rectangle point p_tilde."""
    d = distance(p_tilde, q)
    if d < EPS_DEGENERATE:
        raise DegenerateCenter(
            "circle center lies on the rectangle boundary; direction undefined"
        )
    u = scale(sub(p_tilde, q), 1.0 / d)
    return add(q, scale(u, radius))


def proximity_and_rho(p_tilde: Vec2, q: Vec2, radius: float) -> tuple[float, float]:
    """Proximity and interpenetration of a circle against a rectangle point."""
    d = distance(p_tilde, q)
    if d < EPS_DEGENERATE:
        raise DegenerateCenter(
            "circle center lies on the rectangle boundary; direction undefined"
        )
    phi = d - radius
    rho = 0.0 if phi > 0.0 else -phi
    return phi, rho


def rect_circle_normal(q: Vec2, c1: float, c2: float) -> tuple[Vec2, Vec2]:
    """Unit contact normal and tangent of the rectangle surface facing q.

    The corner and diagonal cases produce non-unit raw components and are
    normalized before use; the tangent is the +90 degree rotation of the
    normal (out-of-plane axis cross normal).
    """
    n = normalize(_rect_case(q[0], q[1], c1, c2)[2])
    return n, perp(n)


def detect_rect_circle(state_a: BodyState, rect: Rectangle,
                       state_b: BodyState, circle: Circle) -> ContactInfo:
    """Narrow-phase query between a rectangle (body A) and a circle (body B)."""
    c1, c2 = rect.half_length, rect.half_width
    radius = circle.radius
    theta = state_a.orientation
    c = math.cos(theta)
    s = math.sin(theta)
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    q0 = c * rx + s * ry  # circle center in the rectangle frame
    q1 = -s * rx + c * ry

    region, p_tilde, raw = _rect_case(q0, q1, c1, c2)
    nx, ny = normalize(raw)

    px, py = p_tilde
    dx = px - q0
    dy = py - q1
    d = math.sqrt(dx * dx + dy * dy)
    if d < EPS_DEGENERATE:
        # center on the rectangle boundary: fall back to the case-table normal
        ux, uy = nx, ny
    else:
        inv_d = 1.0 / d
        ux, uy = dx * inv_d, dy * inv_d
    if region in _INSIDE:
        # center inside: as the cuboid-sphere inside branch, the circle must
        # travel d to the nearest side plus its radius to get clear
        phi = -radius
        rho = radius + d
    else:
        phi = d - radius
        rho = 0.0 if phi > 0.0 else -phi
    mx = ux * radius  # center-to-contact offset of the circle
    my = uy * radius
    tx, ty = -ny, nx

    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi,
        rho=rho,
        p_tilde=p_tilde,
        q_tilde=(q0 + mx, q1 + my),
        anchor_a=(c * px - s * py, s * px + c * py),
        anchor_b=(c * mx - s * my, s * mx + c * my),
        normal=(c * nx - s * ny, s * nx + c * ny),
        tangent=(c * tx - s * ty, s * tx + c * ty),
    )


def detect_circle_circle(state_a: BodyState, circle_a: Circle,
                         state_b: BodyState, circle_b: Circle) -> ContactInfo:
    """Narrow-phase query between two circles; a single center-line test."""
    ra, rb = circle_a.radius, circle_b.radius
    pa = state_a.position
    pb = state_b.position
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]
    d = math.hypot(dx, dy)
    if d < EPS_DEGENERATE:
        # concentric fallback: pick a fixed direction, full overlap depth
        ux, uy = 1.0, 0.0
        phi = d - ra - rb
        rho = ra + rb
    else:
        inv_d = 1.0 / d
        ux, uy = dx * inv_d, dy * inv_d
        phi = d - ra - rb
        rho = 0.0 if phi > 0.0 else -phi

    ax, ay = ux * ra, uy * ra
    neg_rb = -rb
    bx, by = ux * neg_rb, uy * neg_rb
    theta = state_a.orientation
    c = math.cos(theta)
    s = math.sin(theta)
    cx, cy = dx + bx, dy + by  # B's contact point from A's center
    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi,
        rho=rho,
        p_tilde=(c * ax + s * ay, -s * ax + c * ay),
        q_tilde=(c * cx + s * cy, -s * cx + c * cy),
        anchor_a=(ax, ay),
        anchor_b=(bx, by),
        normal=(ux, uy),
        tangent=(-uy, ux),
    )


def detect_rect_rect(state_a: BodyState, rect_a: Rectangle,
                     state_b: BodyState, rect_b: Rectangle) -> ContactInfo:
    """Separating-axis query between two oriented rectangles.

    Tests the four candidate axes (two edge normals per body).  On overlap
    the minimum translation vector is the axis of least overlap, oriented
    from A to B, and the single contact point is the deepest support vertex
    of the body penetrating the other's face.  Support-vertex ties (an axis
    orthogonal to the normal) resolve through the sign rule sgn(0) = +1.
    """
    theta = state_a.orientation
    ca, sa = math.cos(theta), math.sin(theta)
    cb, sb = math.cos(state_b.orientation), math.sin(state_b.orientation)
    # world axes of each body: (c, s) and (-s, c)
    a1x, a1y, a2x, a2y = ca, sa, -sa, ca
    b1x, b1y, b2x, b2y = cb, sb, -sb, cb
    ea1, ea2 = rect_a.half_length, rect_a.half_width
    eb1, eb2 = rect_b.half_length, rect_b.half_width
    pa = state_a.position
    pb = state_b.position
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]

    min_overlap = math.inf
    best_x, best_y = 1.0, 0.0
    best_owner = 0
    max_gap = -math.inf
    gap_x, gap_y = 1.0, 0.0

    for x, y, owner in ((a1x, a1y, 0), (a2x, a2y, 0), (b1x, b1y, 1), (b2x, b2y, 1)):
        rad_a = ea1 * abs(a1x * x + a1y * y) + ea2 * abs(a2x * x + a2y * y)
        rad_b = eb1 * abs(b1x * x + b1y * y) + eb2 * abs(b2x * x + b2y * y)
        overlap = rad_a + rad_b - abs(dx * x + dy * y)
        if -overlap > max_gap:
            max_gap = -overlap
            gap_x, gap_y = x, y
        if overlap < min_overlap:
            min_overlap = overlap
            best_x, best_y = x, y
            best_owner = owner

    c, s = ca, sa
    if min_overlap <= 0.0:
        # separated: the largest per-axis gap is a lower bound on distance
        if dx * gap_x + dy * gap_y >= 0.0:
            nx, ny = gap_x, gap_y
        else:
            nx, ny = -gap_x, -gap_y
        # A's vertex furthest along n, B's vertex furthest against it
        k1 = ea1 * (1.0 if a1x * nx + a1y * ny >= 0.0 else -1.0)
        k2 = ea2 * (1.0 if a2x * nx + a2y * ny >= 0.0 else -1.0)
        sax, say = a1x * k1 + a2x * k2, a1y * k1 + a2y * k2
        k1 = -eb1 * (1.0 if b1x * nx + b1y * ny >= 0.0 else -1.0)
        k2 = -eb2 * (1.0 if b2x * nx + b2y * ny >= 0.0 else -1.0)
        sbx, sby = b1x * k1 + b2x * k2, b1y * k1 + b2y * k2
        qx, qy = dx + sbx, dy + sby
        return ContactInfo(
            colliding=False,
            phi=max_gap,
            rho=0.0,
            p_tilde=(c * sax + s * say, -s * sax + c * say),
            q_tilde=(c * qx + s * qy, -s * qx + c * qy),
            anchor_a=(sax, say),
            anchor_b=(sbx, sby),
            normal=(nx, ny),
            tangent=(-ny, nx),
            phi_approx=True,
        )

    if dx * best_x + dy * best_y >= 0.0:
        nx, ny = best_x, best_y
    else:
        nx, ny = -best_x, -best_y
    if best_owner == 0:
        # B's vertex penetrates A's face: deepest support of B against the normal
        k1 = -eb1 * (1.0 if b1x * nx + b1y * ny >= 0.0 else -1.0)
        k2 = -eb2 * (1.0 if b2x * nx + b2y * ny >= 0.0 else -1.0)
        wx = pb[0] + (b1x * k1 + b2x * k2)
        wy = pb[1] + (b1y * k1 + b2y * k2)
    else:
        # A's vertex penetrates B's face
        k1 = ea1 * (1.0 if a1x * nx + a1y * ny >= 0.0 else -1.0)
        k2 = ea2 * (1.0 if a2x * nx + a2y * ny >= 0.0 else -1.0)
        wx = pa[0] + (a1x * k1 + a2x * k2)
        wy = pa[1] + (a1y * k1 + a2y * k2)
    ax, ay = wx - pa[0], wy - pa[1]
    contact_local = (c * ax + s * ay, -s * ax + c * ay)
    return ContactInfo(
        colliding=True,
        phi=-min_overlap,
        rho=min_overlap,
        p_tilde=contact_local,
        q_tilde=contact_local,
        anchor_a=(ax, ay),
        anchor_b=(wx - pb[0], wy - pb[1]),
        normal=(nx, ny),
        tangent=(-ny, nx),
    )


# face scan order for the center-inside cuboid branch: +a1, -a1, +a2, -a2, +a3, -a3
_CUBOID_FACES: tuple[tuple[int, float], ...] = (
    (0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0), (2, 1.0), (2, -1.0),
)


def detect_sphere_cuboid(state_a: BodyState, cuboid: Cuboid,
                         state_b: BodyState, sphere: Sphere) -> ContactInfo:
    """Closest-point query between a cuboid (body A) and a sphere (body B).

    The closest cuboid point is the per-axis clamp of the sphere center in
    the cuboid frame.  A center on or inside the cuboid takes the inside
    branch: the penetration is the radius plus the distance to the nearest
    face, with ties broken in a fixed face order.
    """
    e0, e1, e2 = cuboid.half_extents
    radius = sphere.radius
    rot = quat_to_matrix(state_a.orientation)  # world from cuboid frame
    pa = state_a.position
    pb = state_b.position
    q0, q1, q2 = q = mat3_t_vec(rot, (pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]))
    k0 = max(-e0, min(e0, q0))
    k1 = max(-e1, min(e1, q1))
    k2 = max(-e2, min(e2, q2))
    d = math.sqrt((q0 - k0) * (q0 - k0) + (q1 - k1) * (q1 - k1)
                  + (q2 - k2) * (q2 - k2))

    if d < EPS_DEGENERATE:
        # center inside (or on the surface): nearest face, fixed tie-break order
        ext = (e0, e1, e2)
        best = math.inf
        n_local: Vec3 = (1.0, 0.0, 0.0)
        for axis, sign in _CUBOID_FACES:
            face_dist = ext[axis] - sign * q[axis]
            if face_dist < best:
                best = face_dist
                n_local = tuple(sign if i == axis else 0.0 for i in range(3))
        phi = d - radius
        rho = radius + best
        ux, uy, uz = n_local
        p_tilde = (q0 + ux * best, q1 + uy * best, q2 + uz * best)
    else:
        phi = d - radius
        rho = 0.0 if phi > 0.0 else -phi
        inv_d = 1.0 / d
        ux, uy, uz = (k0 - q0) * inv_d, (k1 - q1) * inv_d, (k2 - q2) * inv_d
        n_local = (-ux, -uy, -uz)  # center toward cuboid, negated
        p_tilde = (k0, k1, k2)

    q_m = (ux * radius, uy * radius, uz * radius)
    normal = mat3_vec(rot, n_local)
    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi,
        rho=rho,
        p_tilde=p_tilde,
        q_tilde=(q0 + q_m[0], q1 + q_m[1], q2 + q_m[2]),
        anchor_a=mat3_vec(rot, p_tilde),
        anchor_b=mat3_vec(rot, q_m),
        normal=normal,
        tangent=_tangent_3d(rot, normal),
    )


def _tangent_3d(rot, normal: Vec3) -> Vec3:
    """Deterministic unit tangent: body a3 cross normal, else a1 cross normal."""
    t = cross3(mat3_vec(rot, (0.0, 0.0, 1.0)), normal)
    n = math.sqrt(t[0] * t[0] + t[1] * t[1] + t[2] * t[2])
    if n < EPS_DEGENERATE:
        return normalize(cross3(mat3_vec(rot, (1.0, 0.0, 0.0)), normal))
    inv = 1.0 / n
    return (t[0] * inv, t[1] * inv, t[2] * inv)
