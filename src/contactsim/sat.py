"""Closed-form / separating-axis narrow-phase detection.

``PAIRINGS`` is the one table of the engine's four shape pairings:
rectangle-circle, circle-circle, rectangle-rectangle (2D) and cuboid-sphere
(3D).  It maps the shape types of bodies A and B, in the order its detector
takes them, to the pairing's name and closed-form detector.  Both backends
and the benchmark dispatch from it: co calls the three ball detectors and
adds only the shrink margin.  The two box-ball pairings are one rule,
``_box_ball_contact``, in the box's frame, by the convention and through
the frame maps of ``contact``; a rectangle runs as a box with a zero third
axis.  Its box point is the clamp of the ball center
(``geometry.box_clamp``), and a center on or in the box takes
``geometry.nearest_face``.  circle-circle and rectangle-rectangle work in
the world frame and build their result with ``contact.world_contact_2d``.
Signs follow sgn(0) = +1 (``1.0 if x >= 0.0 else -1.0``), which keeps the
support tie-breaks of rectangle-rectangle total.
"""
from __future__ import annotations

import math

from .contact import (
    ContactInfo,
    ball_contact_2d,
    ball_contact_3d,
    body_frame_2d,
    body_frame_3d,
    world_contact_2d,
)
from .geometry import (
    EPS_DEGENERATE,
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    Vec,
    box_clamp,
    nearest_face,
)


def _box_ball_contact(ext: Vec, q0: float, q1: float, q2: float,
                      radius: float) -> tuple:
    """The box-ball rule in the box frame, for a box of half-extents ``ext``
    and a ball of ``radius`` centered at (q0, q1, q2); a 2D box runs as
    q2 = 0.0.

    The box point is the clamp of the center, and the normal the direction
    from it to the center.  A center on or in the box must travel to the
    nearest face plus its radius to get clear: its depth is the radius plus
    that face's distance, and its point and normal are that face's.  Returns
    phi, rho, the box point, its offset from the center and the offset's
    length, and the normal, each point and vector with three components.
    """
    px, py, pz, dx, dy, dz, d = box_clamp(ext, q0, q1, q2)
    phi = d - radius
    if d < EPS_DEGENERATE:
        best, n = nearest_face((q0, q1, q2), ext)
        nx, ny, nz = n
        return (phi, radius + best, (q0 + nx * best, q1 + ny * best, q2 + nz * best),
                dx, dy, dz, d, n)
    return (phi, 0.0 if phi >= 0.0 else -phi, (px, py, pz), dx, dy, dz, d,
            ((q0 - px) / d, (q1 - py) / d, (q2 - pz) / d))


def detect_rect_circle(state_a: BodyState, rect: Rectangle,
                       state_b: BodyState, circle: Circle) -> ContactInfo:
    """Closest-point query between a rectangle (body A) and a circle (body B)."""
    c, s, q0, q1 = body_frame_2d(state_a, state_b)
    phi, rho, (px, py, _), dx, dy, _, d, (nx, ny, _) = _box_ball_contact(
        (rect.half_length, rect.half_width), q0, q1, 0.0, circle.radius)
    return ball_contact_2d(c, s, phi, rho, (px, py), (q0, q1), dx, dy, d,
                           circle.radius, (nx, ny))


def detect_circle_circle(state_a: BodyState, circle_a: Circle,
                         state_b: BodyState, circle_b: Circle) -> ContactInfo:
    """Narrow-phase query between two circles; a single center-line test."""
    ra, rb = circle_a.radius, circle_b.radius
    pa = state_a.position
    pb = state_b.position
    dx = pb[0] - pa[0]
    dy = pb[1] - pa[1]
    d = math.hypot(dx, dy)
    phi = d - ra - rb
    if d < EPS_DEGENERATE:
        # concentric fallback: pick a fixed direction, full overlap depth
        ux, uy = 1.0, 0.0
        rho = ra + rb
    else:
        inv_d = 1.0 / d
        ux, uy = dx * inv_d, dy * inv_d
        rho = 0.0 if phi >= 0.0 else -phi

    neg_rb = -rb
    bx, by = ux * neg_rb, uy * neg_rb
    theta = state_a.orientation
    return world_contact_2d(math.cos(theta), math.sin(theta), phi, rho,
                            (ux * ra, uy * ra), (dx + bx, dy + by), (bx, by),
                            (ux, uy))


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

    if min_overlap <= 0.0:
        # separated: the largest per-axis gap is a lower bound on distance
        if dx * gap_x + dy * gap_y >= 0.0:
            nx, ny = gap_x, gap_y
        else:
            nx, ny = -gap_x, -gap_y
        # A's vertex furthest along n, B's vertex furthest against it
        k1 = ea1 * (1.0 if a1x * nx + a1y * ny >= 0.0 else -1.0)
        k2 = ea2 * (1.0 if a2x * nx + a2y * ny >= 0.0 else -1.0)
        support_a = (a1x * k1 + a2x * k2, a1y * k1 + a2y * k2)
        k1 = -eb1 * (1.0 if b1x * nx + b1y * ny >= 0.0 else -1.0)
        k2 = -eb2 * (1.0 if b2x * nx + b2y * ny >= 0.0 else -1.0)
        sbx, sby = b1x * k1 + b2x * k2, b1y * k1 + b2y * k2
        return world_contact_2d(ca, sa, max_gap, 0.0, support_a,
                                (dx + sbx, dy + sby), (sbx, sby), (nx, ny), True)

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
    contact = (wx - pa[0], wy - pa[1])
    return world_contact_2d(ca, sa, -min_overlap, min_overlap, contact, contact,
                            (wx - pb[0], wy - pb[1]), (nx, ny))


def detect_sphere_cuboid(state_a: BodyState, cuboid: Cuboid,
                         state_b: BodyState, sphere: Sphere) -> ContactInfo:
    """Closest-point query between a cuboid (body A) and a sphere (body B)."""
    rot, q0, q1, q2 = body_frame_3d(state_a, state_b)
    phi, rho, p, dx, dy, dz, d, n = _box_ball_contact(cuboid.half_extents, q0,
                                                      q1, q2, sphere.radius)
    return ball_contact_3d(rot, phi, rho, p, (q0, q1, q2), dx, dy, dz, d,
                           sphere.radius, n)


# (shape type A, shape type B): pairing name, closed-form detector
PAIRINGS = {
    (Rectangle, Circle): ("rect-circle", detect_rect_circle),
    (Circle, Circle): ("circle-circle", detect_circle_circle),
    (Rectangle, Rectangle): ("rect-rect", detect_rect_rect),
    (Cuboid, Sphere): ("sphere-cuboid", detect_sphere_cuboid),
}
