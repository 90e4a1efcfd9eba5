"""Narrow-phase detection as a convex minimum-distance program.

The minimum-distance pair between the two convex sets is found by
alternating exact Euclidean projections (clamp onto a box, radial scaling
onto a ball), which converges for convex sets without any external solver.
Interpenetration is recovered through the fictitious-radius construction:
the second body is shrunk by a margin ``b`` (radius reduction for
circles/spheres, half-extent erosion for rectangles), so the solver keeps a
positive surrogate separation while the true shapes overlap by up to ``b``.
Deeper penetrations cannot be measured and are reported as saturated.

Start points: a box–ball solve starts from the ball center, so its first
clamp is the box point nearest that center and the following projection onto
the ball completes the exact minimum-distance pair (two iterations).  A
ball–ball solve starts from the projection of the first center onto the
second ball, also exact after one sweep.  Only box–box starts from a warm
start, the previous step's solution kept in the pair's ``PairContext``.

The general quadratic-program form behind this (minimize a quadratic cost
subject to linear and norm inequality constraints) is documented here only;
the solver addresses the concrete box/ball instances directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .contact import ContactInfo
from .errors import DegenerateDirection, NotConverged, UnsupportedPair
from .geometry import (
    EPS_DEGENERATE,
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    Vec,
    Vec2,
    Vec3,
    add,
    distance,
    perp,
    quat_to_matrix,
    rot2_apply,
    rot2_apply_t,
    scale,
    sub,
)
from .sat import rect_circle_normal

_ACTIVE_SET_EPS = 1e-7  # slack for deciding which eroded-box constraints bind


@dataclass
class SolverSettings:
    """Tuning knobs for the alternating-projection solver.

    ``shrink_margin`` is the difference b between the true and fictitious
    radius (or half-extent); ``None`` selects the per-pair default of half
    the second body's radius or smallest half-extent.
    """

    tol: float = 1e-10
    max_iters: int = 10_000
    shrink_margin: Optional[float] = None
    record_history: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.shrink_margin is not None and not self.shrink_margin > 0.0:
            raise ValueError("shrink_margin must be positive")


class SolverResult(NamedTuple):
    """Converged minimum-distance pair and the surrogate separation."""

    p_tilde: Vec
    q_star: Vec
    phi_star: float
    iterations: int
    converged: bool
    history: Optional[tuple] = None


@dataclass
class PairContext:
    """Solver state owned by a single simulation stepper, one per pair.

    Every call records its iteration count in ``last_iterations``; only a
    box-box pair keeps its solution, pose and normal for the next step's
    warm start.
    """

    last_q_star: Optional[Vec] = None
    last_pose: Optional[tuple] = None
    last_normal: Optional[Vec] = None
    last_iterations: int = 0


def _clamp_box(p: Vec, half_extents: Sequence[float]) -> Vec:
    return tuple(max(-e, min(e, x)) for x, e in zip(p, half_extents))


def project_onto_rectangle(p: Vec2, c1: float, c2: float) -> Vec2:
    """Exact Euclidean projection onto a centered axis-aligned rectangle."""
    return _clamp_box(p, (c1, c2))


def project_onto_ball(p: Vec, center: Vec, radius: float) -> Vec:
    """Exact Euclidean projection onto a ball.

    A point coinciding with the center has no unique projection direction;
    that degenerate case maps to the surface point along the first axis.
    """
    d = distance(p, center)
    if d < EPS_DEGENERATE:
        offset = tuple(radius if i == 0 else 0.0 for i in range(len(center)))
        return add(center, offset)
    if d <= radius:
        return p
    return add(center, scale(sub(p, center), radius / d))


def _alternating_projections(
    project_first: Callable[[Vec], Vec],
    project_second: Callable[[Vec], Vec],
    start: Vec,
    settings: SolverSettings,
) -> SolverResult:
    """Alternate exact projections until the iterates or the distance stall.

    The pair distance is Fejer-monotone (each exact projection cannot
    increase it), so the displacement test terminates for convex sets;
    disjoint sets yield the unique minimum-distance pair, intersecting sets
    a common point at distance zero.  Two boxes with nearly parallel faces
    have a near-flat set of minimizers: the iterates keep creeping along the
    faces (displacement above tol) long after the distance has converged, so
    the box-box solve also stops once the pair distance stops improving.
    """
    p_prev: Optional[Vec] = None
    q_prev = start
    d_prev = math.inf
    displacement = math.inf
    for iteration in range(1, settings.max_iters + 1):
        p = project_first(q_prev)
        q = project_second(p)
        d = distance(p, q)
        if p_prev is not None:
            displacement = max(distance(p, p_prev), distance(q, q_prev))
            if displacement < settings.tol or abs(d_prev - d) < settings.tol:
                return SolverResult(p_tilde=p, q_star=q, phi_star=d,
                                    iterations=iteration, converged=True)
        p_prev, q_prev, d_prev = p, q, d
    raise NotConverged(settings.max_iters, displacement)


def min_distance_pair(
    half_extents: Sequence[float],
    center: Vec,
    radius: float,
    settings: Optional[SolverSettings] = None,
    initial: Optional[Vec] = None,
) -> SolverResult:
    """Minimum-distance pair between a centered 2D or 3D box and a ball.

    The default starting iterate is the ball center: its clamp onto the box
    is the box point nearest the ball, so the pair is exact after two
    iterations.  ``initial`` overrides the start.
    """
    settings = settings or SolverSettings()
    start = center if initial is None else initial
    if len(half_extents) == 2:
        c1, c2 = half_extents
        px, py, _, qx, qy, _, d, iterations, history = _box_ball(
            float(c1), float(c2), 0.0, center[0], center[1], 0.0, radius,
            start[0], start[1], 0.0, settings)
        p_tilde, q_star = (px, py), (qx, qy)
    elif len(half_extents) == 3:
        c1, c2, c3 = half_extents
        px, py, pz, qx, qy, qz, d, iterations, history = _box_ball(
            float(c1), float(c2), float(c3), center[0], center[1], center[2],
            radius, start[0], start[1], start[2], settings)
        p_tilde, q_star = (px, py, pz), (qx, qy, qz)
    else:
        raise ValueError(f"box must be 2D or 3D, got {len(half_extents)} half-extents")
    return SolverResult(
        p_tilde=p_tilde,
        q_star=q_star,
        phi_star=d,
        iterations=iterations,
        converged=True,
        history=tuple(history) if history is not None else None,
    )


# The box-ball and ball-ball solves alternate the same exact projections in
# scalar arithmetic, each operation in the order the tuple helpers use, and
# stop on the displacement test alone (balls are strictly convex).  Their
# ball projection is the exact one onto the solid ball: a point inside, its
# center included, stays where it is.

def _box_ball(c1: float, c2: float, c3: float, cx: float, cy: float,
              cz: float, r: float, x: float, y: float, z: float,
              settings: SolverSettings) -> tuple:
    """Box |x| <= c1, |y| <= c2, |z| <= c3 against the ball of radius r at
    (cx, cy, cz), from the ball iterate (x, y, z).

    Returns the box point, the ball point, their distance, the iteration
    count and the distance history (None unless ``settings.record_history``).
    A 2D box runs as c3 = cz = z = 0.0: every z term is then +0.0, which
    leaves each x and y result bit for bit as 2D arithmetic gives it.
    """
    history = [] if settings.record_history else None
    tol = settings.tol
    m1, m2, m3 = -c1, -c2, -c3
    displacement = math.inf
    px_prev = py_prev = pz_prev = 0.0
    for iteration in range(1, settings.max_iters + 1):
        px = m1 if x < m1 else (x if x < c1 else c1)
        py = m2 if y < m2 else (y if y < c2 else c2)
        pz = m3 if z < m3 else (z if z < c3 else c3)
        dx = px - cx
        dy = py - cy
        dz = pz - cz
        dist = math.sqrt(dx * dx + dy * dy + dz * dz)
        if dist <= r:
            qx, qy, qz = px, py, pz
        else:
            k = r / dist
            qx = cx + dx * k
            qy = cy + dy * k
            qz = cz + dz * k
        ex = px - qx
        ey = py - qy
        ez = pz - qz
        d = math.sqrt(ex * ex + ey * ey + ez * ez)
        if history is not None:
            history.append(d)
        if iteration > 1:
            ex = px - px_prev
            ey = py - py_prev
            ez = pz - pz_prev
            step_p = math.sqrt(ex * ex + ey * ey + ez * ez)
            ex = qx - x
            ey = qy - y
            ez = qz - z
            step_q = math.sqrt(ex * ex + ey * ey + ez * ez)
            displacement = step_q if step_q > step_p else step_p
            if displacement < tol:
                return px, py, pz, qx, qy, qz, d, iteration, history
        px_prev, py_prev, pz_prev, x, y, z = px, py, pz, qx, qy, qz
    raise NotConverged(settings.max_iters, displacement)


def _ball_ball_2d(ra: float, cx: float, cy: float, r: float, x: float,
                  y: float, settings: SolverSettings) -> tuple:
    """Ball of radius ra at the origin against the ball of radius r at (cx, cy).

    ``(x, y)`` is the starting iterate on the second ball.  Returns the two
    points, their distance and the iteration count.
    """
    tol = settings.tol
    displacement = math.inf
    px_prev = py_prev = 0.0
    for iteration in range(1, settings.max_iters + 1):
        dist = math.sqrt(x * x + y * y)
        if dist <= ra:
            px, py = x, y
        else:
            k = ra / dist
            # 0.0 + keeps the zero sign of the generic add to the origin
            px = 0.0 + x * k
            py = 0.0 + y * k
        dx = px - cx
        dy = py - cy
        dist = math.sqrt(dx * dx + dy * dy)
        if dist <= r:
            qx, qy = px, py
        else:
            k = r / dist
            qx = cx + dx * k
            qy = cy + dy * k
        ex = px - qx
        ey = py - qy
        d = math.sqrt(ex * ex + ey * ey)
        if iteration > 1:
            ex = px - px_prev
            ey = py - py_prev
            step_p = math.sqrt(ex * ex + ey * ey)
            ex = qx - x
            ey = qy - y
            step_q = math.sqrt(ex * ex + ey * ey)
            displacement = step_q if step_q > step_p else step_p
            if displacement < tol:
                return px, py, qx, qy, d, iteration
        px_prev, py_prev, x, y = px, py, qx, qy
    raise NotConverged(settings.max_iters, displacement)


def rho_from_surrogate(phi_star: float, b: float) -> tuple[float, bool]:
    """Recover interpenetration from the surrogate separation.

    A surrogate separation below ``EPS_DEGENERATE`` (where the detectors
    also switch to their fallback normal) means the fictitious shapes touch
    and the true penetration exceeds the measurable range; the result clamps
    to ``b`` and is flagged saturated.
    """
    if phi_star > b:
        return 0.0, False
    if phi_star >= EPS_DEGENERATE:
        return b - phi_star, False
    return b, True


def normal_tangent(p_tilde: Vec, q_star: Vec) -> tuple[Vec, Vec]:
    """Contact normal from the minimum-distance pair, plus a unit tangent.

    The normal points from the first body's point toward the second's.  In
    2D the tangent is the +90 degree rotation of the normal; in 3D it is the
    out-of-plane axis crossed with the normal (first axis when parallel).
    """
    d = distance(p_tilde, q_star)
    if d < EPS_DEGENERATE:
        raise DegenerateDirection("minimum-distance points coincide")
    n = scale(sub(q_star, p_tilde), 1.0 / d)
    if len(n) == 2:
        return n, perp(n)
    return n, _tangent3(*n)


def _tangent3(nx: float, ny: float, nz: float) -> Vec3:
    """Unit tangent of a 3D unit normal: e3 x n, or e1 x n when parallel."""
    tx = 0.0 * nz - ny
    ty = nx - 0.0 * nz
    tz = 0.0 * ny - 0.0 * nx
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    if t < EPS_DEGENERATE:
        tx = 0.0 * nz - 0.0 * ny
        ty = 0.0 * nx - nz
        tz = ny - 0.0 * nx
        t = math.sqrt(tx * tx + ty * ty + tz * tz)
    inv = 1.0 / t
    return (tx * inv, ty * inv, tz * inv)


# ---------------------------------------------------------------------------
# full detection entry point

def detect_convex(state_a: BodyState, shape_a, state_b: BodyState, shape_b,
                  settings: Optional[SolverSettings] = None,
                  context: Optional[PairContext] = None) -> ContactInfo:
    """Convex-program narrow phase for the four supported shape pairings.

    A ``NotConverged`` from the solver is raised again with the pairing and
    both bodies' position and orientation.
    """
    entry = _PAIRINGS.get((type(shape_a), type(shape_b)))
    if entry is None:
        raise UnsupportedPair(
            f"convex backend does not support {type(shape_a).__name__}-"
            f"{type(shape_b).__name__}"
        )
    pairing, detect = entry
    try:
        return detect(state_a, shape_a, state_b, shape_b,
                      settings or SolverSettings(), context)
    except NotConverged as exc:
        raise NotConverged(
            exc.iterations, exc.displacement, pairing,
            (state_a.position, state_a.orientation),
            (state_b.position, state_b.orientation),
        ) from None


def _resolve_margin(settings: SolverSettings, limit: float, what: str) -> float:
    b = settings.shrink_margin if settings.shrink_margin is not None else 0.5 * limit
    if not 0.0 < b < limit:
        raise ValueError(f"shrink margin must lie in (0, {limit}) for {what}, got {b}")
    return b


def _pose_delta(pose_now: tuple, pose_then: tuple) -> float:
    """Summed change of a box-box pose (r_a, theta_a, r_b, theta_b)."""
    (ax, ay), theta_a, (bx, by), theta_b = pose_now
    (ax0, ay0), theta_a0, (bx0, by0), theta_b0 = pose_then
    dax = ax - ax0
    day = ay - ay0
    dbx = bx - bx0
    dby = by - by0
    return (math.sqrt(dax * dax + day * day) + abs(theta_a - theta_a0)
            + math.sqrt(dbx * dbx + dby * dby) + abs(theta_b - theta_b0))


def _warm_start(context: Optional[PairContext], pose: tuple, b: float) -> Optional[Vec]:
    if context is None or context.last_q_star is None or context.last_pose is None:
        return None
    if _pose_delta(pose, context.last_pose) < 10.0 * b:
        return context.last_q_star
    return None


def _convex_rect_circle(state_a: BodyState, rect: Rectangle, state_b: BodyState,
                        circle: Circle, settings: SolverSettings,
                        context: Optional[PairContext]) -> ContactInfo:
    c1, c2 = rect.half_length, rect.half_width
    radius = circle.radius
    b = _resolve_margin(settings, radius, "circle shrink")
    theta = state_a.orientation
    c = math.cos(theta)
    s = math.sin(theta)
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    q0 = c * rx + s * ry  # circle center in the rectangle frame
    q1 = -s * rx + c * ry

    px, py, _, qx, qy, _, phi_star, iterations, _ = _box_ball(
        c1, c2, 0.0, q0, q1, 0.0, radius - b, q0, q1, 0.0, settings)
    rho, saturated = rho_from_surrogate(phi_star, b)
    if phi_star < EPS_DEGENERATE:
        (nx, ny), _ = rect_circle_normal((q0, q1), c1, c2)
    else:
        inv = 1.0 / phi_star
        nx = (qx - px) * inv
        ny = (qy - py) * inv
    tx, ty = -ny, nx

    # minimum-distance point and force anchor on the true (unshrunk) circle
    dx = px - q0
    dy = py - q1
    d = math.sqrt(dx * dx + dy * dy)
    if d >= EPS_DEGENERATE:
        inv = 1.0 / d
        mx = dx * inv * radius
        my = dy * inv * radius
    else:
        mx = nx * radius
        my = ny * radius

    if context is not None:
        context.last_iterations = iterations
    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi_star - b,
        rho=rho,
        p_tilde=(px, py),
        q_tilde=(q0 + mx, q1 + my),
        anchor_a=(c * px - s * py, s * px + c * py),
        anchor_b=(c * mx - s * my, s * mx + c * my),
        normal=(c * nx - s * ny, s * nx + c * ny),
        tangent=(c * tx - s * ty, s * tx + c * ty),
        saturated=saturated,
    )


def _convex_circle_circle(state_a: BodyState, circle_a: Circle, state_b: BodyState,
                          circle_b: Circle, settings: SolverSettings,
                          context: Optional[PairContext]) -> ContactInfo:
    ra, rb = circle_a.radius, circle_b.radius
    b = _resolve_margin(settings, rb, "circle shrink")
    theta = state_a.orientation
    c = math.cos(theta)
    s = math.sin(theta)
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    q0 = c * rx + s * ry  # second center in the first body's frame
    q1 = -s * rx + c * ry
    rb_star = rb - b

    # start: the first center projected onto the shrunk second ball (the
    # center itself when it lies inside)
    d_centers = math.sqrt(q0 * q0 + q1 * q1)
    if d_centers <= rb_star:
        x, y = 0.0, 0.0
    else:
        k = rb_star / d_centers
        x = q0 + (0.0 - q0) * k
        y = q1 + (0.0 - q1) * k
    px, py, qx, qy, phi_star, iterations = _ball_ball_2d(
        ra, q0, q1, rb_star, x, y, settings)
    rho, saturated = rho_from_surrogate(phi_star, b)
    if phi_star >= EPS_DEGENERATE:
        inv = 1.0 / phi_star
        nx = (qx - px) * inv
        ny = (qy - py) * inv
    elif d_centers >= EPS_DEGENERATE:
        inv = 1.0 / d_centers
        nx = q0 * inv
        ny = q1 * inv
    else:
        nx, ny = 1.0, 0.0
    tx, ty = -ny, nx

    dx = px - q0
    dy = py - q1
    d = math.sqrt(dx * dx + dy * dy)
    if d >= EPS_DEGENERATE:
        inv = 1.0 / d
        mx = dx * inv * rb
        my = dy * inv * rb
    else:
        mx = -nx * rb
        my = -ny * rb

    if context is not None:
        context.last_iterations = iterations
    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi_star - b,
        rho=rho,
        p_tilde=(px, py),
        q_tilde=(q0 + mx, q1 + my),
        anchor_a=(c * px - s * py, s * px + c * py),
        anchor_b=(c * mx - s * my, s * mx + c * my),
        normal=(c * nx - s * ny, s * nx + c * ny),
        tangent=(c * tx - s * ty, s * tx + c * ty),
        saturated=saturated,
    )


def _convex_rect_rect(state_a: BodyState, rect_a: Rectangle, state_b: BodyState,
                      rect_b: Rectangle, settings: SolverSettings,
                      context: Optional[PairContext]) -> ContactInfo:
    ha1, ha2 = ext_a = (rect_a.half_length, rect_a.half_width)
    hb1, hb2 = rect_b.half_length, rect_b.half_width
    b = _resolve_margin(settings, min(hb1, hb2), "rectangle erosion")
    e1, e2 = ext_b_eroded = (hb1 - b, hb2 - b)
    theta_a = state_a.orientation
    theta_b = state_b.orientation
    r_a, r_b = state_a.position, state_b.position
    pose = (r_a, theta_a, r_b, theta_b)

    def to_frame_b(p: Vec2) -> Vec2:
        world = add(r_a, rot2_apply_t(theta_a, p))
        return rot2_apply(theta_b, sub(world, r_b))

    def from_frame_b(y: Vec2) -> Vec2:
        world = add(r_b, rot2_apply_t(theta_b, y))
        return rot2_apply(theta_a, sub(world, r_a))

    def project_b(p: Vec2) -> Vec2:
        return from_frame_b(_clamp_box(to_frame_b(p), ext_b_eroded))

    start = _warm_start(context, pose, b)
    if start is None:
        start = project_b((0.0, 0.0))
    result = _alternating_projections(
        lambda y: _clamp_box(y, ext_a),
        project_b,
        start,
        settings,
    )
    p_tilde = result.p_tilde
    q_star = result.q_star
    rho, saturated = rho_from_surrogate(result.phi_star, b)

    # The tail repeats the frame maps above in explicit 2D arithmetic, one
    # cos/sin pair per body, each operation in the order of the tuple
    # helpers, so every result keeps its bits.  The solver loop keeps its
    # closures on purpose: a faster box-box loop fits more passes into the
    # cold-detect benchmark, which keeps every pass's call times, and that
    # would push its peak memory past the bound.
    ca = math.cos(theta_a)
    sa = math.sin(theta_a)
    cb = math.cos(theta_b)
    sb = math.sin(theta_b)
    ax, ay = r_a
    bx, by = r_b
    rx = bx - ax
    ry = by - ay
    px, py = p_tilde
    qx, qy = q_star

    dx = px - qx
    dy = py - qy
    d = math.sqrt(dx * dx + dy * dy)
    if d >= EPS_DEGENERATE:
        inv = 1.0 / d
        nx = (qx - px) * inv
        ny = (qy - py) * inv
    elif context is not None and context.last_normal is not None:
        # coincident points: the previous step's normal, else the direction
        # between the centers, else the first axis
        lx, ly = context.last_normal
        nx = ca * lx + sa * ly
        ny = -sa * lx + ca * ly
    else:
        d_centers = math.sqrt(rx * rx + ry * ry)
        if d_centers >= EPS_DEGENERATE:
            inv = 1.0 / d_centers
            ux = rx * inv
            uy = ry * inv
            nx = ca * ux + sa * uy
            ny = -sa * ux + ca * uy
        else:
            nx, ny = 1.0, 0.0
    tx, ty = -ny, nx

    # push the eroded-box solution out to the true surface along its active
    # constraints (exact for face and corner contacts)
    wx = ax + (ca * qx - sa * qy) - bx
    wy = ay + (sa * qx + ca * qy) - by
    yx = cb * wx + sb * wy  # q_star in the second body's frame
    yy = -sb * wx + cb * wy
    active_x = abs(yx) >= e1 - _ACTIVE_SET_EPS
    active_y = abs(yy) >= e2 - _ACTIVE_SET_EPS
    if not saturated:
        if active_x:
            yx = math.copysign(hb1, yx)
        if active_y:
            yy = math.copysign(hb2, yy)
    wx = bx + (cb * yx - sb * yy) - ax
    wy = by + (sb * yx + cb * yy) - ay
    q_tilde = (ca * wx + sa * wy, -sa * wx + ca * wy)

    # anchor points in the first body's frame, from its center (u) and from
    # the second body's center (v)
    (ux, uy), (vx, vy) = p_tilde, q_tilde
    colliding = rho > 0.0
    if colliding:
        # single contact point, mirroring the closed-form backend: the first
        # body's vertex when its solution sits on a corner, otherwise the
        # second body's recovered surface point
        if abs(px) >= ha1 - _ACTIVE_SET_EPS and abs(py) >= ha2 - _ACTIVE_SET_EPS \
                and not (active_x and active_y):
            vx, vy = ux, uy
        else:
            ux, uy = vx, vy
    vx = vx - (ca * rx + sa * ry)
    vy = vy - (-sa * rx + ca * ry)

    normal_world = (ca * nx - sa * ny, sa * nx + ca * ny)
    if context is not None:
        context.last_q_star = q_star
        context.last_pose = pose
        context.last_normal = normal_world
        context.last_iterations = result.iterations
    return ContactInfo(
        colliding=colliding,
        phi=result.phi_star - b,
        rho=rho,
        p_tilde=p_tilde,
        q_tilde=q_tilde,
        anchor_a=(ca * ux - sa * uy, sa * ux + ca * uy),
        anchor_b=(ca * vx - sa * vy, sa * vx + ca * vy),
        normal=normal_world,
        tangent=(ca * tx - sa * ty, sa * tx + ca * ty),
        saturated=saturated,
        phi_approx=True,
    )


def _inside_face_normal(q: Vec, half_extents: Sequence[float]) -> Vec:
    """Outward normal of the nearest face for an interior point (fixed tie order)."""
    best = math.inf
    best_axis = 0
    best_sign = 1.0
    for axis in range(len(half_extents)):
        for sign in (1.0, -1.0):
            face_dist = half_extents[axis] - sign * q[axis]
            if face_dist < best:
                best = face_dist
                best_axis = axis
                best_sign = sign
    return tuple(best_sign if i == best_axis else 0.0 for i in range(len(half_extents)))


def _convex_cuboid_sphere(state_a: BodyState, cuboid: Cuboid, state_b: BodyState,
                          sphere: Sphere, settings: SolverSettings,
                          context: Optional[PairContext]) -> ContactInfo:
    e0, e1, e2 = ext = cuboid.half_extents
    radius = sphere.radius
    b = _resolve_margin(settings, radius, "sphere shrink")
    # world from cuboid frame
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = \
        quat_to_matrix(state_a.orientation)
    pa = state_a.position
    pb = state_b.position
    rx = pb[0] - pa[0]
    ry = pb[1] - pa[1]
    rz = pb[2] - pa[2]
    q0 = m00 * rx + m10 * ry + m20 * rz  # sphere center in the cuboid frame
    q1 = m01 * rx + m11 * ry + m21 * rz
    q2 = m02 * rx + m12 * ry + m22 * rz

    px, py, pz, qx, qy, qz, phi_star, iterations, _ = _box_ball(
        e0, e1, e2, q0, q1, q2, radius - b, q0, q1, q2, settings)
    rho, saturated = rho_from_surrogate(phi_star, b)
    if phi_star >= EPS_DEGENERATE:
        inv = 1.0 / phi_star
        nx = (qx - px) * inv
        ny = (qy - py) * inv
        nz = (qz - pz) * inv
    else:
        q = (q0, q1, q2)
        clamped = _clamp_box(q, ext)
        d = distance(q, clamped)
        if d >= EPS_DEGENERATE:
            nx, ny, nz = scale(sub(q, clamped), 1.0 / d)
        else:
            nx, ny, nz = _inside_face_normal(q, ext)
    tx, ty, tz = _tangent3(nx, ny, nz)

    dx = px - q0
    dy = py - q1
    dz = pz - q2
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    if d >= EPS_DEGENERATE:
        inv = 1.0 / d
        mx = dx * inv * radius
        my = dy * inv * radius
        mz = dz * inv * radius
    else:
        mx = nx * radius
        my = ny * radius
        mz = nz * radius

    if context is not None:
        context.last_iterations = iterations
    return ContactInfo(
        colliding=rho > 0.0,
        phi=phi_star - b,
        rho=rho,
        p_tilde=(px, py, pz),
        q_tilde=(q0 + mx, q1 + my, q2 + mz),
        anchor_a=(m00 * px + m01 * py + m02 * pz,
                  m10 * px + m11 * py + m12 * pz,
                  m20 * px + m21 * py + m22 * pz),
        anchor_b=(m00 * mx + m01 * my + m02 * mz,
                  m10 * mx + m11 * my + m12 * mz,
                  m20 * mx + m21 * my + m22 * mz),
        normal=(m00 * nx + m01 * ny + m02 * nz,
                m10 * nx + m11 * ny + m12 * nz,
                m20 * nx + m21 * ny + m22 * nz),
        tangent=(m00 * tx + m01 * ty + m02 * tz,
                 m10 * tx + m11 * ty + m12 * tz,
                 m20 * tx + m21 * ty + m22 * tz),
        saturated=saturated,
    )


# (shape type A, shape type B): pairing name, detector
_PAIRINGS = {
    (Rectangle, Circle): ("rect-circle", _convex_rect_circle),
    (Circle, Circle): ("circle-circle", _convex_circle_circle),
    (Rectangle, Rectangle): ("rect-rect", _convex_rect_rect),
    (Cuboid, Sphere): ("sphere-cuboid", _convex_cuboid_sphere),
}
