"""Fixed-step rigid-body simulator: detection, resolution, state update.

A run builds one step plan (per pair its detector, body order and co
context, per body its box function), then each step visits every pair of the
plan.  A pair (i, j), i < j, keeps its bodies in the order of its entry in
``sat.PAIRINGS`` from plan to wrench: ``_StepPlan.pairs`` holds
``(pair, first, second, detector, shape_first, shape_second, context)``,
where ``first`` is body A of the detector, j when only the reversed type
pair is in the table.  Detection, the penalty and the wrenches all take the
bodies in that order, so a ``PairDiagnostic.info`` is oriented from
``first`` to ``second``; an event keeps ``pair = (i, j)``.  A pair whose
padded world-axis boxes are apart on some axis cannot touch, so it skips the
narrow phase.  Colliding contacts feed the penalty resolver, the
center-of-mass wrenches accumulate per body in pair order (fixed order keeps
runs bit-deterministic) and a semi-implicit Euler step advances the states:
velocities first, then positions with the updated velocities.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Mapping, NamedTuple, Optional, Tuple

from . import convex, sat
from .contact import ContactInfo
from .errors import ContactSimError, NotConverged, UnsupportedPair
from .geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Shape,
    Sphere,
    Vec,
    mat3_inverse,
    mat3_vec,
    quat_to_matrix,
)
from .penalty import (
    BodyWrench,
    MaterialParams,
    contact_force,
    relative_velocity_at_contact,
    wrench_on_bodies,
)
from .scenarios import build_scenario

logger = logging.getLogger("contactsim.simulate")

# Step count cap of one run: every step keeps a sample, so an unbounded count
# would allocate until memory runs out (333x the longest registry run).
MAX_STEPS = 1_000_000


class Backend(Enum):
    SAT = "sat"
    CO = "co"


@dataclass
class SimConfig:
    """Run parameters.

    ``duration`` and ``material`` of None keep the scenario defaults (a bare
    run_world falls back to 2 s and default materials).  A duration shorter
    than ``dt`` runs one step, as every run takes at least one.  Gravity
    belongs to the scenario: change it with ``run_scenario``'s
    ``{"gravity": [...]}`` override, which also checks its dimension against
    the bodies.
    """

    dt: float = 1e-3
    duration: Optional[float] = None
    backend: Backend = Backend.SAT
    solver: convex.SolverSettings = field(default_factory=convex.SolverSettings)
    material: Optional[MaterialParams] = None

    def __post_init__(self):
        if isinstance(self.backend, str):
            self.backend = Backend(self.backend)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt}")
        if self.duration is not None and not (self.duration > 0.0
                                              and math.isfinite(self.duration)):
            raise ValueError(f"duration must be a positive finite number, got "
                             f"{self.duration}")


class ContactEvent(NamedTuple):
    """One resolved contact at force-application resolution."""

    t: float
    pair: Tuple[int, int]
    phi: float
    rho: float
    f_normal: float
    f_tangent: float
    saturated: bool


class PairDiagnostic(NamedTuple):
    """Narrow-phase result of one colliding pair and its resolver forces.

    ``pair`` is (i, j) with i < j; ``info`` is in the detector's order, so
    its A is body j when the pair's type pair is in ``sat.PAIRINGS`` only
    reversed.
    """

    pair: Tuple[int, int]
    info: ContactInfo
    f_normal: float
    f_tangent: float


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed body states plus the contact-event log of one run."""

    samples: Tuple[Tuple[float, Tuple[BodyState, ...]], ...]
    events: Tuple[ContactEvent, ...]
    shapes: Tuple[Shape, ...]

    @property
    def dim(self) -> int:
        return self.samples[0][1][0].dim if self.samples else 2


# sat's detector per type pair, a view of ``sat.PAIRINGS``.  A table of its
# own only because the benchmark's tracer wraps its entries; ``_step_plan``
# reads it when a run starts.
_DETECTORS_SAT = {key: detector for key, (_, detector) in sat.PAIRINGS.items()}

# Relative padding of a world-axis box, far above the rounding of the box's
# own arithmetic and of either backend's verdict on a pose near touching.
_BOX_PAD = 1e-9


# Padded world-axis boxes, one function per shape type: low and high x, y and
# z in turn.  The half-extents are the radius of a circle or sphere and |R|·e
# of a rectangle or cuboid; each side is padded by ``_BOX_PAD`` times the
# coordinate's magnitude plus the half-extent.  A 2D box spans z = 0.

def _ball_box(state: BodyState, ball) -> tuple:
    position = state.position
    x, y = position[0], position[1]
    r = ball.radius
    hx = r + _BOX_PAD * (abs(x) + r)
    hy = r + _BOX_PAD * (abs(y) + r)
    if len(position) == 2:
        return (x - hx, x + hx, y - hy, y + hy, 0.0, 0.0)
    z = position[2]
    hz = r + _BOX_PAD * (abs(z) + r)
    return (x - hx, x + hx, y - hy, y + hy, z - hz, z + hz)


def _rect_box(state: BodyState, rect: Rectangle) -> tuple:
    x, y = state.position
    c = abs(math.cos(state.orientation))
    s = abs(math.sin(state.orientation))
    hx = c * rect.half_length + s * rect.half_width
    hy = s * rect.half_length + c * rect.half_width
    hx += _BOX_PAD * (abs(x) + hx)
    hy += _BOX_PAD * (abs(y) + hy)
    return (x - hx, x + hx, y - hy, y + hy, 0.0, 0.0)


def _cuboid_box(state: BodyState, cuboid: Cuboid) -> tuple:
    x, y, z = state.position
    e0, e1, e2 = cuboid.half_extents
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = \
        quat_to_matrix(state.orientation)
    hx = abs(m00) * e0 + abs(m01) * e1 + abs(m02) * e2
    hy = abs(m10) * e0 + abs(m11) * e1 + abs(m12) * e2
    hz = abs(m20) * e0 + abs(m21) * e1 + abs(m22) * e2
    hx += _BOX_PAD * (abs(x) + hx)
    hy += _BOX_PAD * (abs(y) + hy)
    hz += _BOX_PAD * (abs(z) + hz)
    return (x - hx, x + hx, y - hy, y + hy, z - hz, z + hz)


_BOXES = {Circle: _ball_box, Rectangle: _rect_box, Sphere: _ball_box,
          Cuboid: _cuboid_box}


class _StepPlan(NamedTuple):
    """What a run fixes before its first step; see ``_step_plan``."""

    pairs: tuple   # (pair, first, second, detector, shape_first, shape_second, context)
    boxes: tuple   # a static body's box, None for a moving one
    moving: tuple  # (k, box function, shape) of each moving body


def _step_plan(states, shapes, config: SimConfig) -> _StepPlan:
    """Check every pair once and fix what each step of a run reuses.

    Per pair: the detector, read now from ``_DETECTORS_SAT`` or
    ``convex.detect_convex``; the bodies and shapes in its order, j first
    when only the reversed type pair is in ``_DETECTORS_SAT``; and for co a
    ``PairContext``.  A pair whose boxes stay apart never reaches the narrow
    phase, which is where an unsupported pairing or a co shrink margin out
    of range would otherwise surface, so both are raised here naming the
    pair.  Per body: its box function, and the box of a static body, whose
    state is the same object on every step.
    """
    co = config.backend is Backend.CO
    pairs = []
    n = len(shapes)
    for i in range(n):
        for j in range(i + 1, n):
            key = (type(shapes[i]), type(shapes[j]))
            first, second = (i, j) if key in _DETECTORS_SAT else (j, i)
            detector = _DETECTORS_SAT.get((type(shapes[first]),
                                           type(shapes[second])))
            if detector is None:
                raise UnsupportedPair(f"pair ({i}, {j}): no narrow phase for "
                                      f"{key[0].__name__}-{key[1].__name__}")
            context = None
            if co:
                try:  # the second body is the shrunk one
                    convex._resolve_margin(config.solver, shapes[second])
                except ValueError as exc:
                    raise ValueError(f"pair ({i}, {j}): {exc}") from None
                detector = convex.detect_convex
                context = convex.PairContext()
            pairs.append(((i, j), first, second, detector, shapes[first],
                          shapes[second], context))
    boxes = tuple(_BOXES[type(shape)](state, shape) if state.static else None
                  for state, shape in zip(states, shapes))
    moving = tuple((k, _BOXES[type(shape)], shape)
                   for k, (state, shape) in enumerate(zip(states, shapes))
                   if not state.static)
    return _StepPlan(tuple(pairs), boxes, moving)


# material of pairs the config gives none; frozen, so one instance serves all
_DEFAULT_MATERIAL = MaterialParams()


def _wrench_sum(first: BodyWrench, second: BodyWrench) -> BodyWrench:
    """Two wrenches on one body added component by component, first + second."""
    f, g = first.force, second.force
    if len(f) == 2:
        return BodyWrench((f[0] + g[0], f[1] + g[1]), first.moment + second.moment)
    m, n = first.moment, second.moment
    return BodyWrench((f[0] + g[0], f[1] + g[1], f[2] + g[2]),
                      (m[0] + n[0], m[1] + n[1], m[2] + n[2]))


def collision_response(states, shapes, config: SimConfig,
                       plan: Optional[_StepPlan] = None
                       ) -> Tuple[List[Optional[BodyWrench]], List[PairDiagnostic]]:
    """Detect and resolve every pair; returns per-body wrenches and diagnostics.

    ``plan`` is the run's ``_step_plan``; a bare call builds one, so its co
    pairs solve cold.  A pair whose boxes are apart on some axis skips the
    narrow phase: both backends call such a pair non-colliding, so it adds no
    wrench.  The diagnostics hold one ``PairDiagnostic`` per colliding pair,
    in pair order, its ``info`` in the detector's order, and nothing for the
    other pairs.  A body's wrench is None
    without a contact, the ``wrench_on_bodies`` result of its one contact,
    or the sum over its contacts in pair order.
    """
    if plan is None:
        plan = _step_plan(states, shapes, config)
    boxes = list(plan.boxes)
    for k, box_of, shape in plan.moving:
        boxes[k] = box_of(states[k], shape)
    solver = config.solver
    material = config.material or _DEFAULT_MATERIAL
    wrenches: List[Optional[BodyWrench]] = [None] * len(states)
    diagnostics: List[PairDiagnostic] = []
    try:  # names the pair whose values overflowed
        for pair, first, second, detect, shape_a, shape_b, context in plan.pairs:
            box_a, box_b = boxes[first], boxes[second]
            if (box_a[1] < box_b[0] or box_b[1] < box_a[0]
                    or box_a[3] < box_b[2] or box_b[3] < box_a[2]
                    or box_a[5] < box_b[4] or box_b[5] < box_a[4]):
                continue
            state_a, state_b = states[first], states[second]
            if context is None:
                info = detect(state_a, shape_a, state_b, shape_b)
            else:
                info = detect(state_a, shape_a, state_b, shape_b, solver, context)
            if not info.colliding:
                continue
            kin = relative_velocity_at_contact(state_a, info.anchor_a, state_b,
                                               info.anchor_b, info.normal,
                                               info.tangent)
            f_n, f_t = contact_force(info.rho, kin, material)
            wrench_a, wrench_b = wrench_on_bodies(f_n, f_t, info.normal, info.tangent,
                                                  info.anchor_a, info.anchor_b)
            prior = wrenches[first]
            wrenches[first] = wrench_a if prior is None else _wrench_sum(prior, wrench_a)
            prior = wrenches[second]
            wrenches[second] = wrench_b if prior is None else _wrench_sum(prior, wrench_b)
            diagnostics.append(PairDiagnostic(pair, info, f_n, f_t))
    except OverflowError as exc:
        raise OverflowError(f"pair {pair}: {exc}") from None
    except NotConverged as exc:
        exc.pair = pair
        raise
    return wrenches, diagnostics


def _body_constants(states) -> List[Optional[tuple]]:
    """Per-body integration constants, fixed over a run.

    None for a static body, else ``(1/mass, angular)`` where ``angular`` is
    the planar inertia (2D) or the inverse inertia tensor (3D).
    """
    return [None if state.static else
            (1.0 / state.mass,
             state.inertia if state.dim == 2 else mat3_inverse(state.inertia))
            for state in states]


def _integrate(states, wrenches, config: SimConfig, gravity: Vec,
               constants: List[Optional[tuple]]) -> tuple:
    """Semi-implicit Euler update: velocities first, then poses.

    Returns the new states as a tuple.  ``constants`` are the bodies'
    ``_body_constants``.  Successors are built without the construction
    checks: dimensions, mass and inertia are carried over.  A 3D orientation
    advances by the spin (0, omega) * q and is normalized (a zero quaternion
    becomes the identity); its norm is checked, because it is not a unit
    quaternion once the components overflow (OverflowError, naming the
    body).
    """
    dt = config.dt
    half_dt = dt * 0.5
    new_states = []
    for state, wrench, constant in zip(states, wrenches, constants):
        if constant is None:
            new_states.append(state)
            continue
        inv_m, angular = constant
        position = state.position
        velocity = state.velocity
        if len(position) == 2:
            if wrench is None:
                fx = fy = moment = 0.0
            else:
                fx, fy = wrench.force
                moment = wrench.moment
            vx = velocity[0] + dt * (fx * inv_m + gravity[0])
            vy = velocity[1] + dt * (fy * inv_m + gravity[1])
            omega = state.angular_velocity + dt * moment / angular
            new_states.append(state._successor(
                (position[0] + dt * vx, position[1] + dt * vy),
                state.orientation + dt * omega, (vx, vy), omega))
            continue
        if wrench is None:
            fx = fy = fz = mx = my = mz = 0.0
        else:
            fx, fy, fz = wrench.force
            mx, my, mz = wrench.moment
        vx = velocity[0] + dt * (fx * inv_m + gravity[0])
        vy = velocity[1] + dt * (fy * inv_m + gravity[1])
        vz = velocity[2] + dt * (fz * inv_m + gravity[2])
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = angular
        wx, wy, wz = state.angular_velocity
        wx = wx + dt * (a00 * mx + a01 * my + a02 * mz)
        wy = wy + dt * (a10 * mx + a11 * my + a12 * mz)
        wz = wz + dt * (a20 * mx + a21 * my + a22 * mz)
        qw, qx, qy, qz = state.orientation
        # the spin (0, omega) * q, then q + dt/2 * spin
        pw = qw + half_dt * (0.0 * qw - wx * qx - wy * qy - wz * qz)
        px = qx + half_dt * (0.0 * qx + wx * qw + wy * qz - wz * qy)
        py = qy + half_dt * (0.0 * qy - wx * qz + wy * qw + wz * qx)
        pz = qz + half_dt * (0.0 * qz + wx * qy - wy * qx + wz * qw)
        n = math.sqrt(pw * pw + px * px + py * py + pz * pz)
        orientation = (pw / n, px / n, py / n, pz / n) if n else (1.0, 0.0, 0.0, 0.0)
        ow, ox, oy, oz = orientation
        if not abs(math.sqrt(ow * ow + ox * ox + oy * oy + oz * oz) - 1.0) <= 1e-9:
            raise OverflowError(f"body {len(new_states)}: the quaternion "
                                "overflowed, so it cannot be normalized")
        new_states.append(state._successor(
            (position[0] + dt * vx, position[1] + dt * vy, position[2] + dt * vz),
            orientation, (vx, vy, vz), (wx, wy, wz)))
    return tuple(new_states)


def _is_finite(state: BodyState) -> bool:
    """Whether every number of a state's pose and velocity is finite."""
    values = [*state.position, *state.velocity]
    for value in (state.orientation, state.angular_velocity):
        values.extend(value if isinstance(value, tuple) else (value,))
    return all(map(math.isfinite, values))


def run_world(states, shapes, config: SimConfig, gravity: Vec
              ) -> Tuple[Trajectory, float]:
    """Run the stepping loop; returns the trajectory and the loop wall time.

    The timer covers detection, resolution and integration only, not world
    construction or any export.  A run that ends with a non-finite value, or
    stops on a math domain error such as the cosine of an angle that turned
    inf, raises ContactSimError naming the first body and time to hold one;
    one whose values overflow on the way raises it naming the time and the
    pair or body.  A ``NotConverged`` gets the time, the pair and the
    backend set.
    """
    dt = config.dt
    duration = config.duration if config.duration is not None else 2.0
    steps = duration / dt
    if not math.isfinite(steps):
        raise ValueError(f"duration / dt must be finite, got {duration} / {dt}")
    n_steps = max(1, round(steps))
    if n_steps > MAX_STEPS:
        raise ValueError(f"duration / dt asks for {steps:.6g} steps, more than "
                         f"the {MAX_STEPS} a run may take: {duration} / {dt}")
    states = tuple(states)
    constants = _body_constants(states)
    plan = _step_plan(states, shapes, config)
    samples = [(0.0, states)]
    events: List[ContactEvent] = []
    saturation_seen = False

    t_start = time.perf_counter()
    try:
        for k in range(n_steps):
            t = k * dt
            wrenches, diagnostics = collision_response(states, shapes, config, plan)
            for diag in diagnostics:
                info = diag.info
                events.append(ContactEvent(t, diag.pair, info.phi, info.rho,
                                           diag.f_normal, diag.f_tangent,
                                           info.saturated))
                if info.saturated and not saturation_seen:
                    saturation_seen = True
                    logger.warning(
                        "penetration exceeded the measurable range at "
                        "t=%.6f for pair %s; depth clamped to the shrink "
                        "margin",
                        t, diag.pair)
            states = _integrate(states, wrenches, config, gravity, constants)
            samples.append(((k + 1) * dt, states))
    except OverflowError as exc:
        raise ContactSimError(
            f"the run diverged at t={t:g}: numerical overflow in {exc} "
            f"({config.backend.value} backend)") from None
    except NotConverged as exc:
        exc.t = t
        exc.backend = config.backend.value
        raise
    except ValueError:
        if all(map(_is_finite, states)):
            raise
        # a state turned non-finite: dated below, as at the end of a run
    elapsed = time.perf_counter() - t_start

    if not all(map(_is_finite, states)):
        # a non-finite value never turns finite again: date the first one
        t, body = next((t, body) for t, sample in samples
                       for body, state in enumerate(sample) if not _is_finite(state))
        raise ContactSimError(
            f"the run diverged: body {body} has a non-finite pose or velocity "
            f"at t={t:g} ({config.backend.value} backend)")
    return Trajectory(tuple(samples), tuple(events), tuple(shapes)), elapsed


def run_scenario(name: str, config: Optional[SimConfig] = None,
                 overrides: Optional[Mapping] = None) -> Trajectory:
    """Run a registry scenario to completion under the given config."""
    trajectory, _ = run_scenario_timed(name, config, overrides)
    return trajectory


def run_scenario_timed(name: str, config: Optional[SimConfig] = None,
                       overrides: Optional[Mapping] = None
                       ) -> Tuple[Trajectory, float]:
    """Like run_scenario but also returns the stepping-loop wall time."""
    scenario = build_scenario(name, overrides)
    config = config or SimConfig()
    effective = replace(config)
    if effective.material is None:
        effective.material = scenario.material
    if effective.duration is None:
        effective.duration = scenario.duration
    return run_world(scenario.bodies, scenario.shapes, effective, scenario.gravity)


def kinetic_energy(states) -> float:
    """Total kinetic energy (translational plus rotational) of the bodies."""
    total = 0.0
    for state in states:
        if state.static:
            continue
        total += 0.5 * state.mass * sum(v * v for v in state.velocity)
        if state.dim == 2:
            total += 0.5 * state.inertia * state.angular_velocity ** 2
        else:
            w = state.angular_velocity
            iw = mat3_vec(state.inertia, w)
            total += 0.5 * (w[0] * iw[0] + w[1] * iw[1] + w[2] * iw[2])
    return total


def linear_momentum(states) -> Vec:
    """Total linear momentum of the non-static bodies."""
    dim = states[0].dim
    total = [0.0] * dim
    for state in states:
        if state.static:
            continue
        for k in range(dim):
            total[k] += state.mass * state.velocity[k]
    return tuple(total)
