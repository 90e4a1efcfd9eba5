"""Fixed-step rigid-body simulator: detection, resolution, state update.

Each step runs the selected narrow-phase backend over all body pairs, feeds
colliding contacts through the penalty resolver, accumulates the resulting
center-of-mass wrenches in body order (fixed summation order keeps runs
bit-deterministic) and advances the states with a semi-implicit Euler step:
velocities first, then positions with the updated velocities.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from . import convex, sat
from .contact import ContactInfo
from .errors import UnsupportedPair
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
    quat_multiply,
    quat_normalize,
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

    ``gravity``, ``duration`` and ``material`` of None keep the scenario
    defaults (a bare run_world falls back to 2 s and default materials).
    """

    dt: float = 1e-3
    duration: Optional[float] = None
    backend: Backend = Backend.SAT
    gravity: Optional[Vec] = None
    solver: convex.SolverSettings = field(default_factory=convex.SolverSettings)
    material: Optional[MaterialParams] = None
    pair_materials: Dict[Tuple[int, int], MaterialParams] = field(default_factory=dict)

    def __post_init__(self):
        if isinstance(self.backend, str):
            self.backend = Backend(self.backend)
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be a positive finite number, got {self.dt}")
        if self.duration is not None:
            if not math.isfinite(self.duration):
                raise ValueError(f"duration must be finite, got {self.duration}")
            if self.duration < self.dt:
                raise ValueError("duration must be at least one step")


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
    """Narrow-phase result for one pair, with resolver forces when colliding."""

    pair: Tuple[int, int]
    info: ContactInfo
    f_normal: float = 0.0
    f_tangent: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed body states plus the contact-event log of one run."""

    samples: Tuple[Tuple[float, Tuple[BodyState, ...]], ...]
    events: Tuple[ContactEvent, ...]
    shapes: Tuple[Shape, ...]

    @property
    def dim(self) -> int:
        return self.samples[0][1][0].dim if self.samples else 2


_DETECTORS_SAT = {
    (Rectangle, Circle): sat.detect_rect_circle,
    (Circle, Circle): sat.detect_circle_circle,
    (Rectangle, Rectangle): sat.detect_rect_rect,
    (Cuboid, Sphere): sat.detect_sphere_cuboid,
}

# pairings where the canonical detector order is reversed relative to (i, j)
_SWAPPED = {(Circle, Rectangle): (Rectangle, Circle),
            (Sphere, Cuboid): (Cuboid, Sphere)}


def _detect_pair(backend: Backend, state_a: BodyState, shape_a: Shape,
                 state_b: BodyState, shape_b: Shape,
                 solver: convex.SolverSettings,
                 context: Optional[convex.PairContext]) -> ContactInfo:
    key = (type(shape_a), type(shape_b))
    swapped = key in _SWAPPED
    if swapped:
        state_a, state_b = state_b, state_a
        shape_a, shape_b = shape_b, shape_a
        key = (type(shape_a), type(shape_b))
    detector = _DETECTORS_SAT.get(key)
    if detector is None:
        raise UnsupportedPair(
            f"no narrow phase for {key[0].__name__}-{key[1].__name__}"
        )
    if backend is Backend.SAT:
        info = detector(state_a, shape_a, state_b, shape_b)
    else:
        info = convex.detect_convex(state_a, shape_a, state_b, shape_b,
                                    solver, context)
    return info.flipped() if swapped else info


# material of pairs the config gives none; frozen, so one instance serves all
_DEFAULT_MATERIAL = MaterialParams()


def collision_response(states, shapes, config: SimConfig,
                       contexts: Optional[Dict] = None
                       ) -> Tuple[List[Optional[BodyWrench]], List[PairDiagnostic]]:
    """Detect and resolve every pair; returns per-body wrenches and diagnostics.

    Non-colliding pairs contribute no wrench but their proximity is kept in
    the diagnostics.  Wrenches accumulate per body in pair order.
    """
    backend = config.backend
    warm = contexts is not None and backend is Backend.CO
    n = len(states)
    forces = [None] * n
    moments = [None] * n
    diagnostics: List[PairDiagnostic] = []
    for i in range(n):
        for j in range(i + 1, n):
            pair = (i, j)
            context = None
            if warm:
                context = contexts.get(pair)
                if context is None:
                    context = contexts[pair] = convex.PairContext()
            info = _detect_pair(backend, states[i], shapes[i],
                                states[j], shapes[j], config.solver, context)
            if not info.colliding:
                diagnostics.append(PairDiagnostic(pair, info))
                continue
            kin = relative_velocity_at_contact(states[i], info.anchor_a,
                                               states[j], info.anchor_b,
                                               info.normal, info.tangent)
            material = config.pair_materials.get(pair) or config.material \
                or _DEFAULT_MATERIAL
            f_n, f_t = contact_force(info.rho, kin, material)
            wrench_i, wrench_j = wrench_on_bodies(f_n, f_t, info.normal,
                                                  info.tangent, info.anchor_a,
                                                  info.anchor_b)
            for index, wrench in ((i, wrench_i), (j, wrench_j)):
                if forces[index] is None:
                    forces[index] = wrench.force
                    moments[index] = wrench.moment
                elif len(wrench.force) == 2:
                    fx, fy = forces[index]
                    forces[index] = (fx + wrench.force[0], fy + wrench.force[1])
                    moments[index] += wrench.moment
                else:
                    forces[index] = tuple(a + b for a, b in
                                          zip(forces[index], wrench.force))
                    moments[index] = tuple(a + b for a, b in
                                           zip(moments[index], wrench.moment))
            diagnostics.append(PairDiagnostic(pair, info, f_n, f_t))
    wrenches: List[Optional[BodyWrench]] = [
        BodyWrench(forces[k], moments[k]) if forces[k] is not None else None
        for k in range(n)
    ]
    return wrenches, diagnostics


def _body_constants(states) -> List[Optional[tuple]]:
    """Per-body integration constants, fixed over a run.

    None for a static body, else ``(1/mass, angular)`` where ``angular`` is
    the planar inertia (2D) or the inverse inertia tensor (3D).
    """
    constants: List[Optional[tuple]] = []
    for state in states:
        if state.static:
            constants.append(None)
        elif state.dim == 2:
            constants.append((1.0 / state.mass, state.inertia))
        else:
            constants.append((1.0 / state.mass, mat3_inverse(state.inertia)))
    return constants


def _integrate(states, wrenches, config: SimConfig, gravity: Vec,
               constants: Optional[List[Optional[tuple]]] = None):
    """Semi-implicit Euler update: velocities first, then poses.

    ``constants`` are the bodies' ``_body_constants``; None computes them.
    Successors are built without the construction checks: dimensions, mass
    and inertia are carried over, and a 3D orientation is ``quat_normalize``
    output, whose norm is checked here because it is not a unit quaternion
    once the components overflow.
    """
    if constants is None:
        constants = _body_constants(states)
    dt = config.dt
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
            fx = fy = fz = 0.0
            moment = (0.0, 0.0, 0.0)
        else:
            fx, fy, fz = wrench.force
            moment = wrench.moment
        vx = velocity[0] + dt * (fx * inv_m + gravity[0])
        vy = velocity[1] + dt * (fy * inv_m + gravity[1])
        vz = velocity[2] + dt * (fz * inv_m + gravity[2])
        alpha = mat3_vec(angular, moment)
        w = state.angular_velocity
        omega = (w[0] + dt * alpha[0], w[1] + dt * alpha[1], w[2] + dt * alpha[2])
        q = state.orientation
        spin = quat_multiply((0.0,) + omega, q)
        half_dt = dt * 0.5
        orientation = quat_normalize((q[0] + half_dt * spin[0],
                                      q[1] + half_dt * spin[1],
                                      q[2] + half_dt * spin[2],
                                      q[3] + half_dt * spin[3]))
        o0, o1, o2, o3 = orientation
        if not abs(math.sqrt(o0 * o0 + o1 * o1 + o2 * o2 + o3 * o3) - 1.0) <= 1e-9:
            raise ValueError("quaternion must be normalized")
        new_states.append(state._successor(
            (position[0] + dt * vx, position[1] + dt * vy, position[2] + dt * vz),
            orientation, (vx, vy, vz), omega))
    return new_states


def step(states, shapes, config: SimConfig, gravity: Optional[Vec] = None,
         contexts: Optional[Dict] = None):
    """One full detection-resolution-integration step; returns new states."""
    if gravity is None:
        gravity = config.gravity if config.gravity is not None \
            else (0.0,) * states[0].dim
    wrenches, _ = collision_response(states, shapes, config, contexts)
    return _integrate(states, wrenches, config, gravity)


def run_world(states, shapes, config: SimConfig, gravity: Vec
              ) -> Tuple[Trajectory, float]:
    """Run the stepping loop; returns the trajectory and the loop wall time.

    The timer covers detection, resolution and integration only, not world
    construction or any export.
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
    states = list(states)
    constants = _body_constants(states)
    contexts: Dict = {}
    samples = [(0.0, tuple(states))]
    events: List[ContactEvent] = []
    saturation_seen = False

    t_start = time.perf_counter()
    for k in range(n_steps):
        t = k * dt
        wrenches, diagnostics = collision_response(states, shapes, config, contexts)
        for diag in diagnostics:
            info = diag.info
            if info.colliding:
                events.append(ContactEvent(t, diag.pair, info.phi, info.rho,
                                           diag.f_normal, diag.f_tangent,
                                           info.saturated))
                if info.saturated and not saturation_seen:
                    saturation_seen = True
                    logger.warning(
                        "penetration exceeded the measurable range at t=%.6f "
                        "for pair %s; depth clamped to the shrink margin",
                        t, diag.pair)
        states = _integrate(states, wrenches, config, gravity, constants)
        samples.append(((k + 1) * dt, tuple(states)))
    elapsed = time.perf_counter() - t_start

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
    gravity = config.gravity if config.gravity is not None else scenario.gravity
    return run_world(scenario.bodies, scenario.shapes, effective, gravity)


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
