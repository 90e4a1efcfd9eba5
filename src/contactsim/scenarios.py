"""Benchmark scenario registry.

Initial conditions, masses and material constants are engine choices, fixed
here so every run is reproducible: bodies start separated by at least 0.5 m
with closing speeds of 1-2 m/s (gravity supplies the approach in the two
dropping scenarios), and stiffnesses keep peak penetrations well below each
pair's shrink margin so both detection backends stay in their valid range.
All values can be overridden through the config surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from .errors import UnknownScenario
from .geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    Vec,
    body2d,
    body3d,
    cuboid_inertia,
    disc_inertia,
    rect_inertia,
    sphere_inertia,
)
from .penalty import MaterialParams

SCENARIO_NAMES = (
    "bouncing-circle",
    "circle-circle",
    "rect-circle",
    "rect-rect",
    "sphere-cuboid",
)


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run world: bodies, shapes and per-scenario defaults."""

    name: str
    bodies: tuple
    shapes: tuple
    gravity: Vec
    duration: float
    material: MaterialParams
    description: str = ""


def _bouncing_circle() -> Scenario:
    floor = Rectangle(2.0, 0.25)
    ball = Circle(0.25)
    bodies = (
        body2d((0.0, 0.0), mass=100.0, inertia=rect_inertia(100.0, 2.0, 0.25),
               static=True),
        body2d((0.0, 1.0), velocity=(0.0, -1.0), mass=1.0,
               inertia=disc_inertia(1.0, ball.radius)),
    )
    return Scenario(
        name="bouncing-circle",
        bodies=bodies,
        shapes=(floor, ball),
        gravity=(0.0, -9.81),
        duration=2.0,
        material=MaterialParams(stiffness=1e7, damping=0.2, friction=0.3),
        description="circle dropped onto a static rectangular floor",
    )


def _circle_circle() -> Scenario:
    left = Circle(0.5)
    right = Circle(0.5)
    bodies = (
        body2d((-1.0, 0.0), velocity=(1.0, 0.0), mass=1.0,
               inertia=disc_inertia(1.0, left.radius)),
        body2d((1.0, 0.0), velocity=(-1.0, 0.0), mass=1.0,
               inertia=disc_inertia(1.0, right.radius)),
    )
    return Scenario(
        name="circle-circle",
        bodies=bodies,
        shapes=(left, right),
        gravity=(0.0, 0.0),
        duration=2.0,
        material=MaterialParams(stiffness=1e5, damping=0.2, friction=0.3),
        description="two equal circles in a head-on collision",
    )


def _rect_circle() -> Scenario:
    rect = Rectangle(0.8, 0.5)
    circle = Circle(0.5)
    bodies = (
        body2d((-1.0, 0.0), velocity=(1.0, 0.0), mass=2.0,
               inertia=rect_inertia(2.0, rect.half_length, rect.half_width)),
        body2d((1.0, 0.0), velocity=(-1.0, 0.0), mass=1.0,
               inertia=disc_inertia(1.0, circle.radius)),
    )
    return Scenario(
        name="rect-circle",
        bodies=bodies,
        shapes=(rect, circle),
        gravity=(0.0, 0.0),
        duration=2.0,
        material=MaterialParams(stiffness=1e5, damping=0.2, friction=0.3),
        description="free rectangle and circle meeting head-on",
    )


def _rect_rect() -> Scenario:
    # The first body is a square rotated 45 degrees, so its leading corner
    # meets the second body's face dead-center: the contact point is the
    # unique deepest vertex, it lies on the line of centers (no torque), and
    # both detection backends resolve the identical contact.  Near-parallel
    # face-on-face poses are avoided because their minimum-distance pair is
    # nearly non-unique, which neither backend resolves consistently.
    rect_a = Rectangle(0.4, 0.4)
    rect_b = Rectangle(0.4, 0.6)
    bodies = (
        body2d((-1.0, 0.0), angle=math.pi / 4, velocity=(1.0, 0.0), mass=1.0,
               inertia=rect_inertia(1.0, rect_a.half_length, rect_a.half_width)),
        body2d((1.0, 0.0), velocity=(-1.0, 0.0), mass=1.0,
               inertia=rect_inertia(1.0, rect_b.half_length, rect_b.half_width)),
    )
    return Scenario(
        name="rect-rect",
        bodies=bodies,
        shapes=(rect_a, rect_b),
        gravity=(0.0, 0.0),
        duration=2.0,
        material=MaterialParams(stiffness=1e5, damping=0.2, friction=0.3),
        description="rotated square striking a rectangle face corner-first",
    )


def _sphere_cuboid() -> Scenario:
    slab = Cuboid((1.0, 1.0, 0.25))
    ball = Sphere(0.25)
    bodies = (
        body3d((0.0, 0.0, 0.0), mass=100.0,
               inertia=cuboid_inertia(100.0, slab.half_extents), static=True),
        body3d((0.0, 0.0, 1.0), velocity=(0.0, 0.0, -1.0), mass=1.0,
               inertia=sphere_inertia(1.0, ball.radius)),
    )
    return Scenario(
        name="sphere-cuboid",
        bodies=bodies,
        shapes=(slab, ball),
        gravity=(0.0, 0.0, -9.81),
        duration=3.0,
        material=MaterialParams(stiffness=1e7, damping=0.5, friction=0.3),
        description="sphere dropped onto a static cuboid slab",
    )


_BUILDERS = {
    "bouncing-circle": _bouncing_circle,
    "circle-circle": _circle_circle,
    "rect-circle": _rect_circle,
    "rect-rect": _rect_rect,
    "sphere-cuboid": _sphere_cuboid,
}


def build_scenario(name: str, overrides: Optional[Mapping] = None) -> Scenario:
    """Instantiate a registry scenario, optionally applying config overrides."""
    try:
        scenario = _BUILDERS[name]()
    except KeyError:
        raise UnknownScenario(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}"
        ) from None
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    return scenario


_SHAPE_BUILDERS = {
    "circle": lambda spec: Circle(float(spec["radius"])),
    "rectangle": lambda spec: Rectangle(float(spec["half_length"]),
                                        float(spec["half_width"])),
    "sphere": lambda spec: Sphere(float(spec["radius"])),
    "cuboid": lambda spec: Cuboid(tuple(float(v) for v in spec["half_extents"])),
}
_SHAPE_DIMS = {Circle: 2, Rectangle: 2, Sphere: 3, Cuboid: 3}


def _override_body(body: BodyState, spec: Mapping) -> BodyState:
    kwargs = {}
    for key in ("position", "velocity"):
        if key in spec:
            kwargs[key] = tuple(float(v) for v in spec[key])
    if "orientation" in spec:
        value = spec["orientation"]
        kwargs["orientation"] = (tuple(float(v) for v in value)
                                 if isinstance(value, Sequence) else float(value))
    if "angular_velocity" in spec:
        value = spec["angular_velocity"]
        kwargs["angular_velocity"] = (tuple(float(v) for v in value)
                                      if isinstance(value, Sequence) else float(value))
    for key in ("mass", "inertia"):
        if key in spec:
            kwargs[key] = float(spec[key])
    if "static" in spec:
        kwargs["static"] = bool(spec["static"])
    return replace(body, **kwargs)


def apply_overrides(scenario: Scenario, overrides: Mapping) -> Scenario:
    """Apply a config mapping on top of registry defaults.

    Recognized keys: ``gravity``, ``duration``, ``material`` (mapping of
    MaterialParams fields), ``bodies`` (list of per-body mappings, entries
    may be null to keep a body unchanged, with optional ``shape`` mappings).
    Gravity must be finite, and every body and shape must have as many
    dimensions as gravity.
    """
    changes = {}
    if "gravity" in overrides:
        gravity = tuple(float(v) for v in overrides["gravity"])
        if not all(map(math.isfinite, gravity)):
            raise ValueError(f"gravity must be finite, got {gravity}")
        changes["gravity"] = gravity
    if "duration" in overrides:
        changes["duration"] = float(overrides["duration"])
    if "material" in overrides:
        changes["material"] = replace(scenario.material, **{
            k: float(v) for k, v in overrides["material"].items()
        })
    if "bodies" in overrides:
        bodies = list(scenario.bodies)
        shapes = list(scenario.shapes)
        for index, spec in enumerate(overrides["bodies"]):
            if spec is None:
                continue
            if index >= len(bodies):
                raise ValueError(f"body override index {index} out of range")
            try:
                if "shape" in spec:
                    shape_spec = dict(spec["shape"])
                    kind = shape_spec.pop("type")
                    if kind not in _SHAPE_BUILDERS:
                        raise ValueError(f"unknown shape type {kind!r}")
                    shapes[index] = _SHAPE_BUILDERS[kind](shape_spec)
                body_spec = {k: v for k, v in spec.items() if k != "shape"}
                bodies[index] = _override_body(bodies[index], body_spec)
            except ValueError as exc:
                raise ValueError(f"body {index}: {exc}") from None
        changes["bodies"] = tuple(bodies)
        changes["shapes"] = tuple(shapes)
    scenario = replace(scenario, **changes)
    dim = len(scenario.gravity)
    for index, (body, shape) in enumerate(zip(scenario.bodies, scenario.shapes)):
        if body.dim != dim or _SHAPE_DIMS[type(shape)] != dim:
            raise ValueError(
                f"body {index}: a {body.dim}D body with a {type(shape).__name__} "
                f"does not fit a world with {dim}D gravity")
    return scenario
