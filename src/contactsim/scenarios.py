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
from typing import Mapping, Optional

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
    if overrides is not None:
        scenario = apply_overrides(scenario, overrides)
    return scenario


# The override document.  A value kind is (what it accepts, converter): the
# converter returns the value to build with, or raises ValueError (or
# OverflowError, for an integer beyond the float range) on any other value.
# A mapping lists the allowed keys of an object, a one-element list the kind
# of every list entry (null keeps the registry entry), and _SHAPES holds one
# table per shape type: class plus fields.

def _number(value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
        if math.isfinite(number):
            return number
    raise ValueError(value)


def _positive(value) -> float:
    number = _number(value)
    if number > 0.0:
        return number
    raise ValueError(value)


def _vector(value) -> tuple:
    if isinstance(value, (list, tuple)):
        return tuple(map(_number, value))
    raise ValueError(value)


def _integer(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(value)


def _boolean(value) -> bool:
    if isinstance(value, bool):
        return value
    raise ValueError(value)


NUMBER = ("a finite number", _number)
INTEGER = ("an integer", _integer)
MARGIN = ("a finite number or null", lambda v: None if v is None else _number(v))
_VECTOR = ("a list of finite numbers", _vector)
_ANGLE = ("a finite number or a list of finite numbers",
          lambda v: _vector(v) if isinstance(v, (list, tuple)) else _number(v))
_SHAPES = {
    "circle": (Circle, {"radius": NUMBER}),
    "rectangle": (Rectangle, {"half_length": NUMBER, "half_width": NUMBER}),
    "sphere": (Sphere, {"radius": NUMBER}),
    "cuboid": (Cuboid, {"half_extents": _VECTOR}),
}
_SHAPE_DIMS = {Circle: 2, Rectangle: 2, Sphere: 3, Cuboid: 3}
# the keys are BodyState fields, except shape
_BODY = {"position": _VECTOR, "velocity": _VECTOR, "orientation": _ANGLE,
         "angular_velocity": _ANGLE, "mass": NUMBER, "inertia": NUMBER,
         "static": ("true or false", _boolean), "shape": _SHAPES}
OVERRIDES = {
    "gravity": _VECTOR,
    "duration": ("a positive finite number", _positive),
    "material": {"stiffness": NUMBER, "damping": NUMBER, "friction": NUMBER,
                 "v_scale": NUMBER},
    "bodies": [_BODY],
}


def checked(value, kind, where: str = ""):
    """``value`` converted as ``kind`` says; ValueError naming the path
    ``where`` unless it fits.  A kind of None passes the value on as it is."""
    if kind is None:
        return value
    name = where or "the document"
    if kind is _SHAPES:
        shape = value.get("type") if isinstance(value, Mapping) else None
        if not isinstance(shape, str) or shape not in _SHAPES:
            raise ValueError(f"config: {name} must be an object whose type is "
                             f"one of {', '.join(_SHAPES)}")
        cls, fields = _SHAPES[shape]
        for key in fields:
            if key not in value:
                raise ValueError(f"config: {name}: a {shape} needs {key!r}")
        spec = checked({k: v for k, v in value.items() if k != "type"}, fields,
                       where)
        try:
            return cls(**spec)
        except ValueError as exc:
            raise ValueError(f"config: {name}: {exc}") from None
    if isinstance(kind, dict):
        if not isinstance(value, Mapping):
            raise ValueError(f"config: {name} must be an object")
        result = {}
        for key, item in value.items():
            if key not in kind:
                raise ValueError(f"config: unknown key {key!r} in {name}; "
                                 f"expected one of {', '.join(kind)}")
            result[key] = checked(item, kind[key], f"{where}.{key}" if where else key)
        return result
    if isinstance(kind, list):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config: {name} must be a list")
        return [None if item is None else checked(item, kind[0], f"{where}[{index}]")
                for index, item in enumerate(value)]
    accepts, convert = kind
    try:
        return convert(value)
    except (ValueError, OverflowError):
        raise ValueError(f"config: {name} must be {accepts}, got {value!r}") from None


def apply_overrides(scenario: Scenario, overrides: Mapping) -> Scenario:
    """Apply a config mapping, checked against ``OVERRIDES``, on top of
    registry defaults.

    ``bodies`` entries may be null to keep a body unchanged; a ``shape``
    replaces the body's shape.  Every body and shape must have as many
    dimensions as gravity.
    """
    changes = checked(overrides, OVERRIDES)
    if "material" in changes:
        changes["material"] = replace(scenario.material, **changes["material"])
    if "bodies" in changes:
        bodies = list(scenario.bodies)
        shapes = list(scenario.shapes)
        for index, spec in enumerate(changes["bodies"]):
            if spec is None:
                continue
            if index >= len(bodies):
                raise ValueError(f"body override index {index} out of range")
            if "shape" in spec:
                shapes[index] = spec.pop("shape")
            try:
                bodies[index] = replace(bodies[index], **spec)
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
