"""Benchmark scenario registry.

Each scenario is one override document of the kind ``--config`` takes, and
``build_scenario`` builds every world, a registry one or an overridden one,
the same way.  Initial conditions, masses and material constants are engine
choices, fixed here so every run is reproducible: bodies start separated by
at least 0.5 m with closing speeds of 1-2 m/s (gravity supplies the approach
in the two dropping scenarios), and stiffnesses keep peak penetrations well
below each pair's shrink margin so both detection backends stay in their
valid range.  A body's inertia is that of the solid shape with its mass.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import UnknownScenario
from .geometry import (
    BodyState,
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    Vec,
    cuboid_inertia,
    disc_inertia,
    mat3_inverse,
    rect_inertia,
    sphere_inertia,
)
from .penalty import MaterialParams


@dataclass(frozen=True)
class Scenario:
    """A ready-to-run world: bodies, shapes and per-scenario defaults."""

    bodies: tuple
    shapes: tuple
    gravity: Vec
    duration: float
    material: MaterialParams


_REGISTRY = {
    # circle dropped onto a static rectangular floor
    "bouncing-circle": {
        "gravity": [0.0, -9.81],
        "duration": 2.0,
        "material": {"stiffness": 1e7, "damping": 0.2, "friction": 0.3},
        "bodies": [
            {"shape": {"type": "rectangle", "half_length": 2.0, "half_width": 0.25},
             "position": [0.0, 0.0], "mass": 100.0, "static": True},
            {"shape": {"type": "circle", "radius": 0.25},
             "position": [0.0, 1.0], "velocity": [0.0, -1.0], "mass": 1.0},
        ],
    },
    # two equal circles in a head-on collision
    "circle-circle": {
        "gravity": [0.0, 0.0],
        "duration": 2.0,
        "material": {"stiffness": 1e5, "damping": 0.2, "friction": 0.3},
        "bodies": [
            {"shape": {"type": "circle", "radius": 0.5},
             "position": [-1.0, 0.0], "velocity": [1.0, 0.0], "mass": 1.0},
            {"shape": {"type": "circle", "radius": 0.5},
             "position": [1.0, 0.0], "velocity": [-1.0, 0.0], "mass": 1.0},
        ],
    },
    # free rectangle and circle meeting head-on
    "rect-circle": {
        "gravity": [0.0, 0.0],
        "duration": 2.0,
        "material": {"stiffness": 1e5, "damping": 0.2, "friction": 0.3},
        "bodies": [
            {"shape": {"type": "rectangle", "half_length": 0.8, "half_width": 0.5},
             "position": [-1.0, 0.0], "velocity": [1.0, 0.0], "mass": 2.0},
            {"shape": {"type": "circle", "radius": 0.5},
             "position": [1.0, 0.0], "velocity": [-1.0, 0.0], "mass": 1.0},
        ],
    },
    # rotated square striking a rectangle face corner-first.  The square is
    # turned 45 degrees, so its leading corner meets the second body's face
    # dead-center: the contact point is the unique deepest vertex, it lies on
    # the line of centers (no torque), and both detection backends resolve
    # the identical contact.  Near-parallel face-on-face poses are avoided
    # because their minimum-distance pair is nearly non-unique, which neither
    # backend resolves consistently.
    "rect-rect": {
        "gravity": [0.0, 0.0],
        "duration": 2.0,
        "material": {"stiffness": 1e5, "damping": 0.2, "friction": 0.3},
        "bodies": [
            {"shape": {"type": "rectangle", "half_length": 0.4, "half_width": 0.4},
             "position": [-1.0, 0.0], "orientation": math.pi / 4,
             "velocity": [1.0, 0.0], "mass": 1.0},
            {"shape": {"type": "rectangle", "half_length": 0.4, "half_width": 0.6},
             "position": [1.0, 0.0], "velocity": [-1.0, 0.0], "mass": 1.0},
        ],
    },
    # sphere dropped onto a static cuboid slab
    "sphere-cuboid": {
        "gravity": [0.0, 0.0, -9.81],
        "duration": 3.0,
        "material": {"stiffness": 1e7, "damping": 0.5, "friction": 0.3},
        "bodies": [
            {"shape": {"type": "cuboid", "half_extents": [1.0, 1.0, 0.25]},
             "position": [0.0, 0.0, 0.0], "mass": 100.0, "static": True},
            {"shape": {"type": "sphere", "radius": 0.25},
             "position": [0.0, 0.0, 1.0], "velocity": [0.0, 0.0, -1.0],
             "mass": 1.0},
        ],
    },
}
SCENARIO_NAMES = tuple(_REGISTRY)


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
# shape class: (dimensions, solid inertia of a body of that shape and mass)
_SOLIDS = {
    Circle: (2, lambda shape, mass: disc_inertia(mass, shape.radius)),
    Rectangle: (2, lambda shape, mass: rect_inertia(mass, shape.half_length,
                                                    shape.half_width)),
    Sphere: (3, lambda shape, mass: sphere_inertia(mass, shape.radius)),
    Cuboid: (3, lambda shape, mass: cuboid_inertia(mass, shape.half_extents)),
}
# the keys are BodyState fields, except shape
_BODY = {"position": _VECTOR, "velocity": _VECTOR, "orientation": _ANGLE,
         "angular_velocity": _ANGLE, "mass": NUMBER,
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


# what a body document may leave out, by dimension: a body at rest in the
# identity orientation
_AT_REST = {
    2: {"orientation": 0.0, "velocity": (0.0, 0.0), "angular_velocity": 0.0},
    3: {"orientation": (1.0, 0.0, 0.0, 0.0), "velocity": (0.0, 0.0, 0.0),
        "angular_velocity": (0.0, 0.0, 0.0)},
}


def build_scenario(name: str, overrides: Optional[Mapping] = None) -> Scenario:
    """Build a registry scenario with an override document laid over it.

    The registry document and ``overrides`` are checked against
    ``OVERRIDES`` alike.  Each override body replaces the keys it gives of
    the registry body at its index; a null entry keeps the body.  Every body
    and shape must have as many dimensions as gravity, and a moving body's
    mass and inertia must have finite inverses.
    """
    if name not in _REGISTRY:
        raise UnknownScenario(
            f"unknown scenario {name!r}; expected one of {', '.join(SCENARIO_NAMES)}")
    document = checked(_REGISTRY[name], OVERRIDES)
    changes = checked(overrides, OVERRIDES) if overrides is not None else {}
    gravity = changes.get("gravity", document["gravity"])
    material = MaterialParams(**{**document["material"],
                                 **changes.get("material", {})})
    specs = document["bodies"]
    for index, spec in enumerate(changes.get("bodies", ())):
        if spec is None:
            continue
        if index >= len(specs):
            raise ValueError(f"body override index {index} out of range")
        specs[index] = {**specs[index], **spec}
    dim = len(gravity)
    bodies = []
    shapes = []
    for index, spec in enumerate(specs):
        shape = spec.pop("shape")
        shape_dim, inertia = _SOLIDS[type(shape)]
        if shape_dim != dim or len(spec["position"]) != dim:
            raise ValueError(
                f"body {index}: a {len(spec['position'])}D body with a "
                f"{type(shape).__name__} does not fit a world with {dim}D gravity")
        try:
            body = BodyState(**{**_AT_REST[dim], **spec},
                             inertia=inertia(shape, spec["mass"]))
        except ValueError as exc:
            raise ValueError(f"body {index}: {exc}") from None
        if not body.static:
            try:  # the integrator inverts a moving body's mass and inertia
                inverse = (1.0 / body.mass, *((1.0 / body.inertia,) if dim == 2
                                              else sum(mat3_inverse(body.inertia), ())))
            except ValueError:  # a singular inertia tensor
                inverse = (math.inf,)
            if not all(map(math.isfinite, inverse)):
                raise ValueError(
                    f"body {index}: mass {spec['mass']!r} gives the "
                    f"{type(shape).__name__.lower()} a singular mass or inertia, "
                    "whose inverse is not finite")
        bodies.append(body)
        shapes.append(shape)
    return Scenario(tuple(bodies), tuple(shapes), gravity,
                    changes.get("duration", document["duration"]), material)
