"""Frames, rotations, shapes, body states and the shared contact rules.

Vectors are plain tuples of floats (length 2 or 3); rotations are either a
planar angle in radians or a unit quaternion (w, x, y, z).  The planar
rotation matrix maps world coordinates into the body frame; the
world-from-body map is its transpose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Tuple, Union

Vec2 = Tuple[float, float]
Vec3 = Tuple[float, float, float]
Vec = Tuple[float, ...]
Quat = Tuple[float, float, float, float]
Mat3 = Tuple[Vec3, Vec3, Vec3]

# Distance below which closest-point directions are treated as degenerate.
EPS_DEGENERATE = 1e-9
# Depth gaps closer than this tie: the face that comes first wins.
EPS_TIE = 1e-12


# ---------------------------------------------------------------------------
# small vector helpers (dimension-generic where useful, 2D/3D fast paths)

def add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def norm(a: Vec) -> float:
    return math.sqrt(sum(x * x for x in a))


def distance(a: Vec, b: Vec) -> float:
    return norm(sub(a, b))


def cross3(a: Vec3, b: Vec3) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# ---------------------------------------------------------------------------
# planar rotations

def rot2_apply(theta: float, v: Vec2) -> Vec2:
    """Body-frame coordinates of a world vector (2D fast path)."""
    c = math.cos(theta)
    s = math.sin(theta)
    return (c * v[0] + s * v[1], -s * v[0] + c * v[1])


def rot2_apply_t(theta: float, v: Vec2) -> Vec2:
    """World coordinates of a body-frame vector (transpose map)."""
    c = math.cos(theta)
    s = math.sin(theta)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


# ---------------------------------------------------------------------------
# quaternions (w, x, y, z), used for 3D orientation

def quat_to_matrix(q: Quat) -> Mat3:
    """World-from-body rotation matrix of a unit quaternion."""
    w, x, y, z = q
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    wx, wy, wz = w * x, w * y, w * z
    return (
        (1.0 - 2.0 * (yy + zz), 2.0 * (xy - wz), 2.0 * (xz + wy)),
        (2.0 * (xy + wz), 1.0 - 2.0 * (xx + zz), 2.0 * (yz - wx)),
        (2.0 * (xz - wy), 2.0 * (yz + wx), 1.0 - 2.0 * (xx + yy)),
    )


def mat3_vec(m: Mat3, v: Vec3) -> Vec3:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def mat3_inverse(m: Mat3) -> Mat3:
    a, b, c = m[0]
    d, e, f = m[1]
    g, h, i = m[2]
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if det == 0.0:
        raise ValueError("singular 3x3 matrix")
    inv = 1.0 / det
    return (
        ((e * i - f * h) * inv, (c * h - b * i) * inv, (b * f - c * e) * inv),
        ((f * g - d * i) * inv, (a * i - c * g) * inv, (c * d - a * f) * inv),
        ((d * h - e * g) * inv, (b * g - a * h) * inv, (a * e - b * d) * inv),
    )


# ---------------------------------------------------------------------------
# contact rules shared by both narrow-phase backends

# faces of a centered box in the nearest-face scan order, as
# (axis, sign, outward normal): +x, -x, +y, -y, +z, -z
_BOX_FACES = (
    (0, 1.0, (1.0, 0.0, 0.0)), (0, -1.0, (-1.0, 0.0, 0.0)),
    (1, 1.0, (0.0, 1.0, 0.0)), (1, -1.0, (0.0, -1.0, 0.0)),
    (2, 1.0, (0.0, 0.0, 1.0)), (2, -1.0, (0.0, 0.0, -1.0)),
)


def box_clamp(half_extents: Vec, x: float, y: float, z: float) -> tuple:
    """The point of a centered box nearest (x, y, z): its per-axis clamp
    (Ericson, Real-Time Collision Detection, 5.1.3).

    Returns the box point, its offset from (x, y, z) and the offset's
    length.  A 2D box (two half-extents) runs with a third half-extent of
    0.0 and z = 0.0: every z term is then +0.0, which leaves each x and y
    result bit for bit as 2D arithmetic gives it.
    """
    c1, c2 = half_extents[0], half_extents[1]
    c3 = half_extents[2] if len(half_extents) == 3 else 0.0
    px = -c1 if x < -c1 else (x if x < c1 else c1)
    py = -c2 if y < -c2 else (y if y < c2 else c2)
    pz = -c3 if z < -c3 else (z if z < c3 else c3)
    dx = px - x
    dy = py - y
    dz = pz - z
    return px, py, pz, dx, dy, dz, math.sqrt(dx * dx + dy * dy + dz * dz)


def nearest_face(q: Vec, half_extents: Vec) -> Tuple[float, Vec3]:
    """Distance from a point inside a centered box to its nearest face, and
    that face's outward normal.  A face wins only when it is nearer than
    the faces scanned before it by more than EPS_TIE, so a tie, such as a
    point on an axis, goes to the first face of the scan order.  A 2D box
    (two half-extents) scans its four sides; its normal keeps a zero third
    component."""
    best = math.inf
    normal = (1.0, 0.0, 0.0)
    for axis, sign, face_normal in _BOX_FACES[:2 * len(half_extents)]:
        face_dist = half_extents[axis] - sign * q[axis]
        if face_dist < best - EPS_TIE:
            best = face_dist
            normal = face_normal
    return best, normal


def tangent3(nx: float, ny: float, nz: float) -> Vec3:
    """Unit tangent of a 3D unit normal: e3 x n, or e1 x n when parallel.

    Both backends apply it to the body-frame normal and rotate the result
    with the body, so the tangent turns with the cuboid.  A zero normal
    (left by a pose whose offset overflowed) raises OverflowError.
    """
    tx = 0.0 * nz - ny
    ty = nx - 0.0 * nz
    tz = 0.0 * ny - 0.0 * nx
    t = math.sqrt(tx * tx + ty * ty + tz * tz)
    if t < EPS_DEGENERATE:
        tx = 0.0 * nz - 0.0 * ny
        ty = 0.0 * nx - nz
        tz = ny - 0.0 * nx
        t = math.sqrt(tx * tx + ty * ty + tz * tz)
        if t < EPS_DEGENERATE:
            raise OverflowError(f"no unit tangent for the normal ({nx}, {ny}, {nz})")
    inv = 1.0 / t
    return (tx * inv, ty * inv, tz * inv)


# ---------------------------------------------------------------------------
# shapes

def _check_positive(name: str, value: float) -> None:
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"{name} must be a positive finite number, got {value}")


@dataclass(frozen=True)
class Circle:
    radius: float

    def __post_init__(self):
        _check_positive("radius", self.radius)
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class Rectangle:
    half_length: float  # extent along the body a1 axis
    half_width: float   # extent along the body a2 axis

    def __post_init__(self):
        _check_positive("half_length", self.half_length)
        _check_positive("half_width", self.half_width)
        object.__setattr__(self, "half_length", float(self.half_length))
        object.__setattr__(self, "half_width", float(self.half_width))


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        _check_positive("radius", self.radius)
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class Cuboid:
    half_extents: Vec3

    def __post_init__(self):
        if len(self.half_extents) != 3:
            raise ValueError("cuboid needs three half-extents")
        for v in self.half_extents:
            _check_positive("half_extent", v)
        object.__setattr__(self, "half_extents", tuple(float(v) for v in self.half_extents))


Shape = Union[Circle, Rectangle, Sphere, Cuboid]


# ---------------------------------------------------------------------------
# rigid-body state

@dataclass(frozen=True, slots=True)
class BodyState:
    """Pose and velocity of one rigid body.

    2D bodies use a scalar angle, scalar angular velocity and scalar inertia;
    3D bodies use a unit quaternion (w, x, y, z), a 3-vector angular velocity
    and a 3x3 inertia tensor given as nested tuples.  Static bodies are
    treated as having infinite mass and inertia by the integrator.

    The invariants (dimensions, finite entries, positive mass and planar
    inertia, a unit quaternion) are checked when a state is constructed; the
    integrator derives each step's states through ``_successor``, which
    keeps them without checking again.  The fields are slots, so a state
    carries no ``__dict__``.
    """

    position: Vec
    orientation: Union[float, Quat]
    velocity: Vec
    angular_velocity: Union[float, Vec3]
    mass: float
    inertia: Union[float, Mat3]
    static: bool = False

    def __post_init__(self):
        position, velocity = self.position, self.velocity
        if len(position) not in (2, 3):
            raise ValueError("position must be a 2- or 3-vector")
        if len(velocity) != len(position):
            raise ValueError("velocity dimension must match position")
        _check_positive("mass", self.mass)
        q, w, inertia = self.orientation, self.angular_velocity, self.inertia
        try:  # a number where a tuple belongs, or the reverse, is a TypeError
            if len(position) == 2:
                shaped = True
                entries = (*position, *velocity, q, w, inertia)
            else:
                shaped = (isinstance(q, tuple) and len(q) == 4
                          and isinstance(w, tuple) and len(w) == 3
                          and isinstance(inertia, tuple)
                          and tuple(map(len, inertia)) == (3, 3, 3))
                entries = (*position, *velocity, *q, *w, *inertia[0],
                           *inertia[1], *inertia[2])
            finite = all(map(math.isfinite, entries))
        except TypeError:
            shaped = False
        if not shaped:
            raise ValueError(
                "a 2D body takes a number for orientation, angular velocity and "
                "inertia, a 3D body a quaternion tuple, a 3-tuple and a 3x3 "
                f"tuple; got {q!r}, {w!r}, {inertia!r}")
        if not finite:
            raise ValueError(
                f"body state must be finite: position {position}, velocity "
                f"{velocity}, orientation {q}, angular velocity {w}, "
                f"inertia {inertia}")
        if len(position) == 2:
            _check_positive("inertia", inertia)
        elif abs(norm(q) - 1.0) > 1e-9:
            raise ValueError("quaternion must be normalized")

    @property
    def dim(self) -> int:
        return len(self.position)

    def _successor(self, position: Vec, orientation: Union[float, Quat],
                   velocity: Vec, angular_velocity: Union[float, Vec3]
                   ) -> "BodyState":
        """A state with new pose and velocities and this state's constants.

        Skips ``__post_init__``: the caller guarantees that the dimensions
        match this state's and that a 3D orientation is a unit quaternion.
        A normalized quaternion is one only while its squared norm stays
        finite, so the integrator checks its norm before calling this.
        """
        # each slot is set through its descriptor, as frozen blocks setattr
        state = _new_state(BodyState)
        _set_position(state, position)
        _set_orientation(state, orientation)
        _set_velocity(state, velocity)
        _set_angular_velocity(state, angular_velocity)
        _set_mass(state, self.mass)
        _set_inertia(state, self.inertia)
        _set_static(state, self.static)
        return state


_new_state = object.__new__
(_set_position, _set_orientation, _set_velocity, _set_angular_velocity, _set_mass,
 _set_inertia, _set_static) = (getattr(BodyState, field.name).__set__
                               for field in fields(BodyState))


def body2d(position: Vec2, angle: float = 0.0, velocity: Vec2 = (0.0, 0.0),
           angular_velocity: float = 0.0, mass: float = 1.0,
           inertia: float = 1.0, static: bool = False) -> BodyState:
    return BodyState(tuple(position), float(angle), tuple(velocity),
                     float(angular_velocity), mass, inertia, static)


def body3d(position: Vec3, orientation: Quat = (1.0, 0.0, 0.0, 0.0),
           velocity: Vec3 = (0.0, 0.0, 0.0),
           angular_velocity: Vec3 = (0.0, 0.0, 0.0), mass: float = 1.0,
           inertia: Union[float, Mat3] = 1.0, static: bool = False) -> BodyState:
    if isinstance(inertia, (int, float)):
        i = float(inertia)
        inertia = ((i, 0.0, 0.0), (0.0, i, 0.0), (0.0, 0.0, i))
    return BodyState(tuple(position), tuple(orientation), tuple(velocity),
                     tuple(angular_velocity), mass, inertia, static)


# moment-of-inertia helpers for the built-in shapes (solid, uniform density)

def disc_inertia(mass: float, radius: float) -> float:
    return 0.5 * mass * radius * radius


def rect_inertia(mass: float, half_length: float, half_width: float) -> float:
    return mass * (half_length * half_length + half_width * half_width) / 3.0


def sphere_inertia(mass: float, radius: float) -> Mat3:
    i = 0.4 * mass * radius * radius
    return ((i, 0.0, 0.0), (0.0, i, 0.0), (0.0, 0.0, i))


def cuboid_inertia(mass: float, half_extents: Vec3) -> Mat3:
    cx, cy, cz = half_extents
    return (
        (mass * (cy * cy + cz * cz) / 3.0, 0.0, 0.0),
        (0.0, mass * (cx * cx + cz * cz) / 3.0, 0.0),
        (0.0, 0.0, mass * (cx * cx + cy * cy) / 3.0),
    )
