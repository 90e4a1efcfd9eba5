"""Cold narrow-phase poses for the four shape pairings.

The pose geometries form one fixed population, drawn once from
``POPULATION_SEED``.  Every pose places body B at a chosen gap from body A
along a feature normal of A (a face, edge or corner of a box, or the center
line of two circles), so the pose's class is known without running a
detector:

- ``separated``: gap in [1e-3, 0.5]
- ``touching``:  gap in [-1e-3, 1e-3]
- ``shallow``:   gap in [-b, -1e-3], where b is the convex backend's default
  shrink margin, so the surrogate separation stays positive
- ``deep``:      gap in [-depth_max, -b]: beyond the measurable range, down
  to a contained center

Each pairing's poses come in groups of ten holding 3 separated, 2 touching,
3 shallow and 2 deep poses in shuffled order.  For rectangle-rectangle pairs
the gap is the separation along A's face normal, and one pose in twenty is
near-parallel: the relative angle is a multiple of 90 degrees plus a tilt of
magnitude 10^U(-6, -2) rad.

A run's seed moves each pose of the population by its own rigid motion (a
rotation about the origin and a translation of both bodies) and shuffles the
order, so the detector inputs differ from seed to seed while the relative
geometry, and with it which poses make the convex backend fail or run long,
stays the same.  With the benchmark's 250 poses per pairing, three of the
1000 poses (two rect-rect, one rect-circle) exhaust the solver's 10^4
iterations (~0.15 s each on a 2-core x86 box) and carry about half of the
convex iterations, and calls of 1000 iterations or more carry seven tenths;
a population drawn afresh per seed holds 0 to 4 such poses and 0.4x to 1.2x
the iterations, which would move a pass's time with the draw rather than
with the code.  No pose is ever dropped because a backend fails or
disagrees on it.

``draw`` makes plain numbers; ``build`` turns them into engine shapes and
body states, the only part the benchmark's set-up time includes.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from contactsim.geometry import Circle, Cuboid, Rectangle, Sphere, body2d, body3d

PAIRINGS = ("rect-circle", "circle-circle", "rect-rect", "sphere-cuboid")
POPULATION_SEED = 2303

# fixed shape pair per pairing (the sizes of the micro bench)
SHAPES: Dict[str, Tuple[Dict, Dict]] = {
    "rect-circle": ({"type": "rectangle", "half_length": 1.0, "half_width": 0.6},
                    {"type": "circle", "radius": 0.5}),
    "circle-circle": ({"type": "circle", "radius": 0.5},
                      {"type": "circle", "radius": 0.4}),
    "rect-rect": ({"type": "rectangle", "half_length": 0.5, "half_width": 0.5},
                  {"type": "rectangle", "half_length": 0.4, "half_width": 0.3}),
    "sphere-cuboid": ({"type": "cuboid", "half_extents": [1.0, 1.0, 0.5]},
                      {"type": "sphere", "radius": 0.5}),
}

# (class, poses per group of ten, low, high): the gap range; "b" and "depth"
# are per-pairing
GAP_CLASSES = (
    ("separated", 3, 1e-3, 0.5),
    ("touching", 2, -1e-3, 1e-3),
    ("shallow", 3, "b", -1e-3),
    ("deep", 2, "depth", "b"),
)
NEAR_PARALLEL_SHARE = 0.05
TILT_LOG10 = (-6.0, -2.0)
CENTER_BOX = 1.0  # body A's center is uniform in [-1, 1] per axis
MOTION_BOX = 1.0  # a pose's translation is uniform in [-1, 1] per axis


def pose_ranges() -> Dict[str, Dict]:
    """The sampling ranges as data, for the report and the baseline file."""
    ranges = {}
    for pairing, (shape_a, shape_b) in SHAPES.items():
        b, depth = _margin_and_depth(pairing, shape_a, shape_b)
        ranges[pairing] = {
            "shape_a": shape_a,
            "shape_b": shape_b,
            "shrink_margin_b": b,
            "gap_classes": {name: {"per_ten_poses": count,
                                   "gap": [_bound(low, b, depth),
                                           _bound(high, b, depth)]}
                            for name, count, low, high in GAP_CLASSES},
            "center_a_before_motion": [-CENTER_BOX, CENTER_BOX],
            "orientation_a": "uniform" if pairing != "sphere-cuboid"
            else "uniform random rotation",
        }
    ranges["rect-rect"]["near_parallel"] = {
        "share": NEAR_PARALLEL_SHARE, "tilt_log10_rad": list(TILT_LOG10)}
    ranges["rect-rect"]["gap"] = "separation along a face normal of A"
    ranges["population_seed"] = POPULATION_SEED
    ranges["per_run_motion"] = (
        "each pose: uniform rotation about the origin (uniform angle in 2D, "
        f"uniform random rotation in 3D), then a translation uniform in "
        f"[-{MOTION_BOX}, {MOTION_BOX}] per axis; order shuffled")
    return ranges


@dataclass(frozen=True)
class Placement:
    """One pose as plain numbers; an orientation is an angle or a quaternion."""
    pairing: str
    gap_class: str
    gap: float
    position_a: tuple
    orientation_a: object
    position_b: tuple
    orientation_b: object


@dataclass(frozen=True)
class Pose:
    pairing: str
    gap_class: str
    gap: float
    state_a: object
    shape_a: object
    state_b: object
    shape_b: object

    def describe(self) -> Dict:
        """JSON-ready reproduction of the pose."""
        return {
            "pairing": self.pairing,
            "class": self.gap_class,
            "gap": self.gap,
            "a": {"position": list(self.state_a.position),
                  "orientation": _plain(self.state_a.orientation),
                  "shape": _shape_spec(self.shape_a)},
            "b": {"position": list(self.state_b.position),
                  "orientation": _plain(self.state_b.orientation),
                  "shape": _shape_spec(self.shape_b)},
        }


def population(per_pairing: int) -> List[Placement]:
    """``per_pairing`` poses for each pairing, interleaved by pairing."""
    rng = random.Random(POPULATION_SEED)
    columns = []
    for pairing in PAIRINGS:
        classes = _classes(rng)
        columns.append([_place(rng, pairing, *SHAPES[pairing], next(classes))
                        for _ in range(per_pairing)])
    return [placement for row in zip(*columns) for placement in row]


def draw(seed: int, per_pairing: int) -> List[Placement]:
    """The population, each pose moved rigidly by ``seed``, in seeded order."""
    rng = random.Random(seed)
    placements = [_moved(rng, placement) for placement in population(per_pairing)]
    rng.shuffle(placements)
    return placements


def build(placements: List[Placement]) -> List[Pose]:
    """Engine shapes and body states for drawn placements."""
    shapes = {pairing: tuple(_make_shape(spec) for spec in specs)
              for pairing, specs in SHAPES.items()}
    built = []
    for p in placements:
        shape_a, shape_b = shapes[p.pairing]
        if p.pairing == "sphere-cuboid":
            state_a = body3d(p.position_a, orientation=p.orientation_a)
            state_b = body3d(p.position_b, orientation=p.orientation_b)
        else:
            state_a = body2d(p.position_a, angle=p.orientation_a)
            state_b = body2d(p.position_b, angle=p.orientation_b)
        built.append(Pose(p.pairing, p.gap_class, p.gap, state_a, shape_a,
                          state_b, shape_b))
    return built


def _make_shape(spec: Dict):
    if spec["type"] == "circle":
        return Circle(spec["radius"])
    if spec["type"] == "rectangle":
        return Rectangle(spec["half_length"], spec["half_width"])
    if spec["type"] == "sphere":
        return Sphere(spec["radius"])
    return Cuboid(tuple(spec["half_extents"]))


def _classes(rng: random.Random) -> Iterator[tuple]:
    """Gap classes in shuffled groups of ten."""
    while True:
        group = [entry for entry in GAP_CLASSES for _ in range(entry[1])]
        rng.shuffle(group)
        yield from group


def _margin_and_depth(pairing: str, shape_a: Dict, shape_b: Dict) -> Tuple[float, float]:
    if pairing == "rect-circle":
        return 0.5 * shape_b["radius"], shape_b["radius"] + min(
            shape_a["half_length"], shape_a["half_width"])
    if pairing == "circle-circle":
        return 0.5 * shape_b["radius"], shape_a["radius"] + shape_b["radius"]
    if pairing == "rect-rect":
        # deepest gap along the smallest face normal puts the centers together
        b_min = min(shape_b["half_length"], shape_b["half_width"])
        return 0.5 * b_min, min(shape_a["half_length"], shape_a["half_width"]) + b_min
    return 0.5 * shape_b["radius"], shape_b["radius"] + min(shape_a["half_extents"])


def _bound(value, b: float, depth: float) -> float:
    if value == "b":
        return -b
    if value == "depth":
        return -depth
    return value


def _box_feature(rng: random.Random, half_extents, corner_shares) -> Tuple[list, list]:
    """A boundary point of a centered box and a unit normal from its normal cone.

    ``corner_shares[k]`` is the chance of a feature with k+2 clamped axes
    (an edge or corner); otherwise the feature is a face.
    """
    dim = len(half_extents)
    clamped = 1
    pick = rng.random()
    for k, share in enumerate(corner_shares):
        pick -= share
        if pick < 0.0:
            clamped = k + 2
            break
    axes = rng.sample(range(dim), clamped)
    point = [rng.uniform(-e, e) for e in half_extents]
    normal = [0.0] * dim
    for axis in axes:
        sign = rng.choice((-1.0, 1.0))
        point[axis] = sign * half_extents[axis]
        normal[axis] = sign * rng.uniform(0.05, 1.0)
    length = math.sqrt(sum(c * c for c in normal))
    return point, [c / length for c in normal]


def _random_quaternion(rng: random.Random) -> tuple:
    u1, u2, u3 = rng.random(), rng.random(), rng.random()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    q = (a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2),
         b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3))
    n = math.sqrt(sum(c * c for c in q))
    return tuple(c / n for c in q)


def _rotate2(theta: float, v) -> tuple:
    c, s = math.cos(theta), math.sin(theta)
    return (c * v[0] - s * v[1], s * v[0] + c * v[1])


def _rotate3(q, v) -> tuple:
    """``v`` rotated by the unit quaternion ``q = (w, x, y, z)``."""
    w, x, y, z = q
    # v + 2 w (u x v) + 2 u x (u x v), u = (x, y, z)
    tx = 2.0 * (y * v[2] - z * v[1])
    ty = 2.0 * (z * v[0] - x * v[2])
    tz = 2.0 * (x * v[1] - y * v[0])
    return (v[0] + w * tx + y * tz - z * ty,
            v[1] + w * ty + z * tx - x * tz,
            v[2] + w * tz + x * ty - y * tx)


def _quat_multiply(a, b) -> tuple:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw)


def _place(rng: random.Random, pairing: str, shape_a: Dict, shape_b: Dict,
           gap_range) -> Placement:
    b, depth = _margin_and_depth(pairing, shape_a, shape_b)
    gap_class, _, low, high = gap_range
    gap = rng.uniform(_bound(low, b, depth), _bound(high, b, depth))
    center_a = [rng.uniform(-CENTER_BOX, CENTER_BOX)
                for _ in range(3 if pairing == "sphere-cuboid" else 2)]

    if pairing == "sphere-cuboid":
        quat = _random_quaternion(rng)
        point, normal = _box_feature(rng, shape_a["half_extents"], (0.25, 0.15))
        local = [p + (shape_b["radius"] + gap) * n for p, n in zip(point, normal)]
        offset = _rotate3(quat, local)
        return Placement(pairing, gap_class, gap, tuple(center_a), quat,
                         tuple(c + o for c, o in zip(center_a, offset)),
                         (1.0, 0.0, 0.0, 0.0))

    theta = rng.uniform(-math.pi, math.pi)
    angle_b = rng.uniform(-math.pi, math.pi)
    if pairing == "rect-circle":
        point, normal = _box_feature(
            rng, (shape_a["half_length"], shape_a["half_width"]), (0.25,))
        local = [p + (shape_b["radius"] + gap) * n for p, n in zip(point, normal)]
    elif pairing == "circle-circle":
        direction = rng.uniform(-math.pi, math.pi)
        d = max(0.0, shape_a["radius"] + shape_b["radius"] + gap)
        local = [d * math.cos(direction), d * math.sin(direction)]
    else:
        if rng.random() < NEAR_PARALLEL_SHARE:
            tilt = 10.0 ** rng.uniform(*TILT_LOG10) * rng.choice((-1.0, 1.0))
            relative = rng.randrange(4) * 0.5 * math.pi + tilt
        else:
            relative = rng.uniform(-math.pi, math.pi)
        angle_b = theta + relative
        ext_a = (shape_a["half_length"], shape_a["half_width"])
        axis = rng.randrange(2)
        sign = rng.choice((-1.0, 1.0))
        u = (math.cos(relative), math.sin(relative))
        v = (-u[1], u[0])
        reach_b = shape_b["half_length"] * abs(u[axis]) \
            + shape_b["half_width"] * abs(v[axis])
        local = [0.0, 0.0]
        local[axis] = sign * (ext_a[axis] + reach_b + gap)
        local[1 - axis] = rng.uniform(-ext_a[1 - axis], ext_a[1 - axis])
    offset = _rotate2(theta, local)
    return Placement(pairing, gap_class, gap, tuple(center_a), theta,
                     tuple(c + o for c, o in zip(center_a, offset)), angle_b)


def _moved(rng: random.Random, p: Placement) -> Placement:
    """``p`` under a random rotation about the origin, then a translation."""
    shift = [rng.uniform(-MOTION_BOX, MOTION_BOX) for _ in p.position_a]
    if p.pairing == "sphere-cuboid":
        quat = _random_quaternion(rng)

        def place(position):
            return tuple(c + s for c, s in zip(_rotate3(quat, position), shift))

        return Placement(p.pairing, p.gap_class, p.gap,
                         place(p.position_a), _quat_multiply(quat, p.orientation_a),
                         place(p.position_b), _quat_multiply(quat, p.orientation_b))
    phi = rng.uniform(-math.pi, math.pi)

    def place(position):
        return tuple(c + s for c, s in zip(_rotate2(phi, position), shift))

    return Placement(p.pairing, p.gap_class, p.gap, place(p.position_a),
                     p.orientation_a + phi, place(p.position_b), p.orientation_b + phi)


def _shape_spec(shape) -> Dict:
    if isinstance(shape, Circle):
        return {"type": "circle", "radius": shape.radius}
    if isinstance(shape, Rectangle):
        return {"type": "rectangle", "half_length": shape.half_length,
                "half_width": shape.half_width}
    if isinstance(shape, Sphere):
        return {"type": "sphere", "radius": shape.radius}
    return {"type": "cuboid", "half_extents": list(shape.half_extents)}


def _plain(orientation):
    return list(orientation) if isinstance(orientation, tuple) else orientation
