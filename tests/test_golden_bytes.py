"""Golden bytes: the SHA-256 of every scenario x backend CSV export.

The ten registry cells run at their default durations and export CSV plus
the events sibling.  A change that keeps the physics must keep these bytes;
one that changes it on purpose pins new digests and says why.  Two
hand-built worlds pin what no two-body registry world reaches: a body with
several contacts, pairs in swapped order and a static body inside the body
list.  Three more digests pin every ``ContactInfo`` field of a seeded sweep:
co rect-rect poses, cold and warm; cold co rect-circle and sphere-cuboid
poses; and cold co circle-circle poses.  The digests depend on the
platform's libm (sin, cos and sqrt rounding), so the tests run only on Linux
x86-64, where they were taken.
"""
import hashlib
import math
import platform
import random

import pytest

from contactsim import convex
from contactsim.convex import PairContext, detect_convex
from contactsim.export import export_trajectory
from contactsim.geometry import (
    Circle,
    Cuboid,
    Rectangle,
    Sphere,
    body2d,
    body3d,
    disc_inertia,
    quat_to_matrix,
    rect_inertia,
    sphere_inertia,
)
from contactsim.scenarios import SCENARIO_NAMES
from contactsim.simulate import SimConfig, run_scenario, run_world

pytestmark = pytest.mark.skipif(
    platform.system() != "Linux" or platform.machine() not in ("x86_64", "AMD64"),
    reason="export digests depend on libm; they are pinned for Linux x86-64",
)

# cell: (CSV digest, events CSV digest)
GOLDEN = {
    "bouncing-circle-sat": (
        "3d0d88a73bc9585b4ee9863da6fbdb8bcaf981822caaf98fd288d8b69bb63a67",
        "0f98dbec353ebf07461a57bae7694096602aeeddb6faeaf1b3e13b316b775fc5",
    ),
    "bouncing-circle-co": (
        "4d9280eb6b53828fbcf7ccaa99fa10583db225f981a5a336f905ae127ae33d97",
        "6d281837eee7062effdf3d04f369faedb2d52ded45460c15a9a3c72982115430",
    ),
    "circle-circle-sat": (
        "ec3ef7882be293955a425ab6fa8abc0db436a5259a513972975de46649ff5b5d",
        "40b3f48a5cd4201ee9a5d78fa6914c36da9c63f8f33ff0a56b61835c88d5d101",
    ),
    "circle-circle-co": (
        "d409a906cd9fffbbe3b434020d526f55f98ea1661c1646ff4fda47ff74f43bb2",
        "549065fcbf275322fc1b88d8a1758f41d4ae5aecb5f5b0e16d2acd184f7431f7",
    ),
    "rect-circle-sat": (
        "983361b28064fa266836c25877434a59475ccd0802067c57edf546249e95e243",
        "4cfac815b76bce59916069880f2e5001b512633e9510fd253df4806ce44cd705",
    ),
    "rect-circle-co": (
        "1da1e295389b34bd424991098ad030640e0f512c0ac05278977ec76994ec890e",
        "88bc7988652fca77dece5f20a1a0c4ba3e41532c7c13084556a35753b56bc714",
    ),
    "rect-rect-sat": (
        "f314c6a8df1f92fc0528354b5eb598672ffd800ee46d0c1fcb0e235e78639249",
        "d0d79ac597b23872babe2d864c6b73f9bd5aa02a5a8a5fe3344890eba8629933",
    ),
    "rect-rect-co": (
        "0e0078861447261b0ee1c3e0f30d691cd2101daf2751435315d37416dc354750",
        "2005afba78f10865f20818117540cd668ec7bdfc459cc2552bb89de2f9f8abd8",
    ),
    "sphere-cuboid-sat": (
        "b1111863d9c371040ed8441c543f8acc8196c3a10eee3d60189ed8a69bc2cab9",
        "e3fb194cfb81a11b42d270fe541a1d903062799ae6eb31e948c67e6b2aa7c705",
    ),
    "sphere-cuboid-co": (
        "b35a3e94d4dc74405cb2fee881e9073cfb6a1a0cf5376858352e4ecac7554241",
        "dd5272cb49c6fcd68c9b5d09a1d591009612a17938cf74dce0f134d31bd911d6",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_cell_is_pinned():
    assert set(GOLDEN) == {f"{name}-{backend}" for name in SCENARIO_NAMES
                           for backend in ("sat", "co")}


@pytest.mark.parametrize("cell", sorted(GOLDEN))
def test_export_bytes(cell, tmp_path):
    name, backend = cell.rsplit("-", 1)
    trajectory = run_scenario(name, SimConfig(backend=backend))
    path = tmp_path / f"{cell}.csv"
    export_trajectory(trajectory, "csv", str(path))
    events = tmp_path / f"{cell}.csv.events.csv"
    assert (_sha256(path), _sha256(events)) == GOLDEN[cell]


def _four_body_world():
    """A ball on a static floor (body 1) between a square and a pebble.

    Pairs (0, 1) and (0, 2) are circle-rectangle, the swapped order; (1, 3)
    and (2, 3) are rectangle-circle.  Ball 0 touches the floor, the square
    and the pebble, so it sums up to three wrenches in one step.  The square
    falls corner-first, as face-on-face rect-rect poses are avoided.
    """
    states = [
        body2d((0.0, 0.28), velocity=(0.1, 0.0), angular_velocity=0.5,
               inertia=disc_inertia(1.0, 0.3)),
        body2d((0.0, -0.2), static=True),
        body2d((0.62, 0.36), angle=math.pi / 4, velocity=(-0.3, 0.0), mass=2.0,
               inertia=rect_inertia(2.0, 0.25, 0.25)),
        body2d((-0.7, 0.5), velocity=(1.0, -1.0), mass=0.5,
               inertia=disc_inertia(0.5, 0.2)),
    ]
    shapes = [Circle(0.3), Rectangle(3.0, 0.2), Rectangle(0.25, 0.25), Circle(0.2)]
    return states, shapes, (0.0, -9.81)


def _sphere_on_tilted_cuboid():
    """A spinning sphere (body 0, the swapped order) on a tilted static cuboid.

    Every 3D pairing but sphere-cuboid lacks a narrow phase, so a 3D world
    holds one sphere and one cuboid.
    """
    tilt = (math.cos(0.15), math.sin(0.15), 0.0, 0.0)
    states = [
        body3d((0.1, 0.0, 0.3), velocity=(0.2, 0.0, -0.5),
               angular_velocity=(0.0, 1.0, 0.5), inertia=sphere_inertia(1.0, 0.25)),
        body3d((0.0, 0.0, -0.25), orientation=tilt, static=True),
    ]
    return states, [Sphere(0.25), Cuboid((1.0, 1.0, 0.25))], (0.0, 0.0, -9.81)


WORLDS = {"four-body": _four_body_world, "sphere-on-tilt": _sphere_on_tilted_cuboid}
# world-backend: (CSV digest, events CSV digest) of a 0.5 s run
GOLDEN_WORLDS = {
    "four-body-sat": (
        "6abd91a9f427033d3ab425d35d9bb5f7e26a1312aa9bee9108a08d0de8f44188",
        "586fd7b73bed311ca5e08f42627647135c7c4a62b35d6872626576caa6ad5baf",
    ),
    "four-body-co": (
        "d435ae48124788da5ceb6e3050d3b5454736ed03620d7952c78cf4067e72528f",
        "892e708fc055b9d1662aa1dfc52f7c15fffad75a6087b3736c8c89a18ceccde9",
    ),
    "sphere-on-tilt-sat": (
        "5b672cc42093bf08e9b31ba363c04c961fc56f16ce6d0a537ebf8bfa8a0aa5fe",
        "7dff7ba441f05b945d6f688729a25c2310cac32add670d665c1a5665ffaa402d",
    ),
    "sphere-on-tilt-co": (
        "5c8cf7be532ec36d1fdb597fa71df5d922ee0b9c3765295bc155dde004a10444",
        "be40031f154c11b817a548e7869618dad3d3d6abde4b33cd2f21510a1c358e61",
    ),
}


@pytest.mark.parametrize("cell", sorted(GOLDEN_WORLDS))
def test_hand_built_world_bytes(cell, tmp_path):
    name, backend = cell.rsplit("-", 1)
    states, shapes, gravity = WORLDS[name]()
    trajectory, _ = run_world(states, shapes,
                              SimConfig(backend=backend, duration=0.5), gravity)
    if name == "four-body":  # ball 0 meets all three other bodies
        assert {event.pair for event in trajectory.events} == {
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    path = tmp_path / f"{cell}.csv"
    export_trajectory(trajectory, "csv", str(path))
    events = tmp_path / f"{cell}.csv.events.csv"
    assert (_sha256(path), _sha256(events)) == GOLDEN_WORLDS[cell]


# SHA-256 over the repr of each call's ContactInfo fields and iteration count,
# taken at the commit before the rect-rect tail was written out in scalar
# arithmetic, and again after the saturation threshold moved (five calls of
# the sweep end at a surrogate distance of 1e-17 to 1e-16 and are saturated
# since)
RECT_RECT_CO_DIGEST_ZERO_THRESHOLD = \
    "21b1a578f1778c7025532510991d11a47bc40584cea8e1fd2d00ad68dc96b50b"
RECT_RECT_CO_DIGEST = \
    "699b47338bb815f067bb73bdd65d6061366a68d8bfd9491c23c87f4f42f358f8"
RECT_A = Rectangle(0.5, 0.4)
RECT_B = Rectangle(0.4, 0.3)  # erosion margin 0.15


def _rect_rect_poses(per_class=50):
    """Seeded (center A, angle A, center B, angle B) poses in five classes.

    ``separated``: B at a positive gap along a face normal of A, any angle.
    ``face``: B parallel to A (exactly, or tilted 0.05-0.3 rad), from 0.14
    deep to 0.05 apart.  ``corner``: B turned about 45 degrees, so its corner
    meets A's face.  ``vertex``: the same with the roles swapped, so A's
    corner meets B's face.  ``saturated``: centers within 0.2 per axis, so
    the eroded boxes overlap.  One more pose has coincident centers.
    """
    rng = random.Random(404)
    poses = []
    for kind in ("separated", "face", "corner", "vertex", "saturated"):
        for _ in range(per_class):
            center = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            angle = rng.uniform(-math.pi, math.pi)
            axis = rng.randrange(2)
            sign = rng.choice((1.0, -1.0))
            if kind == "face":
                tilt = rng.choice((0.0, rng.uniform(0.05, 0.3) * rng.choice((1, -1))))
                turn = rng.randrange(4) * 0.5 * math.pi + tilt
                gap = rng.uniform(-0.14, 0.05)
            elif kind in ("corner", "vertex"):
                turn = (math.pi / 4 + rng.uniform(-0.2, 0.2)
                        + rng.randrange(4) * 0.5 * math.pi)
                gap = rng.uniform(-0.14, 0.05)
            elif kind == "separated":
                turn = rng.uniform(-math.pi, math.pi)
                gap = rng.uniform(0.01, 0.5)
            else:
                turn = rng.uniform(-math.pi, math.pi)
                gap = None
            if gap is None:
                local = (rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2))
            else:
                # the turned shape's support along the base shape's face normal
                base, other = (RECT_B, RECT_A) if kind == "vertex" else (RECT_A, RECT_B)
                rel = turn if axis == 0 else turn - 0.5 * math.pi
                reach = (other.half_length * abs(math.cos(rel))
                         + other.half_width * abs(math.sin(rel)))
                ext = base.half_length if axis == 0 else base.half_width
                along = sign * (ext + reach + gap)
                lateral = rng.uniform(-0.3, 0.3)
                local = (along, lateral) if axis == 0 else (lateral, along)
            c, s = math.cos(angle), math.sin(angle)
            other_center = (center[0] + c * local[0] - s * local[1],
                            center[1] + s * local[0] + c * local[1])
            if kind == "vertex":  # the base shape is B
                poses.append((other_center, angle + turn, center, angle))
            else:
                poses.append((center, angle, other_center, angle + turn))
    poses.append(((0.25, -0.5), 0.3, (0.25, -0.5), 1.1))
    return poses


def _rect_rect_co_sweep():
    """Digest and results of the sweep: each pose runs cold, then warm in the
    same context after a small move (both bodies turned by the same angle, so
    parallel faces stay parallel)."""
    digest = hashlib.sha256()
    rng = random.Random(405)
    infos = []
    for center_a, angle_a, center_b, angle_b in _rect_rect_poses():
        context = PairContext()
        info = detect_convex(body2d(center_a, angle_a), RECT_A,
                             body2d(center_b, angle_b), RECT_B, context=context)
        digest.update(repr((tuple(info), context.last_iterations)).encode())
        infos.append(info)

        def nudge():
            return rng.uniform(-1e-3, 1e-3)
        turn = nudge()
        info = detect_convex(
            body2d((center_a[0] + nudge(), center_a[1] + nudge()), angle_a + turn),
            RECT_A,
            body2d((center_b[0] + nudge(), center_b[1] + nudge()), angle_b + turn),
            RECT_B, context=context)
        digest.update(repr((tuple(info), context.last_iterations)).encode())
        infos.append(info)
    return digest.hexdigest(), infos


def test_rect_rect_co_contact_bytes():
    digest, infos = _rect_rect_co_sweep()
    assert len(infos) >= 400
    assert sum(i.saturated for i in infos) >= 50
    assert sum(i.colliding and not i.saturated for i in infos) >= 100
    assert sum(not i.colliding for i in infos) >= 100
    assert digest == RECT_RECT_CO_DIGEST


def test_rect_rect_co_contact_bytes_under_zero_threshold(monkeypatch):
    def rho_from_surrogate(phi_star, b):  # saturated only at exactly zero
        if phi_star > b:
            return 0.0, False
        if phi_star > 0.0:
            return b - phi_star, False
        return b, True
    monkeypatch.setattr(convex, "rho_from_surrogate", rho_from_surrogate)
    assert _rect_rect_co_sweep()[0] == RECT_RECT_CO_DIGEST_ZERO_THRESHOLD


# SHA-256 over the repr of each call's ContactInfo fields, cold co
# rect-circle and sphere-cuboid, taken while the box-ball solve still
# iterated; the closed-form solve keeps every byte
BALL_CO_DIGEST = \
    "4f1752b8806d744b1ab5c8ccd532aa7148899e8eb83408cc59d8954fa216578c"
BALL_RECT, BALL_CIRCLE = Rectangle(0.5, 0.3), Circle(0.2)  # shrink margin 0.1
BALL_CUBOID, BALL_SPHERE = Cuboid((0.5, 0.3, 0.4)), Sphere(0.2)
BALL_KINDS = ("face", "edge", "corner", "inside", "touching", "concentric",
              "saturated")


def _ball_local_centers(rng, ext, radius, per_class=30):
    """Seeded (kind, ball center in the box frame) pairs.

    ``face``, ``edge`` (3D only) and ``corner``: beyond one, two or every
    face, from the shrunk ball touching the box to two radii out.  ``inside``: anywhere in the
    box.  ``touching``: on a face or at a corner, the true or the shrunk
    ball touching the box, or the center on it.  ``concentric``: at the box
    center.  ``saturated``: the shrunk ball overlapping the box from
    outside.
    """
    dim = len(ext)
    b = radius / 2.0
    for kind in BALL_KINDS:
        if kind == "edge" and dim == 2:
            continue
        for _ in range(per_class):
            active = {"face": 1, "edge": 2, "corner": dim}.get(
                kind, rng.choice((1, dim)))
            axes = rng.sample(range(dim), active)
            point = [rng.uniform(-e, e) for e in ext]
            direction = [0.0] * dim
            for axis in axes:
                sign = rng.choice((1.0, -1.0))
                point[axis] = sign * ext[axis]
                direction[axis] = sign * (rng.uniform(0.1, 1.0) if kind in
                                          ("face", "edge", "corner") else 1.0)
            length = math.sqrt(sum(d * d for d in direction))
            direction = [d / length for d in direction]
            if kind == "inside":
                yield kind, tuple(rng.uniform(-e, e) for e in ext)
                continue
            if kind == "concentric":
                yield kind, (0.0,) * dim
                continue
            gap = {"touching": rng.choice((radius, radius - b, 0.0)),
                   "saturated": rng.uniform(0.0, radius - b)}.get(
                kind, rng.uniform(radius - b, 2.0 * radius))
            yield kind, tuple(p + d * gap for p, d in zip(point, direction))


def _random_unit_quaternion(rng):
    q = [rng.gauss(0.0, 1.0) for _ in range(4)]
    n = math.sqrt(sum(v * v for v in q))
    return tuple(v / n for v in q)


def _ball_co_sweep():
    """Digest and results of cold co calls on both box-ball pairings: every
    other pose axis-aligned with the box at the origin, so that face, edge
    and touching poses are exact in the box frame, the rest turned and
    moved."""
    digest = hashlib.sha256()
    rng = random.Random(406)
    infos = []
    for trial, local in enumerate(_ball_local_centers(rng, (0.5, 0.3), 0.2)):
        kind, (qx, qy) = local
        aligned = trial % 2 == 0
        angle = 0.0 if aligned else rng.uniform(-math.pi, math.pi)
        center = (0.0, 0.0) if aligned else (rng.uniform(-1, 1), rng.uniform(-1, 1))
        c, s = math.cos(angle), math.sin(angle)
        world = (center[0] + c * qx - s * qy, center[1] + s * qx + c * qy)
        info = detect_convex(body2d(center, angle), BALL_RECT, body2d(world),
                             BALL_CIRCLE, context=PairContext())
        digest.update(repr((kind, tuple(info))).encode())
        infos.append(info)
    for trial, local in enumerate(_ball_local_centers(rng, (0.5, 0.3, 0.4), 0.2)):
        kind, q = local
        aligned = trial % 2 == 0
        quat = (1.0, 0.0, 0.0, 0.0) if aligned else _random_unit_quaternion(rng)
        center = (0.0, 0.0, 0.0) if aligned else tuple(rng.uniform(-1, 1)
                                                       for _ in range(3))
        rows = quat_to_matrix(quat)
        world = tuple(center[i] + sum(rows[i][k] * q[k] for k in range(3))
                      for i in range(3))
        info = detect_convex(body3d(center, quat), BALL_CUBOID, body3d(world),
                             BALL_SPHERE, context=PairContext())
        digest.update(repr((kind, tuple(info))).encode())
        infos.append(info)
    return digest.hexdigest(), infos


def test_ball_co_contact_bytes():
    digest, infos = _ball_co_sweep()
    assert len(infos) == 30 * (len(BALL_KINDS) - 1) + 30 * len(BALL_KINDS)
    assert sum(i.saturated for i in infos) >= 150
    assert sum(i.colliding and not i.saturated for i in infos) >= 40
    assert sum(not i.colliding for i in infos) >= 80
    assert digest == BALL_CO_DIGEST


# SHA-256 over the repr of each call's ContactInfo fields and iteration count,
# cold co circle-circle, taken before its frame maps were shared with the
# other ball pairings
CIRCLE_CO_DIGEST = \
    "f6dbbb2a4d67d2b65cdb68fcc483c05344899d8c772f87821983e4fab1975cac"
CIRCLE_A, CIRCLE_B = Circle(0.3), Circle(0.2)  # shrink margin 0.1
CIRCLE_KINDS = ("separated", "shallow", "saturated", "touching", "held",
                "concentric")


def _circle_offsets(rng, per_class=30):
    """Seeded (kind, B's center in A's frame) pairs.

    ``separated``: the true balls apart, by up to two radii.  ``shallow``:
    the true balls overlapping, the shrunk ball of B clear of A.
    ``saturated``: the shrunk ball overlapping A, A's center outside it.
    ``touching``: the true ball or the shrunk ball touching A, or B's center
    on A's surface.  ``held``: B's shrunk ball holding A's center.
    ``concentric``: B's center on A's, or 1e-12 to 2e-9 off it.  Every other
    touching pose, and every other pose of the rest, lies along an axis.
    """
    ra, rb = CIRCLE_A.radius, CIRCLE_B.radius
    rb_star = rb / 2.0
    for kind in CIRCLE_KINDS:
        for trial in range(per_class):
            if kind == "separated":
                d = ra + rb + rng.uniform(0.0, 2.0 * rb)
            elif kind == "shallow":
                d = rng.uniform(ra + rb_star, ra + rb)
            elif kind == "saturated":
                d = rng.uniform(rb_star, ra + rb_star)
            elif kind == "touching":
                d = rng.choice((ra + rb, ra + rb_star, ra))
            elif kind == "held":
                d = rng.uniform(0.0, rb_star)
            else:
                d = 0.0 if trial % 5 == 0 else \
                    10.0 ** rng.uniform(-12.0, math.log10(2e-9))
            if trial % 2 == 0:
                sign = rng.choice((1.0, -1.0))
                yield kind, ((sign * d, 0.0) if rng.randrange(2) == 0
                             else (0.0, sign * d))
            else:
                angle = rng.uniform(-math.pi, math.pi)
                yield kind, (d * math.cos(angle), d * math.sin(angle))


def _circle_co_sweep():
    """Digest and results of cold co circle-circle calls: every other pose
    with A unturned at the origin, so that B's center is exact in A's frame,
    the rest with A turned and moved."""
    digest = hashlib.sha256()
    rng = random.Random(407)
    infos = []
    for trial, (kind, (qx, qy)) in enumerate(_circle_offsets(rng)):
        aligned = trial % 2 == 0
        angle = 0.0 if aligned else rng.uniform(-math.pi, math.pi)
        center = (0.0, 0.0) if aligned else (rng.uniform(-1, 1), rng.uniform(-1, 1))
        c, s = math.cos(angle), math.sin(angle)
        world = (center[0] + c * qx - s * qy, center[1] + s * qx + c * qy)
        context = PairContext()
        info = detect_convex(body2d(center, angle), CIRCLE_A, body2d(world),
                             CIRCLE_B, context=context)
        digest.update(repr((kind, tuple(info), context.last_iterations)).encode())
        infos.append(info)
    return digest.hexdigest(), infos


def test_circle_co_contact_bytes():
    digest, infos = _circle_co_sweep()
    assert len(infos) == 30 * len(CIRCLE_KINDS)
    assert sum(i.saturated for i in infos) >= 60
    assert sum(i.colliding and not i.saturated for i in infos) >= 30
    assert sum(not i.colliding for i in infos) >= 30
    assert digest == CIRCLE_CO_DIGEST
