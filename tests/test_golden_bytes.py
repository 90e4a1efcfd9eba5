"""Golden bytes: the SHA-256 of every scenario x backend CSV export.

The ten registry cells run at their default durations and export CSV plus
the events sibling.  A change that keeps the physics must keep these bytes;
one that changes it on purpose pins new digests and says why, in a
comment by the digest.  Two hand-built worlds pin what no two-body registry
world reaches: a body with several contacts, pairs in swapped order, a
static body inside the body list, and sat rect-circle contacts with the
circle beyond a rectangle corner.  Four more digests pin every
``ContactInfo`` field of a seeded sweep: co rect-rect poses, cold and warm;
cold co rect-circle and sphere-cuboid poses; cold co circle-circle poses;
and poses of all four sat pairings.  The digests depend on the platform's
libm (sin, cos and sqrt rounding), so the tests run only on Linux x86-64,
where they were taken.
"""
import hashlib
import math
import platform
import random

import pytest

from contactsim import convex, sat
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
    # the four ball cells of co re-pinned when co's ball pairings became sat's
    # contact plus the shrink margin: no registry contact saturates, so each
    # exports its sat cell's bytes (positions and angles move by at most
    # 2.2e-16, from the last bits of rho and phi; no saturation flag flips)
    "bouncing-circle-co": (
        "3d0d88a73bc9585b4ee9863da6fbdb8bcaf981822caaf98fd288d8b69bb63a67",
        "0f98dbec353ebf07461a57bae7694096602aeeddb6faeaf1b3e13b316b775fc5",
    ),
    "circle-circle-sat": (
        "ec3ef7882be293955a425ab6fa8abc0db436a5259a513972975de46649ff5b5d",
        "40b3f48a5cd4201ee9a5d78fa6914c36da9c63f8f33ff0a56b61835c88d5d101",
    ),
    "circle-circle-co": (
        "ec3ef7882be293955a425ab6fa8abc0db436a5259a513972975de46649ff5b5d",
        "40b3f48a5cd4201ee9a5d78fa6914c36da9c63f8f33ff0a56b61835c88d5d101",
    ),
    "rect-circle-sat": (
        "983361b28064fa266836c25877434a59475ccd0802067c57edf546249e95e243",
        "4cfac815b76bce59916069880f2e5001b512633e9510fd253df4806ce44cd705",
    ),
    "rect-circle-co": (
        "983361b28064fa266836c25877434a59475ccd0802067c57edf546249e95e243",
        "4cfac815b76bce59916069880f2e5001b512633e9510fd253df4806ce44cd705",
    ),
    "rect-rect-sat": (
        "f314c6a8df1f92fc0528354b5eb598672ffd800ee46d0c1fcb0e235e78639249",
        "d0d79ac597b23872babe2d864c6b73f9bd5aa02a5a8a5fe3344890eba8629933",
    ),
    "rect-rect-co": (
        "0e0078861447261b0ee1c3e0f30d691cd2101daf2751435315d37416dc354750",
        "2005afba78f10865f20818117540cd668ec7bdfc459cc2552bb89de2f9f8abd8",
    ),
    # re-pinned when sat sphere-cuboid took rect-circle's rule: the normal
    # is the center's offset divided by its length, no longer multiplied by
    # the reciprocal; positions move by at most 3.3e-16 m over 3001 samples
    "sphere-cuboid-sat": (
        "43fbdbf7ee50b8e2768bb876dfcee4cc1a7a3814d95ce6a797d5f0bbde959ef0",
        "72d94709c81e4376bdc32bf36344c0ef96fe4b93a55910538a0ad7b5364a3b89",
    ),
    "sphere-cuboid-co": (
        "43fbdbf7ee50b8e2768bb876dfcee4cc1a7a3814d95ce6a797d5f0bbde959ef0",
        "72d94709c81e4376bdc32bf36344c0ef96fe4b93a55910538a0ad7b5364a3b89",
    ),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_every_cell_is_pinned():
    assert set(GOLDEN) == {f"{name}-{backend}" for name in SCENARIO_NAMES
                           for backend in ("sat", "co")}


def test_ball_cells_export_the_sat_bytes():
    # co's ball pairings are sat's contact until the depth passes the
    # margin, which no registry ball contact reaches
    for name in ("bouncing-circle", "circle-circle", "rect-circle", "sphere-cuboid"):
        assert GOLDEN[f"{name}-co"] == GOLDEN[f"{name}-sat"], name


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
    # re-pinned when sat rect-circle took the clamp: 409 of its rect-circle
    # calls have the circle center beyond a corner, whose normal is now the
    # direction from the corner to the center, not the rectangle's diagonal;
    # and again when the box-ball anchor became -n r outside the box too, in
    # place of r times the offset over its length: the last bits of the
    # ball anchors move the torques (positions by at most 1.7e-16, angles by
    # 1.1e-16; 410 of 1456 events change f_normal, f_tangent, phi or rho)
    "four-body-sat": (
        "a534aa8f6db8d66196ac0944e61a994477faf823cd2410165789e44e9a39576f",
        "769627b34591772b88e8b878f2f7d4d0bfc77594c2c6f41eb24740b84b678f26",
    ),
    # re-pinned with the ball cells of co: the last bits of rho and phi of
    # its unsaturated ball contacts (positions and angles move by at most
    # 6.7e-16; no saturation flag flips); and again with the -n r ball
    # anchor, for the same reason as four-body-sat (positions by at most
    # 2.2e-16, angles by 3.9e-16; 562 of 1318 events change)
    "four-body-co": (
        "c52f925200ca622b7b4df3655844659799b187a1e0a42d3121b8cf88a137cf5f",
        "18224caef1d41ebc3a73685bcf0debe93a5e0c77a908a3b33bd5317b936f0174",
    ),
    # re-pinned with sphere-cuboid-sat, for the same division (positions
    # move by at most 3.5e-18 m); and again with the -n r ball anchor
    # (positions by at most 4.3e-19 m, angular velocities by 4.7e-15; 160
    # of 381 events change f_tangent or f_normal)
    "sphere-on-tilt-sat": (
        "e772a64b46e055773c58a67c1dc517620d640e03f3152f83bb944063bc811c17",
        "8ce34a2aeb1575d3623f83161d1d699bbc9056f475d9a1fd172060ca8a0f6451",
    ),
    # re-pinned with the ball cells of co, for the same reason: its one
    # pair never saturates, so it exports the sat cell's bytes (positions
    # and angles move by at most 8.7e-19); and again with the -n r ball
    # anchor, still the sat cell's bytes
    "sphere-on-tilt-co": (
        "e772a64b46e055773c58a67c1dc517620d640e03f3152f83bb944063bc811c17",
        "8ce34a2aeb1575d3623f83161d1d699bbc9056f475d9a1fd172060ca8a0f6451",
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
# rect-circle and sphere-cuboid, first taken while the box-ball solve still
# iterated (the closed-form solve kept every byte), and again after a ball
# center on or in the box moved B's anchor from +n r, the far side of the
# ball, to -n r, the side facing the box (141 calls change q_tilde and
# anchor_b, no other field), and again after rect-circle took the box-ball
# normal rule of cuboid-sphere: the direction from the box point to the
# circle center where the shrunk circle touches the box, nearest_face's
# side where the center is on or in it, in place of the rectangle's
# diagonal at a corner (31 rect-circle calls change normal and tangent, 6
# of them with the center on a corner also q_tilde and anchor_b), and again
# after co's ball pairings became sat's contact plus the shrink margin: the
# 120 calls with the center in the box (inside, concentric) move p_tilde and
# anchor_a from the center to the nearest face; 166 unsaturated calls take
# sat's last bits of phi, rho, normal and tangent; 10 saturated calls get
# phi exactly -b; 28 more saturated calls change the last bits of the
# normal and tangent, or of p_tilde and anchor_a; 66 keep every byte, and
# no saturation flag flips; and again after an exactly touching pair (phi
# 0.0) got rho 0.0 in place of -0.0 (1 touching call, no other field); and
# again after the ball anchor became -n r outside the box too, in place of
# r times the offset over its length (92 calls, 36 rect-circle and 56
# sphere-cuboid: 91 change the last bit of anchor_b, by at most 5.6e-17,
# and 39 of q_tilde, by at most 1.1e-16; no other field)
BALL_CO_DIGEST = \
    "f8f39ad7bbb407b689a0055a97e8b67a1e296591f3f3ffb8ccc106f7037c7984"
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


def _pose_2d(rng, aligned, local):
    """A's center and angle, unturned at the origin when ``aligned``, and
    the world point of ``local`` in A's frame."""
    angle = 0.0 if aligned else rng.uniform(-math.pi, math.pi)
    center = (0.0, 0.0) if aligned else (rng.uniform(-1, 1), rng.uniform(-1, 1))
    c, s = math.cos(angle), math.sin(angle)
    qx, qy = local
    return center, angle, (center[0] + c * qx - s * qy, center[1] + s * qx + c * qy)


def _pose_3d(rng, aligned, local):
    """A's center and orientation, unturned at the origin when ``aligned``,
    and the world point of ``local`` in A's frame."""
    quat = (1.0, 0.0, 0.0, 0.0) if aligned else _random_unit_quaternion(rng)
    center = (0.0, 0.0, 0.0) if aligned else tuple(rng.uniform(-1, 1)
                                                   for _ in range(3))
    rows = quat_to_matrix(quat)
    world = tuple(center[i] + sum(rows[i][k] * local[k] for k in range(3))
                  for i in range(3))
    return center, quat, world


def _ball_co_sweep():
    """Digest and results of cold co calls on both box-ball pairings: every
    other pose axis-aligned with the box at the origin, so that face, edge
    and touching poses are exact in the box frame, the rest turned and
    moved."""
    digest = hashlib.sha256()
    rng = random.Random(406)
    infos = []
    for trial, (kind, local) in enumerate(_ball_local_centers(rng, (0.5, 0.3), 0.2)):
        center, angle, world = _pose_2d(rng, trial % 2 == 0, local)
        info = detect_convex(body2d(center, angle), BALL_RECT, body2d(world),
                             BALL_CIRCLE, context=PairContext())
        digest.update(repr((kind, tuple(info))).encode())
        infos.append(info)
    for trial, (kind, local) in enumerate(
            _ball_local_centers(rng, (0.5, 0.3, 0.4), 0.2)):
        center, quat, world = _pose_3d(rng, trial % 2 == 0, local)
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
# other ball pairings, and again after co's ball pairings became sat's
# contact plus the shrink margin: in the 90 calls of the saturated, held
# and concentric kinds and 8 saturated touching ones, p_tilde and
# anchor_a move from the shrunk ball's point to A's surface; 14 of the
# concentric ones, with A turned, also take sat's fallback normal, world x,
# in place of A's body x axis (and with it tangent, q_tilde and anchor_b);
# 11 more saturated calls change last bits, phi now exactly -b in 9; the 70
# unsaturated calls take sat's world-frame last bits of phi, rho, points
# and normal; and one touching call ends at phi 0.0, not -8.3e-17, so it
# is no longer colliding.  No saturation flag flips.  And again after an
# exactly touching pair (phi 0.0) got rho 0.0 in place of -0.0 (8 touching
# calls, no other field)
CIRCLE_CO_DIGEST = \
    "a736f8d32411d70be0d05fc4301969c35240c0b3c00d274ed811dc7439a9d900"
CIRCLE_A, CIRCLE_B = Circle(0.3), Circle(0.2)  # shrink margin 0.1
CIRCLE_KINDS = ("separated", "shallow", "saturated", "touching", "held",
                "concentric")


def _concentric_distance(rng, trial):
    """0, or 1e-12 to 2e-9."""
    return 0.0 if trial % 5 == 0 else 10.0 ** rng.uniform(-12.0, math.log10(2e-9))


def _circle_offset(rng, trial, d):
    """A point at distance d from the origin: on an axis for even trials."""
    if trial % 2 == 0:
        sign = rng.choice((1.0, -1.0))
        return (sign * d, 0.0) if rng.randrange(2) == 0 else (0.0, sign * d)
    angle = rng.uniform(-math.pi, math.pi)
    return d * math.cos(angle), d * math.sin(angle)


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
                d = _concentric_distance(rng, trial)
            yield kind, _circle_offset(rng, trial, d)


def _circle_co_sweep():
    """Digest and results of cold co circle-circle calls: every other pose
    with A unturned at the origin, so that B's center is exact in A's frame,
    the rest with A turned and moved."""
    digest = hashlib.sha256()
    rng = random.Random(407)
    infos = []
    for trial, (kind, local) in enumerate(_circle_offsets(rng)):
        center, angle, world = _pose_2d(rng, trial % 2 == 0, local)
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


# SHA-256 over the repr of each call's ContactInfo fields, all four sat
# pairings, first taken before sat's records were built through contact.py
# (that change kept every byte), and again after a ball center on or in the
# box moved B's anchor from +n r to -n r, as in BALL_CO_DIGEST (the 140
# face, edge, corner and inside calls change q_tilde and anchor_b, no other
# field), and again after rect-circle took the clamp and nearest_face in
# place of the region case table (63 rect-circle calls): the 39 with the
# center beyond a corner change normal and tangent, now the direction from
# the corner to the center; the 17 with the center on a corner take
# nearest_face's side as normal, which moves q_tilde and anchor_b, and 6 of
# them change the last bits of rho and A's point; the 7 inside at equal
# depth below two sides change rho, both points and the normal, now
# measured to one side instead of to the corner; and again after
# sphere-cuboid took the same rule, whose division changes the last bits of
# the normal, and with it of the tangent, in 22 sphere-cuboid calls, and a
# zero normal component from -0.0 to 0.0 in 6 more; and again after an
# exactly touching pair (phi 0.0) got rho 0.0 in place of -0.0 (23 touching
# calls: 16 circle-circle, 6 rect-circle, 1 sphere-cuboid; no other field);
# and again after the ball anchor became -n r outside the box too (70
# calls, 37 rect-circle and 33 sphere-cuboid: all change the last bit of
# anchor_b, by at most 5.6e-17, and 19 of q_tilde, by at most 1.1e-16; no
# other field)
SAT_CONTACT_DIGEST = \
    "e36e4e80fb2e52d8f68d1cdb9c88b54cd3128a4f8c2bd6afcc4d4caa95153c4c"
SAT_BALL_KINDS = ("separated", "touching", "shallow", "deep", "face", "edge",
                  "corner", "inside")
SAT_CIRCLE_KINDS = ("separated", "touching", "shallow", "deep", "concentric")


def _sat_ball_centers(rng, ext, radius, per_class=20):
    """Seeded (kind, ball center in the box frame) pairs.

    ``separated``, ``touching``, ``shallow`` and ``deep``: beyond one face
    or beyond every face (a corner), the ball apart from the box, touching
    it, overlapping it by less than half its radius, or by more.  ``face``,
    ``edge`` (3D only) and ``corner``: the center on the box surface, on
    one, two or every face.  ``inside``: anywhere in the box, at equal
    depth below two faces, or at the box center.
    """
    dim = len(ext)
    for kind in SAT_BALL_KINDS:
        if kind == "edge" and dim == 2:
            continue
        for trial in range(per_class):
            point = [rng.uniform(-e, e) for e in ext]
            if kind == "inside":
                if trial % 3 == 0:
                    point = [0.0] * dim
                elif trial % 3 == 1:
                    axes = rng.sample(range(dim), 2)
                    depth = rng.uniform(0.0, min(ext[a] for a in axes))
                    for axis in axes:
                        point[axis] = rng.choice((1.0, -1.0)) * (ext[axis] - depth)
                yield kind, tuple(point)
                continue
            active = {"face": 1, "edge": 2, "corner": dim}.get(
                kind, rng.choice((1, dim)))
            direction = [0.0] * dim
            for axis in rng.sample(range(dim), active):
                sign = rng.choice((1.0, -1.0))
                point[axis] = sign * ext[axis]
                direction[axis] = sign * rng.uniform(0.1, 1.0)
            length = math.sqrt(sum(d * d for d in direction))
            gap = {"separated": rng.uniform(radius, 3.0 * radius),
                   "touching": radius,
                   "shallow": rng.uniform(0.5 * radius, radius),
                   "deep": rng.uniform(0.0, 0.5 * radius)}.get(kind, 0.0)
            yield kind, tuple(p + d / length * gap for p, d in zip(point, direction))


def _sat_circle_offsets(rng, ra, rb, per_class=20):
    """Seeded (kind, B's center in A's frame) pairs for two circles:
    ``separated``, ``touching``, ``shallow`` (overlap below half of B's
    radius), ``deep``, and ``concentric`` (B's center on A's, or 1e-12 to
    2e-9 off it).  Every other pose lies along an axis."""
    for kind in SAT_CIRCLE_KINDS:
        for trial in range(per_class):
            d = {"separated": rng.uniform(ra + rb, ra + 3.0 * rb),
                 "touching": ra + rb,
                 "shallow": rng.uniform(ra + 0.5 * rb, ra + rb),
                 "deep": rng.uniform(0.0, ra + 0.5 * rb)}.get(kind)
            if d is None:
                d = _concentric_distance(rng, trial)
            yield kind, _circle_offset(rng, trial, d)


def _sat_sweep():
    """Digest and (pairing, kind, result, angles) of sat calls on all four
    pairings, every other pose with A unturned at the origin, the rest with
    A turned and moved.  The rect-rect poses are those of the co rect-rect
    sweep, every other one moved into A's frame; only they keep both
    bodies' angles."""
    digest = hashlib.sha256()
    rng = random.Random(408)
    results = []

    def record(pairing, kind, info, angles=None):
        digest.update(repr((pairing, kind, tuple(info))).encode())
        results.append((pairing, kind, info, angles))

    for trial, (kind, local) in enumerate(_sat_ball_centers(rng, (0.5, 0.3), 0.2)):
        center, angle, world = _pose_2d(rng, trial % 2 == 0, local)
        record("rect-circle", kind, sat.detect_rect_circle(
            body2d(center, angle), BALL_RECT, body2d(world), BALL_CIRCLE))
    for trial, (kind, local) in enumerate(
            _sat_ball_centers(rng, (0.5, 0.3, 0.4), 0.2)):
        center, quat, world = _pose_3d(rng, trial % 2 == 0, local)
        record("sphere-cuboid", kind, sat.detect_sphere_cuboid(
            body3d(center, quat), BALL_CUBOID, body3d(world), BALL_SPHERE))
    for trial, (kind, local) in enumerate(
            _sat_circle_offsets(rng, CIRCLE_A.radius, CIRCLE_B.radius)):
        center, angle, world = _pose_2d(rng, trial % 2 == 0, local)
        record("circle-circle", kind, sat.detect_circle_circle(
            body2d(center, angle), CIRCLE_A, body2d(world), CIRCLE_B))
    for trial, (center_a, angle_a, center_b, angle_b) in enumerate(
            _rect_rect_poses()):
        if trial % 2 == 0:  # the same relative pose, A unturned at the origin
            c, s = math.cos(angle_a), math.sin(angle_a)
            rx, ry = center_b[0] - center_a[0], center_b[1] - center_a[1]
            center_a, center_b = (0.0, 0.0), (c * rx + s * ry, -s * rx + c * ry)
            angle_a, angle_b = 0.0, angle_b - angle_a
        record("rect-rect", None, sat.detect_rect_rect(
            body2d(center_a, angle_a), RECT_A, body2d(center_b, angle_b), RECT_B),
            (angle_a, angle_b))
    return digest.hexdigest(), results


def _axis_owner(info, angle_a, angle_b):
    """0 or 1 when a rect-rect normal lies along an axis of A or of B only."""
    nx, ny = info.normal
    along = [abs(nx * math.sin(t) - ny * math.cos(t)) < 1e-12 or
             abs(nx * math.cos(t) + ny * math.sin(t)) < 1e-12
             for t in (angle_a, angle_b)]
    return {(True, False): 0, (False, True): 1}.get(tuple(along))


def test_sat_contact_bytes():
    digest, results = _sat_sweep()
    assert len(results) == 20 * (2 * len(SAT_BALL_KINDS) - 1
                                 + len(SAT_CIRCLE_KINDS)) + 251
    for pairing, kind, info, _ in results:
        if kind == "separated":
            assert not info.colliding
        elif kind not in ("touching", None):
            assert info.colliding, (pairing, kind)
    owners = [_axis_owner(info, *angles) for pairing, _, info, angles in results
              if pairing == "rect-rect" and info.colliding]
    assert len(owners) >= 150
    assert owners.count(0) >= 40 and owners.count(1) >= 40
    assert digest == SAT_CONTACT_DIGEST
