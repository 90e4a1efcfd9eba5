"""Golden bytes: the SHA-256 of every scenario x backend CSV export.

The ten registry cells run at their default durations and export CSV plus
the events sibling.  A change that keeps the physics must keep these bytes;
one that changes it on purpose pins new digests and says why.  A second
digest pins every ``ContactInfo`` field of a seeded sweep of co rect-rect
poses, cold and warm.  The digests depend on the platform's libm (sin, cos
and sqrt rounding), so the tests run only on Linux x86-64, where they were
taken.
"""
import hashlib
import math
import platform
import random

import pytest

from contactsim import convex
from contactsim.convex import PairContext, detect_convex
from contactsim.export import export_trajectory
from contactsim.geometry import Rectangle, body2d
from contactsim.scenarios import SCENARIO_NAMES
from contactsim.simulate import SimConfig, run_scenario

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
