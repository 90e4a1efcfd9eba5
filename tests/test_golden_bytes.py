"""Golden bytes: the SHA-256 of every scenario x backend CSV export.

The ten registry cells run at their default durations and export CSV plus
the events sibling.  A change that keeps the physics must keep these bytes;
one that changes it on purpose pins new digests and says why.  The digests
depend on the platform's libm (sin, cos and sqrt rounding), so the test runs
only on Linux x86-64, where they were taken.
"""
import hashlib
import platform

import pytest

from contactsim.export import export_trajectory
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
