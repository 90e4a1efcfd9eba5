"""Stepping-loop A/B: the working tree against a git revision, in one process.

Usage::

    python tools/loop_ab.py [REV] [--rounds N] [--duration S]

REV defaults to HEAD.  The script extracts REV's ``src/contactsim`` with
``git archive`` into a temporary directory under the package name
``contactsim_ab`` (the package imports itself relatively, so the renamed copy
works), imports it next to the working tree's ``src/contactsim`` and runs the
ten registry cells (scenario x backend) with both.  Each round visits every
cell once and runs it with one version, then the other; the version that goes
first alternates from cell to cell.  ``--duration`` replaces each scenario's
own duration.

Every run also exports the cell's CSV and events files with its own
version's ``export_trajectory``, timed apart from the loop.  For each cell it
prints the median over the rounds of the loop-time ratio and of the
export-time ratio (working tree / REV), each with its interquartile range,
and each side's ``calls_per_s``: pair-steps per second of stepping-loop time
over all rounds, as perfbench counts them.  The last two lines do the same
for the five cells of each backend, the ratios taken over the cells' summed
times of each round.  The script exits 1 if any digest of the first round's
exports differs between the versions.

Both versions share the process, so each pair of runs meets the same host
speed; on a host whose speed drifts, that keeps the ratios stable where
runs in separate processes do not.  Standard library only.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ALIAS = "contactsim_ab"
BACKENDS = ("sat", "co")


def extract(rev: str, into: Path) -> None:
    """Write REV's ``src/contactsim`` modules to ``into/ALIAS``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src/contactsim"],
                             check=True, capture_output=True).stdout
    package = into / ALIAS
    package.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile() and member.name.endswith(".py"):
                (package / Path(member.name).name).write_bytes(
                    tar.extractfile(member).read())


def run_cell(package: str, name: str, backend: str, duration, out: Path,
             digest: bool = False):
    """One cell with one version, exported into ``out``: (loop s, export s,
    pair-steps, export digests, or None unless ``digest``)."""
    simulate = importlib.import_module(f"{package}.simulate")
    gc.collect()  # each run starts from a collected heap
    trajectory, loop_s = simulate.run_scenario_timed(
        name, simulate.SimConfig(backend=backend, duration=duration))
    n = len(trajectory.shapes)
    calls = (len(trajectory.samples) - 1) * n * (n - 1) // 2
    path = out / f"{package}-{name}-{backend}.csv"
    export = importlib.import_module(f"{package}.export").export_trajectory
    start = time.perf_counter()
    export(trajectory, "csv", str(path))
    export_s = time.perf_counter() - start
    digests = None
    if digest:
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (path, Path(f"{path}.events.csv")))
    return loop_s, export_s, calls, digests


def spread(values):
    """Median and interquartile range."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--duration", type=float, default=None)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        extract(args.rev, tmp)
        sys.path[:0] = [str(ROOT / "src"), str(tmp)]
        names = importlib.import_module("contactsim").SCENARIO_NAMES
        cells = [(name, backend) for backend in BACKENDS for name in names]
        versions = ("contactsim", ALIAS)
        # per cell and version: loop and export times, pair-steps, digests
        loops = {(cell, v): [] for cell in cells for v in versions}
        exports = {key: [] for key in loops}
        calls = dict.fromkeys(loops, 0)
        digests = {}
        for round_ in range(args.rounds):
            for index, cell in enumerate(cells):
                order = versions if (round_ + index) % 2 == 0 else versions[::-1]
                for version in order:
                    loop_s, export_s, n, digest = run_cell(
                        version, *cell, args.duration, tmp, digest=round_ == 0)
                    loops[cell, version].append(loop_s)
                    exports[cell, version].append(export_s)
                    calls[cell, version] += n
                    if digest is not None:
                        digests[cell, version] = digest

    def rate(keys, version):
        return (sum(calls[key, version] for key in keys)
                / sum(sum(loops[key, version]) for key in keys))

    def ratios(times, keys):
        """Per-round ratio of the keys' summed times, tree / REV."""
        return [sum(tree) / sum(rev) for tree, rev in zip(
            zip(*(times[key, versions[0]] for key in keys)),
            zip(*(times[key, versions[1]] for key in keys)))]

    def line(label, keys):
        loop, loop_iqr = spread(ratios(loops, keys))
        export, export_iqr = spread(ratios(exports, keys))
        print(f"{label:<22} {loop:>7.3f} {loop_iqr:>7.3f} {export:>7.3f} "
              f"{export_iqr:>7.3f} {rate(keys, versions[0]):>13.0f} "
              f"{rate(keys, versions[1]):>13.0f}")

    print(f"{'cell':<22} {'loop':>7} {'iqr':>7} {'export':>7} {'iqr':>7} "
          f"{'tree calls/s':>13} {args.rev + ' calls/s':>13}")
    for cell in cells:
        line("-".join(cell), [cell])
    for backend in BACKENDS:
        line("scenarios-" + backend, [cell for cell in cells if cell[1] == backend])
    differ = [cell for cell in cells
              if digests[cell, versions[0]] != digests[cell, versions[1]]]
    for cell in differ:
        print(f"export digests differ: {'-'.join(cell)}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
