"""Timing harness: per-scenario stepping times and narrow-phase micro-costs.

Scenario rows time only the stepping loop (detection, resolution,
integration) on a monotonic clock, with one discarded warm-up run before
the measured repeats.  The micro section times raw detector calls, cold
(no warm-start context), cycling over a fixed pose set per pairing, in
``MICRO_BLOCKS`` blocks.  Each row and cell reports its median and
interquartile range (inclusive quartiles; 0 for a single sample), since on
a small host one block of calls varies by tens of percent from run to run.
"""
from __future__ import annotations

import math
import os
import platform
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import convex, sat
from .errors import UnknownScenario
from .geometry import Circle, Cuboid, Rectangle, Sphere, body2d, body3d
from .scenarios import SCENARIO_NAMES
from .simulate import Backend, SimConfig, run_scenario_timed

PAIRINGS = tuple(name for name, _ in sat.PAIRINGS.values())
MICRO_BLOCKS = 10


def run_bench(scenarios: Optional[Sequence[str]] = None,
              backends: Optional[Sequence[str]] = None,
              repeat: int = 10,
              micro_calls: int = 100_000) -> Dict:
    """Produce the full benchmark report as a JSON-serializable dict.

    Every (scenario, backend) cell appears either with timing statistics or
    with an explicit error entry; ``micro_calls`` of 0 skips the micro
    section.  A repeat below 1, a negative ``micro_calls`` or an unknown
    backend raises ``ValueError``, and an unknown scenario
    ``UnknownScenario``, before anything runs.
    """
    if repeat < 1:
        raise ValueError("repeat must be at least 1")
    if micro_calls < 0:
        raise ValueError("micro_calls must be at least 0")
    scenarios = tuple(scenarios) if scenarios else SCENARIO_NAMES
    backends = tuple(backends) if backends else ("sat", "co")
    for name in backends:
        if name not in ("sat", "co"):
            raise ValueError(f"unknown backend {name!r}")
    for name in scenarios:
        if name not in SCENARIO_NAMES:
            raise UnknownScenario(f"unknown scenario {name!r}")

    rows: List[Dict] = []
    for name in scenarios:
        for backend in backends:
            rows.append(_bench_cell(name, backend, repeat))

    report: Dict = {
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "note": "wall times from a monotonic clock; one warm-up run "
                    "discarded; stepping loop only (no I/O or setup)",
        },
        "repeat": repeat,
        "rows": rows,
    }

    if micro_calls > 0:
        micro = [_micro_cell(pairing, backend, micro_calls)
                 for pairing in PAIRINGS for backend in backends]
        report["micro"] = micro
        report["sphere_cuboid_co_vs_sat_ratio"] = _co_sat_ratio(micro)
    return report


def _bench_cell(name: str, backend: str, repeat: int) -> Dict:
    try:
        config = SimConfig(backend=Backend(backend))
        run_scenario_timed(name, config)  # warm-up, excluded from statistics
        times = [run_scenario_timed(name, config)[1] for _ in range(repeat)]
        median, iqr = _median_iqr(times)
        return {
            "scenario": name,
            "backend": backend,
            "mean_s": statistics.fmean(times),
            "std_s": statistics.pstdev(times) if len(times) > 1 else 0.0,
            "median_s": median,
            "iqr_s": iqr,
            "repeat": repeat,
        }
    except Exception as exc:  # keep the report complete on per-cell failures
        return {"scenario": name, "backend": backend, "error": str(exc)}


def _micro_poses(pairing: str):
    """Fixed detector inputs per pairing: a short cycle of separated,
    touching-range and overlapping poses."""
    if pairing == "rect-circle":
        rect = Rectangle(1.0, 0.6)
        circle = Circle(0.5)
        positions = ((2.0, 0.3), (1.45, 0.2), (1.2, 0.9), (0.0, 1.35))
        return [(body2d((0.0, 0.0), angle=0.2), rect, body2d(p), circle)
                for p in positions]
    if pairing == "circle-circle":
        ca, cb = Circle(0.5), Circle(0.4)
        positions = ((2.0, 0.0), (0.95, 0.2), (0.6, 0.4), (1.2, -0.7))
        return [(body2d((0.0, 0.0)), ca, body2d(p), cb) for p in positions]
    if pairing == "rect-rect":
        ra, rb = Rectangle(0.5, 0.5), Rectangle(0.4, 0.3)
        poses = (((2.0, 0.0), 0.0), ((1.0, 0.3), 0.3), ((0.8, 0.1), 0.0),
                 ((1.4, -0.5), 0.7))
        return [(body2d((0.0, 0.0)), ra, body2d(p, angle=ang), rb)
                for p, ang in poses]
    if pairing == "sphere-cuboid":
        cuboid, sphere = Cuboid((1.0, 1.0, 0.5)), Sphere(0.5)
        positions = ((2.0, 0.0, 0.3), (1.4, 0.2, 0.1), (1.1, 0.9, 0.6),
                     (0.3, 0.2, 0.95))
        return [(body3d((0.0, 0.0, 0.0)), cuboid, body3d(p), sphere)
                for p in positions]
    raise ValueError(f"unknown pairing {pairing!r}")


def _micro_cell(pairing: str, backend: str, calls: int) -> Dict:
    cases = _micro_poses(pairing)
    _, sat_detector = sat.PAIRINGS[type(cases[0][1]), type(cases[0][3])]
    settings = convex.SolverSettings()
    n_cases = len(cases)
    if backend == "sat":
        def run(case):
            return sat_detector(*case)
    else:
        def run(case):
            return convex.detect_convex(*case, settings=settings)
    # warm-up pass over the pose cycle
    for case in cases:
        run(case)
    # MICRO_BLOCKS blocks of calls, equal when they divide the count
    bounds = [calls * block // MICRO_BLOCKS for block in range(MICRO_BLOCKS + 1)]
    per_call = []
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            t0 = time.perf_counter()
            for k in range(start, stop):
                run(cases[k % n_cases])
            per_call.append((time.perf_counter() - t0) / (stop - start))
    median, iqr = _median_iqr(per_call)
    return {
        "pairing": pairing,
        "backend": backend,
        "calls": calls,
        "per_call_s": median,
        "per_call_iqr_s": iqr,
    }


def _median_iqr(values: List[float]) -> Tuple[float, float]:
    """Median and interquartile range of one or more samples."""
    if len(values) < 2:
        return values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def _co_sat_ratio(micro: List[Dict]) -> Optional[float]:
    per_call = {(cell["pairing"], cell["backend"]): cell["per_call_s"]
                for cell in micro}
    sat_cost = per_call.get(("sphere-cuboid", "sat"))
    co_cost = per_call.get(("sphere-cuboid", "co"))
    if not sat_cost or not co_cost:
        return None
    ratio = co_cost / sat_cost
    return ratio if math.isfinite(ratio) else None
