"""The benchmark's workloads, their output checks and their layer metrics.

A workload runs passes one after another.  On ``scenarios-sat`` and
``scenarios-co`` a pass is every registry scenario with one backend: build,
stepping loop, CSV plus events export.  On ``cold-detect`` a pass is one
cycle over the whole pose set through both narrow-phase backends, each ``co``
call with a fresh ``PairContext``.

A run's figure for a time or a rate is built from the same unit of work
timed in every untraced pass: a scenario cell, or one detector call on one
pose.  Each unit counts with one time over the run's passes, and the figure
is the sum over units, so every cell and every call, a slow or failing one
too, counts at its full elapsed time.  A scenario cell runs for a tenth of a
second or more and counts with its median; a detector call runs for
microseconds and counts with its fastest time, the one least disturbed by
other work on the host.  On a shared 2-core x86 host whose speed swings by
up to 1.8x within seconds, these two kept the run-to-run spread lowest:
per-call medians over a run's few cycles spread twice as much, and per-cell
minima more than per-cell medians.  The median and quartiles of whole passes
are reported next to the figure.

The engine is always reached through module attributes looked up at call
time, so the wrappers of ``tracing.Tracer`` see every call a traced pass makes
and an untraced pass runs the unmodified code.
"""
from __future__ import annotations

import csv
import hashlib
import math
import os
import random
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from contactsim import convex, export, sat, scenarios, simulate
from contactsim.errors import ContactSimError

import poses
from tracing import SAT_FUNCTIONS, Tracer

PAIRINGS = poses.PAIRINGS
POSITION_TOLERANCE = 1e-3  # sat vs co body positions, metres
RHO_TOLERANCE = 1e-6       # cold-detect sat vs co depth disagreement
ORACLE_TOLERANCE = 1e-9    # sat proximity vs the generated gap

LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("scenarios.build_s", "s"),
    ("sat.calls", "count"),
    ("sat.busy_s", "s"),
    *((f"sat.us_per_call.{p}", "us") for p in PAIRINGS),
    ("convex.calls", "count"),
    ("convex.busy_s", "s"),
    *((f"convex.us_per_call.{p}", "us") for p in PAIRINGS),
    ("convex.iters.min", "count"),
    ("convex.iters.mean", "count"),
    ("convex.iters.max", "count"),
    ("convex.warm_hit_ratio", "ratio"),
    ("convex.not_converged", "count"),
    ("penalty.calls", "count"),
    ("penalty.busy_s", "s"),
    ("simulate.integrate_s", "s"),
    ("simulate.response_self_s", "s"),
    ("simulate.record_s", "s"),
    ("simulate.contact_step_ratio", "ratio"),
    ("export.busy_s", "s"),
    ("export.bytes", "B"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.unaccounted_share", "ratio"),
)

# the self-time metrics of the layer table, each the self time of the spans
# whose names start with the prefix; together they cover every span
BUSY_METRICS: Tuple[Tuple[str, str], ...] = (
    ("scenarios.build_s", "scenarios."),
    ("simulate.record_s", "simulate.run_world"),
    ("simulate.response_self_s", "simulate.collision_response"),
    ("simulate.integrate_s", "simulate.integrate"),
    ("sat.busy_s", "sat."),
    ("convex.busy_s", "convex."),
    ("penalty.busy_s", "penalty."),
    ("export.busy_s", "export."),
)


def summary(unit: str, value: float, samples: Sequence[float]) -> Dict:
    """A metric: the run's figure, and median, quartiles and count of samples."""
    if len(samples) > 1:
        q1, median, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = median = q3 = samples[0]
    return {"unit": unit, "value": value, "median": median, "q1": q1, "q3": q3,
            "n": len(samples)}


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _check(name: str, ok: bool, detail: str = "", **where) -> Dict:
    return {"check": name, "ok": bool(ok), "detail": detail, **where}


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def nonfinite_fields(path: str, skip: Sequence[str] = ()) -> List[str]:
    """``row:column`` of every numeric CSV field that is not a finite float."""
    bad = []
    with open(path, newline="", encoding="utf-8") as handle:
        for row_number, row in enumerate(csv.DictReader(handle), start=2):
            for column, value in row.items():
                if column in skip:
                    continue
                try:
                    finite = math.isfinite(float(value))
                except (TypeError, ValueError):
                    finite = False
                if not finite:
                    bad.append(f"{row_number}:{column}")
    return bad


def position_gap(path: str, trajectory) -> float:
    """Largest |x, y, z| difference between a CSV export and a trajectory."""
    expected = [state.position + (0.0,) * (3 - state.dim)
                for _, states in trajectory.samples for state in states]
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    if len(rows) != len(expected):
        return math.inf
    return max((abs(float(row[axis]) - want[k])
                for row, want in zip(rows, expected)
                for k, axis in enumerate("xyz")), default=0.0)


def _self_s(summary_: Dict, prefix: str) -> float:
    return sum(ns for name, ns in summary_["self_ns"].items()
               if name.startswith(prefix)) / 1e9


def _calls(summary_: Dict, prefix: str) -> int:
    return sum(n for name, n in summary_["calls"].items() if name.startswith(prefix))


class Workload:
    """Shared bookkeeping: passes, traced-pass summaries and layer metrics."""

    unit_key = "pass_s"  # the pass time the tracing overhead compares

    def __init__(self, min_passes: int):
        self.min_passes = min_passes
        self.passes: List[Dict] = []   # one record per pass, traced or not
        self.attempted = 0
        self.failed = 0
        self.last_tracer: Optional[Tracer] = None

    def run_pass(self) -> Dict:
        raise NotImplementedError

    def measure(self, seconds: float, trace: bool,
                between: Callable[[], None] = lambda: None) -> None:
        """Passes until ``seconds`` are spent; a traced run alternates off/on.

        ``between`` runs before every pass, outside its timing.
        """
        deadline = time.perf_counter() + seconds
        minimum = self.min_passes * (2 if trace else 1)
        while len(self.passes) < minimum or time.perf_counter() < deadline:
            between()
            if not (trace and len(self.passes) % 2 == 1):
                record = self.run_pass()
                record["traced"] = False
            else:
                tracer = Tracer()
                with tracer.installed():
                    record = self.run_pass()
                self.last_tracer = tracer
                record.update(traced=True, summary=tracer.summary(),
                              iterations=tracer.iterations,
                              not_converged=tracer.not_converged,
                              warm=(tracer.warm_queries, tracer.warm_hits))
            self.passes.append(record)

    def plain(self) -> List[Dict]:
        return [r for r in self.passes if not r["traced"]]

    def traced(self) -> List[Dict]:
        return [r for r in self.passes if r["traced"]]

    def layer_metrics(self) -> Dict[str, Dict]:
        """Every per-layer metric from the traced passes (zero where unused).

        Times and counts are per traced pass: the mean is the run's figure.
        """
        traced = self.traced()
        summaries = [r["summary"] for r in traced]
        values: Dict[str, Tuple[float, List[float]]] = {}

        def per_pass(name, samples):
            values[name] = (statistics.fmean(samples), samples)

        def once(name, value):
            values[name] = (value, [value])

        for name, prefix in BUSY_METRICS:
            per_pass(name, [_self_s(s, prefix) for s in summaries])
        per_pass("sat.calls", [_calls(s, "sat.") for s in summaries])
        per_pass("convex.calls", [_calls(s, "convex.") for s in summaries])
        per_pass("penalty.calls", [_calls(s, "penalty.contact_force") for s in summaries])
        per_pass("convex.not_converged", [r["not_converged"] for r in traced])
        per_pass("export.bytes", [r.get("export_bytes", 0) for r in traced])
        for pairing in PAIRINGS:
            for layer in ("sat", "convex"):
                name = f"{layer}.{pairing}"
                calls = sum(s["calls"][name] for s in summaries)
                busy = sum(s["self_ns"][name] for s in summaries)
                once(f"{layer}.us_per_call.{pairing}", busy / calls / 1e3 if calls else 0.0)

        iterations = [i for r in traced for i in r["iterations"]]
        once("convex.iters.min", min(iterations, default=0))
        once("convex.iters.mean", statistics.fmean(iterations) if iterations else 0.0)
        once("convex.iters.max", max(iterations, default=0))
        queries = sum(r["warm"][0] for r in traced)
        once("convex.warm_hit_ratio",
             sum(r["warm"][1] for r in traced) / queries if queries else 0.0)
        steps = sum(r.get("steps", 0) for r in traced)
        once("simulate.contact_step_ratio",
             sum(s["contact_steps"] for s in summaries) / steps if steps else 0.0)
        once("trace.overhead_ratio",
             statistics.fmean(r[self.unit_key] for r in traced)
             / statistics.fmean(r[self.unit_key] for r in self.plain()))
        once("trace.unaccounted_share", abs(1.0 - self.accounted_ratio(traced)))
        units = dict(LAYER_METRICS)
        return {name: summary(units[name], *values[name]) for name in units}

    def layer_table(self, metrics: Dict[str, Dict]) -> Dict:
        """Mean self time per traced pass of each layer; the rows sum to the pass."""
        traced = self.traced()
        pass_s = statistics.fmean(r["pass_s"] for r in traced)
        rows = [{"layer": name, "self_s": metrics[name]["value"],
                 "share_of_pass": metrics[name]["value"] / pass_s}
                for name, _ in BUSY_METRICS]
        outside = pass_s - sum(row["self_s"] for row in rows)
        rows.append({"layer": "outside any span (benchmark bookkeeping)",
                     "self_s": outside, "share_of_pass": outside / pass_s})
        buckets: Dict[str, int] = {}
        for iterations in sorted(i for r in traced for i in r["iterations"]):
            low = 1 << (iterations.bit_length() - 1)
            key = f"{low}-{2 * low - 1}"
            buckets[key] = buckets.get(key, 0) + 1
        table = {"pass_s": pass_s, "traced_passes": len(traced), "rows": rows,
                 "convex_iterations_per_call": buckets,
                 "convex_warm_hit_ratio": metrics["convex.warm_hit_ratio"]["value"],
                 "trace_overhead_ratio": metrics["trace.overhead_ratio"]["value"]}
        if "loop_s" in traced[0]:
            # every in-loop span nests under run_world, so their self times sum
            # to the run_world spans; compare with the loop time it reports
            table["loop_s"] = statistics.fmean(r["loop_s"] for r in traced)
            table["loop_layers_s"] = statistics.fmean(
                r["summary"]["run_world_ns"] for r in traced) / 1e9
        return table


class ScenarioWorkload(Workload):
    """Every registry scenario with one backend; a pass builds, runs, exports."""

    unit_key = "loop_s"

    def __init__(self, backend: str, seed: int, out_dir: str,
                 duration: Optional[float] = None, min_passes: int = 3):
        super().__init__(min_passes)
        self.backend = backend
        self.other = "co" if backend == "sat" else "sat"
        self.order = list(scenarios.SCENARIO_NAMES)
        random.Random(seed).shuffle(self.order)
        self.duration = duration
        self.out_dir = out_dir
        self.digests: Dict[str, Tuple[str, str]] = {}
        self.drifted: Dict[str, int] = {}
        self.errors: List[str] = []

    def _run_scenario(self, name: str, backend: str):
        """Build and run one registry scenario; returns (trajectory, loop s)."""
        config = simulate.SimConfig(backend=backend, duration=self.duration)
        return simulate.run_scenario_timed(name, config)

    def _path(self, name: str) -> str:
        return os.path.join(self.out_dir, f"{name}-{self.backend}.csv")

    def setup(self) -> None:
        """Build every world once, as each pass does again."""
        for name in self.order:
            scenarios.build_scenario(name)

    def run_pass(self) -> Dict:
        cells = {}  # name: (cell s, loop s, steps, detector calls)
        failed = 0
        clock = time.perf_counter
        start = clock()
        for name in self.order:
            cell_start = clock()
            try:
                trajectory, elapsed = self._run_scenario(name, self.backend)
                export.export_trajectory(trajectory, "csv", self._path(name))
            except ContactSimError as exc:
                failed += 1
                self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            steps = len(trajectory.samples) - 1
            n_bodies = len(trajectory.shapes)
            cells[name] = (clock() - cell_start, elapsed, steps,
                           steps * n_bodies * (n_bodies - 1) // 2)
        pass_s = clock() - start
        self.attempted += len(self.order)
        self.failed += failed
        return {"pass_s": pass_s, "cells": cells,
                "loop_s": sum(cell[1] for cell in cells.values()),
                "steps": sum(cell[2] for cell in cells.values()),
                "calls": sum(cell[3] for cell in cells.values()),
                "export_bytes": self._record_exports()}

    def _record_exports(self) -> int:
        """Digest this pass's exports against the first pass's; returns bytes."""
        total = 0
        for name in self.order:
            paths = (self._path(name), self._path(name) + ".events.csv")
            if not all(os.path.exists(p) for p in paths):
                continue
            total += sum(os.path.getsize(p) for p in paths)
            digest = tuple(_sha256(p) for p in paths)
            if self.digests.setdefault(name, digest) != digest:
                self.drifted[name] = self.drifted.get(name, 0) + 1
        return total

    def checks(self) -> List[Dict]:
        results = []
        for name in self.order:
            if name not in self.digests:
                results.append(_check("cell ran", False, "every pass failed", cell=name))
                continue
            drift = self.drifted.get(name, 0)
            results.append(_check(
                "bytes identical across passes", drift == 0,
                f"{drift} of {len(self.passes)} passes differ" if drift else "",
                cell=name))
            for path, skip in ((self._path(name), ()),
                               (self._path(name) + ".events.csv", ("pair",))):
                bad = nonfinite_fields(path, skip)
                results.append(_check("exported values finite", not bad,
                                      ", ".join(bad[:5]), cell=name,
                                      file=os.path.basename(path)))
            reference, _ = self._run_scenario(name, self.other)
            gap = position_gap(self._path(name), reference)
            results.append(_check(
                "sat and co positions agree", gap <= POSITION_TOLERANCE,
                f"max |difference| {gap:.3e} m (tolerance {POSITION_TOLERANCE})",
                cell=name))
        return results

    def end_to_end(self) -> Dict[str, Dict]:
        """Each cell counts with its median cell and loop time over the passes."""
        plain = self.plain()
        per_cell = {}  # name: (median cell s, median loop s, steps, calls)
        for name in self.order:
            runs = [r["cells"][name] for r in plain if name in r["cells"]]
            if runs:
                per_cell[name] = (statistics.median(run[0] for run in runs),
                                  statistics.median(run[1] for run in runs),
                                  runs[0][2], runs[0][3])
        loop_s = sum(cell[1] for cell in per_cell.values())
        fail_ratio = self.failed / self.attempted
        return {
            "steps_per_s": summary("1/s", sum(c[2] for c in per_cell.values()) / loop_s,
                                   [r["steps"] / r["loop_s"] for r in plain]),
            "pass_s": summary("s", sum(c[0] for c in per_cell.values()),
                              [r["pass_s"] for r in plain]),
            "calls_per_s": summary("1/s", sum(c[3] for c in per_cell.values()) / loop_s,
                                   [r["calls"] / r["loop_s"] for r in plain]),
            "fail_ratio": summary("ratio", fail_ratio, [fail_ratio]),
        }

    def accounted_ratio(self, traced: List[Dict]) -> float:
        """Traced run_world span time over the loop time run_world reports."""
        return (sum(r["summary"]["run_world_ns"] for r in traced) / 1e9
                / sum(r["loop_s"] for r in traced))

    def details(self) -> Dict:
        return {
            "scenario_order": self.order,
            "sha256": {name: {"csv": csv_digest, "events": events_digest}
                       for name, (csv_digest, events_digest) in self.digests.items()},
            "errors": self.errors,
        }


def _error(exc: ContactSimError) -> tuple:
    return ("error", type(exc).__name__, str(exc))


def info_problems(info) -> List[str]:
    """Invariants every returned ContactInfo must satisfy."""
    problems = []
    numbers = [info.phi, info.rho, *info.p_tilde, *info.q_tilde, *info.anchor_a,
               *info.anchor_b, *info.normal, *info.tangent]
    if not all(math.isfinite(x) for x in numbers):
        problems.append("non-finite field")
    if info.rho < 0.0:
        problems.append("negative rho")
    if info.colliding != (info.rho > 0.0):
        problems.append("colliding disagrees with rho")
    if abs(math.hypot(*info.normal) - 1.0) > 1e-9:
        problems.append("normal not unit length")
    return problems


def oracle_problem(pose, info) -> Optional[str]:
    """Compare a sat result with the distance the pose was built with.

    Box-ball and circle-circle poses whose ball center lies outside the other
    shape have proximity exactly equal to the gap.  For rectangle pairs the
    separating-axis proximity is a lower bound on distance that is at least
    the gap along the chosen face normal.
    """
    if pose.pairing == "rect-rect":
        if pose.gap > 0.0 and info.phi < pose.gap - ORACLE_TOLERANCE:
            return f"phi {info.phi!r} below face gap {pose.gap!r}"
        return None
    reach = pose.shape_b.radius + (pose.shape_a.radius
                                   if pose.pairing == "circle-circle" else 0.0)
    if reach + pose.gap > ORACLE_TOLERANCE and \
            abs(info.phi - pose.gap) > ORACLE_TOLERANCE:
        return f"phi {info.phi!r} differs from gap {pose.gap!r}"
    return None


def _co_sat_ratio(records: List[Dict], pairing: str) -> float:
    """Median co call time over median sat call time of one pairing."""
    def median(backend):
        return statistics.median([t for r in records for t in r["times"][backend, pairing]])
    return median("co") / median("sat")


class ColdDetectWorkload(Workload):
    """Cold poses through both backends; a pass is one cycle over the set."""

    def __init__(self, seed: int, per_pairing: int, min_passes: int = 1):
        super().__init__(min_passes)
        self.per_pairing = per_pairing
        self.placements = poses.draw(seed, per_pairing)
        self.poses: List[poses.Pose] = []
        self.settings = convex.SolverSettings()
        self.outcomes: List[tuple] = []
        self.drifted_passes: List[int] = []

    def setup(self) -> None:
        """Engine shapes and body states for every pose."""
        self.poses = []  # drop the previous set first: one set stays resident
        self.poses = poses.build(self.placements)

    def run_pass(self) -> Dict:
        detectors = {p: getattr(sat, f) for p, f in SAT_FUNCTIONS.items()}
        detect_convex = convex.detect_convex
        settings = self.settings
        clock = time.perf_counter_ns
        times = {(b, p): [] for b in ("sat", "co") for p in PAIRINGS}
        outcomes = []
        start = time.perf_counter()
        for pose in self.poses:
            args = (pose.state_a, pose.shape_a, pose.state_b, pose.shape_b)
            t0 = clock()
            try:
                sat_out = ("ok", detectors[pose.pairing](*args))
            except ContactSimError as exc:
                sat_out = _error(exc)
            t1 = clock()
            try:
                co_out = ("ok", detect_convex(*args, settings, convex.PairContext()))
            except ContactSimError as exc:
                co_out = _error(exc)
            t2 = clock()
            times["sat", pose.pairing].append(t1 - t0)
            times["co", pose.pairing].append(t2 - t1)
            outcomes.append((sat_out, co_out))
        pass_s = time.perf_counter() - start
        self.attempted += 2 * len(self.poses)
        self.failed += sum(out[0] == "error" for pair in outcomes for out in pair)
        if not self.passes:
            self.outcomes = outcomes
        elif outcomes != self.outcomes:
            self.drifted_passes.append(len(self.passes))
        return {"pass_s": pass_s, "calls": 2 * len(self.poses), "times": times}

    def _classified(self):
        """Failures and mismatches of the first pass, with their poses."""
        failures, mismatches = [], []
        for pose, (sat_out, co_out) in zip(self.poses, self.outcomes):
            for backend, out in (("sat", sat_out), ("co", co_out)):
                if out[0] == "error":
                    failures.append({"pairing": pose.pairing, "backend": backend,
                                     "error": out[1], "message": out[2],
                                     "pose": pose.describe()})
            if sat_out[0] == "ok" and co_out[0] == "ok":
                s, c = sat_out[1], co_out[1]
                if not c.saturated and (s.colliding != c.colliding
                                        or abs(s.rho - c.rho) > RHO_TOLERANCE):
                    mismatches.append({
                        "pairing": pose.pairing, "pose": pose.describe(),
                        "sat": {"colliding": s.colliding, "rho": s.rho},
                        "co": {"colliding": c.colliding, "rho": c.rho,
                               "saturated": c.saturated}})
        return failures, mismatches

    def checks(self) -> List[Dict]:
        results = [_check("outcomes identical across passes", not self.drifted_passes,
                          f"passes {self.drifted_passes} differ from the first"
                          if self.drifted_passes else "")]
        problems: Dict[Tuple[str, str, str], List[str]] = {}
        for index, (pose, pair) in enumerate(zip(self.poses, self.outcomes)):
            for backend, out in zip(("sat", "co"), pair):
                if out[0] != "ok":
                    continue
                found = info_problems(out[1])
                problems.setdefault(
                    ("returned contacts well-formed", pose.pairing, backend), []
                ).extend(f"pose {index}: {p}" for p in found)
                if backend == "sat":
                    oracle = oracle_problem(pose, out[1])
                    problems.setdefault(
                        ("sat proximity matches the pose gap", pose.pairing, backend), []
                    ).extend([f"pose {index}: {oracle}"] if oracle else [])
        for (name, pairing, backend), found in sorted(problems.items()):
            results.append(_check(name, not found, "; ".join(found[:3]),
                                  pairing=pairing, backend=backend,
                                  violations=len(found)))
        return results

    def end_to_end(self) -> Dict[str, Dict]:
        """Each call counts with its fastest time over the passes."""
        plain = self.plain()
        _, mismatches = self._classified()
        # the times lists of every pass follow the same pose order
        calls_s = sum(min(column) for key in plain[0]["times"]
                      for column in zip(*(r["times"][key] for r in plain))) / 1e9
        metrics = {
            "calls_per_s": summary("1/s", plain[0]["calls"] / calls_s,
                                   [r["calls"] / r["pass_s"] for r in plain]),
            "pass_s": summary("s", calls_s, [r["pass_s"] for r in plain]),
        }
        for backend in ("sat", "co"):
            per_pass = [sorted(t for p in PAIRINGS for t in r["times"][backend, p])
                        for r in plain]
            pooled = sorted(t for times in per_pass for t in times)
            for q in (50, 99):
                metrics[f"{backend}_call_us.p{q}"] = summary(
                    "us", percentile(pooled, q) / 1e3,
                    [percentile(times, q) / 1e3 for times in per_pass])
        mismatch_ratio = len(mismatches) / len(self.poses)
        fail_ratio = self.failed / self.attempted
        metrics["mismatch_ratio"] = summary("ratio", mismatch_ratio, [mismatch_ratio])
        metrics["fail_ratio"] = summary("ratio", fail_ratio, [fail_ratio])
        for pairing in PAIRINGS:
            metrics[f"co_sat_ratio.{pairing}"] = summary(
                "ratio", _co_sat_ratio(plain, pairing),
                [_co_sat_ratio([r], pairing) for r in plain])
        return metrics

    def accounted_ratio(self, traced: List[Dict]) -> float:
        """Detector span time over the traced passes' wall time."""
        spans = sum(_self_s(r["summary"], prefix)
                    for r in traced for prefix in ("sat.", "convex."))
        return spans / sum(r["pass_s"] for r in traced)

    def details(self) -> Dict:
        failures, mismatches = self._classified()
        breakdown = {p: {"poses": self.per_pairing, "sat_failures": 0,
                         "co_failures": 0, "mismatches": 0} for p in PAIRINGS}
        for failure in failures:
            breakdown[failure["pairing"]][f"{failure['backend']}_failures"] += 1
        for mismatch in mismatches:
            breakdown[mismatch["pairing"]]["mismatches"] += 1
        return {
            "pose_ranges": poses.pose_ranges(),
            "poses": len(self.poses),
            "passes": len(self.passes),
            "by_pairing": breakdown,
            "failures": failures,
            "mismatches": mismatches,
        }
