"""Smoke test of the benchmark command and unit tests of its output checks.

    python -m pytest perfbench -q

Each workload runs at smoke size in both modes; the test checks that every
metric BENCHMARK.json names, and every metric the workload documents, is
reported with its unit, and that the output checks ran and passed.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import poses  # noqa: E402
import workloads  # noqa: E402
from contactsim import (  # noqa: E402
    Circle, ContactInfo, Rectangle, body2d, detect_rect_circle)

REPORTED = {
    "scenarios-sat": {"steps_per_s": "1/s", "pass_s": "s", "calls_per_s": "1/s",
                      "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"},
    "cold-detect": {"calls_per_s": "1/s", "pass_s": "s", "sat_call_us.p50": "us",
                    "sat_call_us.p99": "us", "co_call_us.p50": "us",
                    "co_call_us.p99": "us", "mismatch_ratio": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio",
                    **{f"co_sat_ratio.{p}": "ratio" for p in workloads.PAIRINGS}},
}
REPORTED["scenarios-co"] = REPORTED["scenarios-sat"]


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_reports_every_metric_and_passes_checks(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert all(math.isfinite(metric["value"]) for metric in result["metrics"].values())

    report = json.loads((HERE / "out" / f"{workload}-seed3-trace{trace}-smoke.json")
                        .read_text(encoding="utf-8"))
    assert report["checks"] and all(check["ok"] for check in report["checks"])
    if trace:
        table = report["layer_table"]
        assert {row["layer"] for row in table["rows"]} >= \
            {name for name, _ in workloads.BUSY_METRICS}
        assert sum(row["self_s"] for row in table["rows"]) == \
            pytest.approx(table["pass_s"])
    else:
        for name, unit in REPORTED[workload].items():
            assert report["metrics"][name]["unit"] == unit, name
            assert {"median", "q1", "q3", "n"} <= set(report["metrics"][name])


def test_fails_without_the_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "scenarios-sat", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_nonfinite_csv_fields_are_found(tmp_path):
    path = tmp_path / "run.csv"
    path.write_text("t,pair,x\n0.0,0-1,1.5\n0.1,0-1,nan\n0.2,0-1,inf\n")
    assert workloads.nonfinite_fields(str(path), skip=("pair",)) == ["3:x", "4:x"]
    assert workloads.nonfinite_fields(str(path)) == ["2:pair", "3:pair", "3:x",
                                                     "4:pair", "4:x"]


def test_malformed_contact_is_reported():
    good = ContactInfo(True, -0.1, 0.1, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                       (0.0, 0.0), (1.0, 0.0), (0.0, 1.0))
    assert workloads.info_problems(good) == []
    bad = ContactInfo(False, math.nan, 0.1, (0.0, 0.0), (0.0, 0.0), (0.0, 0.0),
                      (0.0, 0.0), (2.0, 0.0), (0.0, 1.0))
    assert workloads.info_problems(bad) == [
        "non-finite field", "colliding disagrees with rho", "normal not unit length"]


def test_sat_oracle_flags_a_wrong_proximity():
    pose = poses.Pose("rect-circle", "separated", 0.25, body2d((0.0, 0.0)),
                      Rectangle(1.0, 0.6), body2d((1.75, 0.0)), Circle(0.5))
    info = detect_rect_circle(pose.state_a, pose.shape_a, pose.state_b, pose.shape_b)
    assert workloads.oracle_problem(pose, info) is None
    assert workloads.oracle_problem(replace(pose, gap=0.3), info) is not None


def test_seed_moves_the_population_rigidly():
    first, again, other = (poses.draw(seed, 10) for seed in (5, 5, 6))
    assert first == again
    assert [p.position_a for p in first] != [p.position_a for p in other]
    key = lambda p: (p.pairing, p.gap_class, p.gap)  # noqa: E731
    assert sorted(map(key, first)) == sorted(map(key, other))
    for pose in poses.build(first):
        if pose.pairing != "rect-rect":
            detect = getattr(workloads.sat, workloads.SAT_FUNCTIONS[pose.pairing])
            info = detect(pose.state_a, pose.shape_a, pose.state_b, pose.shape_b)
            assert workloads.oracle_problem(pose, info) is None


def test_cold_figure_counts_every_call_at_its_fastest_time():
    workload = workloads.ColdDetectWorkload(1, 1)
    workload.setup()
    slow = ("co", "rect-rect")  # one failing-length call, ~0.15 s

    def cycle(slow_ns, other_ns):
        times = {(b, p): [slow_ns if (b, p) == slow else other_ns]
                 for b in ("sat", "co") for p in workloads.PAIRINGS}
        return {"traced": False, "pass_s": 1.0, "calls": 8, "times": times}

    workload.passes = [cycle(150_000_000, 1_000), cycle(160_000_000, 500)]
    workload.attempted = 16
    metrics = workload.end_to_end()
    fastest_s = (150_000_000 + 7 * 500) / 1e9
    assert metrics["pass_s"]["value"] == pytest.approx(fastest_s)
    assert metrics["calls_per_s"]["value"] == pytest.approx(8 / fastest_s)


def test_scenario_figure_takes_each_cell_at_its_median():
    workload = workloads.ScenarioWorkload("sat", 1, "unused")
    workload.order = ["a", "b"]
    # (cell s, loop s, steps, calls) per cell and pass
    cells = ({"a": (1.0, 0.5, 10, 10), "b": (2.0, 1.0, 20, 20)},
             {"a": (3.0, 1.5, 10, 10), "b": (2.0, 1.0, 20, 20)},
             {"a": (2.0, 1.0, 10, 10), "b": (9.0, 4.0, 20, 20)})
    workload.passes = [{"traced": False, "cells": c, "pass_s": 0.0,
                        "loop_s": sum(v[1] for v in c.values()),
                        "steps": 30, "calls": 30} for c in cells]
    workload.attempted = 6
    metrics = workload.end_to_end()
    assert metrics["pass_s"]["value"] == pytest.approx(2.0 + 2.0)
    assert metrics["steps_per_s"]["value"] == pytest.approx(30 / (1.0 + 1.0))
