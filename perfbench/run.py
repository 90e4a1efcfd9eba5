"""Benchmark of the contactsim engine: three workloads behind one command.

    python3 perfbench/run.py --workload scenarios-sat --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): ``scenarios-sat`` and ``scenarios-co`` run
every registry scenario with one backend (build, stepping loop, CSV export);
``cold-detect`` runs a pose set, moved by the seed, through both
narrow-phase backends, cold.  Everything runs in this process on one thread,
as a closed loop with one client: the next call starts when the previous one
returns.

The engine is imported from ``src/`` next to this directory.  The command
prints every metric with its unit, the run's figure and the median and
quartiles over passes, then the output checks, and writes the full report to
``perfbench/out/``.  Its last line is one JSON object ``{"correct",
"attempted", "failed", "metrics"}`` whose metrics are the ``end_to_end``
entries of ``BENCHMARK.json`` (``--trace 0``) or its ``per_layer`` entries
(``--trace 1``), each the run's figure: built from per-cell or per-call
times over the run's passes (see ``workloads.py``), and for ``setup_s`` the
median of the set-up samples spread over the run.

``--trace 1`` alternates untraced and traced passes: the traced ones run
under the wrappers of ``tracing.py`` and give the per-layer self times, and
the untraced ones give the tracing overhead.  End-to-end numbers come from
``--trace 0`` runs only.  ``--smoke`` shrinks every size for a quick check.

Exit status: 0 when every output check passes, 1 when one fails, 2 when the
sources or ``BENCHMARK.json`` are missing or the arguments are bad.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scenarios-sat", "scenarios-co", "cold-detect")

# poses_per_pairing * 4 poses make one cold-detect pass; setup_repeats set-up
# samples are timed per run; a run makes at least min_passes untraced passes.
SIZES = {
    "full": {"setup_repeats": 15, "duration": None, "min_passes": 3,
             "poses_per_pairing": 250},
    "smoke": {"setup_repeats": 2, "duration": 0.6, "min_passes": 1,
              "poses_per_pairing": 20},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: short scenarios, a few poses")
    return parser.parse_args(argv)


def timed_import() -> float:
    """Seconds to import contactsim afresh.

    The fresh copy is dropped and collected at once, and the modules the
    benchmark uses stay in ``sys.modules``, so no copies pile up in memory.
    """
    def ours():
        return {n: m for n, m in sys.modules.items() if n.split(".")[0] == "contactsim"}

    kept = ours()
    for name in kept:
        del sys.modules[name]
    start = time.perf_counter()
    importlib.import_module("contactsim")
    elapsed = time.perf_counter() - start
    for name in ours():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return elapsed


def make_workload(workloads, args, sizes, export_dir):
    if args.workload == "cold-detect":
        return workloads.ColdDetectWorkload(args.seed, sizes["poses_per_pairing"])
    return workloads.ScenarioWorkload(args.workload.split("-")[1], args.seed,
                                      export_dir, sizes["duration"],
                                      sizes["min_passes"])


def print_table(title, metrics):
    print(f"\n{title}")
    print(f"  {'metric':34} {'unit':6} {'run':>13} {'median':>13} {'q1':>13} "
          f"{'q3':>13} {'n':>6}")
    for name, stats in metrics.items():
        print(f"  {name:34} {stats['unit']:6} {stats['value']:13.6g} "
              f"{stats['median']:13.6g} {stats['q1']:13.6g} {stats['q3']:13.6g} "
              f"{stats['n']:6d}")


def print_details(workload_name, details, layer_table):
    if "sha256" in details:
        print("\nSHA-256 of each cell's exports")
        for name, digest in details["sha256"].items():
            print(f"  {name:16} csv {digest['csv']}  events {digest['events']}")
    if "by_pairing" in details:
        print(f"\nfailures and mismatches over {details['poses']} poses "
              f"({details['passes']} passes)")
        for pairing, row in details["by_pairing"].items():
            print(f"  {pairing:14} sat failures {row['sat_failures']:4d}  "
                  f"co failures {row['co_failures']:4d}  "
                  f"mismatches {row['mismatches']:4d} of {row['poses']}")
        for kind in ("failures", "mismatches"):
            for entry in details[kind][:3]:
                print(f"  e.g. {kind}: {json.dumps(entry)}")
    if layer_table:
        print(f"\nlayer self time, mean per traced pass of {workload_name} "
              f"({layer_table['pass_s']:.6g} s, {layer_table['traced_passes']} "
              f"traced passes)")
        for row in layer_table["rows"]:
            print(f"  {row['layer']:42} {row['self_s']:12.6g} s "
                  f"{100 * row['share_of_pass']:6.1f} %")
        if layer_table["convex_iterations_per_call"]:
            print("  convex iterations per call: " + ", ".join(
                f"{span}: {count}"
                for span, count in layer_table["convex_iterations_per_call"].items()))
        print(f"  convex warm-hit ratio {layer_table['convex_warm_hit_ratio']:.4f}; "
              f"traced over untraced time {layer_table['trace_overhead_ratio']:.4f}")
        if "loop_s" in layer_table:
            print(f"  in-loop layers sum to {layer_table['loop_layers_s']:.6g} s, "
                  f"{layer_table['loop_layers_s'] / layer_table['loop_s']:.4f} x the "
                  f"{layer_table['loop_s']:.6g} s loop time run_world reports")


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "contactsim" / "__init__.py").is_file():
        print(f"perfbench: no contactsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sizes = SIZES["smoke" if args.smoke else "full"]

    import workloads  # the one contactsim import the passes use

    OUT.mkdir(exist_ok=True)
    export_dir = tempfile.mkdtemp(prefix="exports-", dir=OUT)
    try:
        workload = make_workload(workloads, args, sizes, export_dir)
        setup_s = []

        def set_up() -> None:
            """One set-up sample: a fresh import plus the workload's construction."""
            import_s = timed_import()
            start = time.perf_counter()
            workload.setup()
            setup_s.append(import_s + time.perf_counter() - start)

        def set_up_when_due() -> None:
            # spread the samples over the run, so they see the machine the
            # passes see
            while len(setup_s) < sizes["setup_repeats"] and \
                    time.perf_counter() - started >= len(setup_s) * args.seconds \
                    / sizes["setup_repeats"]:
                set_up()

        started = time.perf_counter()
        workload.measure(args.seconds, bool(args.trace), between=set_up_when_due)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        while len(setup_s) < sizes["setup_repeats"]:
            set_up()
        checks = workload.checks()
    finally:
        shutil.rmtree(export_dir, ignore_errors=True)

    layer_table = None
    if args.trace:
        produced = workload.layer_metrics()
        layer_table = workload.layer_table(produced)
        wanted = spec["per_layer"]
    else:
        produced = {
            "setup_s": workloads.summary("s", statistics.median(setup_s), setup_s),
            "peak_rss_mb": workloads.summary("MB", peak_rss_mb, [peak_rss_mb]),
            **workload.end_to_end(),
        }
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted
               if produced.get(m["name"], {}).get("unit") != m["unit"]]
    if missing:
        print(f"perfbench: metrics not produced with their unit: {missing}",
              file=sys.stderr)
        return 2

    correct = bool(checks) and all(c["ok"] for c in checks)
    details = workload.details()
    environment = {"python": platform.python_version(), "cpu_count": os.cpu_count(),
                   "platform": platform.platform(), "machine": platform.machine()}
    print(f"perfbench {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}{'  smoke' if args.smoke else ''}  "
          f"python {environment['python']}  cpus {environment['cpu_count']}")
    print_table("layer metrics (traced passes)" if args.trace
                else "end-to-end metrics (untraced)", produced)
    print_details(args.workload, details, layer_table)
    failed_checks = [c for c in checks if not c["ok"]]
    print(f"\nchecks: {len(checks) - len(failed_checks)} passed, "
          f"{len(failed_checks)} failed")
    for check in failed_checks:
        print(f"  FAIL {json.dumps(check)}")

    report_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"{'-smoke' if args.smoke else ''}.json")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "sizes": sizes,
              "environment": environment, "metrics": produced, "checks": checks,
              "attempted": workload.attempted, "failed": workload.failed,
              "details": details, "layer_table": layer_table}
    if args.trace and workload.last_tracer is not None:
        spans_path = OUT / f"spans-{args.workload}.csv"
        workload.last_tracer.write_spans(str(spans_path))
        report["spans_file"] = spans_path.name
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"report: {report_path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {m["name"]: {"value": produced[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
