"""Command-line front end: scenario runs, exports and the timing harness.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown scenario,
a malformed or out-of-range config), 2 on runtime errors (solver
non-convergence, unsupported pairings, numerical overflow, I/O failures).
The CONTACTSIM_LOG environment variable (error|warn|info|debug) controls
diagnostic verbosity; any other value is a usage error.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Optional, Sequence

from .bench import run_bench
from .convex import SolverSettings
from .errors import ContactSimError, UnknownScenario
from .export import export_plot, export_trajectory
from .scenarios import MARGIN, NUMBER, OVERRIDES, SCENARIO_NAMES, checked
from .simulate import Backend, SimConfig, run_scenario

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactsim", description="rigid-body collision dynamics simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario")
    sim.add_argument("--scenario", required=True, choices=SCENARIO_NAMES)
    sim.add_argument("--backend", required=True, choices=("sat", "co"))
    sim.add_argument("--dt", type=float, default=None)
    sim.add_argument("--duration", type=float, default=None)
    sim.add_argument("--config", default=None, help="JSON overrides file")
    sim.add_argument("--out", default=None, help="trajectory output path")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.add_argument("--plot", default=None, help="SVG output path (2D only)")

    bench = sub.add_parser("bench", help="timing report over scenarios and backends")
    bench.add_argument("--repeat", type=int, default=10)
    bench.add_argument("--scenarios", default=None,
                       help="comma-separated subset of scenario names")
    bench.add_argument("--backends", default="sat,co",
                       help="comma-separated subset of sat,co")
    bench.add_argument("--micro-calls", type=int, default=100_000,
                       help="detector calls per micro-benchmark cell (0 skips)")
    bench.add_argument("--out", default=None, help="JSON report path")
    return parser


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("CONTACTSIM_LOG", "warn").lower())
    if level is None:
        raise ValueError(f"CONTACTSIM_LOG must be one of {'|'.join(_LOG_LEVELS)}")
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# The --config document: the run options read here, and the scenario keys,
# which pass on unchecked to build_scenario (it checks them against OVERRIDES).
_DOCUMENT = {
    "dt": NUMBER,
    "solver": {"shrink_margin": MARGIN},
    **dict.fromkeys(OVERRIDES),
}


def _cmd_simulate(args) -> int:
    document = {}
    overrides = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as handle:
            document = checked(json.load(handle), _DOCUMENT)
        overrides = {k: v for k, v in document.items() if k in OVERRIDES}
    config = SimConfig(
        dt=args.dt if args.dt is not None else document.get("dt", 1e-3),
        duration=args.duration,
        backend=Backend(args.backend),
        solver=SolverSettings(**document.get("solver", {})),
    )
    trajectory = run_scenario(args.scenario, config, overrides)

    if args.out:
        export_trajectory(trajectory, args.format, args.out)
    if args.plot:
        export_plot(trajectory, args.plot)
    if not args.out and not args.plot:
        t_final, states = trajectory.samples[-1]
        print(f"{args.scenario}: {len(trajectory.samples)} samples, "
              f"{len(trajectory.events)} contact events, t_final={t_final:g}")
        for body_id, state in enumerate(states):
            coords = ", ".join(f"{c:.6f}" for c in state.position)
            print(f"  body {body_id}: position ({coords})")
    return 0


def _cmd_bench(args) -> int:
    scenarios = args.scenarios.split(",") if args.scenarios else None
    backends = args.backends.split(",") if args.backends else None
    report = run_bench(scenarios, backends, repeat=args.repeat,
                       micro_calls=args.micro_calls)
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # 0 after --help, argparse's 2 on a usage error
        return 1 if exc.code else 0
    try:
        _configure_logging()
        if args.command == "simulate":
            return _cmd_simulate(args)
        return _cmd_bench(args)
    except (UnknownScenario, ValueError) as exc:
        print(f"contactsim: {exc}", file=sys.stderr)
        return 1
    except (ContactSimError, OSError) as exc:
        print(f"contactsim: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a run whose values left the float range
        print(f"contactsim: numerical overflow: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
