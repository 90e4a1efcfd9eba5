"""Command-line front end: scenario runs, exports and the timing harness.

Exit codes: 0 on success, 1 on usage errors (bad flags, unknown scenario,
a malformed or out-of-range config), 2 on runtime errors (solver
non-convergence, unsupported pairings, numerical overflow, I/O failures).
The CONTACTSIM_LOG environment variable (error|warn|info|debug) controls
diagnostic verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import Optional, Sequence

from .bench import run_bench
from .convex import SolverSettings
from .errors import ContactSimError, UnknownScenario
from .export import export_plot, export_trajectory
from .scenarios import SCENARIO_NAMES
from .simulate import Backend, SimConfig, run_scenario

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with status 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="contactsim",
                     description="rigid-body collision dynamics simulator")
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
    level_name = os.environ.get("CONTACTSIM_LOG", "warn").lower()
    logging.basicConfig(level=_LOG_LEVELS.get(level_name, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


# The --config document.  A value kind is a string; a nested mapping lists
# its allowed keys; a one-element list holds the kind of every list entry.
_NUMBER = "a finite number"
_INTEGER = "an integer"
_BOOL = "true or false"
_VECTOR = "a list of finite numbers"
_ANGLE = "a finite number or a list of finite numbers"
_MARGIN = "a finite number or null"
_SHAPE = "a shape"
_SHAPES = {
    "circle": {"radius": _NUMBER},
    "rectangle": {"half_length": _NUMBER, "half_width": _NUMBER},
    "sphere": {"radius": _NUMBER},
    "cuboid": {"half_extents": _VECTOR},
}
_BODY = {"position": _VECTOR, "velocity": _VECTOR, "orientation": _ANGLE,
         "angular_velocity": _ANGLE, "mass": _NUMBER, "inertia": _NUMBER,
         "static": _BOOL, "shape": _SHAPE}
_DOCUMENT = {
    "dt": _NUMBER,
    "duration": _NUMBER,
    "gravity": _VECTOR,
    "solver": {"tol": _NUMBER, "max_iters": _INTEGER, "shrink_margin": _MARGIN,
               "record_history": _BOOL},
    "material": {"stiffness": _NUMBER, "damping": _NUMBER, "friction": _NUMBER,
                 "v_scale": _NUMBER},
    "bodies": [_BODY],
}


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if isinstance(value, int):  # an int beyond the float range is not finite
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def _is_vector(value) -> bool:
    return isinstance(value, list) and all(_is_number(v) for v in value)


_LEAVES = {
    _NUMBER: _is_number,
    _INTEGER: lambda v: isinstance(v, int) and not isinstance(v, bool),
    _BOOL: lambda v: isinstance(v, bool),
    _VECTOR: _is_vector,
    _ANGLE: lambda v: _is_number(v) or _is_vector(v),
    _MARGIN: lambda v: v is None or _is_number(v),
}


def _check(value, kind, where: str = "") -> None:
    """Raise ValueError naming the path ``where`` unless value is of the
    given kind."""
    name = where or "the document"
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ValueError(f"config: {name} must be an object")
        for key, item in value.items():
            if key not in kind:
                raise ValueError(f"config: unknown key {key!r} in {name}; "
                                 f"expected one of {', '.join(kind)}")
            _check(item, kind[key], f"{where}.{key}" if where else key)
    elif isinstance(kind, list):
        if not isinstance(value, list):
            raise ValueError(f"config: {name} must be a list")
        for index, item in enumerate(value):
            if item is not None:  # null keeps the registry entry
                _check(item, kind[0], f"{where}[{index}]")
    elif kind is _SHAPE:
        shape = value.get("type") if isinstance(value, dict) else None
        if not isinstance(shape, str) or shape not in _SHAPES:
            raise ValueError(f"config: {name} must be an object whose type is "
                             f"one of {', '.join(_SHAPES)}")
        for key in _SHAPES[shape]:
            if key not in value:
                raise ValueError(f"config: {name}: a {shape} needs {key!r}")
        _check({k: v for k, v in value.items() if k != "type"}, _SHAPES[shape],
               where)
    elif not _LEAVES[kind](value):
        raise ValueError(f"config: {name} must be {kind}, got {value!r}")


def _load_config(path: str) -> dict:
    """The --config document, checked against ``_DOCUMENT``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    _check(document, _DOCUMENT)
    return document


def _cmd_simulate(args) -> int:
    overrides = None
    config_data = {}
    if args.config:
        config_data = _load_config(args.config)
        overrides = {k: v for k, v in config_data.items()
                     if k in ("gravity", "duration", "material", "bodies")}
    solver_kwargs = config_data.get("solver", {})
    config = SimConfig(
        dt=args.dt if args.dt is not None else float(config_data.get("dt", 1e-3)),
        duration=args.duration,
        backend=Backend(args.backend),
        solver=SolverSettings(**solver_kwargs),
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
    if scenarios:
        for name in scenarios:
            if name not in SCENARIO_NAMES:
                raise UnknownScenario(f"unknown scenario {name!r}")
    if backends:
        for name in backends:
            if name not in ("sat", "co"):
                raise UnknownScenario(f"unknown backend {name!r}")
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
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
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
