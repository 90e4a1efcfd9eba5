"""Timing wrappers around contactsim's layer entry points, for the traced run.

``Tracer.installed()`` swaps wrappers in at the points that are looked up at
call time, and restores the originals on exit:

- ``simulate.build_scenario`` and ``simulate.run_world``, which
  ``run_scenario_timed`` looks up, and ``export.export_trajectory``, which the
  benchmark calls
- ``simulate.collision_response`` and ``simulate._integrate``, which
  ``run_world`` looks up
- the entries of ``simulate._DETECTORS_SAT`` and ``convex.detect_convex``,
  which ``simulate._detect_pair`` looks up, and the ``sat.detect_*``
  functions, which the cold sweep calls
- ``simulate.relative_velocity_at_contact``, ``simulate.contact_force`` and
  ``simulate.wrench_on_bodies``, which ``collision_response`` looks up
- ``convex._warm_start``, counted but not timed, for the warm-hit ratio

Each wrapped call appends one span ``[name, parent, start_ns, end_ns]`` to an
in-memory list; ``parent`` is the index of the span open when the call began.
A span's self time is its duration minus the durations of its children.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List

from contactsim import convex, export, sat, simulate
from contactsim.errors import NotConverged
from contactsim.geometry import Circle, Cuboid, Rectangle, Sphere

PAIRING_BY_TYPES = {
    (Rectangle, Circle): "rect-circle",
    (Circle, Circle): "circle-circle",
    (Rectangle, Rectangle): "rect-rect",
    (Cuboid, Sphere): "sphere-cuboid",
}
SAT_FUNCTIONS = {
    "rect-circle": "detect_rect_circle",
    "circle-circle": "detect_circle_circle",
    "rect-rect": "detect_rect_rect",
    "sphere-cuboid": "detect_sphere_cuboid",
}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.iterations: List[int] = []  # convex solver iterations per call
        self.not_converged = 0
        self.warm_queries = 0
        self.warm_hits = 0

    def _timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
        return wrapper

    def _detect_convex(self, fn):
        timed = {key: self._timed(f"convex.{pairing}", fn)
                 for key, pairing in PAIRING_BY_TYPES.items()}

        def detect_convex(state_a, shape_a, state_b, shape_b, settings=None,
                          context=None):
            call = timed.get((type(shape_a), type(shape_b)), fn)
            try:
                info = call(state_a, shape_a, state_b, shape_b, settings, context)
            except NotConverged as exc:
                self.iterations.append(exc.iterations)
                self.not_converged += 1
                raise
            if context is not None:
                self.iterations.append(context.last_iterations)
            return info
        return detect_convex

    def _warm_start(self, fn):
        def warm_start(*args):
            start = fn(*args)
            self.warm_queries += 1
            self.warm_hits += start is not None
            return start
        return warm_start

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []

        def swap(owner, key, wrapper):
            if isinstance(owner, dict):
                saved.append((owner, key, owner[key]))
                owner[key] = wrapper(owner[key])
            else:
                saved.append((owner, key, getattr(owner, key)))
                setattr(owner, key, wrapper(getattr(owner, key)))

        def timed(name):
            return lambda fn: self._timed(name, fn)

        try:
            swap(simulate, "build_scenario", timed("scenarios.build"))
            swap(simulate, "run_world", timed("simulate.run_world"))
            swap(simulate, "collision_response",
                 timed("simulate.collision_response"))
            swap(simulate, "_integrate", timed("simulate.integrate"))
            swap(simulate, "relative_velocity_at_contact",
                 timed("penalty.relative_velocity"))
            swap(simulate, "contact_force", timed("penalty.contact_force"))
            swap(simulate, "wrench_on_bodies", timed("penalty.wrench"))
            swap(export, "export_trajectory", timed("export.export_trajectory"))
            for key in list(simulate._DETECTORS_SAT):
                swap(simulate._DETECTORS_SAT, key,
                     timed(f"sat.{PAIRING_BY_TYPES[key]}"))
            for pairing, function in SAT_FUNCTIONS.items():
                swap(sat, function, timed(f"sat.{pairing}"))
            swap(convex, "detect_convex", self._detect_convex)
            swap(convex, "_warm_start", self._warm_start)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[key] = original
                else:
                    setattr(owner, key, original)

    def summary(self) -> Dict:
        """Self time and calls per span name, plus derived step counts."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns: Counter = Counter()
        calls: Counter = Counter()
        for index, (name, _, start, end) in enumerate(spans):
            self_ns[name] += end - start - child_ns[index]
            calls[name] += 1
        # a step is in contact when its collision_response resolved a force
        contact_steps = {parent for name, parent, _, _ in spans
                         if name == "penalty.contact_force"}
        return {
            "self_ns": self_ns,
            "calls": calls,
            "contact_steps": len(contact_steps),
            "run_world_ns": sum(end - start for name, _, start, end in spans
                                if name == "simulate.run_world"),
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("name,parent,start_ns,end_ns\n")
            for name, parent, start, end in self.spans:
                handle.write(f"{name},{parent},{start},{end}\n")
