"""Trajectory export: CSV, JSON and a self-contained SVG plot.

The CSV sample schema is fixed:
``t,body_id,x,y,z,q0,q1,q2,q3,vx,vy,vz,wx,wy,wz``.  Planar runs embed into
it with z = 0, the quaternion of the rotation about the out-of-plane axis
and the angular speed in wz.  Contact events go to a sibling file
``<path>.events.csv`` with columns ``t,pair,phi,rho,Fn,Ft,saturated``.
Every field is the ``repr`` of its value: shortest round-trip text for
floats, plain digits for ints.  Identical runs export byte-identical files.
"""
from __future__ import annotations

import json
import math

from .errors import ContactSimError
from .geometry import BodyState, Circle, Rectangle
from .simulate import Trajectory

SAMPLE_COLUMNS = ("t", "body_id", "x", "y", "z", "q0", "q1", "q2", "q3",
                  "vx", "vy", "vz", "wx", "wy", "wz")
EVENT_COLUMNS = ("t", "pair", "phi", "rho", "Fn", "Ft", "saturated")


def _sample_row(t: float, body_id: int, state: BodyState) -> dict:
    if state.dim == 2:
        x, y = state.position
        z = 0.0
        half = 0.5 * state.orientation
        quat = (math.cos(half), 0.0, 0.0, math.sin(half))
        vx, vy = state.velocity
        vz = 0.0
        w = (0.0, 0.0, state.angular_velocity)
    else:
        x, y, z = state.position
        quat = state.orientation
        vx, vy, vz = state.velocity
        w = state.angular_velocity
    return {
        "t": t, "body_id": body_id, "x": x, "y": y, "z": z,
        "q0": quat[0], "q1": quat[1], "q2": quat[2], "q3": quat[3],
        "vx": vx, "vy": vy, "vz": vz, "wx": w[0], "wy": w[1], "wz": w[2],
    }


def _event_row(event) -> dict:
    return {
        "t": event.t,
        "pair": f"{event.pair[0]}-{event.pair[1]}",
        "phi": event.phi,
        "rho": event.rho,
        "Fn": event.f_normal,
        "Ft": event.f_tangent,
        "saturated": int(event.saturated),
    }


def export_trajectory(trajectory: Trajectory, fmt: str, path: str) -> None:
    """Write a trajectory to ``path`` as csv (plus events sibling) or json."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        if fmt == "csv":
            _write_text(path, _samples_csv(trajectory.samples))
            _write_text(path + ".events.csv", _events_csv(trajectory.events))
        else:
            samples = [
                _sample_row(t, body_id, state)
                for t, states in trajectory.samples
                for body_id, state in enumerate(states)
            ]
            events = [_event_row(event) for event in trajectory.events]
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"samples": samples, "events": events}, handle)
                handle.write("\n")
    except OSError as exc:
        raise ContactSimError(f"failed to write {path}: {exc}") from exc


def _samples_csv(samples) -> str:
    """Sample CSV text: the values of ``_sample_row``, in ``SAMPLE_COLUMNS`` order."""
    lines = [",".join(SAMPLE_COLUMNS) + "\n"]
    append = lines.append
    cos, sin = math.cos, math.sin
    for t, states in samples:
        prefix = f"{t!r},"
        for body_id, state in enumerate(states):
            p = state.position
            v = state.velocity
            if len(p) == 2:
                half = 0.5 * state.orientation
                append(f"{prefix}{body_id},{p[0]!r},{p[1]!r},0.0,{cos(half)!r},0.0,0.0,"
                       f"{sin(half)!r},{v[0]!r},{v[1]!r},0.0,0.0,0.0,"
                       f"{state.angular_velocity!r}\n")
            else:
                q = state.orientation
                w = state.angular_velocity
                append(f"{prefix}{body_id},{p[0]!r},{p[1]!r},{p[2]!r},{q[0]!r},{q[1]!r},"
                       f"{q[2]!r},{q[3]!r},{v[0]!r},{v[1]!r},{v[2]!r},{w[0]!r},"
                       f"{w[1]!r},{w[2]!r}\n")
    return "".join(lines)


def _events_csv(events) -> str:
    """Event CSV text: the values of ``_event_row``, in ``EVENT_COLUMNS`` order."""
    lines = [",".join(EVENT_COLUMNS) + "\n"]
    lines.extend(f"{e.t!r},{e.pair[0]}-{e.pair[1]},{e.phi!r},{e.rho!r},"
                 f"{e.f_normal!r},{e.f_tangent!r},{int(e.saturated)}\n"
                 for e in events)
    return "".join(lines)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


# ---------------------------------------------------------------------------
# SVG plot

_PALETTE = ("#1f6fb2", "#c23b22", "#3a8f5d", "#8a5db2", "#b28b3a")
_OUTLINE_COUNT = 24


def export_plot(trajectory: Trajectory, path: str) -> None:
    """Write a planar trajectory as a standalone SVG.

    Draws each body's center-of-mass path as a polyline plus shape outlines
    at evenly spaced instants.  3D trajectories are skipped with a note.
    """
    if trajectory.dim != 2:
        print("plot skipped: only planar trajectories can be drawn")
        return
    if not trajectory.samples:
        raise ValueError("cannot plot an empty trajectory")

    xs = [s.position[0] for _, states in trajectory.samples for s in states]
    ys = [s.position[1] for _, states in trajectory.samples for s in states]
    margin = 1.0
    min_x, max_x = min(xs) - margin, max(xs) + margin
    min_y, max_y = min(ys) - margin, max(ys) + margin
    width = max_x - min_x
    height = max_y - min_y
    scale = 600.0 / max(width, height)

    def to_px(p):
        return ((p[0] - min_x) * scale, (max_y - p[1]) * scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width * scale:.1f}" height="{height * scale:.1f}" '
        f'viewBox="0 0 {width * scale:.1f} {height * scale:.1f}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]

    n_samples = len(trajectory.samples)
    stride = max(1, n_samples // _OUTLINE_COUNT)
    for body_id, shape in enumerate(trajectory.shapes):
        color = _PALETTE[body_id % len(_PALETTE)]
        for k in range(0, n_samples, stride):
            _, states = trajectory.samples[k]
            parts.append(_outline_svg(shape, states[body_id], to_px, scale, color))
        points = " ".join(
            f"{to_px(states[body_id].position)[0]:.2f},"
            f"{to_px(states[body_id].position)[1]:.2f}"
            for _, states in trajectory.samples
        )
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(parts) + "\n")
    except OSError as exc:
        raise ContactSimError(f"failed to write {path}: {exc}") from exc


def _outline_svg(shape, state: BodyState, to_px, scale: float, color: str) -> str:
    style = f'fill="none" stroke="{color}" stroke-width="0.6" opacity="0.45"'
    if isinstance(shape, Circle):
        cx, cy = to_px(state.position)
        return f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="{shape.radius * scale:.2f}" {style}/>'
    if isinstance(shape, Rectangle):
        c = math.cos(state.orientation)
        s = math.sin(state.orientation)
        c1, c2 = shape.half_length, shape.half_width
        corners = []
        for sx, sy in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            local = (sx * c1, sy * c2)
            world = (state.position[0] + c * local[0] - s * local[1],
                     state.position[1] + s * local[0] + c * local[1])
            px = to_px(world)
            corners.append(f"{px[0]:.2f},{px[1]:.2f}")
        return f'<polygon points="{" ".join(corners)}" {style}/>'
    # Sphere/Cuboid never reach here (3D trajectories are skipped earlier)
    return ""
