"""Trajectory export: CSV, JSON and a self-contained SVG plot.

The CSV sample schema is fixed:
``t,body_id,x,y,z,q0,q1,q2,q3,vx,vy,vz,wx,wy,wz``.  Planar runs embed into
it with z = 0, the quaternion of the rotation about the out-of-plane axis
and the angular speed in wz.  Contact events go to a sibling file
``<path>.events.csv`` with columns ``t,pair,phi,rho,Fn,Ft,saturated``.
Every field is the ``repr`` of its value: shortest round-trip text for
floats, plain digits for ints.  Identical runs export byte-identical files.

The CSV writers format a repeated field once and keep those bytes.  A
static body's state is the same object on every step, so its row is reused
by identity.  Any other reuse needs bit-identical floats: a body's
orientation or velocity text is reused while those values pack to the same
bytes as in its previous row, so 0.0 and -0.0 stay distinct (``==`` would
merge them); an int or a float subclass is formatted every time.  An event
whose ``rho`` is ``-phi`` of a negative float ``phi`` prints ``rho`` as phi's
text without the sign, which is ``repr(rho)``.

CSV and JSON exports are streamed: each file is written as it is formatted,
in chunks of at most ``CHUNK_ROWS`` (512) rows, a row being one body at one
sample or one event (a sample with more bodies is one chunk), so an export's
memory stays bounded whatever the run length.  A failed write leaves the bytes written before it in place: the
file being written is partial (a CSV export's events file may be missing),
and ``ContactSimError`` names the export's path.
"""
from __future__ import annotations

import json
import math
import struct
from itertools import islice

from .errors import ContactSimError
from .geometry import BodyState, Circle, Rectangle
from .simulate import Trajectory

SAMPLE_COLUMNS = ("t", "body_id", "x", "y", "z", "q0", "q1", "q2", "q3",
                  "vx", "vy", "vz", "wx", "wy", "wz")
EVENT_COLUMNS = ("t", "pair", "phi", "rho", "Fn", "Ft", "saturated")

# rows (samples x bodies, or events) formatted into one write: export time
# reads flat from 256 to 2048 rows, while a chunk's memory grows with its size
CHUNK_ROWS = 512

# the bytes of 1, 3, 4 or 6 floats: reuse keys that tell 0.0 from -0.0
_BITS_1 = struct.Struct("d").pack
_BITS_3 = struct.Struct("3d").pack
_BITS_4 = struct.Struct("4d").pack
_BITS_6 = struct.Struct("6d").pack


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
    """Write a trajectory to ``path`` as csv (plus events sibling) or json.

    Each file is written as it is formatted, in chunks of at most
    ``CHUNK_ROWS`` rows, so memory stays bounded whatever the run length.
    An ``OSError`` part way through leaves the files written so far, the
    last one partial, and raises ``ContactSimError`` naming ``path``.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    try:
        if fmt == "csv":
            _write_chunks(path, _samples_csv(trajectory.samples))
            _write_chunks(path + ".events.csv", _events_csv(trajectory.events))
        else:
            _write_chunks(path, _json_chunks(trajectory))
    except OSError as exc:
        raise ContactSimError(f"failed to write {path}: {exc}") from exc


def _write_chunks(path: str, chunks) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(chunks)


def _samples_csv(samples):
    """Yield the sample CSV text: the header, then chunks of at most
    ``CHUNK_ROWS`` rows; a sample's rows are never split between chunks.

    A row holds the values of ``_sample_row`` in ``SAMPLE_COLUMNS`` order.
    Each body's rows come from its own ``_body_rows`` generator, and every
    sample's rows are joined behind its time field.  Every sample holds the
    same bodies, as a trajectory's samples do.
    """
    yield ",".join(SAMPLE_COLUMNS) + "\n"
    if not (samples and samples[0][1]):
        return
    n_bodies = len(samples[0][1])
    per_chunk = max(1, CHUNK_ROWS // n_bodies)
    bodies = [_body_rows(samples, body_id) for body_id in range(n_bodies)]
    by_sample = zip(samples, zip(*bodies))
    for _ in range(0, len(samples), per_chunk):
        lines = []
        append = lines.append
        for (t, _), sample_rows in islice(by_sample, per_chunk):
            prefix = f"{t!r},"
            append(prefix + prefix.join(sample_rows))
        yield "".join(lines)


def _body_rows(samples, body_id: int):
    """Yield one body's sample rows after the time field, one per sample.

    The previous row is kept: a state that is the same object (a static body)
    reuses it whole; otherwise the pose is formatted, and the orientation and
    velocity parts are reused while their floats keep the same bits.
    """
    cos, sin = math.cos, math.sin
    head = f"{body_id},"
    last = row = orientation_key = orientation = velocity_key = velocity = None
    for _, states in samples:
        state = states[body_id]
        if state is not last:
            last = state
            p = state.position
            v = state.velocity
            w = state.angular_velocity
            if len(p) == 2:
                angle = state.orientation
                key = _BITS_1(angle)
                if key != orientation_key:
                    orientation_key = key
                    half = 0.5 * angle
                    orientation = f"{cos(half)!r},0.0,0.0,{sin(half)!r}"
                vx, vy = v
                # an int or a float subclass packs as a float but prints its
                # own way, so its key is a fresh object that matches nothing
                key = (_BITS_3(vx, vy, w)
                       if float is type(vx) is type(vy) is type(w) else object())
                if key != velocity_key:
                    velocity_key = key
                    velocity = f"{vx!r},{vy!r},0.0,0.0,0.0,{w!r}\n"
                x, y = p
                row = f"{head}{x!r},{y!r},0.0,{orientation},{velocity}"
            else:
                q = state.orientation
                key = (_BITS_4(*q) if float is type(q[0]) is type(q[1])
                       is type(q[2]) is type(q[3]) else object())
                if key != orientation_key:
                    orientation_key = key
                    orientation = f"{q[0]!r},{q[1]!r},{q[2]!r},{q[3]!r}"
                key = (_BITS_6(*v, *w) if float is type(v[0]) is type(v[1]) is type(v[2])
                       is type(w[0]) is type(w[1]) is type(w[2]) else object())
                if key != velocity_key:
                    velocity_key = key
                    velocity = (f"{v[0]!r},{v[1]!r},{v[2]!r},"
                                f"{w[0]!r},{w[1]!r},{w[2]!r}\n")
                row = f"{head}{p[0]!r},{p[1]!r},{p[2]!r},{orientation},{velocity}"
        yield row


def _events_csv(events):
    """Yield the event CSV text: the header, then chunks of at most
    ``CHUNK_ROWS`` rows, each the values of ``_event_row`` in
    ``EVENT_COLUMNS`` order.

    ``rho`` is usually ``-phi``; then its text is phi's without the sign.
    """
    yield ",".join(EVENT_COLUMNS) + "\n"
    for start in range(0, len(events), CHUNK_ROWS):
        lines = []
        append = lines.append
        for e in events[start:start + CHUNK_ROWS]:
            phi, rho = e.phi, e.rho
            phi_text = repr(phi)
            # phi < 0 excludes -0.0 and NaN; a nonzero float rho equal to -phi
            # has -phi's bits, whose repr is phi's without the leading '-'
            if phi < 0.0 and rho == -phi and float is type(phi) is type(rho):
                rho_text = phi_text[1:]
            else:
                rho_text = repr(rho)
            append(f"{e.t!r},{e.pair[0]}-{e.pair[1]},{phi_text},{rho_text},"
                   f"{e.f_normal!r},{e.f_tangent!r},{int(e.saturated)}\n")
        yield "".join(lines)


def _json_chunks(trajectory: Trajectory):
    """Yield the text of ``json.dump({"samples": [...], "events": [...]})``
    plus a newline, the rows being those of ``_sample_row`` and
    ``_event_row``, in chunks of at most ``CHUNK_ROWS`` rows."""
    samples = (_sample_row(t, body_id, state)
               for t, states in trajectory.samples
               for body_id, state in enumerate(states))
    yield '{"samples": ['
    yield from _json_items(samples)
    yield '], "events": ['
    yield from _json_items(map(_event_row, trajectory.events))
    yield "]}\n"


def _json_items(rows):
    """Yield the items of a JSON array of ``rows``, ``", "``-separated as
    ``json.dump`` writes them, at most ``CHUNK_ROWS`` per chunk."""
    separator = ""
    while chunk := ", ".join(map(json.dumps, islice(rows, CHUNK_ROWS))):
        yield separator + chunk
        separator = ", "


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
