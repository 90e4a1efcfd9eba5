"""Independent brute-force oracles used across the test suite.

Everything here is deliberately written against plain definitions (vertex
lists, dense sampling, textbook formulas) rather than reusing any package
code path, so detector results can be checked against a second opinion.
"""
import math

import numpy as np


# ---------------------------------------------------------------------------
# frames

def frame_coords(theta: float, v) -> np.ndarray:
    """Coordinates of a world vector in a frame rotated CCW by theta."""
    a1 = np.array([math.cos(theta), math.sin(theta)])
    a2 = np.array([-math.sin(theta), math.cos(theta)])
    v = np.asarray(v, dtype=float)
    return np.array([v @ a1, v @ a2])


def quat_from_angle_z(theta: float):
    """Unit quaternion (w, x, y, z) of a rotation by theta about the z axis."""
    h = 0.5 * theta
    return (math.cos(h), 0.0, 0.0, math.sin(h))


def quat_normalize(q):
    """Unit quaternion along q, or the identity for a zero q."""
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    if n == 0.0:
        return (1.0, 0.0, 0.0, 0.0)
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_multiply(a, b):
    """Hamilton product a * b of two quaternions (w, x, y, z)."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def rot_ccw(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def rect_corners(center, theta: float, c1: float, c2: float) -> np.ndarray:
    """World-space corners of an oriented rectangle, CCW order."""
    local = np.array([[c1, c2], [-c1, c2], [-c1, -c2], [c1, -c2]])
    return np.asarray(center, dtype=float) + local @ rot_ccw(theta).T


# ---------------------------------------------------------------------------
# dense boundary sampling

def rect_boundary_points(c1: float, c2: float, n_per_edge: int) -> np.ndarray:
    ts = np.linspace(-1.0, 1.0, n_per_edge)
    return np.concatenate([
        np.stack([ts * c1, np.full(n_per_edge, c2)], axis=1),
        np.stack([ts * c1, np.full(n_per_edge, -c2)], axis=1),
        np.stack([np.full(n_per_edge, c1), ts * c2], axis=1),
        np.stack([np.full(n_per_edge, -c1), ts * c2], axis=1),
    ])


def circle_boundary_points(center, radius: float, n: int) -> np.ndarray:
    ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    return np.stack([center[0] + radius * np.cos(ang),
                     center[1] + radius * np.sin(ang)], axis=1)


def min_pair_distance(points_a: np.ndarray, points_b: np.ndarray) -> float:
    diff = points_a[:, None, :] - points_b[None, :, :]
    return float(np.sqrt((diff ** 2).sum(axis=2)).min())


def cuboid_face_points(half_extents, n_per_axis: int) -> np.ndarray:
    """Dense sample of all six faces of a centered cuboid."""
    cx, cy, cz = half_extents
    u = np.linspace(-1.0, 1.0, n_per_axis)
    faces = []
    for sign in (1.0, -1.0):
        gy, gz = np.meshgrid(u * cy, u * cz, indexing="ij")
        faces.append(np.stack([np.full(gy.size, sign * cx),
                               gy.ravel(), gz.ravel()], axis=1))
        gx, gz = np.meshgrid(u * cx, u * cz, indexing="ij")
        faces.append(np.stack([gx.ravel(),
                               np.full(gx.size, sign * cy), gz.ravel()], axis=1))
        gx, gy = np.meshgrid(u * cx, u * cy, indexing="ij")
        faces.append(np.stack([gx.ravel(), gy.ravel(),
                               np.full(gx.size, sign * cz)], axis=1))
    return np.concatenate(faces)


# ---------------------------------------------------------------------------
# world-axis boxes

def quat_rotate(q, v) -> np.ndarray:
    """A vector rotated by a unit quaternion (w, x, y, z), as q v q*."""
    w, x, y, z = q

    def product(a, b):
        return (a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
                a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
                a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
                a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0])

    rotated = product(product((w, x, y, z), (0.0, *v)), (w, -x, -y, -z))
    return np.array(rotated[1:])


def world_box(position, orientation, shape):
    """Unpadded world-axis box (low, high) of a body, from its extreme points:
    the center plus or minus the radius of a ball, the corners of a box."""
    center = np.asarray(position, dtype=float)
    if hasattr(shape, "radius"):
        return center - shape.radius, center + shape.radius
    if hasattr(shape, "half_length"):
        corners = rect_corners(center, orientation, shape.half_length,
                               shape.half_width)
    else:
        corners = np.array([center + quat_rotate(orientation, (sx * shape.half_extents[0],
                                                               sy * shape.half_extents[1],
                                                               sz * shape.half_extents[2]))
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return corners.min(axis=0), corners.max(axis=0)


def boxes_overlap(box_a, box_b) -> bool:
    """Whether two closed world-axis boxes share a point."""
    (low_a, high_a), (low_b, high_b) = box_a, box_b
    return bool(np.all(low_a <= high_b) and np.all(low_b <= high_a))


def overlapping_box_pair_steps(trajectory) -> int:
    """Pair-steps of a run whose pair's world-axis boxes overlap, counted from
    the states each step starts from (every sample but the last)."""
    shapes = trajectory.shapes
    count = 0
    for _, states in trajectory.samples[:-1]:
        boxes = [world_box(s.position, s.orientation, shape)
                 for s, shape in zip(states, shapes)]
        count += sum(boxes_overlap(boxes[i], boxes[j])
                     for i in range(len(boxes)) for j in range(i + 1, len(boxes)))
    return count


# ---------------------------------------------------------------------------
# polygon oracles

def clip_polygon(subject, clip):
    """Sutherland-Hodgman clipping of convex CCW polygons."""

    def inside(p, a, b):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) >= 0.0

    def intersection(p1, p2, a, b):
        ex, ey = p2[0] - p1[0], p2[1] - p1[1]
        dx, dy = b[0] - a[0], b[1] - a[1]
        denom = ex * dy - ey * dx
        t = ((a[0] - p1[0]) * dy - (a[1] - p1[1]) * dx) / denom
        return (p1[0] + t * ex, p1[1] + t * ey)

    output = [tuple(p) for p in subject]
    clip = [tuple(p) for p in clip]
    for i in range(len(clip)):
        a, b = clip[i], clip[(i + 1) % len(clip)]
        if not output:
            return []
        source, output = output, []
        s = source[-1]
        for e in source:
            if inside(e, a, b):
                if not inside(s, a, b):
                    output.append(intersection(s, e, a, b))
                output.append(e)
            elif inside(s, a, b):
                output.append(intersection(s, e, a, b))
            s = e
    return output


def polygon_area(poly) -> float:
    if len(poly) < 3:
        return 0.0
    area = 0.0
    for i in range(len(poly)):
        x1, y1 = poly[i]
        x2, y2 = poly[(i + 1) % len(poly)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def polygon_sat(verts_a: np.ndarray, verts_b: np.ndarray):
    """Vertex-projection separating-axis check for two convex polygons.

    Returns (colliding, penetration_depth, max_gap): the depth is the least
    positive overlap over all edge normals, the gap the largest signed
    separation (negative while colliding).
    """
    axes = []
    for verts in (verts_a, verts_b):
        for i in range(len(verts)):
            edge = verts[(i + 1) % len(verts)] - verts[i]
            n = np.array([-edge[1], edge[0]])
            length = np.linalg.norm(n)
            if length > 0:
                axes.append(n / length)
    min_overlap = math.inf
    max_gap = -math.inf
    for axis in axes:
        pa = verts_a @ axis
        pb = verts_b @ axis
        # push distance to separate along the axis (not the interval width,
        # which differs when one projection contains the other)
        overlap = min(pa.max() - pb.min(), pb.max() - pa.min())
        min_overlap = min(min_overlap, overlap)
        max_gap = max(max_gap, -overlap)
    colliding = min_overlap > 0.0
    return colliding, (min_overlap if colliding else 0.0), max_gap


# ---------------------------------------------------------------------------
# reference integrator (constant wrench on a free planar body)

def rk4_free_body_2d(position, velocity, angle, omega, mass, inertia,
                     force, moment, dt, steps):
    """Classic RK4 for a planar free body under a constant force and moment.

    The dynamics are linear in time, so RK4 reproduces the exact solution
    and serves as the reference trajectory.
    """
    y = np.array([position[0], position[1], velocity[0], velocity[1],
                  angle, omega], dtype=float)
    ax, ay = force[0] / mass, force[1] / mass
    alpha = moment / inertia

    def f(state):
        return np.array([state[2], state[3], ax, ay, state[5], alpha])

    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return y
