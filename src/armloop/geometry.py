"""Rigid poses and quaternion math on tuples of floats.

Conventions: positions in meters, quaternions stored (qw, qx, qy, qz) and
kept unit-norm to 1e-9. World axes: +x right, +y front, +z up. A pose
serializes as exactly seven numbers [x, y, z, qw, qx, qy, qz].

Vectors are plain tuples: at three or four elements numpy's per-call cost
outweighs the arithmetic. Element-wise arithmetic is written out in the
order numpy evaluates it, so every result keeps the bits that the recorded
trial digests pin. Three operations stay on numpy because Python does not
reproduce their bits:

- `dot`, and `norm` built on it: numpy's BLAS dot may fuse multiply and add,
  so a plain Python sum of products differs in the last bit on about one
  input in eight;
- `np.arctan2` in `quat_between`, which differs from `math.atan2` on a few
  percent of inputs;
- `np.arccos` in `angle_between`, likewise for `math.acos`.

`math.cos` and `math.sin` return numpy's bits on finite angles; an
infinite angle (a noise draw that overflowed) gives nan, as numpy does.
tests/test_geometry.py checks every function here against its numpy
formulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

QUAT_TOL = 1e-9

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

IDENTITY_QUAT: Quat = (1.0, 0.0, 0.0, 0.0)


def dot(u, v) -> float:
    return float(np.dot(u, v))


def norm(v) -> float:
    """Bit for bit np.linalg.norm(v)."""
    a = np.array(v, dtype=float)
    return math.sqrt(a.dot(a))


def add(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def sub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def scale(v: Vec3, s: float) -> Vec3:
    return (v[0] * s, v[1] * s, v[2] * s)


def neg(v: Vec3) -> Vec3:
    return (-v[0], -v[1], -v[2])


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def quat_normalize(q) -> Quat:
    n = norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return (q[0] / n, q[1] / n, q[2] / n, q[3] / n)


def quat_mul(a: Quat, b: Quat) -> Quat:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )


def quat_conj(q: Quat) -> Quat:
    return (q[0], -q[1], -q[2], -q[3])


def quat_rotate(q: Quat, v: Vec3) -> Vec3:
    """Rotate a 3-vector by a unit quaternion."""
    out = quat_mul(quat_mul(q, (0.0, v[0], v[1], v[2])), quat_conj(q))
    return out[1:]


def quat_from_axis_angle(axis: Vec3, angle: float) -> Quat:
    n = norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    half = 0.5 * angle
    if math.isinf(half):  # numpy's cos and sin give nan here; math's raise
        return (math.nan, math.nan, math.nan, math.nan)
    s = math.sin(half)
    return (math.cos(half), s * (axis[0] / n), s * (axis[1] / n), s * (axis[2] / n))


def quat_between(u: Vec3, v: Vec3) -> Quat:
    """Shortest-arc rotation taking unit vector u onto unit vector v."""
    d = dot(u, v)
    if d > 1.0 - 1e-12:
        return IDENTITY_QUAT
    if d < -1.0 + 1e-12:
        # Antiparallel: rotate 180deg about any axis perpendicular to u.
        perp = cross(u, (1.0, 0.0, 0.0))
        if norm(perp) < 1e-9:
            perp = cross(u, (0.0, 1.0, 0.0))
        return quat_from_axis_angle(perp, math.pi)
    axis = cross(u, v)
    return quat_from_axis_angle(axis, float(np.arctan2(norm(axis), d)))


def angle_between(u: Vec3, v: Vec3) -> float:
    c = dot(u, v) / (norm(u) * norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


@dataclass(frozen=True, eq=False, slots=True)
class Pose:
    """Immutable rigid transform: position p (x, y, z) and unit quaternion q
    (qw, qx, qy, qz), both tuples of floats, so poses can be shared freely.
    `values` is the serialized form p + q, made once per pose: a snapshot
    payload holds it, so a pose that did not move is the same object in
    consecutive snapshots."""

    p: Vec3 = (0.0, 0.0, 0.0)
    q: Quat = IDENTITY_QUAT
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        x, y, z = self.p
        qw, qx, qy, qz = self.q
        n = norm(self.q)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        p = (float(x), float(y), float(z))
        q = (float(qw) / n, float(qx) / n, float(qy) / n, float(qz) / n)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "values", p + q)

    @classmethod
    def from_list(cls, values) -> "Pose":
        if len(values) != 7:
            raise ValueError(f"pose needs 7 numbers, got {len(values)}")
        return cls(values[:3], values[3:])

    def as_list(self) -> list[float]:
        return list(self.values)

    def apply(self, v: Vec3) -> Vec3:
        """World position of the local point v; compose(local).p, without
        making the pose."""
        return add(self.p, quat_rotate(self.q, v))

    def compose(self, local: "Pose") -> "Pose":
        """This pose applied to a local pose (world = self o local)."""
        return Pose(self.apply(local.p), quat_mul(self.q, local.q))

    def inverse(self) -> "Pose":
        qc = quat_conj(self.q)
        return Pose(neg(quat_rotate(qc, self.p)), qc)

    def rotate(self, v: Vec3) -> Vec3:
        return quat_rotate(self.q, v)

    def __repr__(self):
        vals = ", ".join(f"{v:.4f}" for v in self.values)
        return f"Pose([{vals}])"


def unit_norm_ok(v, tol: float = QUAT_TOL) -> bool:
    return abs(norm(v) - 1.0) <= tol
