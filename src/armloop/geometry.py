"""Rigid poses and quaternion math.

Conventions: positions in meters, quaternions stored (qw, qx, qy, qz) and
kept unit-norm to 1e-9. World axes: +x right, +y front, +z up. A pose
serializes as exactly seven numbers [x, y, z, qw, qx, qy, qz].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

QUAT_TOL = 1e-9

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = np.linalg.norm(q)
    if n == 0.0:
        raise ValueError("zero quaternion")
    return q / n


def quat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def quat_conj(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate a 3-vector by a unit quaternion."""
    qv = np.array([0.0, v[0], v[1], v[2]])
    out = quat_mul(quat_mul(q, qv), quat_conj(q))
    return out[1:]


def quat_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    n = np.linalg.norm(axis)
    if n == 0.0:
        raise ValueError("zero rotation axis")
    axis = axis / n
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def quat_between(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Shortest-arc rotation taking unit vector u onto unit vector v."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = float(np.dot(u, v))
    if d > 1.0 - 1e-12:
        return IDENTITY_QUAT.copy()
    if d < -1.0 + 1e-12:
        # Antiparallel: rotate 180deg about any axis perpendicular to u.
        perp = np.cross(u, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(u, np.array([0.0, 1.0, 0.0]))
        return quat_from_axis_angle(perp, np.pi)
    axis = np.cross(u, v)
    angle = np.arctan2(np.linalg.norm(axis), d)
    return quat_from_axis_angle(axis, angle)


def angle_between(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Pose:
    """Immutable rigid transform: position p (3,) and unit quaternion q
    (qw,qx,qy,qz), both read-only arrays, so poses can be shared freely."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    q: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT)

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float).reshape(4)
        n = np.linalg.norm(q)
        if abs(n - 1.0) > 1e-6:
            raise ValueError(f"quaternion norm {n} too far from 1")
        object.__setattr__(self, "p", readonly(np.asarray(self.p, dtype=float).reshape(3)))
        object.__setattr__(self, "q", readonly(q / n))

    @classmethod
    def from_list(cls, values) -> "Pose":
        values = [float(v) for v in values]
        if len(values) != 7:
            raise ValueError(f"pose needs 7 numbers, got {len(values)}")
        return cls(np.array(values[:3]), np.array(values[3:]))

    def as_list(self) -> list[float]:
        return self.p.tolist() + self.q.tolist()

    def compose(self, local: "Pose") -> "Pose":
        """This pose applied to a local pose (world = self o local)."""
        return Pose(self.p + quat_rotate(self.q, local.p), quat_mul(self.q, local.q))

    def inverse(self) -> "Pose":
        qc = quat_conj(self.q)
        return Pose(-quat_rotate(qc, self.p), qc)

    def rotate(self, v: np.ndarray) -> np.ndarray:
        return quat_rotate(self.q, v)

    def __repr__(self):
        vals = ", ".join(f"{v:.4f}" for v in self.as_list())
        return f"Pose([{vals}])"


def unit_norm_ok(v: np.ndarray, tol: float = QUAT_TOL) -> bool:
    return abs(float(np.linalg.norm(v)) - 1.0) <= tol
