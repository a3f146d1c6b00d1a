"""Rigid poses and quaternion math over the rows of arrays.

Conventions: positions in meters, quaternions stored (qw, qx, qy, qz) and
kept unit-norm to 1e-9. World axes: +x right, +y front, +z up. A pose
serializes as exactly seven numbers [x, y, z, qw, qx, qy, qz].

`Pose` is the value type of task geometry: immutable, its quaternion
divided by its norm with the bits of `pose_rows`, loaded once per task and
shared by every trial. Per-trial state is rows everywhere: the simulator
steps the trials of a batch as one row each, and goals and checkpoints are
evaluated over the same rows (a snapshot is one row). So each operation has
one implementation, its row form, over an (n, 3) array of vectors, an
(n, 4) array of quaternions or an (n, 7) array of poses (p then q, as
`Pose.values`).

The row forms are pinned bit for bit to a numpy reference that takes one
vector at a time, the formulation the recorded trial digests were made
with (`_np_*` in tests/test_geometry.py). They do its element-wise
arithmetic in its order, and rest on these facts:

- `np.vecdot` is the batched np.dot and np.linalg.norm: it runs the same
  BLAS ddot per row, provided the row's elements are adjacent in memory.
  These reductions differ from it in the last bit: np.einsum("ij,ij->i"),
  (a * a).sum(1) and np.linalg.norm(a, axis=1) on 11-17 % of rows, and
  np.vecdot itself on a Fortran-ordered or reversed array;
- np.cos, np.sin, np.arctan2 and np.arccos over arrays return the bits of
  their scalar calls, and nan for an infinite angle.

tests/test_geometry.py compares every function here with the reference by
float.hex and pins the facts above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

QUAT_TOL = 1e-9

Vec3 = tuple[float, float, float]
Quat = tuple[float, float, float, float]

IDENTITY_QUAT: Quat = (1.0, 0.0, 0.0, 0.0)


def norm(v) -> float:
    """Bit for bit np.linalg.norm(v)."""
    a = np.array(v, dtype=float)
    return math.sqrt(a.dot(a))


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

    def __repr__(self):
        vals = ", ".join(f"{v:.4f}" for v in self.values)
        return f"Pose([{vals}])"


def unit_norm_ok(v, tol: float = QUAT_TOL) -> bool:
    return abs(norm(v) - 1.0) <= tol


# --- rows ---------------------------------------------------------------------
# A second operand may also be one vector or pose for all rows. Nothing here
# raises: a zero axis gives nan rows.


def _rows(v):
    """v as an array whose rows each lie contiguous in memory: np.vecdot
    runs BLAS ddot, the reduction behind np.dot and `norm`, only on such
    rows and sums other rows (a Fortran-ordered or reversed array) in another
    order."""
    v = np.asarray(v)
    return v if v.strides[-1] == v.itemsize else np.ascontiguousarray(v)


def dots(u, v):
    """np.dot of each row of u and v."""
    return np.vecdot(_rows(u), _rows(v))


def norms(v):
    """norm of each row."""
    v = _rows(v)
    return np.sqrt(np.vecdot(v, v))


def cross_rows(u, v):
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0), axis=-1)


# The Hamilton product as 16 products: term j of component k is a[j] *
# b[_QB[j, k]] * _QS[j, k], at column 4 j + k, and the terms are summed left
# to right as in the written-out formula
#     w = aw bw - ax bx - ay by - az bz,  x = aw bx + ax bw + ay bz - az by,
#     y = aw by - ax bz + ay bw + az bx,  z = aw bz + ax by - ay bx + az bw
# (a subtraction is the addition of the term times -1, which is exact).
_QA = np.repeat(np.arange(4), 4)
_QB = np.array([0, 1, 2, 3, 1, 0, 3, 2, 2, 3, 0, 1, 3, 2, 1, 0])
_QS = np.array([1.0, 1.0, 1.0, 1.0, -1.0, 1.0, -1.0, 1.0,
                -1.0, 1.0, 1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
_CONJ = np.array([1.0, -1.0, -1.0, -1.0])


def quat_mul_rows(a, b):
    t = np.asarray(a)[..., _QA]
    t *= np.asarray(b)[..., _QB]
    t *= _QS
    out = np.add(t[..., 0:4], t[..., 4:8], order="C")  # else numpy may pick Fortran order
    out += t[..., 8:12]
    out += t[..., 12:16]
    return out


def quat_rotate_rows(q, v):
    """v rotated by each unit quaternion q, as q (0, v) q*."""
    qv = np.zeros(np.shape(v)[:-1] + (4,))
    qv[..., 1:] = v
    return quat_mul_rows(quat_mul_rows(q, qv), q * _CONJ)[..., 1:]


def quat_from_axis_angle_rows(axis, angle):
    """Rotation by each angle about each axis, which need not be unit."""
    half = 0.5 * angle
    s = np.sin(half)
    out = np.empty(np.shape(half) + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = s[..., None] * (axis / norms(axis)[..., None])
    return out


def quat_between_rows(u, v):
    """Shortest-arc rotation taking each unit row of u onto the row of v,
    (n, 3) arrays: the identity when parallel, a half turn about an axis
    perpendicular to u when antiparallel (to within 1e-12 in the dot). Each
    case is computed on its own rows only."""
    d = dots(u, v)
    out = np.empty(d.shape + (4,))
    parallel, anti = d > 1.0 - 1e-12, d < -1.0 + 1e-12
    out[parallel] = IDENTITY_QUAT
    rest = ~(parallel | anti)  # nan takes this case
    axis = cross_rows(u[rest], v[rest])
    out[rest] = quat_from_axis_angle_rows(axis, np.arctan2(norms(axis), d[rest]))
    if anti.any():
        perp = cross_rows(u[anti], np.array((1.0, 0.0, 0.0)))
        off_x = norms(perp) < 1e-9
        perp[off_x] = cross_rows(u[anti][off_x], np.array((0.0, 1.0, 0.0)))
        out[anti] = quat_from_axis_angle_rows(perp, np.full(len(perp), math.pi))
    return out


def pose_rows(p, q):
    """The poses of the positions p and quaternions q: an (n, 7) array, q
    divided by its norm."""
    q = np.asarray(q)
    out = np.empty(p.shape[:-1] + (7,))
    out[..., :3] = p
    np.divide(q, norms(q)[..., None], out=out[..., 3:])
    return out


def apply_rows(a, v):
    """World position of the local point v under each pose a."""
    return a[..., :3] + quat_rotate_rows(a[..., 3:], v)


def compose_rows(a, b):
    """Each pose a applied to the local pose b (world = a o b)."""
    b = np.asarray(b)
    return pose_rows(apply_rows(a, b[..., :3]), quat_mul_rows(a[..., 3:], b[..., 3:]))


def inverse_rows(a):
    qc = a[..., 3:] * _CONJ
    return pose_rows(-quat_rotate_rows(qc, a[..., :3]), qc)


def angle_between_rows(u, v):
    """Angle between each row of u and v, in [0, pi]."""
    return np.arccos(np.clip(dots(u, v) / (norms(u) * norms(v)), -1.0, 1.0))
