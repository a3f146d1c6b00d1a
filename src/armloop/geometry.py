"""Rigid poses and quaternion math on tuples of floats, and the same
operations over the rows of arrays.

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

The row forms (`*_rows`, `norms`, `dots`) serve the simulator, which steps
a batch of trials as one row each; every row gets the bits of the tuple
form. `np.vecdot` is the batched `dot` and `norm`: it runs the same BLAS
ddot per row, provided the row's elements are adjacent in memory. These
reductions differ from it in the last bit: np.einsum("ij,ij->i"),
(a * a).sum(1) and np.linalg.norm(a, axis=1) on 11-17 % of rows, and
np.vecdot itself on a Fortran-ordered or reversed array. np.cos, np.sin and
np.arctan2 over arrays return the bits of the scalar calls.

tests/test_geometry.py checks every function here against its numpy
formulation or its tuple form, and pins the reductions above.
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
    def from_unit(cls, values: tuple[float, ...]) -> "Pose":
        """The pose of exactly these seven floats, its quaternion taken as
        unit-norm already: renormalising one would change its last bit in
        about 2 % of cases."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "p", values[:3])
        object.__setattr__(pose, "q", values[3:])
        object.__setattr__(pose, "values", values)
        return pose

    @classmethod
    def from_list(cls, values) -> "Pose":
        if len(values) != 7:
            raise ValueError(f"pose needs 7 numbers, got {len(values)}")
        return cls(values[:3], values[3:])

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


# --- rows: the same operations over a batch ----------------------------------
# The simulator steps the trials of a batch together, one row per trial: an
# (n, 3) array of vectors, an (n, 4) array of quaternions or an (n, 7) array
# of poses (p then q, as `Pose.values`). Each function gives every row the
# bits of its tuple form above; a second operand may also be one vector or
# pose for all rows. Nothing here raises: a zero axis gives nan rows.


def _rows(v):
    """v as an array whose rows each lie contiguous in memory: np.vecdot
    runs BLAS ddot, the reduction behind `dot` and `norm`, only on such rows
    and sums other rows (a Fortran-ordered or reversed array) in another
    order."""
    v = np.asarray(v)
    return v if v.strides[-1] == v.itemsize else np.ascontiguousarray(v)


def dots(u, v):
    """dot of each row of u and v."""
    return np.vecdot(_rows(u), _rows(v))


def norms(v):
    """norm of each row."""
    v = _rows(v)
    return np.sqrt(np.vecdot(v, v))


def cross_rows(u, v):
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    return np.stack((u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0), axis=-1)


# quat_mul as 16 products: term j of component k is a[j] * b[_QB[j, k]] *
# _QS[j, k], at column 4 j + k, and the terms are summed left to right as in
# the tuple form (a subtraction is the addition of the term times -1, which
# is exact).
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
    qv = np.zeros(np.shape(v)[:-1] + (4,))
    qv[..., 1:] = v
    return quat_mul_rows(quat_mul_rows(q, qv), q * _CONJ)[..., 1:]


def quat_from_axis_angle_rows(axis, angle):
    """np.cos and np.sin over an array return math.cos's and math.sin's
    bits, and nan for an infinite angle."""
    half = 0.5 * angle
    s = np.sin(half)
    out = np.empty(np.shape(half) + (4,))
    out[..., 0] = np.cos(half)
    out[..., 1:] = s[..., None] * (axis / norms(axis)[..., None])
    return out


def quat_between_rows(u, v):
    """quat_between of each row of u and v, (n, 3) arrays. Each of its three
    cases is computed on its own rows only."""
    d = dots(u, v)
    out = np.empty(d.shape + (4,))
    parallel, anti = d > 1.0 - 1e-12, d < -1.0 + 1e-12
    out[parallel] = IDENTITY_QUAT
    rest = ~(parallel | anti)  # nan takes this case, as in the tuple form
    axis = cross_rows(u[rest], v[rest])
    out[rest] = quat_from_axis_angle_rows(axis, np.arctan2(norms(axis), d[rest]))
    if anti.any():
        perp = cross_rows(u[anti], np.array((1.0, 0.0, 0.0)))
        off_x = norms(perp) < 1e-9
        perp[off_x] = cross_rows(u[anti][off_x], np.array((0.0, 1.0, 0.0)))
        out[anti] = quat_from_axis_angle_rows(perp, np.full(len(perp), math.pi))
    return out


def pose_rows(p, q):
    """Pose(p, q) of each row of the positions p: an (n, 7) array, q divided
    by its norm."""
    q = np.asarray(q)
    out = np.empty(p.shape[:-1] + (7,))
    out[..., :3] = p
    np.divide(q, norms(q)[..., None], out=out[..., 3:])
    return out


def apply_rows(a, v):
    """Pose.apply of each row of the poses a to v."""
    return a[..., :3] + quat_rotate_rows(a[..., 3:], v)


def compose_rows(a, b):
    b = np.asarray(b)
    return pose_rows(apply_rows(a, b[..., :3]), quat_mul_rows(a[..., 3:], b[..., 3:]))


def inverse_rows(a):
    qc = a[..., 3:] * _CONJ
    return pose_rows(-quat_rotate_rows(qc, a[..., :3]), qc)
