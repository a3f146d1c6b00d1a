import json
import math
import random

import numpy as np
import pytest

from armloop.geometry import (
    Pose,
    angle_between_rows,
    apply_rows,
    compose_rows,
    dots,
    inverse_rows,
    norm,
    norms,
    pose_rows,
    quat_between_rows,
    quat_from_axis_angle_rows,
    quat_mul_rows,
    quat_rotate_rows,
)
from armloop.scene import load_task_spec

from conftest import TASK_NAMES, task_path


def _rotation_matrix(q):
    """Independent 3x3 rotation matrix from a quaternion (oracle only)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def _homogeneous(pose):
    m = np.eye(4)
    m[:3, :3] = _rotation_matrix(pose[3:])
    m[:3, 3] = pose[:3]
    return m


def _random_poses(rng: random.Random, n: int):
    """n random poses as (n, 7) rows."""
    p = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(n)])
    q = np.array([[rng.gauss(0, 1) for _ in range(4)] for _ in range(n)])
    return pose_rows(p, q)


def _unit_rows(rng: random.Random, n: int, k: int):
    v = np.array([[rng.gauss(0, 1) for _ in range(k)] for _ in range(n)])
    return v / np.linalg.norm(v, axis=1)[:, None]


def test_identity_compose():
    pose = np.array([[0.1, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0]])
    world = compose_rows(pose, (0.0, 0.0, 0.05, 1.0, 0.0, 0.0, 0.0))
    assert np.allclose(world[0, :3], [0.1, 0.0, 0.1])


def test_rotation_compose_90deg_about_z():
    q = quat_from_axis_angle_rows(np.array([0.0, 0.0, 1.0]), np.array([np.pi / 2]))
    actor = pose_rows(np.zeros((1, 3)), q)
    world = compose_rows(actor, (0.05, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0))
    assert np.allclose(world[0, :3], [0.0, 0.05, 0.0], atol=1e-12)
    assert np.allclose(apply_rows(actor, (0.05, 0.0, 0.0)), world[:, :3], atol=0)


def test_compose_matches_homogeneous_matrices_oracle():
    rng = random.Random(42)
    a, b = _random_poses(rng, 100), _random_poses(rng, 100)
    for composed, pa, pb in zip(compose_rows(a, b), a, b):
        expected = _homogeneous(pa) @ _homogeneous(pb)
        assert np.allclose(_homogeneous(composed), expected, atol=1e-9)


def test_inverse_roundtrip():
    rng = random.Random(7)
    poses = _random_poses(rng, 50)
    for ident in (compose_rows(poses, inverse_rows(poses)), compose_rows(inverse_rows(poses), poses)):
        assert np.allclose(ident[:, :3], 0.0, atol=1e-9)
        assert np.allclose(np.abs(ident[:, 3]), 1.0, atol=1e-9)


def test_quat_norm_enforced():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))
    pose = Pose(np.zeros(3), np.array([1.0, 1e-8, 0.0, 0.0]))
    assert abs(np.linalg.norm(pose.q) - 1.0) <= 1e-9


def test_quat_rotate_matches_matrix():
    rng = random.Random(3)
    q = _unit_rows(rng, 50, 4)
    v = np.array([[rng.uniform(-1, 1) for _ in range(3)] for _ in range(50)])
    expected = np.array([_rotation_matrix(qi) @ vi for qi, vi in zip(q, v)])
    assert np.allclose(quat_rotate_rows(q, v), expected, atol=1e-9)


def test_quat_between_aligns_vectors():
    rng = random.Random(11)
    u, v = _unit_rows(rng, 50, 3), _unit_rows(rng, 50, 3)
    assert np.allclose(quat_rotate_rows(quat_between_rows(u, v), u), v, atol=1e-9)


def test_quat_between_antiparallel():
    u = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    assert np.allclose(quat_rotate_rows(quat_between_rows(u, -u), u), -u, atol=1e-9)


def test_angle_between():
    u = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 2.0, 0.0]])
    v = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.5]])
    assert np.allclose(angle_between_rows(u, v), [np.pi / 2, 0.0, np.pi, np.pi / 2])


def test_pose_serialization_order():
    pose = Pose.from_list([1, 2, 3, 1, 0, 0, 0])
    assert pose.values == (1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0)
    assert all(type(v) is float for v in pose.values)
    with pytest.raises(ValueError):
        Pose.from_list([1, 2, 3])


def test_quat_mul_identity():
    q = np.array([[0.3, 0.2, -0.4, 0.1]])
    q /= np.linalg.norm(q)
    ident = (1.0, 0.0, 0.0, 0.0)
    assert np.allclose(quat_mul_rows(q, ident), q)
    assert np.allclose(quat_mul_rows(np.array([ident]), q), q)


# --- bit identity with the numpy reference ------------------------------------
# The simulator's recorded digests pin the bits of numpy code that takes one
# vector at a time. That code is kept here as the reference, and every row
# form must reproduce it exactly: compared by float.hex, so even the sign of
# a zero counts (it shows in the JSON artifacts).

N_RANDOM = 10_000


def _np_quat_mul(a, b):
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


def _np_quat_conj(q):
    return np.array([q[0], -q[1], -q[2], -q[3]])


def _np_quat_rotate(q, v):
    qv = np.array([0.0, v[0], v[1], v[2]])
    return _np_quat_mul(_np_quat_mul(q, qv), _np_quat_conj(q))[1:]


def _np_quat_from_axis_angle(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    half = 0.5 * angle
    return np.concatenate([[np.cos(half)], np.sin(half) * axis])


def _np_quat_between(u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    d = float(np.dot(u, v))
    if d > 1.0 - 1e-12:
        return np.array([1.0, 0.0, 0.0, 0.0])
    if d < -1.0 + 1e-12:
        perp = np.cross(u, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(perp) < 1e-9:
            perp = np.cross(u, np.array([0.0, 1.0, 0.0]))
        return _np_quat_from_axis_angle(perp, np.pi)
    axis = np.cross(u, v)
    return _np_quat_from_axis_angle(axis, np.arctan2(np.linalg.norm(axis), d))


def _np_angle_between(u, v):
    c = float(np.dot(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))
    return np.arccos(np.clip(c, -1.0, 1.0))


def _np_pose(p, q):
    """What the array Pose stored: p as given, q divided by its norm."""
    q = np.asarray(q, dtype=float)
    return np.asarray(p, dtype=float), q / np.linalg.norm(q)


def _np_compose(a, b):
    (ap, aq), (bp, bq) = a, b
    return _np_pose(ap + _np_quat_rotate(aq, bp), _np_quat_mul(aq, bq))


def _np_inverse(a):
    p, q = a
    qc = _np_quat_conj(q)
    return _np_pose(-_np_quat_rotate(qc, p), qc)


def _bits(*vectors):
    return [float(x).hex() for v in vectors for x in v]


def _assert_same_pose(row, ref):
    assert _bits(row) == _bits(*ref)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_norm_and_dot_match_numpy_bits():
    rng = np.random.default_rng(100)
    pairs = {3: [], 4: []}
    for _ in range(N_RANDOM):
        for n in (3, 4):
            pairs[n].append((rng.normal(size=n), rng.normal(size=n)))
    for n, uv in pairs.items():
        u, v = (np.array(side) for side in zip(*uv))
        assert [norm(tuple(row)).hex() for row in u.tolist()] == _bits(np.linalg.norm(row) for row in u)
        assert _bits(norms(u)) == _bits(np.linalg.norm(row) for row in u)
        assert _bits(dots(u, v)) == _bits(np.dot(a, b) for a, b in zip(u, v))


def test_quaternion_functions_match_numpy_bits():
    rng = np.random.default_rng(101)
    inputs = []
    for i in range(N_RANDOM):
        a, b = _unit(rng, 4), _unit(rng, 4)
        v = rng.uniform(-1, 1, size=3)
        axis = rng.normal(size=3)
        # Wide angles, and the small yaws of the simulator's setup noise.
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi) if i % 2 else rng.normal() * 0.05)
        u, w = _unit(rng, 3), _unit(rng, 3)
        inputs.append((a, b, v, axis, angle, u, w))
    a, b, v, axis, angle, u, w = (np.array(column) for column in zip(*inputs))
    rows = (quat_mul_rows(a, b), quat_rotate_rows(a, v), quat_from_axis_angle_rows(axis, angle),
            quat_between_rows(u, w), angle_between_rows(u, w)[:, None])
    for i, (a, b, v, axis, angle, u, w) in enumerate(inputs):
        refs = (_np_quat_mul(a, b), _np_quat_rotate(a, v), _np_quat_from_axis_angle(axis, angle),
                _np_quat_between(u, w), [_np_angle_between(u, w)])
        for row, ref in zip(rows, refs):
            assert _bits(row[i]) == _bits(ref), i


def test_infinite_angle_gives_nan_like_numpy():
    angles = np.array([np.inf, -np.inf, np.nan])
    with np.errstate(invalid="ignore"):
        rows = quat_from_axis_angle_rows((0.0, 0.0, 1.0), angles)
        for row, angle in zip(rows, angles):
            assert _bits(row) == _bits(_np_quat_from_axis_angle((0.0, 0.0, 1.0), angle))


def test_quat_between_matches_numpy_bits_near_parallel_and_antiparallel():
    rng = np.random.default_rng(102)
    axes = [np.eye(3)[k] for k in range(3)] + [_unit(rng, 3) for _ in range(200)]
    pairs = []
    for u in axes:
        for eps in (0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1.5e-6, 3e-6, 1e-4):
            for sign in (1.0, -1.0):
                w = sign * u + eps * rng.normal(size=3)
                pairs.append((u, w / np.linalg.norm(w)))
    assert len(pairs) >= 2000
    u, w = (np.array(side) for side in zip(*pairs))
    between, angles = quat_between_rows(u, w), angle_between_rows(u, w)
    for i, (ui, wi) in enumerate(pairs):
        assert _bits(between[i]) == _bits(_np_quat_between(ui, wi)), i
        assert angles[i].hex() == float(_np_angle_between(ui, wi)).hex(), i


def test_pose_normalize_compose_inverse_match_numpy_bits():
    rng = np.random.default_rng(103)
    inputs = []
    for _ in range(N_RANDOM):
        # Quaternions a little off unit norm, as stored poses and products are.
        qa = _unit(rng, 4) * (1 + rng.normal() * 1e-8)
        qb = _unit(rng, 4) * (1 + rng.normal() * 1e-8)
        pa, pb = rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3)
        inputs.append((pa, qa, pb, qb))
    pa, qa, pb, qb = (np.array(column) for column in zip(*inputs))
    a, b = pose_rows(pa, qa), pose_rows(pb, qb)
    composed, inverse, applied = compose_rows(a, b), inverse_rows(a), apply_rows(a, b[:, :3])
    for i, (pa, qa, pb, qb) in enumerate(inputs):
        ra, rb = _np_pose(pa, qa), _np_pose(pb, qb)
        _assert_same_pose(a[i], ra)
        _assert_same_pose(Pose(tuple(pa.tolist()), tuple(qa.tolist())).values, ra)
        _assert_same_pose(composed[i], _np_compose(ra, rb))
        _assert_same_pose(inverse[i], _np_inverse(ra))
        assert _bits(applied[i]) == _bits(_np_compose(ra, rb)[0])


@pytest.mark.parametrize("task", TASK_NAMES)
def test_bundled_task_poses_match_numpy_bits(task):
    raw = json.loads(task_path(task).read_text())
    spec = load_task_spec(task_path(task))
    for entry in raw["actors"]:
        actor = spec.actors[entry["name"]]
        ref = _np_pose(entry["pose"][:3], entry["pose"][3:])
        _assert_same_pose(actor.pose.values, ref)
        for key in ("contact_points", "functional_points", "utility_points"):
            for pt_raw, pt in zip(entry.get(key, []), getattr(actor, key)):
                local = _np_pose(pt_raw["pose"][:3], pt_raw["pose"][3:])
                _assert_same_pose(pt.pose.values, local)
                _assert_same_pose(compose_rows(np.array([actor.pose.values]), pt.pose.values)[0],
                                  _np_compose(ref, local))
                _assert_same_pose(inverse_rows(np.array([pt.pose.values]))[0], _np_inverse(local))


# --- the reductions and functions the batched simulator relies on -------------
# The simulator steps a batch of trials as rows of arrays and must give each
# row the bits of the scalar code. If a numpy or BLAS upgrade breaks that,
# these tests name the cause before the golden digests fail. np.vecdot runs
# BLAS ddot on each row whose elements are adjacent in memory, as `norm` and
# `dot` do; np.einsum("ij,ij->i", a, a), (a * a).sum(1) and
# np.linalg.norm(a, axis=1) fail the first test (they differ on 11-17 % of
# rows), and so does np.vecdot on a Fortran-ordered array.

_SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 1e-160, -1e-170, 1e160, 1.0, -1.0,
             math.inf, -math.inf, math.nan)


def _rows_with_edges(rng, n, k):
    """n seeded rows of length k, then a quarter as many drawn from signed
    zeros, subnormals, squares that underflow or overflow, inf and nan."""
    rows = rng.normal(size=(n, k)) * rng.uniform(0, 3, size=(n, 1))
    return np.concatenate([rows, rng.choice(_SPECIALS, size=(n // 4, k))])


def _row_blocks(rng, k):
    """Arrays whose rows each lie contiguous in memory."""
    wide = rng.normal(size=(2000, 7))  # poses are stored as (n, 7) rows
    rows = _rows_with_edges(rng, 4000, k)
    return [rows, rows[::3], rows[:1], rows[-2:], rows[5:42], wide[:, :k], wide[:, 7 - k:]]


@pytest.mark.parametrize("k", [3, 4])
def test_vecdot_row_norms_and_dots_match_norm_and_dot_bits(k):
    rng = np.random.default_rng(104)
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _row_blocks(rng, k):
            other = rng.normal(size=block.shape)
            expected_norms = [norm(tuple(row)).hex() for row in block.tolist()]
            expected_dots = _bits(np.dot(np.array(t), o) for t, o in zip(block.tolist(), other))
            assert _bits(np.sqrt(np.vecdot(block, block))) == expected_norms
            assert _bits(np.vecdot(block, other)) == expected_dots
            # The row forms take any layout.
            for layout in (np.asfortranarray, lambda a: a[:, ::-1].copy()[:, ::-1]):
                assert _bits(norms(layout(block))) == expected_norms
                assert _bits(dots(layout(block), layout(other))) == expected_dots


def test_array_trig_matches_scalar_bits():
    rng = np.random.default_rng(105)
    angles = np.concatenate([rng.uniform(-7, 7, size=20_000), rng.normal(size=5_000) * 0.05,
                             [math.pi / 2, math.pi, -0.0, 0.0, 5e-324, 1e300, math.nan]])
    ys, xs = _rows_with_edges(rng, 20_000, 2).T
    cosines = np.concatenate([rng.uniform(-1, 1, size=20_000), [1.0, -1.0, 0.0, -0.0, math.nan]])
    with np.errstate(invalid="ignore"):
        for n in (1, 2, 10, 37, len(angles)):  # numpy's loops treat short arrays apart
            a = angles[:n]
            assert _bits(np.cos(a)) == [math.cos(x).hex() for x in a.tolist()]
            assert _bits(np.sin(a)) == [math.sin(x).hex() for x in a.tolist()]
        for n in (1, 2, 10, 37, len(ys)):
            assert _bits(np.arctan2(ys[:n], xs[:n])) == [
                float(np.arctan2(y, x)).hex() for y, x in zip(ys[:n].tolist(), xs[:n].tolist())]
        assert _bits(np.arccos(cosines)) == [float(np.arccos(c)).hex() for c in cosines.tolist()]
        # An infinite angle: nan from the arrays, as from the scalar calls.
        assert all(map(math.isnan, np.cos([math.inf, -math.inf]))) and all(map(math.isnan, np.sin([math.inf])))


def test_row_forms_match_numpy_bits():
    rng = np.random.default_rng(106)
    n = 3000
    a = rng.normal(size=(n, 4))
    a /= np.linalg.norm(a, axis=1)[:, None]
    a *= 1 + rng.normal(size=(n, 1)) * 1e-8  # a little off unit norm, as products are
    b = rng.normal(size=(n, 4))
    b /= np.linalg.norm(b, axis=1)[:, None]
    a[:20] = (0.0, -0.0, 0.0, 1.0)  # signed zeros in the products
    b[:10] = (1.0, 0.0, -0.0, 0.0)
    v = rng.uniform(-1, 1, size=(n, 3))
    v[:30:3] = (0.0, -0.0, 0.02)
    axes, angles = rng.normal(size=(n, 3)), rng.uniform(-7, 7, size=n)
    u, w = (np.array([_unit(rng, 3) for _ in range(n)]) for _ in range(2))
    w[:300] = u[:300]  # parallel
    w[300:600] = -u[300:600]  # antiparallel
    w[600:900] = u[600:900] + rng.normal(size=(300, 3)) * 1e-7
    w[900:1200] = -u[900:1200] + rng.normal(size=(300, 3)) * 1e-7
    u[:5], w[:5] = (1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)  # antiparallel along x
    poses, others = pose_rows(v, a), pose_rows(v[::-1], b)
    local = others[7]

    rows = {
        "quat_mul": quat_mul_rows(a, b),
        "quat_rotate": quat_rotate_rows(a, v),
        "quat_rotate_one": quat_rotate_rows(a, (0.0, 0.0, 1.0)),
        "axis_angle": quat_from_axis_angle_rows(axes, angles),
        "between": quat_between_rows(u, w),
        "angle": angle_between_rows(u, w)[:, None],
        "pose": poses,
        "compose": compose_rows(poses, others),
        "compose_one": compose_rows(poses, tuple(local.tolist())),
        "compose_fortran": compose_rows(np.asfortranarray(poses), np.asfortranarray(others)),
        "inverse": inverse_rows(poses),
        "inverse_fortran": inverse_rows(np.asfortranarray(poses)),
    }
    rb_local = _np_pose(v[::-1][7], b[7])
    for i in range(n):
        ra, rb = _np_pose(v[i], a[i]), _np_pose(v[::-1][i], b[i])
        refs = {
            "quat_mul": _np_quat_mul(a[i], b[i]),
            "quat_rotate": _np_quat_rotate(a[i], v[i]),
            "quat_rotate_one": _np_quat_rotate(a[i], (0.0, 0.0, 1.0)),
            "axis_angle": _np_quat_from_axis_angle(axes[i], angles[i]),
            "between": _np_quat_between(u[i], w[i]),
            "angle": [_np_angle_between(u[i], w[i])],
            "pose": np.concatenate(ra),
            "compose": np.concatenate(_np_compose(ra, rb)),
            "compose_one": np.concatenate(_np_compose(ra, rb_local)),
            "compose_fortran": np.concatenate(_np_compose(ra, rb)),
            "inverse": np.concatenate(_np_inverse(ra)),
            "inverse_fortran": np.concatenate(_np_inverse(ra)),
        }
        for name, expected in refs.items():
            assert _bits(rows[name][i]) == _bits(expected), (name, i)
