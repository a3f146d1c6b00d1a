import json
import math
import random

import numpy as np
import pytest

from armloop.geometry import (
    Pose,
    angle_between,
    compose_rows,
    dot,
    dots,
    inverse_rows,
    norm,
    norms,
    pose_rows,
    quat_between,
    quat_between_rows,
    quat_from_axis_angle,
    quat_from_axis_angle_rows,
    quat_mul,
    quat_mul_rows,
    quat_normalize,
    quat_rotate,
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


def _homogeneous(pose: Pose):
    m = np.eye(4)
    m[:3, :3] = _rotation_matrix(pose.q)
    m[:3, 3] = pose.p
    return m


def _random_pose(rng: random.Random) -> Pose:
    q = quat_normalize(np.array([rng.gauss(0, 1) for _ in range(4)]))
    p = np.array([rng.uniform(-1, 1) for _ in range(3)])
    return Pose(p, q)


def test_identity_compose():
    pose = Pose(np.array([0.1, 0.0, 0.05]))
    local = Pose(np.array([0.0, 0.0, 0.05]))
    world = pose.compose(local)
    assert np.allclose(world.p, [0.1, 0.0, 0.1])


def test_rotation_compose_90deg_about_z():
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    actor = Pose(np.zeros(3), q)
    world = actor.compose(Pose(np.array([0.05, 0.0, 0.0])))
    assert np.allclose(world.p, [0.0, 0.05, 0.0], atol=1e-12)


def test_compose_matches_homogeneous_matrices_oracle():
    rng = random.Random(42)
    for _ in range(100):
        a = _random_pose(rng)
        b = _random_pose(rng)
        composed = a.compose(b)
        expected = _homogeneous(a) @ _homogeneous(b)
        assert np.allclose(_homogeneous(composed), expected, atol=1e-9)


def test_inverse_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        pose = _random_pose(rng)
        ident = pose.compose(pose.inverse())
        assert np.allclose(ident.p, 0.0, atol=1e-9)
        assert abs(abs(ident.q[0]) - 1.0) < 1e-9


def test_quat_norm_enforced():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.array([1.0, 1.0, 0.0, 0.0]))
    pose = Pose(np.zeros(3), np.array([1.0, 1e-8, 0.0, 0.0]))
    assert abs(np.linalg.norm(pose.q) - 1.0) <= 1e-9


def test_quat_rotate_matches_matrix():
    rng = random.Random(3)
    for _ in range(50):
        q = quat_normalize(np.array([rng.gauss(0, 1) for _ in range(4)]))
        v = np.array([rng.uniform(-1, 1) for _ in range(3)])
        assert np.allclose(quat_rotate(q, v), _rotation_matrix(q) @ v, atol=1e-9)


def test_quat_between_aligns_vectors():
    rng = random.Random(11)
    for _ in range(50):
        u = np.array([rng.gauss(0, 1) for _ in range(3)])
        v = np.array([rng.gauss(0, 1) for _ in range(3)])
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        q = quat_between(u, v)
        assert np.allclose(quat_rotate(q, u), v, atol=1e-9)


def test_quat_between_antiparallel():
    u = np.array([0.0, 0.0, 1.0])
    q = quat_between(u, -u)
    assert np.allclose(quat_rotate(q, u), -u, atol=1e-9)


def test_angle_between():
    assert angle_between(np.array([1, 0, 0]), np.array([0, 1, 0])) == pytest.approx(np.pi / 2)
    assert angle_between(np.array([1, 0, 0]), np.array([1, 0, 0])) == pytest.approx(0.0)


def test_pose_serialization_order():
    pose = Pose.from_list([1, 2, 3, 1, 0, 0, 0])
    assert pose.as_list() == [1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        Pose.from_list([1, 2, 3])


def test_quat_mul_identity():
    q = quat_normalize(np.array([0.3, 0.2, -0.4, 0.1]))
    ident = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(quat_mul(q, ident), q)
    assert np.allclose(quat_mul(ident, q), q)


# --- bit identity with the numpy formulation ----------------------------------
# The simulator's recorded digests pin the bits of the numpy code the tuple
# functions replaced. That code is kept here as the reference, and the tuple
# code must reproduce it exactly: compared by float.hex, so even the sign of
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


def _assert_same_pose(pose: Pose, ref):
    assert _bits(pose.p, pose.q) == _bits(*ref)


def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def test_norm_and_dot_match_numpy_bits():
    rng = np.random.default_rng(100)
    for _ in range(N_RANDOM):
        for n in (3, 4):
            u, v = rng.normal(size=n), rng.normal(size=n)
            t = tuple(u.tolist())
            assert norm(t).hex() == float(np.linalg.norm(u)).hex()
            assert dot(t, tuple(v.tolist())).hex() == float(np.dot(u, v)).hex()


def test_quaternion_functions_match_numpy_bits():
    rng = np.random.default_rng(101)
    for i in range(N_RANDOM):
        a, b = _unit(rng, 4), _unit(rng, 4)
        v = rng.uniform(-1, 1, size=3)
        axis = rng.normal(size=3)
        # Wide angles, and the small yaws of the simulator's setup noise.
        angle = float(rng.uniform(-2 * np.pi, 2 * np.pi) if i % 2 else rng.normal() * 0.05)
        ta, tb, tv = tuple(a.tolist()), tuple(b.tolist()), tuple(v.tolist())
        assert _bits(quat_mul(ta, tb)) == _bits(_np_quat_mul(a, b))
        assert _bits(quat_rotate(ta, tv)) == _bits(_np_quat_rotate(a, v))
        assert (_bits(quat_from_axis_angle(tuple(axis.tolist()), angle))
                == _bits(_np_quat_from_axis_angle(axis, angle)))
        u, w = _unit(rng, 3), _unit(rng, 3)
        assert (_bits(quat_between(tuple(u.tolist()), tuple(w.tolist())))
                == _bits(_np_quat_between(u, w)))


def test_infinite_angle_gives_nan_like_numpy():
    with np.errstate(invalid="ignore"):
        for angle in (np.inf, -np.inf, np.nan):
            assert (_bits(quat_from_axis_angle((0.0, 0.0, 1.0), angle))
                    == _bits(_np_quat_from_axis_angle((0.0, 0.0, 1.0), angle)))


def test_quat_between_matches_numpy_bits_near_parallel_and_antiparallel():
    rng = np.random.default_rng(102)
    axes = [np.eye(3)[k] for k in range(3)] + [_unit(rng, 3) for _ in range(200)]
    cases = 0
    for u in axes:
        for eps in (0.0, 1e-15, 1e-12, 1e-9, 1e-7, 1e-6, 1.5e-6, 3e-6, 1e-4):
            for sign in (1.0, -1.0):
                w = sign * u + eps * rng.normal(size=3)
                w /= np.linalg.norm(w)
                assert (_bits(quat_between(tuple(u.tolist()), tuple(w.tolist())))
                        == _bits(_np_quat_between(u, w)))
                cases += 1
    assert cases >= 2000


def test_pose_normalize_compose_inverse_match_numpy_bits():
    rng = np.random.default_rng(103)
    for _ in range(N_RANDOM):
        # Quaternions a little off unit norm, as stored poses and products are.
        qa = _unit(rng, 4) * (1 + rng.normal() * 1e-8)
        qb = _unit(rng, 4) * (1 + rng.normal() * 1e-8)
        pa, pb = rng.uniform(-1, 1, size=3), rng.uniform(-1, 1, size=3)
        a = Pose(tuple(pa.tolist()), tuple(qa.tolist()))
        b = Pose(tuple(pb.tolist()), tuple(qb.tolist()))
        ra, rb = _np_pose(pa, qa), _np_pose(pb, qb)
        _assert_same_pose(a, ra)
        _assert_same_pose(a.compose(b), _np_compose(ra, rb))
        _assert_same_pose(a.inverse(), _np_inverse(ra))
        assert _bits(a.apply(b.p)) == _bits(_np_compose(ra, rb)[0])


@pytest.mark.parametrize("task", TASK_NAMES)
def test_bundled_task_poses_match_numpy_bits(task):
    raw = json.loads(task_path(task).read_text())
    spec = load_task_spec(task_path(task))
    for entry in raw["actors"]:
        actor = spec.actors[entry["name"]]
        ref = _np_pose(entry["pose"][:3], entry["pose"][3:])
        _assert_same_pose(actor.pose, ref)
        for key in ("contact_points", "functional_points", "utility_points"):
            for pt_raw, pt in zip(entry.get(key, []), getattr(actor, key)):
                local = _np_pose(pt_raw["pose"][:3], pt_raw["pose"][3:])
                _assert_same_pose(pt.pose, local)
                _assert_same_pose(actor.pose.compose(pt.pose), _np_compose(ref, local))
                _assert_same_pose(pt.pose.inverse(), _np_inverse(local))


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
            tuples = [tuple(row) for row in block.tolist()]
            expected_norms = [norm(t).hex() for t in tuples]
            expected_dots = [dot(t, tuple(o)).hex() for t, o in zip(tuples, other.tolist())]
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
        # An infinite angle: nan from the arrays, as from the tuple form.
        assert all(map(math.isnan, np.cos([math.inf, -math.inf]))) and all(map(math.isnan, np.sin([math.inf])))


def test_row_forms_match_tuple_forms_bits():
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
    poses = [Pose(tuple(p), tuple(q)) for p, q in zip(v.tolist(), a.tolist())]
    others = [Pose(tuple(p), tuple(q)) for p, q in zip(v[::-1].tolist(), b.tolist())]
    pose_array, other_array = np.array([p.values for p in poses]), np.array([p.values for p in others])
    local = others[7]

    rows = {
        "quat_mul": quat_mul_rows(a, b),
        "quat_rotate": quat_rotate_rows(a, v),
        "quat_rotate_one": quat_rotate_rows(a, (0.0, 0.0, 1.0)),
        "axis_angle": quat_from_axis_angle_rows(axes, angles),
        "between": quat_between_rows(u, w),
        "pose": pose_rows(v, a),
        "compose": compose_rows(pose_array, other_array),
        "compose_one": compose_rows(pose_array, local.values),
        "compose_fortran": compose_rows(np.asfortranarray(pose_array), np.asfortranarray(other_array)),
        "inverse": inverse_rows(pose_array),
    }
    for i in range(n):
        ta, tb, tv = tuple(a[i].tolist()), tuple(b[i].tolist()), tuple(v[i].tolist())
        tuples = {
            "quat_mul": quat_mul(ta, tb),
            "quat_rotate": quat_rotate(ta, tv),
            "quat_rotate_one": quat_rotate(ta, (0.0, 0.0, 1.0)),
            "axis_angle": quat_from_axis_angle(tuple(axes[i].tolist()), float(angles[i])),
            "between": quat_between(tuple(u[i].tolist()), tuple(w[i].tolist())),
            "pose": Pose(tv, ta).values,
            "compose": poses[i].compose(others[i]).values,
            "compose_one": poses[i].compose(local).values,
            "compose_fortran": poses[i].compose(others[i]).values,
            "inverse": poses[i].inverse().values,
        }
        for name, expected in tuples.items():
            assert _bits(rows[name][i]) == _bits(expected), (name, i)
