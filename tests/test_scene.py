import copy
import dataclasses
import itertools
import json
import re

import numpy as np
import pytest

from armloop.errors import (
    ArmloopError,
    TaskParseError,
    TaskSchemaError,
    UnknownActorError,
    UnknownPointError,
)
from armloop.geometry import Pose, compose_rows, inverse_rows, pose_rows, quat_from_axis_angle_rows
from armloop.scene import (
    ARM_TAGS,
    DEFAULT_HOMES,
    DEFAULT_WORKSPACES,
    Above,
    All,
    Any_,
    Aligned,
    AxisRef,
    Free,
    Held,
    LocalPoint,
    Near,
    PointRef,
    SceneRows,
    eval_predicate,
    load_task_spec,
)
from armloop.sim import scene_from_state

from conftest import TASK_NAMES, task_path
from test_geometry import _np_angle_between, _np_quat_rotate


def test_load_place_shoe_roundtrip(place_shoe_spec):
    spec = place_shoe_spec
    assert spec.name == "place_shoe"
    assert set(spec.actors) == {"shoe", "target_block"}
    assert len(spec.subgoals) == 2
    shoe = spec.actors["shoe"]
    assert not shoe.static
    assert shoe.contact_points[0].id == 0
    assert np.allclose(shoe.pose.p, [-0.2, 0.1, 0.02])
    assert np.allclose(shoe.extent, [0.05, 0.02, 0.02])
    assert np.allclose(shoe.grasp_axis, [0, 0, -1])
    raw = json.loads(task_path("place_shoe").read_text())
    assert raw["actors"][0]["pose"] == list(shoe.pose.values)
    assert spec.noise.slip_base == raw["noise"]["slip_base"]


def test_unknown_goal_actor_is_schema_error(tmp_path):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["goal"] = {"op": "free", "actor": "mug"}
    path = tmp_path / "bad.task.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(TaskSchemaError) as err:
        load_task_spec(path)
    assert "mug" in str(err.value)


def test_empty_file_is_parse_error(tmp_path):
    path = tmp_path / "empty.task.json"
    path.write_text("")
    with pytest.raises(TaskParseError):
        load_task_spec(path)


def test_malformed_json_reports_position(tmp_path):
    path = tmp_path / "broken.task.json"
    path.write_text('{"name": "x",,}')
    with pytest.raises(TaskParseError) as err:
        load_task_spec(path)
    assert "line" in str(err.value)


def test_non_static_actor_needs_points(tmp_path):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["actors"][0]["contact_points"] = []
    path = tmp_path / "nopoints.task.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(TaskSchemaError) as err:
        load_task_spec(path)
    assert "contact" in str(err.value)


def test_axis_must_be_unit(tmp_path):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["actors"][0]["grasp_axis"] = [0, 0, -2]
    path = tmp_path / "axis.task.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(TaskSchemaError):
        load_task_spec(path)


def _set(raw, path, value):
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


@pytest.mark.parametrize("path, value, field", [
    (("actors",), 5, "actors"),
    (("workspaces",), {"left": {"x": [-0.5, 0.0], "y": [-0.1, 0.4]}}, "workspaces.left.z"),
    (("workspaces",), {"right": {"x": [0.5, 0.0], "y": [-0.1, 0.4], "z": [0, 1]}},
     "workspaces.right.x"),
    (("noise", "pos_sigma"), "a", "noise.pos_sigma"),
    (("subgoals", 0), "pick up the shoe [NEAR(shoe.functional.0, target_block.functional.0, x)]",
     "subgoals[0]"),
    (("arm_home",), {"left": [0.0, 0.0, 0.3]}, "arm_home.left"),
    (("place_tolerance",), -0.01, "place_tolerance"),
    (("actors", 0, "extent"), [0.05, -0.02, 0.02], "actors[0].extent"),
    (("actors", 0, "contact_points", 0, "id"), None, "actors[0].contact_points[0].id"),
    (("goal", "children", 0, "tol"), float("nan"), "goal.children[0].tol"),
    (("goal", "children", 1, "actor"), ["shoe"], "goal.children[1].actor"),
    (("actors", 0, "static"), "false", "actors[0].static"),
    (("actors", 0, "contact_points", 0, "id"), 1.5, "actors[0].contact_points[0].id"),
    (("noise", "pos_sigma"), True, "noise.pos_sigma"),
    (("noise", "pos_sigma"), 1.5, "noise.pos_sigma"),
    (("noise", "rot_sigma"), 3.15, "noise.rot_sigma"),
    (("noise", "rot_sigma"), 1e308, "noise.rot_sigma"),
    pytest.param(("goal", "children", 0, "a"), "shoe.functional.1" + "0" * 5000,
                 "goal.children[0].a", id="point_id_5001_digits"),
    pytest.param(("name",), "../escaped", "name", id="name_escapes_out_dir"),
    pytest.param(("name",), "", "name", id="name_empty"),
    pytest.param(("name",), "Schuh_ß", "name", id="name_not_ascii"),
    pytest.param(("instruction",), " \t\n", "instruction", id="instruction_blank"),
])
def test_malformed_field_is_schema_error_naming_it(tmp_path, path, value, field):
    raw = json.loads(task_path("place_shoe").read_text())
    _set(raw, path, value)
    bad = tmp_path / "bad.task.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(TaskSchemaError) as err:
        load_task_spec(bad)
    assert err.value.field == field


def _load_edited(tmp_path, edit):
    """The place_shoe task with edit applied to its JSON, loaded."""
    raw = json.loads(task_path("place_shoe").read_text())
    edit(raw)
    path = tmp_path / "edited.task.json"
    path.write_text(json.dumps(raw))
    return load_task_spec(path)


@pytest.mark.parametrize("annotation, twin, expected", [
    ("HELD(shoe)", {"op": "any", "children": [{"op": "held", "actor": "shoe", "arm": "left"},
                                              {"op": "held", "actor": "shoe", "arm": "right"}]},
     Any_((Held("shoe", "left"), Held("shoe", "right")))),
    ("HELD(shoe, right)", {"op": "held", "actor": "shoe", "arm": "right"}, Held("shoe", "right")),
    ("FREE(target_block)", {"op": "free", "actor": "target_block"}, Free("target_block")),
    ("NEAR(shoe.functional.0, target_block.functional.0, 0.02)",
     {"op": "near", "a": {"actor": "shoe", "category": "functional", "id": 0},
      "b": "target_block.functional.0", "tol": 0.02},
     Near(PointRef("shoe", "functional", 0), PointRef("target_block", "functional", 0), 0.02)),
    ("ABOVE(shoe, target_block, 1)", {"op": "above", "a": "shoe", "b": "target_block", "min_dz": 1.0},
     Above("shoe", "target_block", 1.0)),
])
def test_annotation_is_its_json_predicate(tmp_path, annotation, twin, expected):
    def edit(raw):
        raw["subgoals"] = [f"move the shoe [{annotation}]", {"text": "move the shoe", "checkpoint": twin}]
    short, long = _load_edited(tmp_path, edit).subgoals
    assert short.text == long.text
    assert short.checkpoint == long.checkpoint == expected


_FREE_MUG = {"op": "all", "children": [{"op": "free", "actor": "shoe"}, {"op": "free", "actor": "mug"}]}
_NO_SUCH_POINT = {"op": "near", "a": "shoe.functional.0",
                  "b": {"actor": "target_block", "category": "functional", "id": 3}, "tol": 0.02}


@pytest.mark.parametrize("path, value, error, field", [
    (("goal", "children", 1, "actor"), "mug", TaskSchemaError, "goal.children[1].actor"),
    (("goal", "children", 0, "b"), "target_block.functional.3", UnknownPointError, "goal.children[0].b"),
    (("goal", "children", 0, "a"), "mug.functional.0", TaskSchemaError, "goal.children[0].a"),
    (("subgoals", 1), {"text": "place it", "checkpoint": _FREE_MUG}, TaskSchemaError,
     "subgoals[1].checkpoint.children[1].actor"),
    (("subgoals", 1), {"text": "place it", "checkpoint": _NO_SUCH_POINT}, UnknownPointError,
     "subgoals[1].checkpoint.b.id"),
    (("subgoals", 0), "pick up the mug [HELD(mug, left)]", TaskSchemaError, "subgoals[0]"),
    (("subgoals", 0), "place it [NEAR(shoe.functional.0, target_block.functional.3, 0.02)]",
     UnknownPointError, "subgoals[0]"),
], ids=["goal_actor", "goal_point", "goal_ref_actor", "checkpoint_actor", "checkpoint_point",
        "annotation_actor", "annotation_point"])
def test_unknown_reference_is_named_where_it_is(tmp_path, path, value, error, field):
    with pytest.raises(error) as err:
        _load_edited(tmp_path, lambda raw: _set(raw, path, value))
    assert err.value.field == field
    assert ("mug" if error is TaskSchemaError else "functional point 3") in str(err.value)


def _json_paths(node, prefix=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        # The numbers of a vector share one check; mutating the first stands
        # for all of them.
        numeric = all(isinstance(v, (int, float)) for v in node)
        items = list(enumerate(node))[:1] if numeric else enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,), child
        yield from _json_paths(child, prefix + (key,))


def _mutations(value):
    """Drop the field, change its type, or make a number negative or NaN."""
    yield "drop"
    yield from ("a", None, [], {})
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        yield from (-value - 1, float("nan"))
    if isinstance(value, list) and value:
        yield value[:-1]


_BAD_ARGS = ("ghost", "ghost.functional.0", "middle", "x", "true", "[]", "0", "-0.02", "NaN", "1e999", "")


def _annotation_mutations(subgoal):
    """A subgoal annotation with an argument dropped or added, or one
    argument replaced: by an unknown actor or point, a bad arm, a non-number
    or a non-positive number."""
    m = re.search(r"\[(\w+)\((.*)\)\]$", subgoal) if isinstance(subgoal, str) else None
    if m is None:
        return
    kind, args = m.group(1), [a.strip() for a in m.group(2).split(",")]
    variants = [args[:-1], args[1:], [*args, "left"], [*args, "0.02"]]
    for i, arg in enumerate(args):
        variants += [[*args[:i], bad, *args[i + 1:]] for bad in (*_BAD_ARGS, arg.rsplit(".", 1)[0] + ".99")]
    for variant in variants:
        yield f"{subgoal[:m.start()]}[{kind}({', '.join(variant)})]"


@pytest.mark.parametrize("task", TASK_NAMES)
def test_task_loader_mutation_fuzz(tmp_path, task):
    """Every mutation of a bundled task file either loads or raises an
    ArmloopError; nothing else escapes the loader. An error in a subgoal
    annotation names the subgoal."""
    base = json.loads(task_path(task).read_text())
    # The optional arm overrides are fuzzed too.
    base.setdefault("workspaces", {t: {a: list(b) for a, b in box.items()}
                                   for t, box in DEFAULT_WORKSPACES.items()})
    base.setdefault("arm_home", copy.deepcopy(DEFAULT_HOMES))
    text = json.dumps(base)
    path = tmp_path / "mutant.task.json"
    path.write_text(text)
    load_task_spec(path)
    for field_path, value in list(_json_paths(base)):
        for mutation in _mutations(value):
            raw = json.loads(text)
            if mutation == "drop":
                parent = raw
                for key in field_path[:-1]:
                    parent = parent[key]
                del parent[field_path[-1]]
            else:
                _set(raw, field_path, mutation)
            path.write_text(json.dumps(raw))
            try:
                load_task_spec(path)
            except ArmloopError:
                pass
            except Exception as exc:  # pragma: no cover - the failure report
                pytest.fail(f"{field_path} -> {mutation!r}: {type(exc).__name__}: {exc}")
    for i, subgoal in enumerate(base["subgoals"]):
        for mutant in _annotation_mutations(subgoal):
            raw = json.loads(text)
            raw["subgoals"][i] = mutant
            path.write_text(json.dumps(raw))
            try:
                load_task_spec(path)
            except ArmloopError as exc:
                assert getattr(exc, "field", None) == f"subgoals[{i}]", (mutant, exc)
            except Exception as exc:  # pragma: no cover - the failure report
                pytest.fail(f"{mutant!r}: {type(exc).__name__}: {exc}")


# --- points in the world -------------------------------------------------------


def _replace_geometry(spec, name, **changes):
    """A new spec whose actor ``name`` has the given geometry fields replaced."""
    actors = dict(spec.actors)
    actors[name] = dataclasses.replace(actors[name], **changes)
    return dataclasses.replace(spec, actors=actors)


def _initial_scene(spec) -> SceneRows:
    """One row: every actor at its initial pose, both arms at home."""
    return scene_from_state(spec, {"actors": {}, "arms": {}})


def _holds(pred, spec, scene) -> bool:
    [value] = eval_predicate(pred, spec, scene).tolist()
    return value


def _shoe_point_within(spec, pose: Pose, fp0: Pose, world, tol: float) -> bool:
    """Whether the shoe's functional point 0, at ``fp0`` in a shoe at
    ``pose``, lies within tol of the world point: the target block's
    functional point 0, moved there."""
    points = (LocalPoint(0, fp0),) + spec.actors["shoe"].functional_points[1:]
    spec = _replace_geometry(spec, "shoe", pose=pose, functional_points=points)
    spec = _replace_geometry(spec, "target_block", pose=Pose(world), functional_points=(LocalPoint(0, Pose()),))
    pred = Near(PointRef("shoe", "functional", 0), PointRef("target_block", "functional", 0), tol)
    return _holds(pred, spec, _initial_scene(spec))


def test_resolve_point_identity(place_shoe_spec):
    args = place_shoe_spec, Pose(np.zeros(3)), Pose(np.array([0, 0, 0.05]))
    assert _shoe_point_within(*args, (0, 0, 0.05), 1e-12)
    assert not _shoe_point_within(*args, (0, 0, 0.06), 0.005)


def test_resolve_point_translation(place_shoe_spec):
    args = place_shoe_spec, Pose(np.array([0.1, 0.0, 0.0])), Pose(np.array([0, 0, 0.05]))
    assert _shoe_point_within(*args, (0.1, 0.0, 0.05), 1e-12)
    assert not _shoe_point_within(*args, (0.0, 0.0, 0.05), 0.005)


def test_resolve_point_rotation(place_shoe_spec):
    q = quat_from_axis_angle_rows(np.array([0.0, 0.0, 1.0]), np.array([np.pi / 2]))[0]
    args = place_shoe_spec, Pose(np.zeros(3), q), Pose(np.array([0.05, 0.0, 0.0]))
    assert _shoe_point_within(*args, (0.0, 0.05, 0.0), 1e-12)
    assert not _shoe_point_within(*args, (0.05, 0.0, 0.0), 0.005)


def test_resolve_point_errors(place_shoe_spec):
    scene = _initial_scene(place_shoe_spec)
    block = PointRef("target_block", "functional", 0)
    with pytest.raises(UnknownActorError):
        eval_predicate(Near(PointRef("mug", "functional", 0), block, 0.01), place_shoe_spec, scene)
    with pytest.raises(UnknownPointError):
        eval_predicate(Near(PointRef("shoe", "functional", 9), block, 0.01), place_shoe_spec, scene)


# --- predicates ---------------------------------------------------------------


def test_near_coincident_points(place_shoe_spec):
    spec = place_shoe_spec
    scene = _initial_scene(spec)
    block_fp = compose_rows(scene.poses["target_block"], spec.actors["target_block"].functional_points[0].pose.values)
    shoe_fp = np.array(spec.actors["shoe"].functional_points[0].pose.values)
    scene.poses["shoe"] = compose_rows(block_fp, inverse_rows(shoe_fp))
    pred = Near(PointRef("shoe", "functional", 0), PointRef("target_block", "functional", 0), 0.02)
    assert _holds(pred, spec, scene)


def test_aligned_at_90deg_false(place_shoe_spec):
    spec = _replace_geometry(place_shoe_spec, "shoe", grasp_axis=np.array([0.0, 0.0, 1.0]))
    spec = _replace_geometry(spec, "target_block", grasp_axis=np.array([1.0, 0.0, 0.0]))
    scene = _initial_scene(spec)
    assert not _holds(Aligned(AxisRef("shoe", "grasp"), AxisRef("target_block", "grasp"), 0.1), spec, scene)
    assert _holds(Aligned(AxisRef("shoe", "grasp"), AxisRef("target_block", "grasp"), np.pi / 2 + 1e-9),
                  spec, scene)


def test_nested_all_any_matches_truth_table(place_shoe_spec):
    scene = _initial_scene(place_shoe_spec)
    # Three leaves toggled via what the arms hold; the oracle enumerates the
    # assignments with plain python logic.
    pred = All((Any_((Held("shoe", "left"), Free("shoe"))), Held("target_block", "right")))

    for shoe_held_left, block_held_right in itertools.product([False, True], repeat=2):
        scene.holding["left"] = "shoe" if shoe_held_left else None
        scene.holding["right"] = "target_block" if block_held_right else None
        expected = (shoe_held_left or not shoe_held_left) and block_held_right
        assert _holds(pred, place_shoe_spec, scene) == expected


def test_predicate_purity(place_shoe_spec):
    scene = _initial_scene(place_shoe_spec)
    before = copy.deepcopy(scene)
    pred = place_shoe_spec.goal
    first = eval_predicate(pred, place_shoe_spec, scene)
    second = eval_predicate(pred, place_shoe_spec, scene)
    assert first.tolist() == second.tolist()
    assert scene.holding == before.holding and scene.grippers == before.grippers
    for name in scene.poses:
        assert scene.poses[name].tobytes() == before.poses[name].tobytes()


def _reference_point(spec, scene, ref: PointRef, r: int):
    pose = scene.poses[ref.actor][r]
    return pose[:3] + _np_quat_rotate(pose[3:], spec.actors[ref.actor].point(ref.category, ref.id).pose.p)


def _reference_axis(spec, scene, ref: AxisRef, r: int):
    return _np_quat_rotate(scene.poses[ref.actor][r, 3:], spec.actors[ref.actor].axis(ref.category))


def _reference(pred, spec, scene, r: int) -> bool:
    """The predicate on row r, one vector at a time with the numpy reference
    of tests/test_geometry.py."""
    if isinstance(pred, All):
        return all([_reference(c, spec, scene, r) for c in pred.children])
    if isinstance(pred, Any_):
        return any([_reference(c, spec, scene, r) for c in pred.children])
    if isinstance(pred, Near):
        a, b = (_reference_point(spec, scene, ref, r) for ref in (pred.a, pred.b))
        return bool(np.linalg.norm(a - b) <= pred.tol)
    if isinstance(pred, Aligned):
        a, b = (_reference_axis(spec, scene, ref, r) for ref in (pred.a, pred.b))
        return bool(_np_angle_between(a, b) <= pred.tol)
    if isinstance(pred, Held):
        return scene.holding[pred.arm] == pred.actor
    if isinstance(pred, Free):
        return pred.actor not in scene.holding.values()
    if isinstance(pred, Above):
        return bool(scene.poses[pred.a][r, 2] - scene.poses[pred.b][r, 2] >= pred.min_dz)
    raise TypeError(pred)


def test_every_predicate_kind_over_rows_matches_scalar_reference(place_shoe_spec):
    """Every kind of predicate, alone and nested, over seeded random poses,
    with some tolerances at the exact value of a row and some rows at the
    float limits, whose arithmetic overflows without a warning."""
    spec = _replace_geometry(place_shoe_spec, "target_block", grasp_axis=(0.0, 0.6, 0.8))
    rng = np.random.default_rng(17)
    n = 200
    poses = {name: pose_rows(rng.uniform(-0.1, 0.1, size=(n, 3)), rng.normal(size=(n, 4)))
             for name in spec.actors}
    poses["shoe"][:20] = poses["target_block"][:20]  # coincident
    poses["shoe"][20:40, 3:] = poses["target_block"][20:40, 3:]  # aligned
    poses["shoe"][40:50, :3] = 1.7e308
    poses["target_block"][40:50, :3] = -1.7e308
    poses["target_block"][50:55, 3:] = np.nan
    scene = SceneRows(poses, {tag: np.tile(spec.homes[tag].values, (n, 1)) for tag in ARM_TAGS},
                      dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))

    fps = PointRef("shoe", "functional", 0), PointRef("target_block", "functional", 0)
    axes = AxisRef("shoe", "grasp"), AxisRef("target_block", "grasp")
    distance = [float(np.linalg.norm(_reference_point(spec, scene, fps[0], r)
                                     - _reference_point(spec, scene, fps[1], r))) for r in (60, 61)]
    angle = [float(_np_angle_between(*(_reference_axis(spec, scene, ref, r) for ref in axes))) for r in (62, 63)]
    dz = [float(poses["shoe"][r, 2] - poses["target_block"][r, 2]) for r in (64, 65)]
    # (predicate, a row it holds on, a row it fails on) at each exact tolerance
    at_tolerance = [
        (Near(*fps, distance[0]), 60, None), (Near(*fps, np.nextafter(distance[1], 0)), None, 61),
        (Aligned(*axes, angle[0]), 62, None), (Aligned(*axes, np.nextafter(angle[1], 0)), None, 63),
        (Above("shoe", "target_block", dz[0]), 64, None),
        (Above("shoe", "target_block", np.nextafter(dz[1], np.inf)), None, 65),
    ]
    leaves = [pred for pred, _, _ in at_tolerance]
    leaves += [Near(*fps, tol) for tol in (0.02, 0.05, 1e-12)]
    leaves += [Aligned(*axes, tol) for tol in (0.1, 1.0, 1e-9, np.pi, np.pi / 2)]
    leaves += [Above("shoe", "target_block", min_dz) for min_dz in (0.01, 0.1)]
    leaves += [Held(actor, tag) for actor in spec.actors for tag in ARM_TAGS]
    leaves += [Free(actor) for actor in spec.actors]
    trees = [All(()), Any_(()), All(tuple(leaves[:4])), Any_(tuple(leaves[4:9])),
             All((Any_((leaves[0], leaves[-5])), leaves[8], Any_((leaves[-1], leaves[-3]))))]
    for held in itertools.product((None, *spec.actors), repeat=len(ARM_TAGS)):
        scene.holding.update(zip(ARM_TAGS, held))
        for pred in leaves + trees:
            with np.errstate(all="raise"):
                rows = eval_predicate(pred, spec, scene)
            assert rows.dtype == bool and rows.shape == (n,)
            with np.errstate(over="ignore", invalid="ignore"):
                expected = [_reference(pred, spec, scene, r) for r in range(n)]
            assert rows.tolist() == expected, pred
    for pred, holds, fails in at_tolerance:
        rows = eval_predicate(pred, spec, scene)
        assert holds is None or rows[holds], pred
        assert fails is None or not rows[fails], pred


def test_checkpoint_annotation_stripped(place_shoe_spec):
    assert place_shoe_spec.subgoal_templates[0] == "pick up the shoe"
    checkpoint = place_shoe_spec.subgoals[0].checkpoint
    assert isinstance(checkpoint, Any_)
    assert {c.arm for c in checkpoint.children} == {"left", "right"}


def test_final_subgoal_defaults_to_goal(place_shoe_spec):
    assert place_shoe_spec.subgoals[-1].checkpoint is place_shoe_spec.goal
