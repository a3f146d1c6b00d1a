import copy
import dataclasses
import itertools
import json

import numpy as np
import pytest

from armloop.errors import (
    ArmloopError,
    TaskParseError,
    TaskSchemaError,
    UnknownActorError,
    UnknownPointError,
)
from armloop.geometry import Pose, quat_from_axis_angle
from armloop.scene import (
    DEFAULT_HOMES,
    DEFAULT_WORKSPACES,
    All,
    Any_,
    Aligned,
    AxisRef,
    Free,
    Held,
    LocalPoint,
    Near,
    PointRef,
    Scene,
    eval_predicate,
    load_task_spec,
    resolve_point,
)

from conftest import TASK_NAMES, task_path


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
])
def test_malformed_field_is_schema_error_naming_it(tmp_path, path, value, field):
    raw = json.loads(task_path("place_shoe").read_text())
    _set(raw, path, value)
    bad = tmp_path / "bad.task.json"
    bad.write_text(json.dumps(raw))
    with pytest.raises(TaskSchemaError) as err:
        load_task_spec(bad)
    assert err.value.field == field


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


@pytest.mark.parametrize("task", TASK_NAMES)
def test_task_loader_mutation_fuzz(tmp_path, task):
    """Every mutation of a bundled task file either loads or raises an
    ArmloopError; nothing else escapes the loader."""
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


# --- resolve_point ------------------------------------------------------------


def _replace_geometry(spec, name, **changes):
    """A new spec whose actor ``name`` has the given geometry fields replaced."""
    actors = dict(spec.actors)
    actors[name] = dataclasses.replace(actors[name], **changes)
    return dataclasses.replace(spec, actors=actors)


def _shoe_scene(spec, pose: Pose, fp0: Pose) -> Scene:
    """Scene over a geometry variant: the shoe at ``pose``, its functional
    point 0 at ``fp0``."""
    points = (LocalPoint(0, fp0),) + spec.actors["shoe"].functional_points[1:]
    return Scene.from_spec(_replace_geometry(spec, "shoe", pose=pose, functional_points=points))


def test_resolve_point_identity(place_shoe_spec):
    scene = _shoe_scene(place_shoe_spec, Pose(np.zeros(3)), Pose(np.array([0, 0, 0.05])))
    world = resolve_point(scene, PointRef("shoe", "functional", 0))
    assert np.allclose(world.p, [0, 0, 0.05])


def test_resolve_point_translation(place_shoe_spec):
    scene = _shoe_scene(place_shoe_spec, Pose(np.array([0.1, 0.0, 0.0])), Pose(np.array([0, 0, 0.05])))
    world = resolve_point(scene, PointRef("shoe", "functional", 0))
    assert np.allclose(world.p, [0.1, 0.0, 0.05])


def test_resolve_point_rotation(place_shoe_spec):
    q = quat_from_axis_angle(np.array([0.0, 0.0, 1.0]), np.pi / 2)
    scene = _shoe_scene(place_shoe_spec, Pose(np.zeros(3), q), Pose(np.array([0.05, 0.0, 0.0])))
    world = resolve_point(scene, PointRef("shoe", "functional", 0))
    assert np.allclose(world.p, [0.0, 0.05, 0.0], atol=1e-12)


def test_resolve_point_errors(place_shoe_spec):
    scene = Scene.from_spec(place_shoe_spec)
    with pytest.raises(UnknownActorError):
        resolve_point(scene, PointRef("mug", "functional", 0))
    with pytest.raises(UnknownPointError):
        resolve_point(scene, PointRef("shoe", "functional", 9))


# --- predicates ---------------------------------------------------------------


def test_near_coincident_points(place_shoe_spec):
    scene = Scene.from_spec(place_shoe_spec)
    block_fp = resolve_point(scene, PointRef("target_block", "functional", 0))
    scene.poses["shoe"] = block_fp.compose(scene.actor("shoe").functional_points[0].pose.inverse())
    pred = Near(PointRef("shoe", "functional", 0), PointRef("target_block", "functional", 0), 0.02)
    assert eval_predicate(pred, scene)


def test_aligned_at_90deg_false(place_shoe_spec):
    spec = _replace_geometry(place_shoe_spec, "shoe", grasp_axis=np.array([0.0, 0.0, 1.0]))
    spec = _replace_geometry(spec, "target_block", grasp_axis=np.array([1.0, 0.0, 0.0]))
    scene = Scene.from_spec(spec)
    pred = Aligned(AxisRef("shoe", "grasp"), AxisRef("target_block", "grasp"), 0.1)
    assert not eval_predicate(pred, scene)


def test_nested_all_any_matches_truth_table(place_shoe_spec):
    scene = Scene.from_spec(place_shoe_spec)
    # Three independent leaves toggled via what the arms hold; oracle
    # enumerates all 8 assignments with plain python logic.
    leaf_preds = [Held("shoe", "left"), Free("shoe"), Held("target_block", "right")]
    pred = All((Any_((leaf_preds[0], leaf_preds[1])), leaf_preds[2]))

    for bits in itertools.product([False, True], repeat=2):
        shoe_held_left, block_held_right = bits
        scene.arms["left"].holding = "shoe" if shoe_held_left else None
        scene.arms["right"].holding = "target_block" if block_held_right else None
        leaves = [
            scene.held_by("shoe") == "left",
            scene.held_by("shoe") is None,
            scene.held_by("target_block") == "right",
        ]
        expected = (leaves[0] or leaves[1]) and leaves[2]
        assert eval_predicate(pred, scene) == expected


def test_predicate_purity(place_shoe_spec):
    scene = Scene.from_spec(place_shoe_spec)
    pred = place_shoe_spec.goal
    first = eval_predicate(pred, copy.deepcopy(scene))
    second = eval_predicate(pred, copy.deepcopy(scene))
    assert first == second


def test_checkpoint_annotation_stripped(place_shoe_spec):
    assert place_shoe_spec.subgoal_templates[0] == "pick up the shoe"
    checkpoint = place_shoe_spec.subgoals[0].checkpoint
    assert isinstance(checkpoint, Any_)
    assert {c.arm for c in checkpoint.children} == {"left", "right"}


def test_final_subgoal_defaults_to_goal(place_shoe_spec):
    assert place_shoe_spec.subgoals[-1].checkpoint is place_shoe_spec.goal
