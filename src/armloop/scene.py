"""World model: task geometry, per-trial scene state, and goal predicates.

A task file (JSON, schema documented in the README) fully describes the
initial tabletop: actors with box extents, grasp/placement point sets and
approach axes, a noise model, ordered subgoal templates, and a goal
predicate tree. The loaded `TaskSpec` is immutable geometry (frozen actors,
read-only poses and axes) shared by every trial. A `Scene` holds only what
a trial changes: a pose per actor and the two arms, each recording the
actor it holds, which is the one place the hold relation lives.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    TaskParseError,
    TaskSchemaError,
    UnknownActorError,
    UnknownPointError,
)
from .geometry import Pose, angle_between, readonly, unit_norm_ok

ARM_TAGS = ("left", "right")

POINT_CATEGORIES = ("contact", "functional", "utility")
AXIS_CATEGORIES = ("grasp", "place", "util")

# Reach limits used when a task file does not override them. They are what
# makes "unreachable" a real failure mode on the desk.
DEFAULT_WORKSPACES = {
    "left": {"x": (-0.55, 0.05), "y": (-0.15, 0.45), "z": (0.0, 0.5)},
    "right": {"x": (-0.05, 0.55), "y": (-0.15, 0.45), "z": (0.0, 0.5)},
}

DEFAULT_HOMES = {
    "left": [-0.25, 0.0, 0.3, 1.0, 0.0, 0.0, 0.0],
    "right": [0.25, 0.0, 0.3, 1.0, 0.0, 0.0, 0.0],
}

DEFAULT_AXES = {
    "grasp_axis": readonly(np.array([0.0, 0.0, -1.0])),
    "place_axis": readonly(np.array([0.0, 0.0, 1.0])),
    "util_axis": readonly(np.array([0.0, 0.0, 1.0])),
}

DEFAULT_PLACE_TOLERANCE = 0.02


@dataclass(frozen=True, eq=False)
class LocalPoint:
    id: int
    pose: Pose


@dataclass(frozen=True, eq=False)
class Actor:
    """Task geometry of one actor: an axis-aligned box proxy at its initial
    pose, with object-local interaction primitives. Where a trial has moved
    it is per-trial state, kept in `Scene.poses`."""

    name: str
    pose: Pose
    extent: np.ndarray
    static: bool
    contact_points: tuple[LocalPoint, ...]
    functional_points: tuple[LocalPoint, ...]
    utility_points: tuple[LocalPoint, ...]
    grasp_axis: np.ndarray
    place_axis: np.ndarray
    util_axis: np.ndarray

    def points(self, category: str) -> tuple[LocalPoint, ...]:
        if category == "contact":
            return self.contact_points
        if category == "functional":
            return self.functional_points
        if category == "utility":
            return self.utility_points
        raise ValueError(f"unknown point category {category!r}")

    def point(self, category: str, point_id: int) -> LocalPoint:
        for pt in self.points(category):
            if pt.id == point_id:
                return pt
        raise UnknownPointError(self.name, category, point_id)

    def axis(self, category: str) -> np.ndarray:
        if category == "grasp":
            return self.grasp_axis
        if category == "place":
            return self.place_axis
        if category == "util":
            return self.util_axis
        raise ValueError(f"unknown axis category {category!r}")


@dataclass(eq=False)
class ArmState:
    tcp: Pose
    gripper: float = 1.0
    holding: str | None = None  # name of the actor in this gripper


# --- goal predicates ------------------------------------------------------


@dataclass(frozen=True)
class PointRef:
    actor: str
    category: str  # contact | functional | utility
    id: int


@dataclass(frozen=True)
class AxisRef:
    actor: str
    category: str  # grasp | place | util


@dataclass(frozen=True)
class All:
    children: tuple


@dataclass(frozen=True)
class Any_:
    children: tuple


@dataclass(frozen=True)
class Near:
    a: PointRef
    b: PointRef
    tol: float


@dataclass(frozen=True)
class Aligned:
    a: AxisRef
    b: AxisRef
    tol: float


@dataclass(frozen=True)
class Held:
    actor: str
    arm: str


@dataclass(frozen=True)
class Free:
    actor: str


@dataclass(frozen=True)
class Above:
    a: str
    b: str
    min_dz: float


Predicate = All | Any_ | Near | Aligned | Held | Free | Above


@dataclass(eq=False)
class NoiseSpec:
    pos_sigma: float = 0.0
    rot_sigma: float = 0.0
    slip_base: float = 0.0


@dataclass(eq=False)
class SubgoalTemplate:
    """Template text plus an optional per-subgoal checkpoint predicate.

    ``text`` is the display form (annotation stripped); ``checkpoint`` is the
    condition the oracle verifier evaluates after the subgoal's last
    snapshot. None means "no dedicated check" (the final subgoal defaults to
    the task goal at load time).
    """

    text: str
    checkpoint: Predicate | None = None


@dataclass(frozen=True, eq=False)
class TaskSpec:
    name: str
    instruction: str
    actors: dict[str, Actor]  # task-file order
    subgoals: list[SubgoalTemplate]
    goal: Predicate
    noise: NoiseSpec
    workspaces: dict[str, dict[str, tuple[float, float]]]
    homes: dict[str, Pose]
    place_tolerance: float

    @property
    def subgoal_templates(self) -> list[str]:
        return [sg.text for sg in self.subgoals]

    def in_workspace(self, tag: str, p: np.ndarray) -> bool:
        for axis_name, coord in zip("xyz", p):
            lo, hi = self.workspaces[tag][axis_name]
            if coord < lo or coord > hi:
                return False
        return True


@dataclass(eq=False)
class Scene:
    """Per-trial world state over a task's shared geometry: the current pose
    of each actor (task-file order) and both arms."""

    spec: TaskSpec
    poses: dict[str, Pose]
    arms: dict[str, ArmState]

    @classmethod
    def from_spec(cls, spec: TaskSpec) -> "Scene":
        poses = {name: actor.pose for name, actor in spec.actors.items()}
        return cls(spec, poses, {tag: ArmState(spec.homes[tag]) for tag in ARM_TAGS})

    def actor(self, name: str) -> Actor:
        try:
            return self.spec.actors[name]
        except KeyError:
            raise UnknownActorError(name) from None

    def held_by(self, name: str) -> str | None:
        for tag, arm in self.arms.items():
            if arm.holding == name:
                return tag
        return None

    def world_axis(self, name: str, category: str) -> np.ndarray:
        axis = self.actor(name).axis(category)
        return self.poses[name].rotate(axis)

    def world_aabb(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Box proxy in world frame; orientation is deliberately ignored."""
        p, extent = self.poses[name].p, self.spec.actors[name].extent
        return p - extent, p + extent

    def top_z(self, name: str) -> float:
        return float(self.poses[name].p[2] + self.spec.actors[name].extent[2])


# --- core operations ------------------------------------------------------


def resolve_point(scene: Scene, ref: PointRef) -> Pose:
    """World pose of an object-local point (actor pose o local pose)."""
    local = scene.actor(ref.actor).point(ref.category, ref.id).pose
    return scene.poses[ref.actor].compose(local)


def eval_predicate(pred: Predicate, scene: Scene) -> bool:
    if isinstance(pred, All):
        return all(eval_predicate(c, scene) for c in pred.children)
    if isinstance(pred, Any_):
        return any(eval_predicate(c, scene) for c in pred.children)
    if isinstance(pred, Near):
        pa = resolve_point(scene, pred.a).p
        pb = resolve_point(scene, pred.b).p
        return float(np.linalg.norm(pa - pb)) <= pred.tol
    if isinstance(pred, Aligned):
        ua = scene.world_axis(pred.a.actor, pred.a.category)
        ub = scene.world_axis(pred.b.actor, pred.b.category)
        return angle_between(ua, ub) <= pred.tol
    if isinstance(pred, Held):
        return scene.arms[pred.arm].holding == pred.actor
    if isinstance(pred, Free):
        return scene.held_by(pred.actor) is None
    if isinstance(pred, Above):
        za = scene.poses[pred.a].p[2]
        zb = scene.poses[pred.b].p[2]
        return float(za - zb) >= pred.min_dz
    raise TypeError(f"not a predicate: {pred!r}")


# --- task file loading ----------------------------------------------------


def _typed(value, kind: type, where: str):
    if not isinstance(value, kind):
        raise TaskSchemaError(where, f"expected {kind.__name__}, got {value!r}")
    return value


def _require(obj: dict, key: str, where: str):
    if key not in _typed(obj, dict, where):
        raise TaskSchemaError(f"{where}.{key}", "missing required field")
    return obj[key]


def _string(obj: dict, key: str, where: str) -> str:
    return _typed(_require(obj, key, where), str, f"{where}.{key}")


def _number(value, where: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise TaskSchemaError(where, f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise TaskSchemaError(where, f"expected a finite number, got {value!r}")
    return number


def _non_negative(value, where: str) -> float:
    number = _number(value, where)
    if number < 0:
        raise TaskSchemaError(where, "must be non-negative")
    return number


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if number <= 0:
        raise TaskSchemaError(where, "must be positive")
    return number


def _int(value, where: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise TaskSchemaError(where, f"expected an integer, got {value!r}") from None


def _load_pose(values, where: str) -> Pose:
    try:
        return Pose.from_list(values)
    except (TypeError, ValueError) as exc:
        raise TaskSchemaError(where, str(exc)) from None


def _load_vec3(values, where: str) -> np.ndarray:
    try:
        v = np.asarray([float(x) for x in values], dtype=float)
    except (TypeError, ValueError):
        raise TaskSchemaError(where, "expected 3 numbers") from None
    if v.shape != (3,) or not np.isfinite(v).all():
        raise TaskSchemaError(where, "expected 3 finite numbers")
    return readonly(v)


def _load_axis(values, where: str) -> np.ndarray:
    v = _load_vec3(values, where)
    if not unit_norm_ok(v):
        raise TaskSchemaError(where, f"axis must be unit-norm, |v|={np.linalg.norm(v)}")
    return v


def _load_points(raw, where: str) -> tuple[LocalPoint, ...]:
    pts = []
    seen = set()
    for i, entry in enumerate(_typed(raw or [], list, where)):
        pid = _int(_require(entry, "id", f"{where}[{i}]"), f"{where}[{i}].id")
        if pid in seen:
            raise TaskSchemaError(f"{where}[{i}].id", f"duplicate point id {pid}")
        seen.add(pid)
        pts.append(LocalPoint(pid, _load_pose(_require(entry, "pose", f"{where}[{i}]"), f"{where}[{i}].pose")))
    return tuple(pts)


def _load_actor(raw: dict, idx: int) -> Actor:
    where = f"actors[{idx}]"
    name = _string(raw, "name", where)
    pose = _load_pose(_require(raw, "pose", where), f"{where}.pose")
    extent = _load_vec3(_require(raw, "extent", where), f"{where}.extent")
    points = {
        key: _load_points(raw.get(key), f"{where}.{key}")
        for key in ("contact_points", "functional_points", "utility_points")
    }
    if (extent < 0).any():
        raise TaskSchemaError(f"{where}.extent", "must be non-negative")
    axes = {
        key: _load_axis(raw[key], f"{where}.{key}") if key in raw else default
        for key, default in DEFAULT_AXES.items()
    }
    actor = Actor(name, pose, extent, bool(raw.get("static", False)), **points, **axes)
    if not actor.static:
        if not actor.contact_points:
            raise TaskSchemaError(f"{where}.contact_points", f"non-static actor {name!r} needs at least one contact point")
        if not actor.functional_points:
            raise TaskSchemaError(f"{where}.functional_points", f"non-static actor {name!r} needs at least one functional point")
    return actor


def _parse_point_ref(raw, where: str) -> PointRef:
    if isinstance(raw, str):
        # Compact "actor.category.id" form, also used by annotations.
        parts = raw.split(".")
        if len(parts) != 3 or parts[1] not in POINT_CATEGORIES:
            raise TaskSchemaError(where, f"bad point ref {raw!r}")
        return PointRef(parts[0], parts[1], _int(parts[2], where))
    cat = _require(raw, "category", where)
    if cat not in POINT_CATEGORIES:
        raise TaskSchemaError(f"{where}.category", f"bad category {cat!r}")
    return PointRef(_string(raw, "actor", where), cat,
                    _int(_require(raw, "id", where), f"{where}.id"))


def _parse_axis_ref(raw, where: str) -> AxisRef:
    if isinstance(raw, str):
        parts = raw.split(".")
        if len(parts) != 2 or parts[1] not in AXIS_CATEGORIES:
            raise TaskSchemaError(where, f"bad axis ref {raw!r}")
        return AxisRef(parts[0], parts[1])
    cat = _require(raw, "category", where)
    if cat not in AXIS_CATEGORIES:
        raise TaskSchemaError(f"{where}.category", f"bad category {cat!r}")
    return AxisRef(_string(raw, "actor", where), cat)


def parse_predicate(raw: dict, where: str = "goal") -> Predicate:
    op = _string(raw, "op", where).lower()
    if op in ("all", "any"):
        children = tuple(
            parse_predicate(c, f"{where}.children[{i}]")
            for i, c in enumerate(_typed(_require(raw, "children", where), list, f"{where}.children"))
        )
        return All(children) if op == "all" else Any_(children)
    if op == "near":
        tol = _positive(_require(raw, "tol", where), f"{where}.tol")
        return Near(_parse_point_ref(_require(raw, "a", where), f"{where}.a"),
                    _parse_point_ref(_require(raw, "b", where), f"{where}.b"), tol)
    if op == "aligned":
        tol = _positive(_require(raw, "tol", where), f"{where}.tol")
        return Aligned(_parse_axis_ref(_require(raw, "a", where), f"{where}.a"),
                       _parse_axis_ref(_require(raw, "b", where), f"{where}.b"), tol)
    if op == "held":
        arm = _require(raw, "arm", where)
        if arm not in ARM_TAGS:
            raise TaskSchemaError(f"{where}.arm", f"bad arm {arm!r}")
        return Held(_string(raw, "actor", where), arm)
    if op == "free":
        return Free(_string(raw, "actor", where))
    if op == "above":
        dz = _positive(_require(raw, "min_dz", where), f"{where}.min_dz")
        return Above(_string(raw, "a", where), _string(raw, "b", where), dz)
    raise TaskSchemaError(f"{where}.op", f"unknown predicate op {op!r}")


# Subgoal annotation, e.g. "grasp the shoe [HELD(shoe)]". HELD without an
# arm expands to "held by either arm".
_ANNOTATION_RE = re.compile(r"\s*\[(HELD|FREE|NEAR|ABOVE)\(([^\]]*)\)\]\s*$")


def _parse_annotation(kind: str, args_text: str, where: str) -> Predicate:
    args = [a.strip() for a in args_text.split(",")] if args_text.strip() else []
    if kind == "HELD":
        if len(args) == 1:
            return Any_(tuple(Held(args[0], arm) for arm in ARM_TAGS))
        if len(args) == 2 and args[1] in ARM_TAGS:
            return Held(args[0], args[1])
        raise TaskSchemaError(where, f"bad HELD annotation args {args_text!r}")
    if kind == "FREE":
        if len(args) != 1:
            raise TaskSchemaError(where, f"bad FREE annotation args {args_text!r}")
        return Free(args[0])
    if kind == "NEAR":
        if len(args) != 3:
            raise TaskSchemaError(where, f"bad NEAR annotation args {args_text!r}")
        return Near(_parse_point_ref(args[0], where), _parse_point_ref(args[1], where),
                    _positive(args[2], where))
    if kind == "ABOVE":
        if len(args) != 3:
            raise TaskSchemaError(where, f"bad ABOVE annotation args {args_text!r}")
        return Above(args[0], args[1], _positive(args[2], where))
    raise TaskSchemaError(where, f"unknown annotation {kind!r}")


def _load_subgoal(raw, idx: int) -> SubgoalTemplate:
    where = f"subgoals[{idx}]"
    if isinstance(raw, str):
        m = _ANNOTATION_RE.search(raw)
        if m:
            checkpoint = _parse_annotation(m.group(1), m.group(2), where)
            return SubgoalTemplate(raw[: m.start()].rstrip(), checkpoint)
        return SubgoalTemplate(raw)
    text = _string(raw, "text", where)
    checkpoint = None
    if raw.get("checkpoint") is not None:
        checkpoint = parse_predicate(raw["checkpoint"], f"{where}.checkpoint")
    return SubgoalTemplate(text, checkpoint)


def _predicate_actor_refs(pred: Predicate):
    if isinstance(pred, (All, Any_)):
        for c in pred.children:
            yield from _predicate_actor_refs(c)
    elif isinstance(pred, Near):
        yield pred.a.actor
        yield pred.b.actor
    elif isinstance(pred, Aligned):
        yield pred.a.actor
        yield pred.b.actor
    elif isinstance(pred, (Held, Free)):
        yield pred.actor
    elif isinstance(pred, Above):
        yield pred.a
        yield pred.b


def _check_predicate_refs(pred: Predicate, actors: dict[str, Actor], where: str):
    for name in _predicate_actor_refs(pred):
        if name not in actors:
            raise TaskSchemaError(where, f"references unknown actor {name!r}")
    # Point/axis existence is part of the same well-formedness check.
    if isinstance(pred, (All, Any_)):
        for i, c in enumerate(pred.children):
            _check_predicate_refs(c, actors, f"{where}.children[{i}]")
    elif isinstance(pred, Near):
        for ref in (pred.a, pred.b):
            actors[ref.actor].point(ref.category, ref.id)


def load_task_spec(path) -> TaskSpec:
    """Load and fully validate a task file; raises on any schema violation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise TaskParseError(f"{path}: {exc}") from None
    if not text.strip():
        raise TaskParseError(f"{path}: file is empty")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TaskParseError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise TaskParseError(f"{path}: top level must be an object")

    name = _string(raw, "name", "task")
    instruction = _string(raw, "instruction", "task")
    raw_actors = _typed(_require(raw, "actors", "task"), list, "actors")
    loaded = [_load_actor(a, i) for i, a in enumerate(raw_actors)]
    actors = {a.name: a for a in loaded}
    if len(actors) != len(loaded):
        raise TaskSchemaError("actors", "duplicate actor names")

    raw_subgoals = _typed(_require(raw, "subgoals", "task"), list, "subgoals")
    if not raw_subgoals:
        raise TaskSchemaError("subgoals", "at least one subgoal template required")
    subgoals = [_load_subgoal(s, i) for i, s in enumerate(raw_subgoals)]

    goal = parse_predicate(_require(raw, "goal", "task"), "goal")
    _check_predicate_refs(goal, actors, "goal")

    raw_noise = _typed(raw.get("noise", {}), dict, "noise")
    noise = NoiseSpec(**{
        fld: _non_negative(raw_noise.get(fld, 0.0), f"noise.{fld}")
        for fld in ("pos_sigma", "rot_sigma", "slip_base")
    })

    place_tolerance = _non_negative(
        raw.get("place_tolerance", DEFAULT_PLACE_TOLERANCE), "place_tolerance"
    )
    workspaces = {tag: dict(box) for tag, box in DEFAULT_WORKSPACES.items()}
    if "workspaces" in raw:
        for tag, box in _typed(raw["workspaces"], dict, "workspaces").items():
            if tag not in ARM_TAGS:
                raise TaskSchemaError(f"workspaces.{tag}", "arm must be left or right")
            for axis_name in "xyz":
                where = f"workspaces.{tag}.{axis_name}"
                raw_bounds = _typed(_require(box, axis_name, f"workspaces.{tag}"), list, where)
                bounds = tuple(_number(b, where) for b in raw_bounds)
                if len(bounds) != 2 or bounds[0] > bounds[1]:
                    raise TaskSchemaError(where, "expected [lo, hi] with lo <= hi")
                workspaces[tag][axis_name] = bounds
    homes = {tag: Pose.from_list(vals) for tag, vals in DEFAULT_HOMES.items()}
    if "arm_home" in raw:
        for tag, vals in _typed(raw["arm_home"], dict, "arm_home").items():
            if tag not in ARM_TAGS:
                raise TaskSchemaError(f"arm_home.{tag}", "arm must be left or right")
            homes[tag] = _load_pose(vals, f"arm_home.{tag}")

    # Checkpoints: explicit entries override; the final subgoal defaults to
    # the task goal.
    for i, sg in enumerate(subgoals):
        if sg.checkpoint is None and i == len(subgoals) - 1:
            sg.checkpoint = goal
        if sg.checkpoint is not None:
            _check_predicate_refs(sg.checkpoint, actors, f"subgoals[{i}].checkpoint")
    return TaskSpec(name, instruction, actors, subgoals, goal, noise, workspaces, homes,
                    place_tolerance)
