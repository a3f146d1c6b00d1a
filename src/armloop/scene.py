"""World model: task geometry, per-trial scene state, and goal predicates.

A task file (JSON, schema documented in the README) fully describes the
initial tabletop: actors with box extents, grasp/placement point sets and
approach axes, a noise model, ordered subgoal templates, and a goal
predicate tree. The loaded `TaskSpec` is immutable geometry (frozen actors;
poses, extents and axes as tuples) shared by every trial. A `Scene` holds
only what a trial changes: a pose per actor and the two arms, each
recording the actor it holds, which is the one place the hold relation
lives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import NoneType

import numpy as np

from .errors import (
    TaskParseError,
    TaskSchemaError,
    UnknownActorError,
    UnknownPointError,
)
from .geometry import Pose, Vec3, angle_between, norm, sub, unit_norm_ok

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
    "grasp_axis": (0.0, 0.0, -1.0),
    "place_axis": (0.0, 0.0, 1.0),
    "util_axis": (0.0, 0.0, 1.0),
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
    extent: Vec3
    static: bool
    contact_points: tuple[LocalPoint, ...]
    functional_points: tuple[LocalPoint, ...]
    utility_points: tuple[LocalPoint, ...]
    grasp_axis: Vec3
    place_axis: Vec3
    util_axis: Vec3

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

    def axis(self, category: str) -> Vec3:
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

    def actor(self, name: str) -> Actor:
        try:
            return self.actors[name]
        except KeyError:
            raise UnknownActorError(name) from None

    @cached_property
    def _workspace_corners(self) -> dict[str, np.ndarray]:
        return {tag: np.array([box[axis_name] for axis_name in "xyz"]).T
                for tag, box in self.workspaces.items()}

    def in_workspace(self, tag: str, p) -> np.ndarray:
        """Which rows of the array of points p lie in the arm's workspace;
        a nan coordinate lies outside."""
        lo, hi = self._workspace_corners[tag]
        return ((lo <= p) & (p <= hi)).all(axis=-1)


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
        return self.spec.actor(name)

    def held_by(self, name: str) -> str | None:
        for tag, arm in self.arms.items():
            if arm.holding == name:
                return tag
        return None

    def world_axis(self, name: str, category: str) -> Vec3:
        axis = self.actor(name).axis(category)
        return self.poses[name].rotate(axis)


# --- core operations ------------------------------------------------------


def resolve_point(scene: Scene, ref: PointRef) -> Pose:
    """World pose of an object-local point (actor pose o local pose)."""
    local = scene.actor(ref.actor).point(ref.category, ref.id).pose
    return scene.poses[ref.actor].compose(local)


def _position(scene: Scene, ref: PointRef) -> Vec3:
    """resolve_point(scene, ref).p, without making the pose."""
    local = scene.actor(ref.actor).point(ref.category, ref.id).pose
    return scene.poses[ref.actor].apply(local.p)


def eval_predicate(pred: Predicate, scene: Scene) -> bool:
    if isinstance(pred, All):
        return all(eval_predicate(c, scene) for c in pred.children)
    if isinstance(pred, Any_):
        return any(eval_predicate(c, scene) for c in pred.children)
    if isinstance(pred, Near):
        return norm(sub(_position(scene, pred.a), _position(scene, pred.b))) <= pred.tol
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
        return za - zb >= pred.min_dz
    raise TypeError(f"not a predicate: {pred!r}")


# --- task file loading ----------------------------------------------------


_get, _check = TaskSchemaError.get, TaskSchemaError.check


def _vector(obj, key: str, n: int, where: str, minimum=None) -> list[float]:
    """obj[key] as a list of n finite numbers."""
    values = _get(obj, key, list, where)
    where = f"{where}.{key}"
    if len(values) != n:
        raise TaskSchemaError(where, f"expected {n} numbers, got {len(values)}")
    return [_check(v, float, where, minimum) for v in values]


def _load_pose(obj, key: str, where: str) -> Pose:
    values = _vector(obj, key, 7, where)
    try:
        return Pose.from_list(values)
    except ValueError as exc:  # a quaternion far from unit norm
        raise TaskSchemaError(f"{where}.{key}", str(exc)) from None


def _load_axis(obj, key: str, where: str) -> Vec3:
    v = tuple(_vector(obj, key, 3, where))
    if not unit_norm_ok(v):
        raise TaskSchemaError(f"{where}.{key}", f"axis must be unit-norm, |v|={norm(v)}")
    return v


def _load_points(obj, key: str, where: str) -> tuple[LocalPoint, ...]:
    pts = []
    seen = set()
    for i, entry in enumerate(_get(obj, key, list, where, default=[])):
        at = f"{where}.{key}[{i}]"
        pid = _get(entry, "id", int, at)
        if pid in seen:
            raise TaskSchemaError(f"{at}.id", f"duplicate point id {pid}")
        seen.add(pid)
        pts.append(LocalPoint(pid, _load_pose(entry, "pose", at)))
    return tuple(pts)


def _load_actor(raw: dict, idx: int) -> Actor:
    where = f"actors[{idx}]"
    name = _get(raw, "name", str, where)
    pose = _load_pose(raw, "pose", where)
    extent = tuple(_vector(raw, "extent", 3, where, minimum=0))
    points = {
        key: _load_points(raw, key, where)
        for key in ("contact_points", "functional_points", "utility_points")
    }
    axes = {
        key: _load_axis(raw, key, where) if key in raw else default
        for key, default in DEFAULT_AXES.items()
    }
    actor = Actor(name, pose, extent, _get(raw, "static", bool, where, default=False),
                  **points, **axes)
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
        return PointRef(parts[0], parts[1], _check(TaskSchemaError.literal(parts[2]), int, where))
    cat = _get(raw, "category", str, where)
    if cat not in POINT_CATEGORIES:
        raise TaskSchemaError(f"{where}.category", f"bad category {cat!r}")
    return PointRef(_get(raw, "actor", str, where), cat, _get(raw, "id", int, where))


def _parse_axis_ref(raw, where: str) -> AxisRef:
    if isinstance(raw, str):
        parts = raw.split(".")
        if len(parts) != 2 or parts[1] not in AXIS_CATEGORIES:
            raise TaskSchemaError(where, f"bad axis ref {raw!r}")
        return AxisRef(parts[0], parts[1])
    cat = _get(raw, "category", str, where)
    if cat not in AXIS_CATEGORIES:
        raise TaskSchemaError(f"{where}.category", f"bad category {cat!r}")
    return AxisRef(_get(raw, "actor", str, where), cat)


def parse_predicate(raw: dict, where: str = "goal") -> Predicate:
    op = _get(raw, "op", str, where).lower()
    if op in ("all", "any"):
        children = tuple(
            parse_predicate(c, f"{where}.children[{i}]")
            for i, c in enumerate(_get(raw, "children", list, where))
        )
        return All(children) if op == "all" else Any_(children)
    if op == "near":
        tol = _get(raw, "tol", float, where, above=0)
        return Near(_parse_point_ref(_get(raw, "a", (str, dict), where), f"{where}.a"),
                    _parse_point_ref(_get(raw, "b", (str, dict), where), f"{where}.b"), tol)
    if op == "aligned":
        tol = _get(raw, "tol", float, where, above=0)
        return Aligned(_parse_axis_ref(_get(raw, "a", (str, dict), where), f"{where}.a"),
                       _parse_axis_ref(_get(raw, "b", (str, dict), where), f"{where}.b"), tol)
    if op == "held":
        arm = _get(raw, "arm", str, where)
        if arm not in ARM_TAGS:
            raise TaskSchemaError(f"{where}.arm", f"bad arm {arm!r}")
        return Held(_get(raw, "actor", str, where), arm)
    if op == "free":
        return Free(_get(raw, "actor", str, where))
    if op == "above":
        dz = _get(raw, "min_dz", float, where, above=0)
        return Above(_get(raw, "a", str, where), _get(raw, "b", str, where), dz)
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
                    _check(TaskSchemaError.literal(args[2]), float, where, above=0))
    if kind == "ABOVE":
        if len(args) != 3:
            raise TaskSchemaError(where, f"bad ABOVE annotation args {args_text!r}")
        return Above(args[0], args[1], _check(TaskSchemaError.literal(args[2]), float, where, above=0))
    raise TaskSchemaError(where, f"unknown annotation {kind!r}")


def _load_subgoal(raw, idx: int) -> SubgoalTemplate:
    where = f"subgoals[{idx}]"
    if isinstance(raw, str):
        m = _ANNOTATION_RE.search(raw)
        if m:
            checkpoint = _parse_annotation(m.group(1), m.group(2), where)
            return SubgoalTemplate(raw[: m.start()].rstrip(), checkpoint)
        return SubgoalTemplate(raw)
    text = _get(raw, "text", str, where)
    checkpoint = _get(raw, "checkpoint", (dict, NoneType), where, default=None)
    if checkpoint is not None:
        checkpoint = parse_predicate(checkpoint, f"{where}.checkpoint")
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
    where = str(path)
    raw = TaskParseError.check(TaskParseError.read_json(path, where), dict, where)

    name = _get(raw, "name", str)
    instruction = _get(raw, "instruction", str)
    loaded = [_load_actor(a, i) for i, a in enumerate(_get(raw, "actors", list))]
    actors = {a.name: a for a in loaded}
    if len(actors) != len(loaded):
        raise TaskSchemaError("actors", "duplicate actor names")

    raw_subgoals = _get(raw, "subgoals", list)
    if not raw_subgoals:
        raise TaskSchemaError("subgoals", "at least one subgoal template required")
    subgoals = [_load_subgoal(s, i) for i, s in enumerate(raw_subgoals)]

    goal = parse_predicate(_get(raw, "goal", dict), "goal")
    _check_predicate_refs(goal, actors, "goal")

    raw_noise = _get(raw, "noise", dict, default={})
    noise = NoiseSpec(**{
        fld: _get(raw_noise, fld, float, "noise", default=0.0, minimum=0)
        for fld in ("pos_sigma", "rot_sigma", "slip_base")
    })

    place_tolerance = _get(raw, "place_tolerance", float, default=DEFAULT_PLACE_TOLERANCE,
                           minimum=0)
    workspaces = {tag: dict(box) for tag, box in DEFAULT_WORKSPACES.items()}
    for tag, box in _get(raw, "workspaces", dict, default={}).items():
        if tag not in ARM_TAGS:
            raise TaskSchemaError(f"workspaces.{tag}", "arm must be left or right")
        for axis_name in "xyz":
            lo, hi = _vector(box, axis_name, 2, f"workspaces.{tag}")
            if lo > hi:
                raise TaskSchemaError(f"workspaces.{tag}.{axis_name}", "expected [lo, hi] with lo <= hi")
            workspaces[tag][axis_name] = (lo, hi)
    homes = {tag: Pose.from_list(vals) for tag, vals in DEFAULT_HOMES.items()}
    raw_homes = _get(raw, "arm_home", dict, default={})
    for tag in raw_homes:
        if tag not in ARM_TAGS:
            raise TaskSchemaError(f"arm_home.{tag}", "arm must be left or right")
        homes[tag] = _load_pose(raw_homes, tag, "arm_home")

    # Checkpoints: explicit entries override; the final subgoal defaults to
    # the task goal.
    for i, sg in enumerate(subgoals):
        if sg.checkpoint is None and i == len(subgoals) - 1:
            sg.checkpoint = goal
        if sg.checkpoint is not None:
            _check_predicate_refs(sg.checkpoint, actors, f"subgoals[{i}].checkpoint")
    return TaskSpec(name, instruction, actors, subgoals, goal, noise, workspaces, homes,
                    place_tolerance)
