"""World model: task geometry, per-trial scene state, and goal predicates.

A task file (JSON, schema documented in the README) fully describes the
initial tabletop: actors with box extents, grasp/placement point sets and
approach axes, a noise model, ordered subgoal templates, and a goal
predicate tree. The loaded `TaskSpec` is immutable geometry (frozen actors,
subgoal templates and noise; poses, extents and axes as tuples) shared by
every trial. `SceneRows` holds only what trials change, one row per trial:
a pose per actor and per arm's TCP, and for each arm the actor it holds,
which is the one place the hold relation lives, and its gripper value. It
is the one type of per-trial state: the simulator steps a batch's
`SceneRows`, updating its dicts in place, and a snapshot's scene text reads
back as one of a row. `eval_predicate` evaluates a goal or checkpoint over
those rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import cached_property
from types import NoneType

import numpy as np

from .errors import (
    FieldError,
    TaskParseError,
    TaskSchemaError,
    UnknownActorError,
    UnknownPointError,
)
from .geometry import (Pose, Vec3, angle_between_rows, apply_rows, norm, norms, quat_rotate_rows,
                       unit_norm_ok)

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

# Noise bounds that keep every sigma x noise scale x draw finite: position
# sigma (m) and yaw sigma (rad) from the task file, the scale from the run.
# slip_base is only compared with a uniform draw.
_MAX_SIGMA = {"pos_sigma": 1.0, "rot_sigma": math.pi, "slip_base": None}
MAX_NOISE_SCALE = 100


@dataclass(frozen=True, eq=False)
class LocalPoint:
    id: int
    pose: Pose


@dataclass(frozen=True, eq=False)
class Actor:
    """Task geometry of one actor: an axis-aligned box proxy at its initial
    pose, with object-local interaction primitives. Where a trial has moved
    it is per-trial state, kept in `SceneRows.poses`."""

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
        return getattr(self, f"{category}_points")

    def point(self, category: str, point_id: int, where: str = "") -> LocalPoint:
        for pt in self.points(category):
            if pt.id == point_id:
                return pt
        raise UnknownPointError(where, f"actor {self.name!r} has no {category} point {point_id}")

    def axis(self, category: str) -> Vec3:
        return getattr(self, f"{category}_axis")


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


@dataclass(frozen=True, eq=False)
class NoiseSpec:
    pos_sigma: float = 0.0
    rot_sigma: float = 0.0
    slip_base: float = 0.0

    def draws_unread(self, noise_scale: float) -> bool:
        """True when no draw of a trial can be read at this noise scale:
        every normal is multiplied by a zero sigma, and no uniform, which is
        at least 0, is below a slip probability that is not above 0. Then a
        trial's log is a function of its program."""
        still = self.pos_sigma * noise_scale == self.rot_sigma * noise_scale == 0
        return still and not self.slip_base * noise_scale > 0


@dataclass(frozen=True, eq=False)
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
    subgoals: tuple[SubgoalTemplate, ...]
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


@dataclass(frozen=True, eq=False)
class SceneRows:
    """Per-trial state of n trials over a task's shared geometry, one row per
    trial: the pose of each actor (task-file order) and each arm's TCP as
    (n, 7) arrays; per arm, the actor it holds and its gripper value, which
    do not differ between the rows. The instance is frozen but its dicts are
    not: the simulator updates them in place as its batch runs, assigning a
    new array for a pose that moves and never writing into one."""

    poses: dict[str, np.ndarray]
    tcps: dict[str, np.ndarray]
    holding: dict[str, str | None]
    grippers: dict[str, float]

    @property
    def n(self) -> int:
        return len(self.tcps[ARM_TAGS[0]])

    def held_by(self, name: str) -> str | None:
        return next((tag for tag, held in self.holding.items() if held == name), None)


def eval_predicate(pred: Predicate, spec: TaskSpec, scene: SceneRows) -> np.ndarray:
    """The predicate on each row of the scene, a bool array. Python floats
    overflow to inf and turn an invalid operation into nan without a word,
    and so do the rows here."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _eval(pred, spec, scene)


def _point(spec: TaskSpec, scene: SceneRows, ref: PointRef):
    """World position of an object-local point, per row."""
    local = spec.actor(ref.actor).point(ref.category, ref.id).pose
    return apply_rows(scene.poses[ref.actor], local.p)


def _axis(spec: TaskSpec, scene: SceneRows, ref: AxisRef):
    """World direction of an object-local axis, per row."""
    return quat_rotate_rows(scene.poses[ref.actor][:, 3:], spec.actor(ref.actor).axis(ref.category))


def _eval(pred: Predicate, spec: TaskSpec, scene: SceneRows) -> np.ndarray:
    if isinstance(pred, (All, Any_)):
        combine = np.logical_and if isinstance(pred, All) else np.logical_or
        out = np.full(scene.n, isinstance(pred, All))
        for c in pred.children:
            out = combine(out, _eval(c, spec, scene))
        return out
    if isinstance(pred, Near):
        return norms(_point(spec, scene, pred.a) - _point(spec, scene, pred.b)) <= pred.tol
    if isinstance(pred, Aligned):
        return angle_between_rows(_axis(spec, scene, pred.a), _axis(spec, scene, pred.b)) <= pred.tol
    if isinstance(pred, Held):
        return np.full(scene.n, scene.holding[pred.arm] == pred.actor)
    if isinstance(pred, Free):
        return np.full(scene.n, scene.held_by(pred.actor) is None)
    if isinstance(pred, Above):
        return scene.poses[pred.a][:, 2] - scene.poses[pred.b][:, 2] >= pred.min_dz
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


def _ref(raw, actors: dict[str, Actor], where: str, categories: tuple) -> PointRef | AxisRef:
    """A point ref (categories POINT_CATEGORIES: actor, category and id) or
    an axis ref (AXIS_CATEGORIES: actor and category) to an actor, category
    and point that exist. The compact string "actor.category[.id]" is read
    as the object it stands for; its errors name the string."""
    keys = ("actor", "category", "id")[:3 if categories is POINT_CATEGORIES else 2]
    if type(raw) is str:
        parts = raw.split(".")
        if len(parts) != len(keys):
            raise TaskSchemaError(where, f"expected {'.'.join(keys)}, got {raw!r}")
        try:
            return _ref(dict(zip(keys, [*parts[:2], *map(TaskSchemaError.literal, parts[2:])])),
                        actors, raw, categories)
        except FieldError as exc:
            raise type(exc)(where, str(exc)) from None
    actor = _get(raw, "actor", str, where, choices=actors)
    category = _get(raw, "category", str, where, choices=categories)
    if len(keys) == 2:
        return AxisRef(actor, category)
    point_id = _get(raw, "id", int, where)
    actors[actor].point(category, point_id, f"{where}.id")
    return PointRef(actor, category, point_id)


def parse_predicate(raw: dict, actors: dict[str, Actor], where: str) -> Predicate:
    """The predicate a JSON tree states, each actor, point and axis it names
    checked against the actors as it is read; an error names the field."""
    op = _get(raw, "op", str, where).lower()
    if op in ("all", "any"):
        children = tuple(
            parse_predicate(c, actors, f"{where}.children[{i}]")
            for i, c in enumerate(_get(raw, "children", list, where))
        )
        return All(children) if op == "all" else Any_(children)
    if op in ("near", "aligned"):
        categories = POINT_CATEGORIES if op == "near" else AXIS_CATEGORIES
        a, b = (_ref(_get(raw, key, (str, dict), where), actors, f"{where}.{key}", categories) for key in "ab")
        return (Near if op == "near" else Aligned)(a, b, _get(raw, "tol", float, where, above=0))
    if op == "held":
        return Held(_get(raw, "actor", str, where, choices=actors), _get(raw, "arm", str, where, choices=ARM_TAGS))
    if op == "free":
        return Free(_get(raw, "actor", str, where, choices=actors))
    if op == "above":
        a, b = (_get(raw, key, str, where, choices=actors) for key in "ab")
        return Above(a, b, _get(raw, "min_dz", float, where, above=0))
    raise TaskSchemaError(f"{where}.op", f"unknown predicate op {op!r}")


# Subgoal annotation, e.g. "grasp the shoe [HELD(shoe)]": shorthand for the
# JSON predicate of its kind whose fields are its arguments, in this order.
_ANNOTATION_FIELDS = {"HELD": ("actor", "arm"), "FREE": ("actor",), "NEAR": ("a", "b", "tol"),
                      "ABOVE": ("a", "b", "min_dz")}
_ANNOTATION_RE = re.compile(rf"\s*\[({'|'.join(_ANNOTATION_FIELDS)})\(([^\]]*)\)\]\s*$")


def _annotation(kind: str, args: list[str], where: str) -> dict:
    """The JSON predicate an annotation stands for. An omitted arm (HELD's
    last argument) stands for either arm."""
    fields = _ANNOTATION_FIELDS[kind]
    if fields[-1] == "arm" and len(args) == len(fields) - 1:
        return {"op": "any", "children": [_annotation(kind, [*args, arm], where) for arm in ARM_TAGS]}
    if len(args) != len(fields):
        raise TaskSchemaError(where, f"expected the arguments {', '.join(fields)}")
    return {"op": kind.lower(), **{field: TaskSchemaError.literal(arg) if field in ("tol", "min_dz") else arg
                                   for field, arg in zip(fields, args)}}


def _load_subgoal(raw, idx: int, actors: dict[str, Actor]) -> SubgoalTemplate:
    where = f"subgoals[{idx}]"
    if isinstance(raw, str):
        m = _ANNOTATION_RE.search(raw)
        if not m:
            return SubgoalTemplate(raw)
        kind, args_text = m.groups()
        args = [a.strip() for a in args_text.split(",")] if args_text.strip() else []
        annotation = f"{kind}({args_text})"
        try:
            checkpoint = parse_predicate(_annotation(kind, args, annotation), actors, annotation)
        except FieldError as exc:  # the task file has no field for it to name
            raise type(exc)(where, str(exc)) from None
        return SubgoalTemplate(raw[: m.start()].rstrip(), checkpoint)
    text = _get(raw, "text", str, where)
    checkpoint = _get(raw, "checkpoint", (dict, NoneType), where, default=None)
    if checkpoint is not None:
        checkpoint = parse_predicate(checkpoint, actors, f"{where}.checkpoint")
    return SubgoalTemplate(text, checkpoint)


def load_task_spec(path) -> TaskSpec:
    """Load and fully validate a task file; raises on any schema violation."""
    where = str(path)
    raw = TaskParseError.check(TaskParseError.read_json(path, where), dict, where)

    name = _get(raw, "name", str)
    if not (name.isascii() and name.isidentifier()):  # it names the run directory
        raise TaskSchemaError("name", f"expected an identifier as in `program <name>`, got {name!r}")
    instruction = _get(raw, "instruction", str)
    if not instruction.strip():
        raise TaskSchemaError("instruction", "must not be blank")
    loaded = [_load_actor(a, i) for i, a in enumerate(_get(raw, "actors", list))]
    actors = {a.name: a for a in loaded}
    if len(actors) != len(loaded):
        raise TaskSchemaError("actors", "duplicate actor names")

    raw_subgoals = _get(raw, "subgoals", list)
    if not raw_subgoals:
        raise TaskSchemaError("subgoals", "at least one subgoal template required")
    subgoals = [_load_subgoal(s, i, actors) for i, s in enumerate(raw_subgoals)]
    goal = parse_predicate(_get(raw, "goal", dict), actors, "goal")
    if subgoals[-1].checkpoint is None:  # the final subgoal's defaults to the goal
        subgoals[-1] = replace(subgoals[-1], checkpoint=goal)

    raw_noise = _get(raw, "noise", dict, default={})
    noise = NoiseSpec(**{
        fld: _get(raw_noise, fld, float, "noise", default=0.0, minimum=0, maximum=maximum)
        for fld, maximum in _MAX_SIGMA.items()
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
    return TaskSpec(name, instruction, actors, tuple(subgoals), goal, noise, workspaces, homes,
                    place_tolerance)
