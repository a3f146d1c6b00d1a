"""Execution records: symbolic events, scene snapshots, trial logs.

Trial logs serialize to JSON Lines, one event or snapshot record per line
and a final summary record, with field names matching the dataclasses.
Serialization is byte-stable: two `run_trials` calls with the same arguments
produce identical files.

The writer produces exactly what json.dumps(record, ensure_ascii=False)
would, faster. Each record is one fill of its type's template, built at
import from its dataclass's fields, with the fields fetched at once. An
exact str, int or finite float goes straight to the C function the encoder
would call, and an exact bool or None is written out. Each entry of a
snapshot scene is one memo lookup, keyed by the identity of the entry dict,
so its text is made once per trial; the text of each event's `args` is made
once per `dump_trials` call, memoized by the identity of the dict its
statement's events share. A value of any other kind (a subclass, a numpy
scalar, nan or inf, a list) falls back to the JSON encoder.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from ..errors import ArtifactError, ConfigError
from ..scene import ARM_TAGS, Pose, SceneRows, TaskSpec

ERROR_CATEGORIES = (
    "none",
    "unreachable",
    "invalid_call",
    "collision",
    "grasp_slip",
    "placement_miss",
    "not_held",
    "runtime_limit",
)


@dataclass
class SymbolicEvent:
    stmt_id: int
    subgoal_index: int
    op_name: str
    args: dict
    outcome: str  # success | failure
    error_category: str
    message: str
    t: int

    def signature(self) -> str:
        return f"{self.op_name}:{self.outcome}:{self.error_category}"


@dataclass
class Snapshot:
    step_name: str
    stmt_id: int  # id of the operation the snapshot documents (0 = none yet)
    subgoal_index: int
    t: int
    scene: dict  # the payload SCENE_KEYS lays out
    program_context: str


@dataclass
class TrialLog:
    """One trial: exactly what its records in trials.jsonl hold."""

    trial_index: int
    seed: int
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    goal_met: bool = False

    @property
    def failure_event(self) -> SymbolicEvent | None:
        for ev in self.events:
            if ev.outcome == "failure":
                return ev
        return None


# A snapshot payload, the virtual-camera view of one trial: {"actors": {name:
# {"pose": 7 numbers, "held_by": arm tag or None}} in task-file order, "arms":
# {tag: {"tcp": 7 numbers, "gripper": number}} in arm order}; per section, the
# keys of an entry. In the executor's payloads a pose is the `Pose.values`
# tuple kept while it does not move, and an entry whose pose and other value
# are the same objects as in the previous snapshot is the same dict. The trial
# writer relies on this identity: it makes an entry's text once per trial,
# memoized by the identity of the entry dict, and encodes a pose of anything
# but seven exact finite floats through the JSON encoder.
SCENE_KEYS = {"actors": ("pose", "held_by"), "arms": ("tcp", "gripper")}


def _pose(values, where: str) -> np.ndarray:
    """One pose row, its quaternion renormalized as a task file's is."""
    return np.array([Pose.from_list([ArtifactError.check(v, float, where) for v in values]).values])


def _arm(tag) -> str:
    if tag not in ARM_TAGS:
        raise KeyError(tag)
    return tag


def scene_from_state(spec: TaskSpec, state: dict) -> SceneRows:
    """The state a snapshot payload records, as the one row of a scene over
    the task's geometry; what the payload leaves out is as the task starts.
    An actor the task lacks raises UnknownActorError, any other payload that
    does not fit SCENE_KEYS's layout ArtifactError."""
    scene = SceneRows({name: np.array([actor.pose.values]) for name, actor in spec.actors.items()},
                      {tag: np.array([spec.homes[tag].values]) for tag in ARM_TAGS},
                      dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))
    try:
        for name, entry in state["actors"].items():
            spec.actor(name)
            scene.poses[name] = _pose(entry["pose"], f"scene.actors.{name}.pose")
            if entry["held_by"] is not None:
                scene.holding[_arm(entry["held_by"])] = name
        for tag, entry in state["arms"].items():
            scene.tcps[_arm(tag)] = _pose(entry["tcp"], f"scene.arms.{tag}.tcp")
            scene.grippers[tag] = ArtifactError.check(entry["gripper"], float, f"scene.arms.{tag}.gripper")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError("scene", f"{type(exc).__name__}: {exc}") from None
    return scene


# --- JSONL ------------------------------------------------------------------


@dataclass
class TrialSummary:
    """A trial's last record. Metrics count on its fields, so each holds
    exactly its declared type (a bool is no int)."""

    goal_met: bool
    seed: int
    n_events: int

    def __post_init__(self):
        ArtifactError.check_fields(self)


# A record is {"type", "trial_index", <the class's fields in declaration order>}.
RECORD_TYPES = {"event": SymbolicEvent, "snapshot": Snapshot, "summary": TrialSummary}
_FIELDS = {cls: (kind, [f.name for f in fields(cls)]) for kind, cls in RECORD_TYPES.items()}


def _ordered(log: TrialLog) -> tuple:
    """The objects behind a trial's records in log order: events and
    snapshots by step counter (a stable sort, so events first on ties), then
    the summary."""
    return (*sorted(log.events + log.snapshots, key=attrgetter("t")),
            TrialSummary(log.goal_met, log.seed, len(log.events)))


def trial_records(log: TrialLog):
    """All records of one trial in log order, as dicts."""
    for rec in _ordered(log):
        kind, names = _FIELDS[type(rec)]
        record = {"type": kind, "trial_index": log.trial_index}
        for name in names:  # not vars(rec): that would attach a dict to every record
            record[name] = getattr(rec, name)
        yield record


# json.dumps(value, ensure_ascii=False), without building an encoder per value.
_encode = json.JSONEncoder(ensure_ascii=False).encode
_str = json.encoder.encode_basestring  # what _encode does with a str, in C

# Per record type: the template of its line (its "type" written out, then a
# %s for the trial index and for each of the class's fields) and the getter
# of those fields.
(_EVENT, _event_fields), (_SNAPSHOT, _snapshot_fields), (_SUMMARY, _summary_fields) = [
    ("{" + ", ".join([f'"type": {_str(kind)}', *(f"{_str(name)}: %s" for name in ("trial_index", *names))]) + "}",
     attrgetter(*names))
    for kind, names in _FIELDS.values()]
# A payload's text, a %s per section; per section, the keys of an entry and
# the template of its text (name, pose, other value).
_SCENE = "{" + ", ".join(f"{_str(section)}: {{%s}}" for section in SCENE_KEYS) + "}"
_ENTRIES = tuple((keys, f"%s: {{{_str(keys[0])}: %s, {_str(keys[1])}: %s}}") for keys in SCENE_KEYS.values())
_SECTION_NAMES = tuple(SCENE_KEYS)
_POSE = "[" + ", ".join(["%r"] * 7) + "]"
_SEVEN_FLOATS = (float,) * 7


def _atom(value) -> str:
    """_encode(value). An exact str, int or finite float, a bool or None,
    goes straight to what _encode would reach it by."""
    if type(value) is str:
        return _str(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return _encode(value)


def _pose_text(pose) -> str:
    """_encode(pose), in one formatting call when it is a tuple of seven
    exact finite floats: repr is then what _encode writes, which it is not
    for nan, inf or a numpy scalar. A sum of floats is finite only if each
    of them is."""
    if type(pose) is tuple and tuple(map(type, pose)) == _SEVEN_FLOATS and math.isfinite(sum(pose)):
        return _POSE % pose
    return _encode(pose)


def _scene_text(scene, memo: dict) -> str:
    """_encode(scene), with one memo lookup per entry: `memo` maps
    id(entry) to (entry, name, text) for one trial. It holds the entry, so
    that its id names no other dict while the memo lives, and a hit needs
    the very same name; nothing that runs while a trial is written changes
    an entry. An entry's text is _encode's in either section, so one memo
    serves both. A payload of another layout is encoded whole."""
    if type(scene) is not dict or tuple(scene) != _SECTION_NAMES:
        return _encode(scene)
    texts = []
    for entries, (keys, template) in zip(scene.values(), _ENTRIES):
        if type(entries) is not dict:
            return _encode(scene)
        section = []
        for name, entry in entries.items():
            hit = memo.get(id(entry))
            if hit is None or hit[1] is not name:
                if type(name) is not str or type(entry) is not dict or tuple(entry) != keys:
                    return _encode(scene)
                pose, other = entry.values()
                hit = memo[id(entry)] = (entry, name, template % (_str(name), _pose_text(pose), _atom(other)))
            section.append(hit[2])
        texts.append(", ".join(section))
    return _SCENE % tuple(texts)


def _trial_text(log: TrialLog, args_memo: dict) -> str:
    """dumps_trial(log): each record one fill of its type's template.
    `args_memo` maps id(args) to (args, text) for the events that share it;
    it holds the args object, so that its id names no other object while
    it lives."""
    memo = {}
    index = _atom(log.trial_index)
    *records, summary = _ordered(log)
    lines = []
    for rec in records:
        if type(rec) is Snapshot:
            step_name, stmt_id, subgoal_index, t, scene, context = _snapshot_fields(rec)
            lines.append(_SNAPSHOT % (index, _atom(step_name), _atom(stmt_id), _atom(subgoal_index), _atom(t),
                                      _scene_text(scene, memo), _atom(context)))
        else:
            stmt_id, subgoal_index, op_name, args, outcome, category, message, t = _event_fields(rec)
            hit = args_memo.get(id(args))
            if hit is None:
                hit = args_memo[id(args)] = (args, _atom(args))
            lines.append(_EVENT % (index, _atom(stmt_id), _atom(subgoal_index), _atom(op_name), hit[1],
                                   _atom(outcome), _atom(category), _atom(message), _atom(t)))
    lines.append(_SUMMARY % (index, *map(_atom, _summary_fields(summary))))
    lines.append("")
    return "\n".join(lines)


def dumps_trial(log: TrialLog) -> str:
    """The trial's JSONL text: each record as json.dumps(record,
    ensure_ascii=False) writes it, its fields' texts filled into its type's
    template. The entry memo lives for this one call, so what it holds is
    bounded by one trial."""
    return _trial_text(log, {})


def trial_texts(logs):
    """Each trial's JSONL text, as `logs` yields them. The args memo lives
    for the iteration: the executor's events share their statement's args
    dict, so it holds one entry per statement of each batch the trials come
    from."""
    args_memo = {}
    for log in logs:
        yield _trial_text(log, args_memo)


def dump_trials(logs, path) -> None:
    """Write the trials' JSONL text one trial at a time, as `logs` yields
    them; a file that cannot be written is a ConfigError naming --out."""
    ConfigError.write_text(path, trial_texts(logs), "--out")


def _record(line: str):
    """(trial index, record) of one JSONL line; ArtifactError names the fault
    within the line."""
    rec = ArtifactError.check(ArtifactError.loads(line, ""), dict, "")
    kind = ArtifactError.check(rec.pop("type", None), str, "type")
    cls = RECORD_TYPES.get(kind)
    if cls is None:
        raise ArtifactError("type", f"unknown record type {kind!r}")
    index = ArtifactError.check(rec.pop("trial_index", None), int, "trial_index")
    return index, ArtifactError.build(cls, rec, kind)


def load_trials(path) -> list[TrialLog]:
    """Reconstruct trial logs from a JSONL file. The file stores every field
    of a trial log, so a loaded log writes back byte for byte (its snapshot
    poses are lists where the executor's are tuples). A malformed line, a
    file that cannot be read as text, or a trial without its summary raises
    ArtifactError naming path:line or path."""
    logs: dict[int, TrialLog] = {}
    for lineno, line in enumerate(ArtifactError.read_text(path, str(path)).split("\n"), 1):
        if not line or line.isspace():
            continue
        try:
            index, rec = _record(line)
            log = logs.get(index)
            if log is None:
                log = logs[index] = TrialLog(trial_index=index, seed=None)  # None: no summary yet
            if type(rec) is SymbolicEvent:
                log.events.append(rec)
            elif type(rec) is Snapshot:
                log.snapshots.append(rec)
            elif rec.n_events != len(log.events):
                raise ArtifactError("n_events", f"{rec.n_events} given, {len(log.events)} events read")
            else:
                log.goal_met = rec.goal_met
                log.seed = rec.seed
        except ArtifactError as exc:
            raise ArtifactError(f"{path}:{lineno}", str(exc)) from None
    for log in logs.values():
        if log.seed is None:
            raise ArtifactError(str(path), f"trial {log.trial_index} has no summary record")
    return [logs[idx] for idx in sorted(logs)]
