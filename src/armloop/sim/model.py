"""Execution records: symbolic events, scene snapshots, trial logs.

Trial logs serialize to JSON Lines, one event or snapshot record per line
and a final summary record, with field names matching the dataclasses.
Serialization is byte-stable: two `run_trials` calls with the same arguments
produce identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter, is_

import numpy as np

from ..errors import ArtifactError
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
    scene: dict  # scene_states payload
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


def scene_states(actors, arms, rows) -> list[dict]:
    """The snapshot payload (the virtual-camera view) of each of the given
    rows of a batch of trials. `actors` holds (name, pose tuple per row,
    holding arm or None) in task-file order, `arms` (tag, TCP tuple per row,
    gripper) in arm order. A pose is the `Pose.values` tuple the
    executor keeps while it does not move, so an entry that did not change
    holds the same objects as in the previous snapshot (the trial writer
    relies on this)."""
    states = []
    for r in rows:  # loops, not comprehensions: this runs per trial and snapshot
        actor_states, arm_states = {}, {}
        for name, poses, held_by in actors:
            actor_states[name] = {"pose": poses[r], "held_by": held_by}
        for tag, tcps, gripper in arms:
            arm_states[tag] = {"tcp": tcps[r], "gripper": gripper}
        states.append({"actors": actor_states, "arms": arm_states})
    return states


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
    does not fit scene_states's layout ArtifactError."""
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


def trial_records(log: TrialLog):
    """All records of one trial in log order: events and snapshots by step
    counter (a stable sort, so events first on ties), then the summary."""
    summary = TrialSummary(log.goal_met, log.seed, len(log.events))
    for rec in (*sorted(log.events + log.snapshots, key=attrgetter("t")), summary):
        kind, names = _FIELDS[type(rec)]
        record = {"type": kind, "trial_index": log.trial_index}
        for name in names:  # not vars(rec): that would attach a dict to every record
            record[name] = getattr(rec, name)
        yield record


# json.dumps(record, ensure_ascii=False), without building an encoder per record.
_encode = json.JSONEncoder(ensure_ascii=False).encode

# The keys of each scene_states entry, per section, in payload order.
_SCENE_LAYOUT = {"actors": ("pose", "held_by"), "arms": ("tcp", "gripper")}
# A snapshot record's fields before and after its scene.
_SNAPSHOT, _names = _FIELDS[Snapshot]
_HEAD = ("type", "trial_index", *_names[:_names.index("scene")])
_TAIL = _names[_names.index("scene") + 1:]


def _scene_text(scene, previous: dict) -> str:
    """_encode(scene), built from one fragment per entry of a scene_states
    payload. An entry whose values are the very objects of the same entry in
    `previous` reuses its fragment: identity, never `==`, since -0.0 == 0.0
    and nan != nan. `previous` maps section to name to (entry, fragment) and
    is updated; a payload of another layout is encoded whole."""
    if type(scene) is not dict or tuple(scene) != tuple(_SCENE_LAYOUT):
        return _encode(scene)
    sections = []
    for section, keys in _SCENE_LAYOUT.items():
        entries = scene[section]
        if type(entries) is not dict:
            return _encode(scene)
        memo = previous.setdefault(section, {})
        fragments = []
        for name, entry in entries.items():
            if type(name) is not str or type(entry) is not dict or tuple(entry) != keys:
                return _encode(scene)
            last = memo.get(name)
            if last is None or not all(map(is_, last[0].values(), entry.values())):
                last = memo[name] = (entry, f"{_encode(name)}: {_encode(entry)}")
            fragments.append(last[1])
        sections.append(f'"{section}": {{{", ".join(fragments)}}}')
    return "{" + ", ".join(sections) + "}"


def dumps_trial(log: TrialLog) -> str:
    """The trial's JSONL text: each record as json.dumps(record,
    ensure_ascii=False) writes it, with a snapshot's scene encoded entry by
    entry so that what did not change since the previous snapshot is not
    encoded again."""
    previous: dict = {}
    lines = []
    for record in trial_records(log):
        if record["type"] != _SNAPSHOT:
            lines.append(_encode(record))
            continue
        head = _encode({key: record[key] for key in _HEAD})[:-1]
        tail = "".join(f", {_encode(key)}: {_encode(record[key])}" for key in _TAIL)
        lines.append(f'{head}, "scene": {_scene_text(record["scene"], previous)}{tail}}}')
    lines.append("")
    return "\n".join(lines)


def dump_trials(logs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for log in logs:
            fh.write(dumps_trial(log))


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
