"""Execution records: symbolic events, scene snapshots, trial logs, and the
snapshot payload, which `scene_payloads` makes from a `SceneRows` and
`scene_from_state` reads back.

Trial logs serialize to JSON Lines, one event or snapshot record per line
and a final summary record, with field names matching the dataclasses.
Serialization is byte-stable: two `run_trials` calls with the same arguments
produce identical files.

The writer takes the executor's records, and those `load_trials` reads back
from the writer's own files, and writes them as json.dumps(record,
ensure_ascii=False) would, faster. It relies on what such records hold: a
pose is a tuple (a list, once loaded) of seven finite floats, a payload has
_SCENE_KEYS's layout in its order, and every other field is exactly of its
declared type. Each record is one fill of its type's template, built at
import from its dataclass's fields, with the fields fetched at once. Each
entry of a snapshot scene is one memo lookup, keyed by the identity of the
entry dict, so its text is made once per trial. Over a `trial_texts` call,
an event's text is made once per event object, memoized by its identity
(the executor's rows that emit an event alike share one), and the text of a
snapshot's fields but its scene once per distinct value of them. A trial
whose `events` and `snapshots` are the very lists of the trial written just
before it (the executor's trials with equal perturbations share them)
reuses that trial's record texts, with its own index put in each line and
its own summary, formatted from the log's fields; only the previous trial's
texts are kept.

The reader decodes each distinct event or snapshot line once per file. A
line that starts with the writer's head and a plain trial index, and whose
rest names no second trial index, is memoized by its head and rest: a line
equal to it but for the index is the same record, put in that index's
trial, so trials with equal lines share record objects as the executor's
do. Every record is checked against its class's declared field types and
an event against its closed vocabularies, once per distinct line; a line
that does not decode is never memoized, so a repeat of it is refused at its
own line.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from ..dsl.ast import API_SIGNATURES
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
# Per op, its parameters in signature order: the keys of its events' args.
_PARAMETERS = {name: tuple(p.name for p in params) for name, params in API_SIGNATURES.items()}


@dataclass(frozen=True)
class SymbolicEvent:
    """One statement's outcome in a trial. Frozen: the executor gives the
    rows that emit an equal event one shared object. Its op, outcome and
    error category are closed vocabularies, and the keys of its args are
    its op's parameters in signature order; the reader refuses any other."""

    stmt_id: int
    subgoal_index: int
    op_name: str = field(metadata={"choices": _PARAMETERS})
    args: dict
    outcome: str = field(metadata={"choices": ("success", "failure")})
    error_category: str = field(metadata={"choices": ERROR_CATEGORIES})
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
    scene: dict  # the payload _SCENE_KEYS lays out
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
# keys of an entry. `scene_payloads` makes payloads from a `SceneRows` and
# `scene_from_state` reads one back, so no other module knows this layout. In
# a payload scene_payloads makes, a pose is the tuple of its row, kept while
# the row does not move, and an entry whose pose and other value are the same
# objects as in the previous snapshot is the same dict. The trial writer
# relies on this identity: it makes an entry's text once per trial, memoized
# by the identity of the entry dict.
_SCENE_KEYS = {"actors": ("pose", "held_by"), "arms": ("tcp", "gripper")}


def _entries(memo: dict, section: str, name: str, array: np.ndarray, other) -> list[dict]:
    """The entry of each row of a name's (n, 7) pose array with its holder
    or gripper value, for scene_payloads."""
    hit = memo.get((section, name))
    if hit is not None and hit[0] is array:
        if hit[2] is other:
            return hit[3]
        poses = hit[1]
    else:
        poses = list(zip(*array.T.tolist()))
    key, other_key = _SCENE_KEYS[section]
    entries = [{key: pose, other_key: other} for pose in poses]
    memo[section, name] = (array, poses, other, entries)
    return entries


def scene_payloads(scene: SceneRows, rows, memo: dict) -> list[dict]:
    """The snapshot payload of each row of the scene that `rows` yields, in
    order. `memo` is one dict per batch, keyed by (section, name): a name's
    pose tuples are rebuilt only when its array is a new object, and its
    entries only when the tuples or its holder or gripper value are, so an
    entry that did not change is the same dict from snapshot to snapshot."""
    actors = [(name, _entries(memo, "actors", name, array, scene.held_by(name)))
              for name, array in scene.poses.items()]
    arms = [(tag, _entries(memo, "arms", tag, array, scene.grippers[tag])) for tag, array in scene.tcps.items()]
    payloads = []
    for r in rows:  # loops, not comprehensions: this runs per trial and snapshot
        actor_states, arm_states = {}, {}
        for name, entries in actors:
            actor_states[name] = entries[r]
        for tag, entries in arms:
            arm_states[tag] = entries[r]
        payloads.append({"actors": actor_states, "arms": arm_states})
    return payloads


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
    An actor the task lacks raises UnknownActorError, two actors held by one
    arm or any other payload that does not fit _SCENE_KEYS's layout
    ArtifactError."""
    scene = SceneRows({name: np.array([actor.pose.values]) for name, actor in spec.actors.items()},
                      {tag: np.array([spec.homes[tag].values]) for tag in ARM_TAGS},
                      dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))
    try:
        for name, entry in state["actors"].items():
            spec.actor(name)
            scene.poses[name] = _pose(entry["pose"], f"scene.actors.{name}.pose")
            if entry["held_by"] is not None:
                arm = _arm(entry["held_by"])
                if scene.holding[arm] is not None:
                    raise ArtifactError(f"scene.actors.{name}.held_by",
                                        f"arm {arm!r} already holds {scene.holding[arm]!r}")
                scene.holding[arm] = name
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


def _ordered(log: TrialLog) -> list:
    """The objects behind a trial's records in log order but its summary:
    events and snapshots by step counter (a stable sort, so events first on
    ties)."""
    return sorted(log.events + log.snapshots, key=attrgetter("t"))


# json.dumps(value, ensure_ascii=False), without building an encoder per value.
_encode = json.JSONEncoder(ensure_ascii=False).encode
_str = json.encoder.encode_basestring  # what _encode does with a str, in C

# Per record type: the head of its line (its "type" written out, up to its
# trial index) and the template of the rest of it (a %s for each of the
# class's fields, then the line's end); per event and snapshot, the getter
# of those fields.
(_EVENT, _EVENT_REST), (_SNAPSHOT, _SNAPSHOT_REST), (_SUMMARY, _SUMMARY_REST) = [
    (f'{{"type": {_str(kind)}, "trial_index": ', "".join(f", {_str(name)}: %s" for name in names) + "}\n")
    for kind, names in _FIELDS.values()]
_event_fields, _snapshot_fields = (attrgetter(*_FIELDS[cls][1]) for cls in (SymbolicEvent, Snapshot))
# A payload's text, a %s per section; per section, the template of an
# entry's text (name, pose, other value).
_SCENE = "{" + ", ".join(f"{_str(section)}: {{%s}}" for section in _SCENE_KEYS) + "}"
_ENTRIES = tuple(f"%s: {{{_str(keys[0])}: %s, {_str(keys[1])}: %s}}" for keys in _SCENE_KEYS.values())
# A snapshot's rest cut at its scene's text: the template before it (the
# fields before the scene, up to the scene's key) and after it (its
# program_context and the line's end).
_SCENE_KEY = f"{_str('scene')}: "
_BEFORE_SCENE, _AFTER_SCENE = _SNAPSHOT_REST.split(_SCENE_KEY + "%s")
_BEFORE_SCENE += _SCENE_KEY
_POSE = "[" + ", ".join(["%r"] * 7) + "]"


def _atom(value) -> str:
    """_encode(value). An exact str, int or float, or None, goes straight to
    what _encode would reach it by (repr, for the finite floats that
    records hold); anything else, such as an event's args, to _encode."""
    if type(value) is str:
        return _str(value)
    if value is None:
        return "null"
    if type(value) in (int, float):
        return repr(value)
    return _encode(value)


def _scene_text(scene: dict, memo: dict) -> str:
    """_encode(scene), with one memo lookup per entry: `memo` maps
    id(entry) to (entry, name, text) for one trial. It holds the entry, so
    that its id names no other dict while the memo lives, and a hit needs
    the very same name; nothing that runs while a trial is written changes
    an entry. An entry's text is _encode's in either section, so one memo
    serves both. A pose is a tuple (or, loaded, a list) of seven finite
    floats."""
    texts = []
    for entries, template in zip(scene.values(), _ENTRIES):
        section = []
        for name, entry in entries.items():
            hit = memo.get(id(entry))
            if hit is None or hit[1] is not name:
                pose, other = entry.values()
                hit = memo[id(entry)] = (entry, name, template % (_str(name), _POSE % tuple(pose), _atom(other)))
            section.append(hit[2])
        texts.append(", ".join(section))
    return _SCENE % tuple(texts)


def _closing(log: TrialLog) -> str:
    """The fill of a summary's rest: goal_met, seed and n_events, from the log."""
    return _SUMMARY_REST % ("true" if log.goal_met else "false", log.seed, len(log.events))


def _parts(log: TrialLog, events: dict, heads: dict) -> list:
    """The trial's text as three parts per record in log order, its summary
    last: its type's head, the trial index's text and the fill of the rest
    of its type's template. `events` maps id(event) to (event, the fill of
    its rest); it holds the event, so that its id names no other object
    while it lives. `heads` maps a snapshot's head, its fields but its
    scene, to the texts before and after its scene."""
    memo = {}
    index = str(log.trial_index)
    parts = []
    for rec in _ordered(log):
        if type(rec) is Snapshot:
            step_name, stmt_id, subgoal_index, t, scene, context = _snapshot_fields(rec)
            around = heads.get(key := (step_name, stmt_id, subgoal_index, t, context))
            if around is None:
                around = heads[key] = (_BEFORE_SCENE % (_str(step_name), stmt_id, subgoal_index, t),
                                       _AFTER_SCENE % _str(context))
            parts += (_SNAPSHOT, index, around[0] + _scene_text(scene, memo) + around[1])
        else:
            hit = events.get(id(rec))
            if hit is None:
                hit = events[id(rec)] = (rec, _EVENT_REST % tuple(map(_atom, _event_fields(rec))))
            parts += (_EVENT, index, hit[1])
    parts += (_SUMMARY, index, _closing(log))
    return parts


def trial_texts(logs):
    """Each trial's JSONL text, as `logs` yields them. The event and
    snapshot head memos live for the iteration. The event memo holds one
    text per distinct event object written: the executor's rows that emit
    an event alike share one, so that is one per statement outcome of each
    batch plus one per failure whose message is the row's own, events that
    `run` keeps in its trials anyway. The head memo holds one pair of texts
    per distinct snapshot head. A trial whose `events` and `snapshots` are
    the very lists of the trial before it (trials with equal perturbations
    share them) reuses that trial's parts with its own index and summary;
    only the latest trial's parts are kept."""
    events, heads = {}, {}
    last = None  # (events, snapshots, parts) of the trial before
    for log in logs:
        if last is not None and last[0] is log.events and last[1] is log.snapshots:
            parts = last[2]
            parts[1::3] = [str(log.trial_index)] * (len(parts) // 3)
            parts[-1] = _closing(log)
        else:
            last = (log.events, log.snapshots, _parts(log, events, heads))
        yield "".join(last[2])


def dump_trials(logs, path) -> None:
    """Write the trials' JSONL text one trial at a time, as `logs` yields
    them; a file that cannot be written is a ConfigError naming --out."""
    ConfigError.write_text(path, trial_texts(logs), "--out")


def _record(line: str):
    """(trial index, record) of one JSONL line, each field of the record of
    its declared type; ArtifactError names the fault within the line."""
    rec = ArtifactError.check(ArtifactError.loads(line, ""), dict, "")
    kind = ArtifactError.check(rec.pop("type", None), str, "type")
    cls = RECORD_TYPES.get(kind)
    if cls is None:
        raise ArtifactError("type", f"unknown record type {kind!r}")
    index = ArtifactError.check(rec.pop("trial_index", None), int, "trial_index")
    record = ArtifactError.build(cls, rec, kind)
    if cls is not TrialSummary:  # a summary checks its own fields as it is made
        try:
            ArtifactError.check_fields(record)
        except ArtifactError as exc:
            raise ArtifactError(f"{kind}.{exc.field}", exc.reason) from None
    if cls is SymbolicEvent and tuple(record.args) != _PARAMETERS[record.op_name]:
        raise ArtifactError("event.args", f"expected the keys {list(_PARAMETERS[record.op_name])} of "
                                          f"{record.op_name}, got {list(record.args)}")
    return index, record


# The start of an event or snapshot line as the writer makes it: its type's
# head, the trial index as JSON writes an int, and the comma after it, so
# that the index is every digit there is. An index of more than 18 digits is
# left to the decoder.
_KEYED = re.compile(f"({re.escape(_EVENT)}|{re.escape(_SNAPSHOT)})(0|[1-9][0-9]{{0,17}}), ")


def load_trials(path) -> list[TrialLog]:
    """Reconstruct trial logs from a JSONL file. The file stores every field
    of a trial log, so a loaded log writes back byte for byte (its snapshot
    poses are lists where the executor's are tuples). A malformed line, a
    record with a field not of its declared type, a record of a trial whose
    summary was already read, a file that cannot be read as text, or a
    trial without its summary raises ArtifactError naming path:line or path.

    An event or snapshot line that _KEYED matches, and whose rest holds
    neither "trial_index" nor a \\u escape (either could spell a second
    trial index key, which the decoder would take over the first), is
    decoded once per call: a later line of the same head and rest is the
    record decoded first, in the trial its own index names. Loaded trials
    whose lines are equal thus share record objects."""
    logs: dict[int, TrialLog] = {}
    memo = {}  # (head, rest) of a decoded line -> its record
    for lineno, line in enumerate(ArtifactError.read_text(path, str(path)).split("\n"), 1):
        if not line or line.isspace():
            continue
        try:
            keyed = _KEYED.match(line)
            rest = line[keyed.end():] if keyed else ""
            if not keyed or '"trial_index"' in rest or "\\u" in rest:
                index, rec = _record(line)
            elif (rec := memo.get(key := (keyed[1], rest))) is not None:
                index = int(keyed[2])
            else:
                index, rec = _record(line)
                memo[key] = rec
            log = logs.get(index)
            if log is None:
                log = logs[index] = TrialLog(trial_index=index, seed=None)  # None: no summary yet
            elif log.seed is not None:
                raise ArtifactError("trial_index", f"a record of trial {index} after its summary")
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
