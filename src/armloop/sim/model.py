"""Execution records: symbolic events, scene snapshots, trial logs, their
JSON Lines codec, and the snapshot payload, whose JSON text `scene_texts`
makes from a `SceneRows` and `scene_from_state` reads back.

A trial's log is a line per event or snapshot in step order, then a
summary line: {"type", "trial_index", <its class's fields in declaration
order>} as json.dumps(record, ensure_ascii=False) writes it, a snapshot's
scene as its payload's text. Two `run_trials` calls with the same
arguments write identical files.

The executor's scene texts are made once per batch row and snapshot by
`scene_texts`. The writer formats what the executor makes and what
`load_trials` reads back: every field exactly of its declared type. Each
record is one fill of its type's template, its fields fetched at once, a
snapshot's scene text copied between the texts before and after it;
`trial_texts` says what it memoizes.

The reader accepts a line only where it is the writer's text of the
record it decodes to, so the logs loaded from a file write it back byte for
byte. An event line is decoded whole, checked against its class's field
types and closed vocabularies, and compared with the writer's text of the
event; a snapshot line is read piecewise, its scene's text the span of the
line that holds it, which the scanner decodes once to check that it is an
object (the layout within it is not checked); a summary line is matched by
its template's pattern. Each distinct line is read once per file, memoized
by its head and rest, so trials whose lines are equal but for the index
share record objects as the executor's do. A line that is none of these is
decoded whole only to name its fault.
"""

from __future__ import annotations

import contextlib
import json
import re
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from ..dsl.ast import API_SIGNATURES, ARM, BOOL
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
# Per op, each parameter whose kind is a closed vocabulary (an arm, a bool,
# an enum) with the values the executor renders it as.
_VOCABULARIES = {ARM: ARM_TAGS, BOOL: ("true", "false")}
_CHOICES = {name: [(p.name, p.kind[1] if type(p.kind) is tuple else _VOCABULARIES[p.kind])
                   for p in params if type(p.kind) is tuple or p.kind in _VOCABULARIES]
            for name, params in API_SIGNATURES.items()}


@dataclass(frozen=True)
class SymbolicEvent:
    """One statement's outcome in a trial. Frozen: the executor gives the
    rows that emit an equal event one shared object. Its op, outcome and
    error category are closed vocabularies, the keys of its args are its
    op's parameters in signature order, and an arg of an arm, bool or enum
    parameter is one of its kind's values; the reader refuses any other."""

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
    scene: str  # the JSON text of the payload _SCENE_KEYS lays out
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


# json.dumps(value, ensure_ascii=False), without building an encoder per value.
_encode = json.JSONEncoder(ensure_ascii=False).encode
_str = json.encoder.encode_basestring  # what _encode does with a str, in C


# A snapshot payload, the virtual-camera view of one trial: {"actors": {name:
# {"pose": 7 numbers, "held_by": arm tag or None}} in task-file order, "arms":
# {tag: {"tcp": 7 numbers, "gripper": number}} in arm order}; per section, the
# keys of an entry. A snapshot holds its payload as JSON text, the bytes
# trials.jsonl holds for it: `scene_texts` makes that text from a `SceneRows`
# and `scene_from_state` reads it back, so no other module knows this layout.
_SCENE_KEYS = {"actors": ("pose", "held_by"), "arms": ("tcp", "gripper")}
# A payload's text, a %s per section; a pose's text.
_SCENE = "{" + ", ".join(f"{_str(section)}: {{%s}}" for section in _SCENE_KEYS) + "}"
_POSE = "[" + ", ".join(["%r"] * 7) + "]"


class _Entries(dict):
    """Row -> the text of one name's entry in that row's payload: its head,
    the row's pose and its tail, made the first time a snapshot looks the
    row up."""

    __slots__ = ("array", "head", "tail")

    def __init__(self, array: np.ndarray, head: str, tail: str):
        super().__init__()
        self.array, self.head, self.tail = array, head, tail

    def __missing__(self, r):
        text = self[r] = self.head + _POSE % tuple(self.array[r].tolist()) + self.tail
        return text


def _entries(memo: dict, section: str, name: str, array: np.ndarray, other):
    """The texts of a name's entries, indexed by row, from its (n, 7) pose
    array and its holder or gripper value. They are made anew only when the
    array or the value is a new object, and an array whose rows are equal
    byte for byte (so -0.0 is not 0.0) has one text for every row."""
    hit = memo.get((section, name))
    if hit is not None and hit[0] is array and hit[1] is other:
        return hit[2]
    key, other_key = _SCENE_KEYS[section]
    entries = _Entries(array, f"{_str(name)}: {{{_str(key)}: ", f", {_str(other_key)}: {_encode(other)}}}")
    bits = array.view(np.uint64)
    if (bits == bits[0]).all():
        entries = [entries[0]] * len(array)
    memo[section, name] = (array, other, entries)
    return entries


def scene_texts(scene: SceneRows, rows, memo: dict) -> list[str]:
    """The snapshot payload's text of each row of the scene that `rows`
    yields, in order: what json.dumps(payload, ensure_ascii=False) writes.
    `memo` is one dict per batch, keyed by (section, name), which keeps each
    name's entry texts while its array and its holder or gripper value are
    the same objects, so an entry's text is made once while it is unchanged."""
    columns = [_entries(memo, "actors", name, array, scene.held_by(name)) for name, array in scene.poses.items()]
    columns += [_entries(memo, "arms", tag, array, scene.grippers[tag]) for tag, array in scene.tcps.items()]
    template = _SCENE % (", ".join(["%s"] * len(scene.poses)), ", ".join(["%s"] * len(scene.tcps)))
    rows = list(rows)
    return list(map(template.__mod__, zip(*[list(map(column.__getitem__, rows)) for column in columns])))


def _pose(values, where: str) -> np.ndarray:
    """One pose row, its quaternion renormalized as a task file's is."""
    return np.array([Pose.from_list([ArtifactError.check(v, float, where) for v in values]).values])


def _arm(tag) -> str:
    if tag not in ARM_TAGS:
        raise KeyError(tag)
    return tag


def scene_from_state(spec: TaskSpec, text: str) -> SceneRows:
    """The state a snapshot's scene text records, as the one row of a scene
    over the task's geometry; what the payload leaves out is as the task
    starts. An actor the task lacks raises UnknownActorError, two actors
    held by one arm or any other text that is not a payload of _SCENE_KEYS's
    layout ArtifactError."""
    state = ArtifactError.loads(text, "scene")
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


# Per record type: the head of its line (its "type" written out, up to its
# trial index) and the template of the rest of it (a %s for each of the
# class's fields, then the line's end); per event and snapshot, the getter
# of those fields.
(_EVENT, _EVENT_REST), (_SNAPSHOT, _SNAPSHOT_REST), (_SUMMARY, _SUMMARY_REST) = [
    (f'{{"type": {_str(kind)}, "trial_index": ', "".join(f", {_str(name)}: %s" for name in names) + "}\n")
    for kind, names in _FIELDS.values()]
_event_fields, _snapshot_fields = (attrgetter(*_FIELDS[cls][1]) for cls in (SymbolicEvent, Snapshot))
# A snapshot's rest cut at its scene's text: the template before it (the
# fields before the scene, up to the scene's key) and after it (its
# program_context and the line's end).
_SCENE_KEY = f"{_str('scene')}: "
_BEFORE_SCENE, _AFTER_SCENE = _SNAPSHOT_REST.split(_SCENE_KEY + "%s")
_BEFORE_SCENE += _SCENE_KEY


def _event_text(event: SymbolicEvent) -> str:
    """The fill of an event's rest, as _encode writes its fields: the ints as
    they are, the strings and a str -> str args dict through _str."""
    stmt_id, subgoal_index, op_name, args, outcome, category, message, t = _event_fields(event)
    try:
        args = "{" + ", ".join([f"{_str(key)}: {_str(value)}" for key, value in args.items()]) + "}"
    except TypeError:  # an args value that is not a string, which only a file can hold
        args = _encode(args)
    return _EVENT_REST % (stmt_id, subgoal_index, _str(op_name), args, _str(outcome), _str(category), _str(message), t)


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
    index = str(log.trial_index)
    parts = []
    for rec in _ordered(log):
        if type(rec) is Snapshot:
            step_name, stmt_id, subgoal_index, t, scene, context = _snapshot_fields(rec)
            around = heads.get(key := (step_name, stmt_id, subgoal_index, t, context))
            if around is None:
                around = heads[key] = (_BEFORE_SCENE % (_str(step_name), stmt_id, subgoal_index, t),
                                       _AFTER_SCENE % _str(context))
            parts += (_SNAPSHOT, index, around[0] + scene + around[1])
        else:
            hit = events.get(id(rec))
            if hit is None:
                hit = events[id(rec)] = (rec, _event_text(rec))
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


def _decoded(line: str):
    """(trial index, record) of a line decoded whole, each field checked as
    declared; ArtifactError names the fault within the line."""
    rec = ArtifactError.check(ArtifactError.loads(line, ""), dict, "")
    kind = ArtifactError.check(rec.pop("type", None), str, "type")
    cls = RECORD_TYPES.get(kind)
    if cls is None:
        raise ArtifactError("type", f"unknown record type {kind!r}")
    index = ArtifactError.check(rec.pop("trial_index", None), int, "trial_index")
    record = ArtifactError.build(cls, rec, kind)
    if cls is not TrialSummary:  # a summary checks its own fields as it is made
        try:
            if cls is Snapshot:  # its scene, an object, as its text
                record.scene = _encode(ArtifactError.check(record.scene, dict, "scene"))
            ArtifactError.check_fields(record)
        except ArtifactError as exc:
            raise ArtifactError(f"{kind}.{exc.field}", exc.reason) from None
    if cls is SymbolicEvent:
        if tuple(record.args) != _PARAMETERS[record.op_name]:
            raise ArtifactError("event.args", f"expected the keys {list(_PARAMETERS[record.op_name])} of "
                                              f"{record.op_name}, got {list(record.args)}")
        for name, choices in _CHOICES[record.op_name]:
            ArtifactError.check(record.args[name], str, f"event.args.{name}", choices=choices)
    return index, record


def _refusal(line: str) -> ArtifactError:
    """Why a line is not the writer's text of its record: its fault decoded whole, else that."""
    try:
        _decoded(line)
    except ArtifactError as exc:
        return exc
    return ArtifactError("", "not the trial writer's text of its record")


# A line as the writer makes it: its type's head, its trial index as JSON
# writes an int, and its rest. A snapshot's rest cut at its scene: its
# fields before the scene, each string a token and each int as JSON writes
# one, and its program_context up to the line's end. A summary's rest whole.
_TOKEN, _INT = r'("(?:[^"\\]|\\.)*")', "(0|-?[1-9][0-9]*)"
_LINE = re.compile(f"({re.escape(_EVENT)}|{re.escape(_SNAPSHOT)}|{re.escape(_SUMMARY)}){_INT}")
_HEAD = re.compile(re.escape(_BEFORE_SCENE) % (_TOKEN, _INT, _INT, _INT))
_TAIL = re.compile(re.escape(_AFTER_SCENE[:-1]) % _TOKEN)
_CLOSING = re.compile(re.escape(_SUMMARY_REST[:-1]) % ("(true|false)", _INT, _INT))
_scan = json.JSONDecoder().scan_once  # the value at an index of a text, and where it ends


def _snapshot(rest: str) -> Snapshot | None:
    """The snapshot of a line whose rest is rest, read piecewise: each string
    token as _str writes its value, its scene the span of the rest that holds
    it, decoded once to check that it is an object. None for any other rest."""
    head = _HEAD.match(rest)
    if head is None:
        return None
    try:
        scene, end = _scan(rest, head.end())
        tail = _TAIL.fullmatch(rest, end)
        if tail is None:
            return None
        step_name, context = json.decoder.scanstring(head[1], 1)[0], json.decoder.scanstring(tail[1], 1)[0]
        numbers = int(head[2]), int(head[3]), int(head[4])
    except (StopIteration, ValueError, RecursionError):
        return None
    if type(scene) is not dict or _str(step_name) != head[1] or _str(context) != tail[1]:
        return None
    return Snapshot(step_name, *numbers, rest[head.end():end], context)


def _record(line: str, head: str, rest: str):
    """The record a line of this head and rest is the writer's text of, else
    None; a summary's is (goal_met, seed, n_events)."""
    if head == _SNAPSHOT:
        return _snapshot(rest)
    if head == _SUMMARY:
        closing = _CLOSING.fullmatch(rest)
        return closing and (closing[1] == "true", int(closing[2]), int(closing[3]))
    with contextlib.suppress(ArtifactError):  # an event, decoded whole and held to the writer's text of it
        event = _decoded(line)[1]
        if type(event) is SymbolicEvent and _event_text(event) == rest + "\n":
            return event
    return None


def load_trials(path) -> list[TrialLog]:
    """Reconstruct trial logs from a JSONL file the trial writer wrote. A
    line that is not the writer's text of the record it decodes to (a
    field not of its declared type names that field), a record of a trial
    whose summary was already read, a last line without its newline, a
    file that cannot be read as text, or a trial without its summary raises
    ArtifactError naming path:line or path."""
    logs: dict[int, TrialLog] = {}
    memo = {}  # (head, rest) of a line read -> its record
    *lines, last = ArtifactError.read_text(path, str(path), newline="").split("\n")
    for lineno, line in enumerate(lines, 1):
        try:
            match = _LINE.match(line)
            if match is None:
                raise _refusal(line)
            key = match[1], line[match.end():]
            rec = memo.get(key)
            if rec is None:
                rec = _record(line, *key)
                if rec is None:
                    raise _refusal(line)
                memo[key] = rec
            index = int(match[2])
            log = logs.get(index)
            if log is None:
                log = logs[index] = TrialLog(trial_index=index, seed=None)  # None: no summary yet
            elif log.seed is not None:
                raise ArtifactError("trial_index", f"a record of trial {index} after its summary")
            if type(rec) is SymbolicEvent:
                log.events.append(rec)
            elif type(rec) is Snapshot:
                log.snapshots.append(rec)
            elif rec[2] != len(log.events):
                raise ArtifactError("n_events", f"{rec[2]} given, {len(log.events)} events read")
            else:
                log.goal_met, log.seed = rec[:2]
        except ArtifactError as exc:
            raise ArtifactError(f"{path}:{lineno}", str(exc)) from None
        except ValueError:  # an int of more digits than int() reads
            raise ArtifactError(f"{path}:{lineno}", str(_refusal(line))) from None
    if last:  # a last line without the newline the writer ends each line with
        raise ArtifactError(f"{path}:{len(lines) + 1}", str(_refusal(last)))
    for log in logs.values():
        if log.seed is None:
            raise ArtifactError(str(path), f"trial {log.trial_index} has no summary record")
    return [logs[idx] for idx in sorted(logs)]
