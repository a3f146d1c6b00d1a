"""Execution records: symbolic events, scene snapshots, trial logs.

Trial logs serialize to JSON Lines, one event or snapshot record per line
and a final summary record, with field names matching the dataclasses.
Serialization is byte-stable: two runs of the same (program, spec, config)
produce identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter

from ..errors import ArtifactError
from ..scene import ARM_TAGS, Pose, Scene, TaskSpec

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


@dataclass(eq=False)
class SimConfig:
    seed: int = 0
    noise_scale: float = 0.0
    max_steps: int = 200

    def __post_init__(self):
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")


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
    scene: dict  # scene_state payload
    program_context: str


@dataclass
class TrialLog:
    trial_index: int
    seed: int
    events: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    goal_met: bool = False
    final_scene: Scene | None = None

    @property
    def failure_event(self) -> SymbolicEvent | None:
        for ev in self.events:
            if ev.outcome == "failure":
                return ev
        return None


def scene_state(scene: Scene) -> dict:
    """Compact serializable view of the scene (the virtual-camera payload)."""
    return {
        "actors": {
            name: {"pose": pose.as_list(), "held_by": scene.held_by(name)}
            for name, pose in scene.poses.items()
        },
        "arms": {
            tag: {
                "tcp": scene.arms[tag].tcp.as_list(),
                "gripper": float(scene.arms[tag].gripper),
            }
            for tag in ARM_TAGS
        },
    }


def scene_from_state(spec: TaskSpec, state: dict) -> Scene:
    """An evaluable scene over the task's geometry, in the state a snapshot
    payload records. An actor the task lacks raises UnknownActorError, any
    other payload that does not fit scene_state's layout ArtifactError."""
    scene = Scene.from_spec(spec)
    try:
        for name, entry in state["actors"].items():
            scene.actor(name)
            scene.poses[name] = Pose.from_list(entry["pose"])
            if entry["held_by"] is not None:
                scene.arms[entry["held_by"]].holding = name
        for tag, entry in state["arms"].items():
            arm = scene.arms[tag]
            arm.tcp = Pose.from_list(entry["tcp"])
            arm.gripper = float(entry["gripper"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ArtifactError("scene", f"{type(exc).__name__}: {exc}") from None
    return scene


# --- JSONL ------------------------------------------------------------------


@dataclass
class TrialSummary:
    """A trial's last record. Metrics count on its fields, so each must hold
    exactly its declared type (a bool is no int)."""

    goal_met: bool
    seed: int
    n_events: int

    def __post_init__(self):
        ArtifactError.check(self.goal_met, bool, "goal_met")
        ArtifactError.check(self.seed, int, "seed")
        ArtifactError.check(self.n_events, int, "n_events")


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


def dumps_trial(log: TrialLog) -> str:
    return "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in trial_records(log))


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
    try:
        return index, cls(**rec)
    except TypeError:  # a missing or an unexpected field
        raise ArtifactError(kind, f"expected fields {_FIELDS[cls][1]}, got {list(rec)}") from None


def load_trials(path) -> list[TrialLog]:
    """Reconstruct trial logs from a JSONL file. The in-memory final scene is
    not serialized; it is left as None (snapshots carry the state). A
    malformed line, or a trial without its summary, raises ArtifactError
    naming path:line or path."""
    logs: dict[int, TrialLog] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.isspace():
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
