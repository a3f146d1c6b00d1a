"""Execution records: symbolic events, scene snapshots, trial logs.

Trial logs serialize to JSON Lines, one event or snapshot record per line
and a final summary record, with field names matching the dataclasses.
Serialization is byte-stable: two runs of the same (program, spec, config)
produce identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    payload records."""
    scene = Scene.from_spec(spec)
    for name, entry in state["actors"].items():
        scene.actor(name)  # a name the task lacks raises UnknownActorError
        scene.poses[name] = Pose.from_list(entry["pose"])
        if entry["held_by"] is not None:
            scene.arms[entry["held_by"]].holding = name
    for tag, entry in state["arms"].items():
        arm = scene.arms[tag]
        arm.tcp = Pose.from_list(entry["tcp"])
        arm.gripper = float(entry["gripper"])
    return scene


# --- JSONL ------------------------------------------------------------------


def _event_record(log: TrialLog, ev: SymbolicEvent) -> dict:
    return {
        "type": "event",
        "trial_index": log.trial_index,
        "stmt_id": ev.stmt_id,
        "subgoal_index": ev.subgoal_index,
        "op_name": ev.op_name,
        "args": ev.args,
        "outcome": ev.outcome,
        "error_category": ev.error_category,
        "message": ev.message,
        "t": ev.t,
    }


def _snapshot_record(log: TrialLog, snap: Snapshot) -> dict:
    return {
        "type": "snapshot",
        "trial_index": log.trial_index,
        "step_name": snap.step_name,
        "stmt_id": snap.stmt_id,
        "subgoal_index": snap.subgoal_index,
        "t": snap.t,
        "scene": snap.scene,
        "program_context": snap.program_context,
    }


def trial_records(log: TrialLog):
    """All records of one trial in log order (events and snapshots merged by
    step counter, events first on ties), ending with the summary."""
    merged = sorted(
        [("event", ev.t, ev) for ev in log.events]
        + [("snapshot", snap.t, snap) for snap in log.snapshots],
        key=lambda item: (item[1], 0 if item[0] == "event" else 1),
    )
    for kind, _, payload in merged:
        if kind == "event":
            yield _event_record(log, payload)
        else:
            yield _snapshot_record(log, payload)
    yield {
        "type": "summary",
        "trial_index": log.trial_index,
        "goal_met": log.goal_met,
        "seed": log.seed,
        "n_events": len(log.events),
    }


def dumps_trial(log: TrialLog) -> str:
    return "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in trial_records(log))


def dump_trials(logs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for log in logs:
            fh.write(dumps_trial(log))


def load_trials(path) -> list[TrialLog]:
    """Reconstruct trial logs from a JSONL file. The in-memory final scene is
    not serialized; it is left as None (snapshots carry the state)."""
    logs: dict[int, TrialLog] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            idx = rec["trial_index"]
            log = logs.setdefault(idx, TrialLog(trial_index=idx, seed=0))
            if rec["type"] == "event":
                log.events.append(
                    SymbolicEvent(
                        stmt_id=rec["stmt_id"],
                        subgoal_index=rec["subgoal_index"],
                        op_name=rec["op_name"],
                        args=rec["args"],
                        outcome=rec["outcome"],
                        error_category=rec["error_category"],
                        message=rec["message"],
                        t=rec["t"],
                    )
                )
            elif rec["type"] == "snapshot":
                log.snapshots.append(
                    Snapshot(
                        step_name=rec["step_name"],
                        stmt_id=rec["stmt_id"],
                        subgoal_index=rec["subgoal_index"],
                        t=rec["t"],
                        scene=rec["scene"],
                        program_context=rec["program_context"],
                    )
                )
            elif rec["type"] == "summary":
                log.goal_met = bool(rec["goal_met"])
                log.seed = int(rec["seed"])
    return [logs[idx] for idx in sorted(logs)]
