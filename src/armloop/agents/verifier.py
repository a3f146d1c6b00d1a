"""Perceptual verification: per-subgoal verdicts from observation sets.

The mock backend is a deterministic oracle: it replays each subgoal's
snapshots against the task's checkpoint predicates (the final subgoal
defaults to the task goal) and maps symbolic error categories onto causal
hypotheses. The remote backend ships the serialized snapshots plus their
SVG renders to a vision-capable chat endpoint and parses a JSON verdict
block out of the reply.
"""

from __future__ import annotations

import json
import re

from ..errors import MalformedReplyError
from ..harness import ObservationSet
from ..scene import TaskSpec, eval_predicate
from ..sim.model import TrialLog, scene_from_state
from .config import AgentConfig
from .diagnosis import CAUSE_FROM_ERROR, Diagnosis, SubgoalVerdict
from .remote import ChatBackend


class Verifier:
    def __init__(self, config: AgentConfig, spec: TaskSpec, transport=None):
        self.config = config
        self.spec = spec
        self.backend = (
            ChatBackend(config, transport=transport)
            if config.backend == "remote"
            else None
        )

    def verify(
        self,
        subgoals: list[str],
        observations: ObservationSet,
        log: TrialLog,
    ) -> Diagnosis:
        if self.config.backend == "mock":
            return self._oracle(subgoals, observations, log)
        return self._remote(subgoals, observations, log)

    # -- oracle ---------------------------------------------------------------

    def _checkpoint(self, index: int):
        if index <= len(self.spec.subgoals):
            return self.spec.subgoals[index - 1].checkpoint
        return None

    def _scene_ok(self, snapshot, checkpoint) -> bool:
        scene = scene_from_state(self.spec, snapshot.scene)
        return eval_predicate(checkpoint, scene)

    def _oracle(self, subgoals, observations: ObservationSet, log: TrialLog) -> Diagnosis:
        failure = log.failure_event
        last_snapshot = None
        for snap in observations.all_snapshots():
            last_snapshot = snap

        verdicts = []
        for index in range(1, observations.n_subgoals + 1):
            group = observations.groups.get(index, [])
            checkpoint = self._checkpoint(index)

            if failure is not None and failure.subgoal_index == index:
                verdicts.append(
                    SubgoalVerdict(
                        subgoal_index=index,
                        passed=False,
                        deviation_stmt=failure.stmt_id,
                        cause=CAUSE_FROM_ERROR[failure.error_category],
                        rationale=failure.message,
                    )
                )
                continue

            reached = any(ev.subgoal_index == index for ev in log.events)
            if not reached:
                verdicts.append(
                    SubgoalVerdict(
                        subgoal_index=index,
                        passed=False,
                        deviation_stmt=None,
                        cause="execution_failure",
                        rationale="subgoal never reached",
                    )
                )
                continue

            if checkpoint is None:
                verdicts.append(SubgoalVerdict(subgoal_index=index, passed=True))
                continue

            final_snap = group[-1] if group else last_snapshot
            if final_snap is not None and self._scene_ok(final_snap, checkpoint):
                verdicts.append(SubgoalVerdict(subgoal_index=index, passed=True))
                continue

            # Deviation: the first snapshot of the subgoal whose scene
            # violates the checkpoint.
            deviation = None
            for snap in group:
                if not self._scene_ok(snap, checkpoint):
                    deviation = snap.stmt_id
                    break
            if deviation is None and final_snap is not None:
                deviation = final_snap.stmt_id
            placed = any(
                ev.subgoal_index == index
                and ev.op_name == "place_actor"
                and ev.outcome == "success"
                for ev in log.events
            )
            cause = "perception_mismatch" if placed else "logic_error"
            rationale = (
                "checkpoint condition not met after the subgoal's last observation"
            )
            verdicts.append(
                SubgoalVerdict(
                    subgoal_index=index,
                    passed=False,
                    deviation_stmt=deviation,
                    cause=cause,
                    rationale=rationale,
                )
            )

        return Diagnosis(
            verdicts=verdicts,
            overall_success=all(v.passed for v in verdicts),
        )

    # -- remote ---------------------------------------------------------------

    def _remote(self, subgoals, observations: ObservationSet, log: TrialLog) -> Diagnosis:
        from ..render import snapshot_svg  # deferred: render depends on sim only

        step_names = [snap.step_name for snap in observations.all_snapshots()]
        header = (
            "Analyze the execution of the following robot task: \n"
            f"Task name: {self.spec.name} \n"
            f"Task description: {self.spec.instruction} \n"
            "You will be shown snapshots from each step of the task execution. "
            "Please analyze:\n"
            "1. Whether each step was executed successfully.\n"
            "2. If any step failed, identify which one and explain why.\n"
            "3. Whether the overall task was successfully completed.\n"
            "4. If the task failed, provide detailed reasoning.\n"
            f"You will see execution snapshots for the following steps: {', '.join(step_names)}\n"
            "Subgoals under verification:\n"
            + "\n".join(f"{i}. {text}" for i, text in enumerate(subgoals, start=1))
            + "\nReply with a JSON object: {\"overall_success\": bool, \"subgoals\": "
            "[{\"index\": int, \"passed\": bool, \"deviation_stmt\": int|null, "
            "\"cause\": str|null, \"rationale\": str}]}"
        )
        messages = [{"role": "system", "content": header}]
        # The symbolic event log rides along with the visual evidence; the
        # verifier sees both channels.
        event_lines = [
            {
                "stmt_id": ev.stmt_id,
                "subgoal_index": ev.subgoal_index,
                "op_name": ev.op_name,
                "outcome": ev.outcome,
                "error_category": ev.error_category,
                "message": ev.message,
            }
            for ev in log.events
        ]
        messages.append(
            {
                "role": "user",
                "content": "Symbolic execution log:\n" + json.dumps(event_lines, ensure_ascii=False),
            }
        )
        for snap in observations.all_snapshots():
            messages.append(
                {
                    "role": "user",
                    "content": (
                        f"Step {snap.step_name} (after stmt {snap.stmt_id}, "
                        f"op: {snap.program_context or 'start'}):\n"
                        f"{json.dumps(snap.scene, ensure_ascii=False)}\n"
                        f"{snapshot_svg(snap, self.spec)}"
                    ),
                }
            )
        reply = self.backend.complete(messages)
        return parse_remote_diagnosis(reply, len(subgoals))


def parse_remote_diagnosis(reply: str, n_subgoals: int) -> Diagnosis:
    m = re.search(r"\{.*\}", reply, re.DOTALL)
    if not m:
        raise MalformedReplyError("reply", "contains no JSON object")
    try:
        diagnosis = Diagnosis.from_json(MalformedReplyError.loads(m.group(), "reply"))
    except ValueError as exc:  # an unknown cause, or verdicts that contradict overall_success
        raise MalformedReplyError("reply", str(exc)) from None
    if len(diagnosis.verdicts) != n_subgoals:
        raise MalformedReplyError(
            "reply.subgoals", f"expected {n_subgoals} per-subgoal verdicts, got {len(diagnosis.verdicts)}"
        )
    return diagnosis
