"""Per-subgoal verification verdicts and causal hypotheses."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import NoneType

from ..errors import MalformedReplyError

CAUSES = (
    "logic_error",
    "api_misuse",
    "execution_failure",
    "geometric_infeasibility",
    "perception_mismatch",
)

# Total mapping from simulator error categories to causal hypotheses.
CAUSE_FROM_ERROR = {
    "unreachable": "geometric_infeasibility",
    "collision": "geometric_infeasibility",
    "invalid_call": "api_misuse",
    "grasp_slip": "execution_failure",
    "placement_miss": "execution_failure",
    "not_held": "logic_error",
    "runtime_limit": "execution_failure",
}


@dataclass
class SubgoalVerdict:
    subgoal_index: int
    passed: bool
    deviation_stmt: int | None = None
    cause: str | None = None
    rationale: str = ""

    def __post_init__(self):
        if self.passed:
            # A passing subgoal carries no deviation point or cause.
            self.deviation_stmt = None
            self.cause = None
        elif self.cause is not None and self.cause not in CAUSES:
            raise ValueError(f"unknown cause {self.cause!r}")


@dataclass
class Diagnosis:
    verdicts: list = field(default_factory=list)
    overall_success: bool = False

    def __post_init__(self):
        if self.verdicts:
            expected = all(v.passed for v in self.verdicts)
            if self.overall_success != expected:
                raise ValueError("overall_success must match the per-subgoal verdicts")

    @classmethod
    def empty(cls) -> "Diagnosis":
        """Degenerate diagnosis used by the symbolic-only configuration: no
        perceptual verdicts, overall failure."""
        return cls(verdicts=[], overall_success=False)

    def failed_verdicts(self) -> list:
        return [v for v in self.verdicts if not v.passed]

    def to_json(self) -> dict:
        return {
            "overall_success": self.overall_success,
            "subgoals": [
                {
                    "index": v.subgoal_index,
                    "passed": v.passed,
                    "deviation_stmt": v.deviation_stmt,
                    "cause": v.cause,
                    "rationale": v.rationale,
                }
                for v in self.verdicts
            ],
        }

    @classmethod
    def from_json(cls, raw) -> "Diagnosis":
        """The diagnosis a verifier reply states; a field of the wrong JSON
        type raises MalformedReplyError naming it."""
        get = MalformedReplyError.get
        verdicts = []
        for i, entry in enumerate(get(raw, "subgoals", list, "reply")):
            where = f"reply.subgoals[{i}]"
            verdicts.append(SubgoalVerdict(
                subgoal_index=get(entry, "index", int, where),
                passed=get(entry, "passed", bool, where),
                deviation_stmt=get(entry, "deviation_stmt", (int, NoneType), where, default=None),
                cause=get(entry, "cause", (str, NoneType), where, default=None),
                rationale=get(entry, "rationale", str, where, default=""),
            ))
        return cls(verdicts=verdicts, overall_success=get(raw, "overall_success", bool, "reply"))


def render_diagnosis(diagnosis: Diagnosis, subgoal_texts: list[str]) -> str:
    """Human/model readable rendering used as observation feedback."""
    if not diagnosis.verdicts:
        return "No perceptual diagnosis available."
    lines = []
    for v in diagnosis.verdicts:
        text = subgoal_texts[v.subgoal_index - 1] if 0 < v.subgoal_index <= len(subgoal_texts) else ""
        if v.passed:
            lines.append(f"Subgoal {v.subgoal_index} ({text}): completed")
        else:
            at = f" at stmt {v.deviation_stmt}" if v.deviation_stmt is not None else ""
            lines.append(
                f"Subgoal {v.subgoal_index} ({text}): FAILED{at} [{v.cause}] {v.rationale}"
            )
    return "\n".join(lines)
