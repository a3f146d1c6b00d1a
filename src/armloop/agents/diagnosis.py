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
    index: int
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
    """A verifier's verdicts; diagnosis.json is asdict() of it. Without
    subgoals it is the symbolic-only configuration's diagnosis: no
    perceptual verdicts, overall failure."""

    overall_success: bool = False
    subgoals: list = field(default_factory=list)  # of SubgoalVerdict

    def __post_init__(self):
        if self.subgoals and self.overall_success != all(v.passed for v in self.subgoals):
            raise ValueError("overall_success must match the per-subgoal verdicts")

    def failed_verdicts(self) -> list:
        return [v for v in self.subgoals if not v.passed]

    @classmethod
    def from_json(cls, raw) -> "Diagnosis":
        """The diagnosis a verifier reply or a diagnosis.json states; a field
        of the wrong JSON type raises MalformedReplyError naming it, and keys
        beyond the fields are ignored."""
        get = MalformedReplyError.get
        subgoals = []
        for i, entry in enumerate(get(raw, "subgoals", list, "reply")):
            where = f"reply.subgoals[{i}]"
            subgoals.append(SubgoalVerdict(
                get(entry, "index", int, where),
                get(entry, "passed", bool, where),
                get(entry, "deviation_stmt", (int, NoneType), where, default=None),
                get(entry, "cause", (str, NoneType), where, default=None),
                get(entry, "rationale", str, where, default=""),
            ))
        return cls(get(raw, "overall_success", bool, "reply"), subgoals)


def render_diagnosis(diagnosis: Diagnosis, subgoal_texts: list[str]) -> str:
    """Human/model readable rendering used as observation feedback."""
    if not diagnosis.subgoals:
        return "No perceptual diagnosis available."
    lines = []
    for v in diagnosis.subgoals:
        text = subgoal_texts[v.index - 1] if 0 < v.index <= len(subgoal_texts) else ""
        if v.passed:
            lines.append(f"Subgoal {v.index} ({text}): completed")
        else:
            at = f" at stmt {v.deviation_stmt}" if v.deviation_stmt is not None else ""
            lines.append(
                f"Subgoal {v.index} ({text}): FAILED{at} [{v.cause}] {v.rationale}"
            )
    return "\n".join(lines)
