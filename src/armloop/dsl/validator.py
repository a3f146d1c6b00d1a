"""Static validation of a parsed program against a task spec."""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import UnknownPointError
from ..scene import TaskSpec
from .ast import CallStmt, FpRef, ParallelStmt, Program


@dataclass(frozen=True)
class Diagnostic:
    code: str  # unknown_actor | unknown_point | arm_conflict | observe_collision
    message: str
    stmt_id: int
    line: int

    def __str__(self):
        return f"[{self.code}] stmt {self.stmt_id} (line {self.line}): {self.message}"


def _branch_arms(stmts) -> set[str]:
    arms = set()
    for stmt in stmts:
        if isinstance(stmt, CallStmt) and "arm" in stmt.args:
            arms.add(stmt.args["arm"])
    return arms


def validate(program: Program, spec: TaskSpec) -> list[Diagnostic]:
    """One diagnostic per violation; an empty list means statically valid."""
    actors = spec.actors
    diagnostics: list[Diagnostic] = []
    observe_names: dict[str, int] = {}

    def report(code: str, message: str, stmt):
        diagnostics.append(Diagnostic(code, message, stmt.id, stmt.line))

    def check_point(actor, category: str, point_id, stmt):
        try:
            actor.point(category, point_id)
        except UnknownPointError as exc:
            report("unknown_point", str(exc), stmt)

    def check_call(stmt: CallStmt):
        if "actor" in stmt.args:
            name = stmt.args["actor"]
            actor = actors.get(name)
            if actor is None:
                report("unknown_actor", f"actor {name!r} not in task", stmt)
            elif stmt.name == "grasp_actor" and stmt.args["contact_point_id"] != "auto":
                check_point(actor, "contact", stmt.args["contact_point_id"], stmt)
            elif stmt.name == "place_actor" and stmt.args["functional_point_id"] != "none":
                check_point(actor, "functional", stmt.args["functional_point_id"], stmt)
        if stmt.name == "place_actor" and isinstance(stmt.args["target"], FpRef):
            ref = stmt.args["target"]
            target = actors.get(ref.actor)
            if target is None:
                report("unknown_actor", f"target actor {ref.actor!r} not in task", stmt)
            else:
                check_point(target, "functional", ref.point_id, stmt)
        if stmt.name == "observe":
            name = stmt.args["step_name"]
            if name in observe_names:
                report("observe_collision", f"duplicate observe name {name!r} (first at stmt {observe_names[name]})", stmt)
            else:
                observe_names[name] = stmt.id

    for stmt in program.walk():
        if isinstance(stmt, ParallelStmt):
            overlap = _branch_arms(stmt.left) & _branch_arms(stmt.right)
            if overlap:
                report("arm_conflict", f"both parallel branches use {', '.join(sorted(overlap))}", stmt)
        else:
            check_call(stmt)
    return diagnostics
