"""AST for the manipulation DSL and the closed API signature table.

Statements store fully resolved argument maps: omitted optionals are filled
with their defaults at parse time, and the canonical printer omits any
argument still equal to its default. Structural equality ignores statement
ids and source lines (bookkeeping, not meaning).

Program nodes are frozen. Whoever builds a program gives each statement its
id as it makes it: densely from 1 in source order, a parallel block before
its branches. A subgoal's index is its place, from 1. Programs may share
argument maps (an instrumented one shares its input's), so none is changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FpRef:
    """Target reference: functional point ``id`` of ``actor``."""

    actor: str
    point_id: int


@dataclass(frozen=True)
class PoseLit:
    """Literal pose target: (x, y, z, qw, qx, qy, qz)."""

    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != 7:
            raise ValueError("pose literal needs exactly 7 numbers")


# Argument kinds, used for parsing, checking, and canonical printing.
ARM = "arm"
NUM = "num"
INT_OR_AUTO = "int_or_auto"
INT_OR_NONE = "int_or_none"
STRING = "string"
BOOL = "bool"
TARGET = "target"


def enum(*values: str) -> tuple:
    return ("enum", values)


_REQUIRED = object()


@dataclass(frozen=True)
class Param:
    name: str
    kind: object
    default: object = _REQUIRED

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED


# The closed call set. Defaults here are normative; the parser fills them in
# and the printer elides them.
API_SIGNATURES: dict[str, tuple[Param, ...]] = {
    "open_gripper": (Param("arm", ARM), Param("pos", NUM, 1.0)),
    "close_gripper": (Param("arm", ARM), Param("pos", NUM, 0.0)),
    "move_by_displacement": (
        Param("arm", ARM),
        Param("x", NUM, 0.0),
        Param("y", NUM, 0.0),
        Param("z", NUM, 0.0),
        Param("move_axis", enum("world", "arm"), "world"),
    ),
    "grasp_actor": (
        Param("actor", "ident"),
        Param("arm", ARM),
        Param("pre_grasp_dis", NUM, 0.1),
        Param("grasp_dis", NUM, 0.0),
        Param("gripper_pos", NUM, 0.0),
        Param("contact_point_id", INT_OR_AUTO, "auto"),
    ),
    "place_actor": (
        Param("actor", "ident"),
        Param("arm", ARM),
        Param("target", TARGET),
        Param("functional_point_id", INT_OR_NONE, "none"),
        Param("pre_dis", NUM, 0.1),
        Param("dis", NUM, 0.02),
        Param("is_open", BOOL, True),
        Param("constrain", enum("auto", "free", "align"), "auto"),
        Param("pre_dis_axis", enum("grasp", "fp"), "grasp"),
    ),
    "back_to_origin": (Param("arm", ARM),),
    "observe": (Param("step_name", STRING),),
}


@dataclass(frozen=True)
class CallStmt:
    name: str
    args: dict
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParallelStmt:
    left: list
    right: list
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SubgoalBlock:
    description: str
    statements: list


@dataclass(frozen=True)
class Program:
    task_name: str
    subgoals: list

    def walk(self):
        """Yield every statement in source order, descending into parallel."""
        for sg in self.subgoals:
            for stmt in sg.statements:
                yield stmt
                if isinstance(stmt, ParallelStmt):
                    yield from stmt.left
                    yield from stmt.right
