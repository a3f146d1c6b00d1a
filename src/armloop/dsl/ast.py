"""AST for the manipulation DSL and the closed API signature table.

Statements store fully resolved argument maps: omitted optionals are filled
with their defaults at parse time, and the canonical printer omits any
argument still equal to its default. Structural equality ignores statement
ids and source lines (bookkeeping, not meaning).
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


@dataclass
class CallStmt:
    name: str
    args: dict
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class ParallelStmt:
    left: list
    right: list
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass
class SubgoalBlock:
    index: int
    description: str
    statements: list


@dataclass
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


def renumber(program: Program) -> Program:
    """Assign dense 1-based statement ids in source order (left branch
    before right inside parallel blocks). Mutates and returns the program."""
    next_id = 1
    for stmt in program.walk():
        stmt.id = next_id
        next_id += 1
    for i, sg in enumerate(program.subgoals, start=1):
        sg.index = i
    return program


def strip_observes(program: Program) -> Program:
    """Copy of the program with every observe statement removed (also inside
    parallel branches). Ids are not renumbered; callers that need dense ids
    should call renumber()."""
    import copy as _copy

    out = _copy.deepcopy(program)
    for sg in out.subgoals:
        sg.statements = [s for s in sg.statements if not _is_observe(s)]
        for stmt in sg.statements:
            if isinstance(stmt, ParallelStmt):
                stmt.left = [s for s in stmt.left if not _is_observe(s)]
                stmt.right = [s for s in stmt.right if not _is_observe(s)]
    return out


def _is_observe(stmt) -> bool:
    return isinstance(stmt, CallStmt) and stmt.name == "observe"
