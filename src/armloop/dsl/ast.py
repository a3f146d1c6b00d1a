"""AST for the manipulation DSL and the closed API signature table.

Statements store fully resolved argument maps: omitted optionals are filled
with their defaults at parse time, and the canonical printer omits any
argument that prints as its default (so it keeps a -0.0). Structural
equality ignores statement ids and source lines (bookkeeping, not meaning).

A program is a value: its nodes are frozen, its sequences are tuples and
each argument map is an ``Args``, which refuses every write. So programs may
share nodes and argument maps, hash, and pickle. Whoever builds a program
gives each statement its id as it makes it: densely from 1 in source order,
a parallel block before its branches. A subgoal's index is its place, from 1.
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


class Args(dict):
    """A call's argument map: a dict that refuses every write. It hashes
    like the frozenset of its items, so equal maps hash equal whatever their
    key order, and it pickles as a plain dict wrapped again."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("a call's argument map is read-only")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __hash__(self):
        return hash(frozenset(self.items()))

    def __reduce__(self):
        return Args, (dict(self),)


@dataclass(frozen=True)
class CallStmt:
    name: str
    args: Args
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ParallelStmt:
    left: tuple
    right: tuple
    id: int = field(default=0, compare=False)
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class SubgoalBlock:
    description: str
    statements: tuple


@dataclass(frozen=True)
class Program:
    task_name: str
    subgoals: tuple

    def walk(self):
        """Yield every statement in source order, descending into parallel."""
        for sg in self.subgoals:
            for stmt in sg.statements:
                yield stmt
                if isinstance(stmt, ParallelStmt):
                    yield from stmt.left
                    yield from stmt.right
