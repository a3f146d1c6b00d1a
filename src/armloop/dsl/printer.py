"""Canonical text form: stable ordering, defaults omitted, 2-space indent.

parse(to_text(program)) reproduces the program structurally, so .prog files
written by the printer are fixpoints.
"""

from __future__ import annotations

from .ast import (
    API_SIGNATURES,
    CallStmt,
    FpRef,
    ParallelStmt,
    PoseLit,
    Program,
)


def escape_string(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def render_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, FpRef):
        return f"fp({value.actor}, {value.point_id})"
    if isinstance(value, PoseLit):
        return f"pose({', '.join(repr(v) for v in value.values)})"
    return str(value)


def render_call(stmt: CallStmt) -> str:
    signature = API_SIGNATURES[stmt.name]
    parts = []
    for param in signature:
        value = stmt.args[param.name]
        if param.required:
            text = render_value(value)
            if param.kind == "string":
                text = escape_string(str(value))
            parts.append(text)
        elif value is not param.default:  # the parser fills in the default itself
            text = render_value(value)
            if text != render_value(param.default):  # so a -0.0 whose default is 0.0 is kept
                parts.append(f"{param.name}={text}")
    return f"{stmt.name}({', '.join(parts)})"


def stmt_to_text(stmt, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(stmt, ParallelStmt):
        lines = [f"{pad}parallel {{"]
        lines += [stmt_to_text(s, indent + 1) for s in stmt.left]
        lines.append(f"{pad}}} {{")
        lines += [stmt_to_text(s, indent + 1) for s in stmt.right]
        lines.append(f"{pad}}}")
        return "\n".join(lines)
    return f"{pad}{render_call(stmt)}"


def render_args(stmt: CallStmt) -> dict[str, str]:
    """Full resolved argument map rendered to canonical literal strings."""
    return {name: render_value(value) for name, value in stmt.args.items()}


def to_text(program: Program) -> str:
    lines = [f"program {program.task_name}"]
    for sg in program.subgoals:
        lines.append(f"subgoal {escape_string(sg.description)}")
        for stmt in sg.statements:
            lines.append(stmt_to_text(stmt, 1))
    return "\n".join(lines) + "\n"
