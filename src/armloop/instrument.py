"""Observation-insertion pass.

Classifies statements by whether they cause a visible scene change and
inserts ``observe`` hooks: one before everything runs, one after each
visible operation, one at the very end. The pass never touches existing
robot operations; pre-existing observes are dropped and re-inserted, which
makes it idempotent. A hard cap bounds the total hook count; when it binds,
interior hooks are thinned by priority (grasp/place > gripper > motion),
dropping lowest-priority, latest-position hooks first.

The output is built in one pass: each kept statement is a copy with its new
id that shares its read-only argument map, so the output copies no argument
and its ids are dense from 1 in source order.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

from .dsl.ast import Args, CallStmt, ParallelStmt, Program, SubgoalBlock
from .errors import CapTooSmallError

INITIAL_STEP = "initial_scene_state"
FINAL_STEP = "final_scene_state"
MIN_OBSERVATION_CAP = 3

# Lower value = more important to keep when thinning.
_PRIORITY = {
    "grasp_actor": 0,
    "place_actor": 0,
    "open_gripper": 1,
    "close_gripper": 1,
    "move_by_displacement": 2,
    "back_to_origin": 2,
}


def phi(stmt) -> bool:
    """True if the statement causes a visible scene change.

    Observes never count (an instrument is not instrumented); a parallel
    block is visible when any of its children is.
    """
    if isinstance(stmt, ParallelStmt):
        return any(phi(s) for s in stmt.left + stmt.right)
    if isinstance(stmt, CallStmt):
        return stmt.name != "observe"
    raise TypeError(f"not a statement: {stmt!r}")


def _priority(stmt) -> int:
    if isinstance(stmt, ParallelStmt):
        children = stmt.left + stmt.right
        return min((_priority(s) for s in children if phi(s)), default=2)
    return _PRIORITY.get(stmt.name, 2)


def _hook_name(stmt) -> str:
    if isinstance(stmt, ParallelStmt):
        return "parallel"
    return stmt.name


def insert_observations(program: Program, cap: int) -> Program:
    """New program with boundary and per-visible-operation observe hooks.

    The output always contains the initial and final hooks, at most ``cap``
    observes in total, and the input's non-observe statements verbatim and
    in order.
    """
    if cap < MIN_OBSERVATION_CAP:
        raise CapTooSmallError(f"observation cap {cap} below minimum of {MIN_OBSERVATION_CAP}")

    visible = [stmt for sg in program.subgoals for stmt in sg.statements if phi(stmt)]
    # The cap leaves room for cap - 2 hooks between initial and final: keep
    # the highest-priority ones, earliest first, so thinning drops the
    # lowest-priority, latest ones.
    kept = sorted(sorted(range(len(visible)), key=lambda i: (_priority(visible[i]), i))[: cap - 2])
    # Kept hooks are numbered densely from 2 in program order (the initial
    # hook is step 1), keyed by their statement (no statement object appears twice).
    step_names = {id(visible[i]): f"step{k}_{_hook_name(visible[i])}" for k, i in enumerate(kept, start=2)}

    ids = itertools.count(1)

    def observe(step_name: str) -> CallStmt:
        return CallStmt("observe", Args(step_name=step_name), next(ids))

    def calls(stmts: tuple) -> tuple:  # the calls but the observes (the calls phi rejects)
        return tuple(replace(s, id=next(ids)) for s in stmts if phi(s))

    subgoals = []
    for si, sg in enumerate(program.subgoals):
        statements = [observe(INITIAL_STEP)] if si == 0 else []
        for stmt in sg.statements:
            if isinstance(stmt, ParallelStmt):  # its id is drawn before its branches'
                statements.append(replace(stmt, id=next(ids), left=calls(stmt.left), right=calls(stmt.right)))
            elif phi(stmt):
                statements.append(replace(stmt, id=next(ids)))
            if id(stmt) in step_names:
                statements.append(observe(step_names[id(stmt)]))
        if si == len(program.subgoals) - 1:
            statements.append(observe(FINAL_STEP))
        subgoals.append(SubgoalBlock(sg.description, tuple(statements)))
    return Program(program.task_name, tuple(subgoals))
