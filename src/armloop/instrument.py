"""Observation-insertion pass.

Classifies statements by whether they cause a visible scene change and
inserts ``observe`` hooks: one before everything runs, one after each
visible operation, one at the very end. The pass never touches existing
robot operations; pre-existing observes are stripped and re-inserted, which
makes it idempotent. A hard cap bounds the total hook count; when it binds,
interior hooks are thinned by priority (grasp/place > gripper > motion),
dropping lowest-priority, latest-position hooks first.
"""

from __future__ import annotations

from .dsl.ast import CallStmt, ParallelStmt, Program, renumber, strip_observes
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


def _make_observe(step_name: str) -> CallStmt:
    return CallStmt("observe", {"step_name": step_name})


def insert_observations(program: Program, cap: int) -> Program:
    """New program with boundary and per-visible-operation observe hooks.

    The output always contains the initial and final hooks, at most ``cap``
    observes in total, and the input's non-observe statements verbatim and
    in order.
    """
    if cap < MIN_OBSERVATION_CAP:
        raise CapTooSmallError(f"observation cap {cap} below minimum of {MIN_OBSERVATION_CAP}")

    out = strip_observes(program)

    # Candidate interior hooks: (subgoal idx, position in subgoal, priority).
    candidates = []
    for si, sg in enumerate(out.subgoals):
        for pi, stmt in enumerate(sg.statements):
            if phi(stmt):
                candidates.append({
                    "subgoal": si,
                    "position": pi,
                    "priority": _priority(stmt),
                    "opname": _hook_name(stmt),
                })

    budget = cap - 2  # initial + final are always present
    if len(candidates) > budget:
        # Drop lowest-priority hooks, latest position first, until we fit.
        drop_order = sorted(
            range(len(candidates)),
            key=lambda i: (-candidates[i]["priority"], -i),
        )
        dropped = set(drop_order[: len(candidates) - budget])
        candidates = [c for i, c in enumerate(candidates) if i not in dropped]

    # Number kept hooks densely from 2 in final (program) order; the initial
    # boundary hook is implicitly step 1.
    for k, cand in enumerate(candidates, start=2):
        cand["step_name"] = f"step{k}_{cand['opname']}"

    by_slot = {(c["subgoal"], c["position"]): c["step_name"] for c in candidates}

    for si, sg in enumerate(out.subgoals):
        new_stmts = []
        if si == 0:
            new_stmts.append(_make_observe(INITIAL_STEP))
        for pi, stmt in enumerate(sg.statements):
            new_stmts.append(stmt)
            step_name = by_slot.get((si, pi))
            if step_name is not None:
                new_stmts.append(_make_observe(step_name))
        if si == len(out.subgoals) - 1:
            new_stmts.append(_make_observe(FINAL_STEP))
        sg.statements = new_stmts

    return renumber(out)
