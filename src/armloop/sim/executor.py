"""Deterministic seeded interpreter for manipulation programs, stepping the
trials of a batch in lockstep.

Kinematic, event-granular execution: every non-observe statement produces
exactly one symbolic event, a trial stops at its first failure, and the
goal predicate is evaluated on its final scene either way.

`run_trials` steps its n trials through the flattened program together, in
the batched-environment style of Isaac Gym and Brax; `execute` is a batch of
one. Programs are straight-line, so every trial still running has succeeded
at the same statements: what each arm holds, the gripper values and the
step counter are one value per batch. Continuous state (actor poses, TCPs,
grasp offsets and approach axes) is an array with one row per running
trial, computed by the row forms of `geometry`, which give each row the
bits of the tuple forms. A branch on a continuous value (the nearest
contact point, constrain=auto, the cases of quat_between, the support under
a dropped actor) is a selection per row. A statement runs its checks in
order as masks over the rows; a row that fails one keeps the effects
applied before it (the TCP has moved before a grasp_slip, the actor is
released before a placement_miss), gets its failure event, its final
snapshot, final scene and goal at once, and leaves the `alive` mask. The
batch drops failed rows after each statement.

All randomness comes from one generator per trial with a frozen draw order,
which is what makes independent replay oracles possible:

    setup:        3 normals (position) + 1 normal (yaw) per non-static
                  actor, in task-file order
    grasp_actor:  3 normals (approach endpoint), then 1 uniform (slip)
    place_actor:  3 normals (placement endpoint)

Draws happen even at zero noise scale so the sequence never depends on the
noise configuration. Each trial makes all its draws up front, one call per
run of normals or uniforms; those past the trial's failure are never read.

Python floats overflow to inf and turn an invalid operation into nan without
a word, so the rows run with numpy's overflow and invalid warnings off.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from ..dsl.ast import CallStmt, FpRef, ParallelStmt, PoseLit, Program
from ..dsl.printer import render_args, render_call
from ..errors import UnknownActorError, UnknownPointError
from ..geometry import (Pose, apply_rows, compose_rows, inverse_rows, norms, pose_rows,
                        quat_between_rows, quat_from_axis_angle_rows, quat_mul_rows,
                        quat_rotate_rows)
from ..instrument import FINAL_STEP
from ..scene import ARM_TAGS, ArmState, Scene, TaskSpec, eval_predicate
from .model import Snapshot, SimConfig, SymbolicEvent, TrialLog, scene_states

# A grasp approach counts as vertical (for constrain=auto) when the world
# approach axis is within 45 degrees of vertical.
_VERTICAL_COS = math.cos(math.pi / 4)

_PENETRATION_LIMIT = 0.005

_WORLD_UP = (0.0, 0.0, 1.0)


class _Failure(Exception):
    """A failure that does not depend on continuous state, so it ends every
    row still alive at the statement."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class _Statement(NamedTuple):
    """A call in execution order, with its text rendered once per batch."""

    subgoal: int
    stmt: CallStmt
    args: dict[str, str]  # render_args; each event gets its own copy
    text: str  # render_call; the program context of the snapshots after it


def _flatten(program: Program) -> list[_Statement]:
    """Execution order: parallel branches interleaved, left arm first."""
    flat = []
    for sg in program.subgoals:
        for stmt in sg.statements:
            if isinstance(stmt, ParallelStmt):
                for i in range(max(len(stmt.left), len(stmt.right))):
                    flat += [(sg.index, branch[i]) for branch in (stmt.left, stmt.right) if i < len(branch)]
            else:
                flat.append((sg.index, stmt))
    return [_Statement(index, stmt, render_args(stmt), render_call(stmt)) for index, stmt in flat]


# The draws of a statement, in order.
_DRAWS = {"grasp_actor": ("normal",) * 3 + ("uniform",), "place_actor": ("normal",) * 3}


def _draws(statements: list[_Statement], spec: TaskSpec, seeds: list[int]):
    """Every draw of each trial in the frozen order: an (n, k) array of
    normals, one of uniforms, and per statement index the first column of
    its normals and of its uniform."""
    kinds = ["normal"] * (4 * sum(not actor.static for actor in spec.actors.values()))
    columns = {}
    for k, op in enumerate(statements):
        if op.stmt.name in _DRAWS:
            columns[k] = (kinds.count("normal"), kinds.count("uniform"))
            kinds += _DRAWS[op.stmt.name]
    calls = [(kind, len(list(run))) for kind, run in itertools.groupby(kinds)]
    out = {kind: np.empty((len(seeds), kinds.count(kind))) for kind in ("normal", "uniform")}
    for r, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        at = dict.fromkeys(out, 0)
        for kind, size in calls:
            out[kind][r, at[kind]:at[kind] + size] = getattr(rng, kind)(size=size)
            at[kind] += size
    return out["normal"], out["uniform"], columns


class _Poses:
    """One pose per row: the (n, 7) array the geometry reads and writes, and
    the `Pose.values` tuples snapshots and final scenes hold. The tuples are
    rebuilt only after an assignment, so a pose that did not move stays the
    same object from snapshot to snapshot."""

    __slots__ = ("initial", "rows", "_tuples", "_moved")

    def __init__(self, initial: Pose, n: int):
        self.initial = initial
        self.rows = np.tile(initial.values, (n, 1))
        self._tuples = [initial.values] * n
        self._moved = False

    def set(self, rows):
        self.rows = rows
        self._moved = True

    def tuples(self) -> list[tuple]:
        if self._moved:
            self._tuples = list(zip(*self.rows.T.tolist()))
            self._moved = False
        return self._tuples

    def pose(self, r: int) -> Pose:
        """Row r's pose, made from its exact floats; the initial pose itself
        while the row has not moved."""
        values = self.tuples()[r]
        return self.initial if values is self.initial.values else Pose.from_unit(values)

    def keep(self, alive: list[bool]):
        self.rows = self.rows[alive]
        if not self._moved:
            self._tuples = list(itertools.compress(self._tuples, alive))


class _Batch:
    def __init__(self, statements: list[_Statement], spec: TaskSpec, logs: list[TrialLog],
                 noise_scale: float, max_steps: int):
        n = len(logs)
        self.statements = statements
        self.spec = spec
        self.max_steps = max_steps
        self.logs = list(logs)  # of the rows, in row order
        self.alive = np.ones(n, bool)  # rows that have not failed at this statement
        self.pos_sigma = spec.noise.pos_sigma * noise_scale
        self.rot_sigma = spec.noise.rot_sigma * noise_scale
        self.slip_p = spec.noise.slip_base * noise_scale
        self.normals, self.uniforms, self.columns = _draws(statements, spec, [log.seed for log in logs])
        self.poses = {name: _Poses(actor.pose, n) for name, actor in spec.actors.items()}
        self.tcps = {tag: _Poses(spec.homes[tag], n) for tag in ARM_TAGS}
        self.gripper = {tag: 1.0 for tag in ARM_TAGS}
        self.holding: dict[str, str | None] = {tag: None for tag in ARM_TAGS}
        # Rows of each arm's latest grasp; read only while it holds.
        self.offsets: dict[str, np.ndarray] = {}  # held actor's pose in the TCP frame
        self.approaches: dict[str, np.ndarray] = {}  # world grasp approach axis at grasp time
        self.t = 0
        self.k = 0  # index of the current statement
        self.subgoal = 1
        self.last_op: _Statement | None = None
        self.last_step: str | None = None  # step name of the latest snapshot

    # -- noise -------------------------------------------------------------

    def _setup_noise(self):
        column = 0
        for name, actor in self.spec.actors.items():
            if actor.static:
                continue
            draws = self.normals[:, column:column + 4]
            column += 4
            yaw = quat_from_axis_angle_rows(_WORLD_UP, draws[:, 3] * self.rot_sigma)
            self.poses[name].set(pose_rows(actor.pose.p + draws[:, :3] * self.pos_sigma,
                                           quat_mul_rows(yaw, actor.pose.q)))

    def _endpoint_noise(self):
        column = self.columns[self.k][0]
        return self.normals[:, column:column + 3] * self.pos_sigma

    # -- failures, events, snapshots ------------------------------------------

    def _fail(self, bad, category: str, message):
        """End the alive rows among `bad` with a failure of the current
        statement, in the state the statement has left so far. `message` is
        the text, or a function of the row giving it."""
        bad = bad & self.alive
        if bad.any():
            rows = bad.nonzero()[0].tolist()
            self.alive[rows] = False
            self._emit(rows, "failure", category, message)
            self._finish(rows, self.t + 1, self.statements[self.k])

    def _emit(self, rows, outcome: str, category: str, message):
        op = self.statements[self.k]
        stmt, t = op.stmt, self.t
        for r in rows:
            text = message(r) if callable(message) else message
            self.logs[r].events.append(SymbolicEvent(
                stmt.id, op.subgoal, stmt.name, dict(op.args), outcome, category, text, t))

    def _held_by(self, name: str) -> str | None:
        return next((tag for tag in ARM_TAGS if self.holding[tag] == name), None)

    def _snapshot(self, rows, step_name: str, t: int, last_op: _Statement | None):
        actors = [(name, poses.tuples(), self._held_by(name)) for name, poses in self.poses.items()]
        arms = [(tag, tcps.tuples(), self.gripper[tag]) for tag, tcps in self.tcps.items()]
        stmt_id, context = (last_op.stmt.id, last_op.text) if last_op is not None else (0, "")
        for r, scene in zip(rows, scene_states(actors, arms, rows)):
            self.logs[r].snapshots.append(Snapshot(step_name, stmt_id, self.subgoal, t, scene, context))

    def _finish(self, rows, t: int, last_op: _Statement | None):
        """The final snapshot (unless the last one was it), final scene and
        goal of the given rows."""
        if self.last_step is not None and self.last_step != FINAL_STEP:
            self._snapshot(rows, FINAL_STEP, t, last_op)
        for r in rows:
            scene = Scene(
                self.spec,
                {name: poses.pose(r) for name, poses in self.poses.items()},
                {tag: ArmState(tcps.pose(r), self.gripper[tag], self.holding[tag]) for tag, tcps in self.tcps.items()},
            )
            log = self.logs[r]
            log.goal_met = eval_predicate(self.spec.goal, scene)
            log.final_scene = scene

    def _drop_failed(self, alive: list[bool]):
        keep = self.alive
        self.logs = list(itertools.compress(self.logs, alive))
        for poses in (*self.poses.values(), *self.tcps.values()):
            poses.keep(alive)
        for rows in (self.offsets, self.approaches):
            for tag in rows:
                rows[tag] = rows[tag][keep]
        self.normals, self.uniforms = self.normals[keep], self.uniforms[keep]
        self.alive = np.ones(len(self.logs), bool)

    # -- state helpers -------------------------------------------------------

    def _require_reach(self, tag: str, points, action: str | None = None):
        """Check the rows of each (n, 3) array in `points`, in order."""
        inside = self.spec.in_workspace(tag, points)
        for p, ok in zip(points, inside):
            def message(r):
                x, y, z = p[r].tolist()
                at = f"[{x:.3f}, {y:.3f}, {z:.3f}]"
                return (f"{action} needs {tag} arm at {at}, outside workspace" if action
                        else f"{tag} arm target {at} outside workspace")

            self._fail(~ok, "unreachable", message)

    def _move_tcp(self, tag: str, p, q=None):
        """The only writer of a TCP and of a held actor's pose, so a held
        actor is at tcp o grasp offset by construction."""
        self._require_reach(tag, p[None])
        tcp = self.tcps[tag]
        tcp.set(pose_rows(p, tcp.rows[:, 3:] if q is None else q))
        held = self.holding[tag]
        if held is not None:
            self.poses[held].set(compose_rows(tcp.rows, self.offsets[tag]))

    def _release(self, tag: str):
        name, self.holding[tag] = self.holding[tag], None
        if name is not None:
            self._drop(name)

    def _drop(self, name: str):
        """Fall straight down onto the highest supporting surface beneath the
        actor's center, else onto the table. Boxes are axis-aligned at each
        actor's position: orientation is deliberately ignored."""
        pose, extent = self.poses[name].rows, self.spec.actors[name].extent
        p = pose[:, :3]
        lo, hi = p - extent, p + extent
        held = set(self.holding.values())
        support_z = np.zeros(len(pose))
        for other, poses in self.poses.items():
            if other == name or other in held:
                continue
            other_extent = self.spec.actors[other].extent
            other_p = poses.rows[:, :3]
            other_lo, other_hi = other_p - other_extent, other_p + other_extent
            top = other_p[:, 2] + other_extent[2]
            under = ((lo[:, 0] < other_hi[:, 0]) & (other_lo[:, 0] < hi[:, 0])
                     & (lo[:, 1] < other_hi[:, 1]) & (other_lo[:, 1] < hi[:, 1]) & (top <= p[:, 2]))
            support_z = np.where(under & (top > support_z), top, support_z)  # max() keeps the first of equals
        landed = p.copy()
        landed[:, 2] = support_z + extent[2]
        self.poses[name].set(pose_rows(landed, pose[:, 3:]))

    def _collision_check(self, tag: str, points, exclude: str):
        """points: (k, n, 3), checked in order, each against every actor."""
        held_name = self.holding[tag]
        depths = {}
        for other, poses in self.poses.items():
            if other == exclude or other == held_name:
                continue
            extent = self.spec.actors[other].extent
            p = poses.rows[:, :3]
            below, above = points - (p - extent), (p + extent) - points
            # min() of Python per axis, then over the axes: a later value
            # only if it is smaller, also past a nan.
            inside = np.where(above < below, above, below)
            depth = inside[..., 0]
            for k in (1, 2):
                depth = np.where(inside[..., k] < depth, inside[..., k], depth)
            depths[other] = depth
        for k in range(len(points)):
            for other, depth in depths.items():
                self._fail(depth[k] > _PENETRATION_LIMIT, "collision",
                           lambda r: f"{tag} arm path endpoint penetrates {other!r} by {depth[k, r] * 1000:.1f} mm")

    # -- statement handlers --------------------------------------------------

    def _require_pos_range(self, value: float, name: str):
        if value < 0.0 or value > 1.0:
            raise _Failure("invalid_call", f"{name}={value} outside [0, 1]")

    def _op_open_gripper(self, args):
        self._require_pos_range(args["pos"], "pos")
        tag = args["arm"]
        self._release(tag)
        self.gripper[tag] = float(args["pos"])

    def _op_close_gripper(self, args):
        # Closing with nothing nearby is a deliberate no-op on the world.
        self._require_pos_range(args["pos"], "pos")
        self.gripper[args["arm"]] = float(args["pos"])

    def _op_move_by_displacement(self, args):
        tag = args["arm"]
        tcp = self.tcps[tag].rows
        d = (args["x"], args["y"], args["z"])
        if args["move_axis"] == "arm":
            d = quat_rotate_rows(tcp[:, 3:], d)
        self._move_tcp(tag, tcp[:, :3] + d)

    def _op_back_to_origin(self, args):
        tag = args["arm"]
        home = self.spec.homes[tag]
        self._move_tcp(tag, np.tile(home.p, (len(self.logs), 1)), home.q)

    def _op_grasp_actor(self, args):
        tag = args["arm"]
        actor = self.spec.actor(args["actor"])
        if actor.static:
            raise _Failure("invalid_call", f"actor {actor.name!r} is static and cannot be grasped")
        if self.holding[tag] is not None:
            raise _Failure("invalid_call", f"{tag} arm is already holding {self.holding[tag]!r}")
        self._require_pos_range(args["gripper_pos"], "gripper_pos")
        pose = self.poses[actor.name].rows
        cid = args["contact_point_id"]
        if cid == "auto":
            # min() by (distance to the TCP, id): the first point unless a
            # later one is nearer, or as near with a lower id.
            tcp_p = self.tcps[tag].rows[:, :3]
            contact_p = best = best_id = None
            for pt in actor.contact_points:
                at = apply_rows(pose, pt.pose.p)
                distance = norms(at - tcp_p)
                if contact_p is None:
                    contact_p, best, best_id = at, distance, np.full(len(at), pt.id)
                    continue
                nearer = (distance < best) | ((distance == best) & (pt.id < best_id))
                contact_p = np.where(nearer[:, None], at, contact_p)
                best, best_id = np.where(nearer, distance, best), np.where(nearer, pt.id, best_id)
        else:
            contact_p = apply_rows(pose, actor.point("contact", cid).pose.p)

        approach = quat_rotate_rows(pose[:, 3:], actor.grasp_axis)
        noise = self._endpoint_noise()
        distances = np.array((args["pre_grasp_dis"], args["grasp_dis"]))[:, None, None]
        points = contact_p - approach * distances + noise  # pre-grasp, final

        self._require_reach(tag, points, f"grasp of {actor.name!r}")
        self._collision_check(tag, points, exclude=actor.name)

        slipped = self.uniforms[:, self.columns[self.k][1]] < self.slip_p

        self._move_tcp(tag, points[1])
        self.gripper[tag] = float(args["gripper_pos"])
        self._fail(slipped, "grasp_slip", f"grasp of {actor.name!r} slipped (p={self.slip_p:.2f})")

        holder = self._held_by(actor.name)
        if holder is not None:
            # Handover: the other gripper keeps its state but loses the object.
            self.holding[holder] = None
        self.holding[tag] = actor.name
        self.offsets[tag] = compose_rows(inverse_rows(self.tcps[tag].rows), pose)
        self.approaches[tag] = approach

    def _op_place_actor(self, args):
        tag = args["arm"]
        actor = self.spec.actor(args["actor"])
        if self.holding[tag] != actor.name:
            raise _Failure("not_held", f"actor {actor.name!r} is not held by the {tag} arm")
        offset, approach = self.offsets[tag], self.approaches[tag]

        target = args["target"]
        if isinstance(target, FpRef):
            local = self.spec.actor(target.actor).point("functional", target.point_id).pose
            target_pose = compose_rows(self.poses[target.actor].rows, local.values)
        elif isinstance(target, PoseLit):
            try:  # the parser and validator leave the quaternion's norm unchecked
                target_pose = np.tile(Pose.from_list(list(target.values)).values, (len(self.logs), 1))
            except ValueError as exc:
                raise _Failure("invalid_call", str(exc)) from None
        else:
            raise _Failure("invalid_call", f"bad place target {target!r}")

        fid = args["functional_point_id"]
        if fid == "none":
            fp_local = Pose()
        else:
            fp_local = actor.point("functional", fid).pose

        if args["pre_dis_axis"] == "fp":
            offset_dir = quat_rotate_rows(target_pose[:, 3:], _WORLD_UP)
        else:
            offset_dir = -approach

        constrain = args["constrain"]
        if constrain == "auto":
            free = ~(np.abs(approach[:, 2]) >= _VERTICAL_COS)
        else:
            free = np.full(len(approach), constrain != "align")
        desired_q = target_pose[:, 3:].copy()  # align
        if free.any():  # match z-axes only, keep the rest of the current orientation
            fp_q = compose_rows(self.poses[actor.name].rows[free], fp_local.values)[:, 3:]
            current_z = quat_rotate_rows(fp_q, _WORLD_UP)
            target_z = quat_rotate_rows(target_pose[free, 3:], _WORLD_UP)
            desired_q[free] = quat_mul_rows(quat_between_rows(current_z, target_z), fp_q)

        noise = self._endpoint_noise()
        distances = np.array((args["pre_dis"], args["dis"]))[:, None, None]
        fp_p = target_pose[:, :3] + offset_dir * distances  # pre-place, intended
        intended_p = fp_p[1].copy()
        fp_p[1] += noise  # achieved
        fp_poses = pose_rows(fp_p, desired_q)
        tcp_targets = compose_rows(compose_rows(fp_poses, fp_local.inverse().values), inverse_rows(offset))

        self._require_reach(tag, tcp_targets[..., :3], f"placing {actor.name!r}")

        self._move_tcp(tag, tcp_targets[1, :, :3], tcp_targets[1, :, 3:])
        miss = norms(fp_p[1] - intended_p)
        if args["is_open"]:
            self._release(tag)
            self.gripper[tag] = 1.0
        tolerance = self.spec.place_tolerance
        self._fail(miss > tolerance, "placement_miss",
                   lambda r: f"functional point of {actor.name!r} ended {miss[r] * 1000:.1f} mm from target "
                             f"(tolerance {tolerance * 1000:.0f} mm)")

    _HANDLERS = {
        "open_gripper": _op_open_gripper,
        "close_gripper": _op_close_gripper,
        "move_by_displacement": _op_move_by_displacement,
        "back_to_origin": _op_back_to_origin,
        "grasp_actor": _op_grasp_actor,
        "place_actor": _op_place_actor,
    }

    # -- main loop -----------------------------------------------------------

    def run(self):
        with np.errstate(over="ignore", invalid="ignore"):
            self._setup_noise()
            for k, op in enumerate(self.statements):
                stmt = op.stmt
                self.k = k
                self.subgoal = op.subgoal
                rows = range(len(self.logs))
                if self.t >= self.max_steps:
                    self._emit(rows, "failure", "runtime_limit", f"step budget of {self.max_steps} exhausted")
                    break
                if stmt.name == "observe":
                    self.last_step = stmt.args["step_name"]
                    self._snapshot(rows, self.last_step, self.t, self.last_op)
                else:
                    try:
                        self._HANDLERS[stmt.name](self, stmt.args)
                    except (_Failure, UnknownActorError, UnknownPointError) as exc:
                        category = exc.category if isinstance(exc, _Failure) else "invalid_call"
                        self._fail(True, category, str(exc))
                    # Bools, not a list of row indices: such a list keeps an
                    # int per row alive while the rows' records are made, and
                    # freeing them after fragments the heap (peak RSS).
                    alive = self.alive.tolist()
                    self._emit(itertools.compress(range(len(alive)), alive), "success", "none", "")
                    self.last_op = op
                    if not all(alive):
                        self._drop_failed(alive)
                        if not self.logs:
                            return
                self.t += 1
            self._finish(range(len(self.logs)), self.t, self.last_op)


def execute(program: Program, spec: TaskSpec, cfg: SimConfig, trial_index: int = 0) -> TrialLog:
    """Run one trial. Pure in (program, spec, cfg): identical inputs yield
    bit-identical serialized logs."""
    log = TrialLog(trial_index=trial_index, seed=cfg.seed)
    _Batch(_flatten(program), spec, [log], cfg.noise_scale, cfg.max_steps).run()
    return log


def run_trials(
    program: Program,
    spec: TaskSpec,
    n: int,
    base_seed: int,
    noise_scale: float = 0.0,
    max_steps: int = 200,
) -> list[TrialLog]:
    """n independent trials; trial i runs on a fresh scene with seed
    base_seed + i, and each trial's log is what `execute` gives it alone.
    The trials step through the program together."""
    if n < 1:
        raise ValueError("need at least one trial")
    cfg = SimConfig(seed=base_seed, noise_scale=noise_scale, max_steps=max_steps)
    logs = [TrialLog(trial_index=i, seed=base_seed + i) for i in range(n)]
    _Batch(_flatten(program), spec, logs, cfg.noise_scale, cfg.max_steps).run()
    return logs
