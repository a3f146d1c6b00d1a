"""Deterministic seeded interpreter for manipulation programs, stepping the
trials of a batch in lockstep.

Kinematic, event-granular execution: every non-observe statement produces
exactly one symbolic event, a trial stops at its first failure, and the
goal predicate is evaluated on its final state either way.

`run_trials`, the simulator's one entry point, steps its n trials through
the flattened program together, in the batched-environment style of Isaac
Gym and Brax. Programs are straight-line, so every trial still running has
succeeded at the same statements: what each arm holds, the gripper values
and the step counter are one value per batch. Continuous state (actor
poses, TCPs, grasp offsets and approach axes) is an array with one row per
trial, computed by the row forms of `geometry`. The batch's scene state is
one `SceneRows`, whose dicts the handlers update in place, a moved pose
always as a new array; each snapshot's payloads are made from it by
`model.scene_payloads`, so this module knows nothing of their layout. A
branch on a continuous value (the nearest contact point, constrain=auto,
the cases of quat_between_rows, the support under a dropped actor) is a
selection per row. A statement runs its checks in order as masks over the
rows; a row that fails one keeps the effects applied before it (the TCP has
moved before a grasp_slip, the actor is released before a placement_miss),
gets its failure event, its final snapshot and its goal at once, and leaves
the `alive` mask. The goal is evaluated over all the rows that finish
together in one call. A failed row keeps its place to the end of the batch,
so row r is one trial throughout; what it goes on computing reaches no
record, and the batch ends once no row is alive.

All randomness comes from one generator per trial with a frozen draw order,
which is what makes independent replay oracles possible:

    setup:        3 normals (position) + 1 normal (yaw) per non-static
                  actor, in task-file order
    grasp_actor:  3 normals (approach endpoint), then 1 uniform (slip)
    place_actor:  3 normals (placement endpoint)

Draws happen even at zero noise scale so the sequence never depends on the
noise configuration. Each trial makes all its draws up front, one call per
run of normals or uniforms; those past the trial's failure are never read.
They become the trial's perturbation row: each normal times its column's
sigma, plus 0.0 so that a zero is +0.0 whatever the draw's sign, and each
slip as the bool uniform < slip_p. A trial's log depends on nothing else,
so trials whose rows are equal byte for byte run as one row of the batch
and share its log's lists: at zero noise a batch is one row, while at
noise above zero (and sigmas above zero) every trial is its own.

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
from ..scene import ARM_TAGS, SceneRows, TaskSpec, eval_predicate
from .model import Snapshot, SymbolicEvent, TrialLog, scene_payloads

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
    args: dict[str, str]  # render_args; the statement's events share this dict
    text: str  # render_call; the program context of the snapshots after it


def _flatten(program: Program) -> list[_Statement]:
    """Execution order: parallel branches interleaved, left arm first. Each
    call carries its subgoal's index, the subgoal's place from 1."""
    flat = []
    for index, sg in enumerate(program.subgoals, start=1):
        for stmt in sg.statements:
            if isinstance(stmt, ParallelStmt):
                for i in range(max(len(stmt.left), len(stmt.right))):
                    flat += [(index, branch[i]) for branch in (stmt.left, stmt.right) if i < len(branch)]
            else:
                flat.append((index, stmt))
    return [_Statement(index, stmt, render_args(stmt), render_call(stmt)) for index, stmt in flat]


# The draws of a statement, in order.
_DRAWS = {"grasp_actor": ("normal",) * 3 + ("uniform",), "place_actor": ("normal",) * 3}


def _perturbations(statements: list[_Statement], spec: TaskSpec, seeds: list[int], noise_scale: float):
    """Each trial's perturbations, from its draws in the frozen order: an
    (n, k) array of normals, each times its column's sigma plus 0.0 (so a
    zero perturbation is +0.0 whatever the draw's sign), an (n, m) bool
    array of slips (uniform < slip_p), and per statement index the first
    column of its normals and its column of slips."""
    moving = sum(not actor.static for actor in spec.actors.values())
    kinds = ["normal"] * (4 * moving)
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
    sigmas = np.full(kinds.count("normal"), spec.noise.pos_sigma * noise_scale)
    sigmas[3:4 * moving:4] = spec.noise.rot_sigma * noise_scale  # each moving actor's yaw
    with np.errstate(over="ignore", invalid="ignore"):
        normals = out["normal"] * sigmas + 0.0
    return normals, out["uniform"] < spec.noise.slip_base * noise_scale, columns


def _rows(mask):
    """The indices of a bool mask's true rows, one at a time. Not a list:
    such a list keeps an int per row alive while the rows' records are
    made, and freeing them after fragments the heap (peak RSS)."""
    return itertools.compress(itertools.count(), mask.tolist())


class _Batch:
    def __init__(self, statements: list[_Statement], spec: TaskSpec, logs: list[TrialLog],
                 perturbations: tuple, noise_scale: float, max_steps: int):
        n = len(logs)
        self.statements = statements
        self.spec = spec
        self.max_steps = max_steps
        self.logs = logs  # of the rows, in row order
        self.alive = np.ones(n, bool)  # rows that have not failed
        self.slip_p = spec.noise.slip_base * noise_scale
        self.normals, self.slips, self.columns = perturbations  # of the rows, as _perturbations gives them
        self.scene = SceneRows({name: np.tile(actor.pose.values, (n, 1)) for name, actor in spec.actors.items()},
                               {tag: np.tile(spec.homes[tag].values, (n, 1)) for tag in ARM_TAGS},
                               dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))
        self.payload_memo = {}  # scene_payloads' memo, for the batch
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
            noise = self.normals[:, column:column + 4]
            column += 4
            yaw = quat_from_axis_angle_rows(_WORLD_UP, noise[:, 3])
            self.scene.poses[name] = pose_rows(actor.pose.p + noise[:, :3], quat_mul_rows(yaw, actor.pose.q))

    def _endpoint_noise(self):
        column = self.columns[self.k][0]
        return self.normals[:, column:column + 3]

    # -- failures, events, snapshots ------------------------------------------

    def _fail(self, bad, category: str, message):
        """End the alive rows among `bad` with a failure of the current
        statement, in the state the statement has left so far. `message` is
        the text, or a function of the row giving it."""
        bad = bad & self.alive
        if bad.any():
            self.alive &= ~bad
            self._emit(_rows(bad), "failure", category, message)
            self._finish(bad, self.t + 1, self.statements[self.k])

    def _emit(self, rows, outcome: str, category: str, message):
        op = self.statements[self.k]
        stmt, t = op.stmt, self.t
        for r in rows:
            text = message(r) if callable(message) else message
            self.logs[r].events.append(SymbolicEvent(
                stmt.id, op.subgoal, stmt.name, op.args, outcome, category, text, t))

    def _snapshot(self, mask, step_name: str, t: int, last_op: _Statement | None):
        stmt_id, context = (last_op.stmt.id, last_op.text) if last_op is not None else (0, "")
        payloads = scene_payloads(self.scene, _rows(mask), self.payload_memo)
        for r, payload in zip(_rows(mask), payloads):  # a loop, not a comprehension: this runs per trial and snapshot
            self.logs[r].snapshots.append(Snapshot(step_name, stmt_id, self.subgoal, t, payload, context))

    def _finish(self, mask, t: int, last_op: _Statement | None):
        """The final snapshot (unless the last one was it) and the goal of
        the rows of the bool mask."""
        if self.last_step is not None and self.last_step != FINAL_STEP:
            self._snapshot(mask, FINAL_STEP, t, last_op)
        scene = self.scene
        finished = SceneRows({name: pose[mask] for name, pose in scene.poses.items()},
                             {tag: tcp[mask] for tag, tcp in scene.tcps.items()}, scene.holding, scene.grippers)
        for r, met in zip(_rows(mask), eval_predicate(self.spec.goal, self.spec, finished).tolist()):
            self.logs[r].goal_met = met

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
        scene = self.scene
        tcp = scene.tcps[tag] = pose_rows(p, scene.tcps[tag][:, 3:] if q is None else q)
        held = scene.holding[tag]
        if held is not None:
            scene.poses[held] = compose_rows(tcp, self.offsets[tag])

    def _release(self, tag: str):
        name, self.scene.holding[tag] = self.scene.holding[tag], None
        if name is not None:
            self._drop(name)

    def _drop(self, name: str):
        """Fall straight down onto the highest supporting surface beneath the
        actor's center, else onto the table. Boxes are axis-aligned at each
        actor's position: orientation is deliberately ignored."""
        pose, extent = self.scene.poses[name], self.spec.actors[name].extent
        p = pose[:, :3]
        lo, hi = p - extent, p + extent
        held = set(self.scene.holding.values())
        support_z = np.zeros(len(pose))
        for other, other_pose in self.scene.poses.items():
            if other == name or other in held:
                continue
            other_extent = self.spec.actors[other].extent
            other_p = other_pose[:, :3]
            other_lo, other_hi = other_p - other_extent, other_p + other_extent
            top = other_p[:, 2] + other_extent[2]
            under = ((lo[:, 0] < other_hi[:, 0]) & (other_lo[:, 0] < hi[:, 0])
                     & (lo[:, 1] < other_hi[:, 1]) & (other_lo[:, 1] < hi[:, 1]) & (top <= p[:, 2]))
            support_z = np.where(under & (top > support_z), top, support_z)  # max() keeps the first of equals
        landed = p.copy()
        landed[:, 2] = support_z + extent[2]
        self.scene.poses[name] = pose_rows(landed, pose[:, 3:])

    def _collision_check(self, tag: str, points, exclude: str):
        """points: (k, n, 3), checked in order, each against every actor."""
        held_name = self.scene.holding[tag]
        depths = {}
        for other, pose in self.scene.poses.items():
            if other == exclude or other == held_name:
                continue
            extent = self.spec.actors[other].extent
            p = pose[:, :3]
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
        self.scene.grippers[tag] = float(args["pos"])

    def _op_close_gripper(self, args):
        # Closing with nothing nearby is a deliberate no-op on the world.
        self._require_pos_range(args["pos"], "pos")
        self.scene.grippers[args["arm"]] = float(args["pos"])

    def _op_move_by_displacement(self, args):
        tag = args["arm"]
        tcp = self.scene.tcps[tag]
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
        scene = self.scene
        if scene.holding[tag] is not None:
            raise _Failure("invalid_call", f"{tag} arm is already holding {scene.holding[tag]!r}")
        self._require_pos_range(args["gripper_pos"], "gripper_pos")
        pose = scene.poses[actor.name]
        cid = args["contact_point_id"]
        if cid == "auto":
            # min() by (distance to the TCP, id): the first point unless a
            # later one is nearer, or as near with a lower id.
            tcp_p = scene.tcps[tag][:, :3]
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

        slipped = self.slips[:, self.columns[self.k][1]]

        self._move_tcp(tag, points[1])
        scene.grippers[tag] = float(args["gripper_pos"])
        self._fail(slipped, "grasp_slip", f"grasp of {actor.name!r} slipped (p={self.slip_p:.2f})")

        holder = scene.held_by(actor.name)
        if holder is not None:
            # Handover: the other gripper keeps its state but loses the object.
            scene.holding[holder] = None
        scene.holding[tag] = actor.name
        self.offsets[tag] = compose_rows(inverse_rows(scene.tcps[tag]), pose)
        self.approaches[tag] = approach

    def _op_place_actor(self, args):
        tag = args["arm"]
        actor = self.spec.actor(args["actor"])
        if self.scene.holding[tag] != actor.name:
            raise _Failure("not_held", f"actor {actor.name!r} is not held by the {tag} arm")
        offset, approach = self.offsets[tag], self.approaches[tag]

        target = args["target"]
        if isinstance(target, FpRef):
            local = self.spec.actor(target.actor).point("functional", target.point_id).pose
            target_pose = compose_rows(self.scene.poses[target.actor], local.values)
        elif isinstance(target, PoseLit):
            try:  # the parser and validator leave the quaternion's norm unchecked
                target_pose = np.tile(Pose.from_list(list(target.values)).values, (len(self.logs), 1))
            except ValueError as exc:
                raise _Failure("invalid_call", str(exc)) from None
        else:
            raise _Failure("invalid_call", f"bad place target {target!r}")

        fid = args["functional_point_id"]
        fp_local = np.array((Pose() if fid == "none" else actor.point("functional", fid).pose).values)

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
            fp_q = compose_rows(self.scene.poses[actor.name][free], fp_local)[:, 3:]
            current_z = quat_rotate_rows(fp_q, _WORLD_UP)
            target_z = quat_rotate_rows(target_pose[free, 3:], _WORLD_UP)
            desired_q[free] = quat_mul_rows(quat_between_rows(current_z, target_z), fp_q)

        noise = self._endpoint_noise()
        distances = np.array((args["pre_dis"], args["dis"]))[:, None, None]
        fp_p = target_pose[:, :3] + offset_dir * distances  # pre-place, intended
        intended_p = fp_p[1].copy()
        fp_p[1] += noise  # achieved
        fp_poses = pose_rows(fp_p, desired_q)
        tcp_targets = compose_rows(compose_rows(fp_poses, inverse_rows(fp_local)), inverse_rows(offset))

        self._require_reach(tag, tcp_targets[..., :3], f"placing {actor.name!r}")

        self._move_tcp(tag, tcp_targets[1, :, :3], tcp_targets[1, :, 3:])
        miss = norms(fp_p[1] - intended_p)
        if args["is_open"]:
            self._release(tag)
            self.scene.grippers[tag] = 1.0
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
                if self.t >= self.max_steps:
                    self._emit(_rows(self.alive), "failure", "runtime_limit",
                               f"step budget of {self.max_steps} exhausted")
                    break
                if stmt.name == "observe":
                    self.last_step = stmt.args["step_name"]
                    self._snapshot(self.alive, self.last_step, self.t, self.last_op)
                else:
                    try:
                        self._HANDLERS[stmt.name](self, stmt.args)
                    except (_Failure, UnknownActorError, UnknownPointError) as exc:
                        category = exc.category if isinstance(exc, _Failure) else "invalid_call"
                        self._fail(True, category, str(exc))
                    self._emit(_rows(self.alive), "success", "none", "")
                    self.last_op = op
                    if not self.alive.any():
                        return
                self.t += 1
            self._finish(self.alive, self.t, self.last_op)


def run_trials(
    program: Program,
    spec: TaskSpec,
    n: int,
    base_seed: int,
    noise_scale: float,
    max_steps: int,
) -> list[TrialLog]:
    """n independent trials, stepped through the program together; trial i
    runs on a fresh scene with seed base_seed + i. Pure in its inputs: a
    trial's serialized log depends on neither n nor the other trials, so it
    is the one trial of run_trials(program, spec, 1, base_seed + i, ...) with
    its trial_index set to i. The parameters are LoopConfig's, which declares
    their defaults and bounds.

    A trial's log depends on nothing but its perturbations, so trials whose
    perturbation rows are equal byte for byte run as one row: the first of
    them is simulated, and each other gets its `events` and `snapshots`
    lists (the same list objects) and its goal_met. At zero noise every
    perturbation is +0.0 and no grasp slips, so a batch is one row; every
    trial still makes its draws."""
    statements = _flatten(program)
    logs = [TrialLog(trial_index=i, seed=base_seed + i) for i in range(n)]
    normals, slips, columns = _perturbations(statements, spec, [log.seed for log in logs], noise_scale)
    group = {}  # perturbation bytes -> the first trial that has them
    firsts = [group.setdefault(row.tobytes() + slip.tobytes(), i) for i, (row, slip) in enumerate(zip(normals, slips))]
    rows = list(group.values())
    _Batch(statements, spec, [logs[r] for r in rows], (normals[rows], slips[rows], columns), noise_scale,
           max_steps).run()
    for log, first in zip(logs, firsts):
        if first != log.trial_index:
            log.events, log.snapshots, log.goal_met = logs[first].events, logs[first].snapshots, logs[first].goal_met
    return logs
