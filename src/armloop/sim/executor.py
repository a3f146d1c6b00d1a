"""Deterministic seeded interpreter for manipulation programs.

Kinematic, event-granular execution: every non-observe statement produces
exactly one symbolic event, execution stops at the first failure, and the
goal predicate is evaluated on the final scene either way. All randomness
comes from one per-trial generator with a frozen draw order, which is what
makes independent replay oracles possible:

    setup:        3 normals (position) + 1 normal (yaw) per non-static
                  actor, in task-file order
    grasp_actor:  3 normals (approach endpoint), then 1 uniform (slip)
    place_actor:  3 normals (placement endpoint)

Draws happen even at zero noise scale so the sequence never depends on the
noise configuration.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ..dsl.ast import CallStmt, FpRef, ParallelStmt, PoseLit, Program
from ..dsl.printer import render_args, render_call
from ..errors import UnknownActorError, UnknownPointError
from ..geometry import (Pose, Quat, Vec3, add, neg, norm, quat_between, quat_from_axis_angle,
                        quat_mul, scale, sub)
from ..instrument import FINAL_STEP
from ..scene import PointRef, Scene, TaskSpec, eval_predicate, resolve_point
from .model import Snapshot, SimConfig, SymbolicEvent, TrialLog, scene_state

# A grasp approach counts as vertical (for constrain=auto) when the world
# approach axis is within 45 degrees of vertical.
_VERTICAL_COS = math.cos(math.pi / 4)

_PENETRATION_LIMIT = 0.005

_WORLD_UP = (0.0, 0.0, 1.0)


class _Failure(Exception):
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


class _Grasp(NamedTuple):
    offset: Pose  # held actor's pose in the TCP frame
    approach: Vec3  # world grasp approach axis at grasp time


def _penetration(point: Vec3, aabb) -> float:
    lo, hi = aabb
    return min(min(p - l, h - p) for p, l, h in zip(point, lo, hi))


def _xy_overlap(a, b) -> bool:
    (alo, ahi), (blo, bhi) = a, b
    return alo[0] < bhi[0] and blo[0] < ahi[0] and alo[1] < bhi[1] and blo[1] < ahi[1]


class _Executor:
    def __init__(self, statements: list[_Statement], spec: TaskSpec, cfg: SimConfig, trial_index: int):
        self.statements = statements
        self.spec = spec
        self.cfg = cfg
        self.scene = Scene.from_spec(spec)
        self.rng = np.random.default_rng(cfg.seed)
        self.log = TrialLog(trial_index=trial_index, seed=cfg.seed)
        self.t = 0
        # Parameters of each arm's latest grasp; read only while it holds.
        self.grasps: dict[str, _Grasp] = {}
        self.last_op: _Statement | None = None
        self.current_subgoal = 1

    # -- noise -------------------------------------------------------------

    def _setup_noise(self):
        pos_sigma = self.spec.noise.pos_sigma * self.cfg.noise_scale
        rot_sigma = self.spec.noise.rot_sigma * self.cfg.noise_scale
        poses = self.scene.poses
        for name, actor in self.spec.actors.items():
            if actor.static:
                continue
            dp = scale(self.rng.normal(size=3).tolist(), pos_sigma)
            dyaw = float(self.rng.normal()) * rot_sigma
            poses[name] = Pose(
                add(poses[name].p, dp),
                quat_mul(quat_from_axis_angle(_WORLD_UP, dyaw), poses[name].q),
            )

    def _endpoint_noise(self) -> Vec3:
        return scale(self.rng.normal(size=3).tolist(),
                     self.spec.noise.pos_sigma * self.cfg.noise_scale)

    # -- state helpers -------------------------------------------------------

    def _arm(self, tag: str):
        return self.scene.arms[tag]

    def _require_reach(self, tag: str, p: Vec3, action: str | None = None):
        if self.spec.in_workspace(tag, p):
            return
        at = f"[{p[0]:.3f}, {p[1]:.3f}, {p[2]:.3f}]"
        raise _Failure("unreachable", f"{action} needs {tag} arm at {at}, outside workspace"
                       if action else f"{tag} arm target {at} outside workspace")

    def _move_tcp(self, tag: str, p: Vec3, q: Quat | None = None):
        """The only writer of a TCP and of a held actor's pose, so a held
        actor is at tcp o grasp offset by construction."""
        self._require_reach(tag, p)
        arm = self._arm(tag)
        arm.tcp = Pose(p, arm.tcp.q if q is None else q)
        if arm.holding is not None:
            self.scene.poses[arm.holding] = arm.tcp.compose(self.grasps[tag].offset)

    def _release(self, tag: str):
        arm = self._arm(tag)
        name, arm.holding = arm.holding, None
        if name is not None:
            self._drop(name)

    def _drop(self, name: str):
        """Fall straight down onto the highest supporting surface beneath the
        actor's center, else onto the table."""
        scene = self.scene
        pose, aabb = scene.poses[name], scene.world_aabb(name)
        held = {arm.holding for arm in scene.arms.values()}
        support_z = 0.0
        for other in scene.poses:
            if other == name or other in held:
                continue
            top = scene.top_z(other)
            if _xy_overlap(aabb, scene.world_aabb(other)) and top <= pose.p[2]:
                support_z = max(support_z, top)
        x, y, _ = pose.p
        scene.poses[name] = Pose((x, y, support_z + self.spec.actors[name].extent[2]), pose.q)

    def _collision_check(self, tag: str, points, exclude: str):
        held_name = self._arm(tag).holding
        for point in points:
            for other in self.scene.poses:
                if other == exclude or other == held_name:
                    continue
                depth = _penetration(point, self.scene.world_aabb(other))
                if depth > _PENETRATION_LIMIT:
                    raise _Failure(
                        "collision",
                        f"{tag} arm path endpoint penetrates {other!r} by {depth * 1000:.1f} mm",
                    )

    # -- statement handlers --------------------------------------------------

    def _require_pos_range(self, value: float, name: str):
        if value < 0.0 or value > 1.0:
            raise _Failure("invalid_call", f"{name}={value} outside [0, 1]")

    def _op_open_gripper(self, args):
        self._require_pos_range(args["pos"], "pos")
        tag = args["arm"]
        self._release(tag)
        self._arm(tag).gripper = float(args["pos"])

    def _op_close_gripper(self, args):
        # Closing with nothing nearby is a deliberate no-op on the world.
        self._require_pos_range(args["pos"], "pos")
        self._arm(args["arm"]).gripper = float(args["pos"])

    def _op_move_by_displacement(self, args):
        tag = args["arm"]
        arm = self._arm(tag)
        d = (args["x"], args["y"], args["z"])
        if args["move_axis"] == "arm":
            d = arm.tcp.rotate(d)
        self._move_tcp(tag, add(arm.tcp.p, d))

    def _op_back_to_origin(self, args):
        tag = args["arm"]
        home = self.spec.homes[tag]
        self._move_tcp(tag, home.p, home.q)

    def _op_grasp_actor(self, args):
        tag = args["arm"]
        arm = self._arm(tag)
        actor = self.scene.actor(args["actor"])
        if actor.static:
            raise _Failure("invalid_call", f"actor {actor.name!r} is static and cannot be grasped")
        if arm.holding is not None:
            raise _Failure("invalid_call", f"{tag} arm is already holding {arm.holding!r}")
        self._require_pos_range(args["gripper_pos"], "gripper_pos")
        pose = self.scene.poses[actor.name]
        cid = args["contact_point_id"]
        if cid == "auto":
            contact = min(
                actor.contact_points,
                key=lambda pt: (norm(sub(pose.apply(pt.pose.p), arm.tcp.p)), pt.id),
            )
        else:
            contact = actor.point("contact", cid)

        contact_p = pose.apply(contact.pose.p)
        approach = self.scene.world_axis(actor.name, "grasp")
        noise = self._endpoint_noise()
        pre_p = add(sub(contact_p, scale(approach, args["pre_grasp_dis"])), noise)
        final_p = add(sub(contact_p, scale(approach, args["grasp_dis"])), noise)

        for point in (pre_p, final_p):
            self._require_reach(tag, point, f"grasp of {actor.name!r}")
        self._collision_check(tag, (pre_p, final_p), exclude=actor.name)

        slip_draw = float(self.rng.uniform())
        slip_p = self.spec.noise.slip_base * self.cfg.noise_scale

        self._move_tcp(tag, final_p)
        arm.gripper = float(args["gripper_pos"])
        if slip_draw < slip_p:
            raise _Failure("grasp_slip", f"grasp of {actor.name!r} slipped (p={slip_p:.2f})")

        holder = self.scene.held_by(actor.name)
        if holder is not None:
            # Handover: the other gripper keeps its state but loses the object.
            self._arm(holder).holding = None
        arm.holding = actor.name
        self.grasps[tag] = _Grasp(arm.tcp.inverse().compose(pose), approach)

    def _op_place_actor(self, args):
        tag = args["arm"]
        arm = self._arm(tag)
        actor = self.scene.actor(args["actor"])
        if arm.holding != actor.name:
            raise _Failure("not_held", f"actor {actor.name!r} is not held by the {tag} arm")
        grasp = self.grasps[tag]

        target = args["target"]
        if isinstance(target, FpRef):
            target_pose = resolve_point(self.scene, PointRef(target.actor, "functional", target.point_id))
        elif isinstance(target, PoseLit):
            try:  # the parser and validator leave the quaternion's norm unchecked
                target_pose = Pose.from_list(list(target.values))
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
            offset_dir = target_pose.rotate(_WORLD_UP)
        else:
            offset_dir = neg(grasp.approach)

        constrain = args["constrain"]
        if constrain == "auto":
            constrain = "align" if abs(grasp.approach[2]) >= _VERTICAL_COS else "free"
        fp_world = self.scene.poses[actor.name].compose(fp_local)
        if constrain == "align":
            desired_q = target_pose.q
        else:  # free: match z-axes only, keep the rest of the current orientation
            current_z = fp_world.rotate(_WORLD_UP)
            target_z = target_pose.rotate(_WORLD_UP)
            desired_q = quat_mul(quat_between(current_z, target_z), fp_world.q)

        noise = self._endpoint_noise()
        intended_p = add(target_pose.p, scale(offset_dir, args["dis"]))
        achieved_p = add(intended_p, noise)
        pre_fp = Pose(add(target_pose.p, scale(offset_dir, args["pre_dis"])), desired_q)
        final_fp = Pose(achieved_p, desired_q)

        inv_fp_local = fp_local.inverse()
        inv_offset = grasp.offset.inverse()
        tcp_targets = []
        for fp_pose in (pre_fp, final_fp):
            actor_pose = fp_pose.compose(inv_fp_local)
            tcp_targets.append(actor_pose.compose(inv_offset))

        for tcp_pose in tcp_targets:
            self._require_reach(tag, tcp_pose.p, f"placing {actor.name!r}")

        self._move_tcp(tag, tcp_targets[1].p, tcp_targets[1].q)
        miss = norm(sub(achieved_p, intended_p))
        if args["is_open"]:
            self._release(tag)
            arm.gripper = 1.0
        if miss > self.spec.place_tolerance:
            raise _Failure(
                "placement_miss",
                f"functional point of {actor.name!r} ended {miss * 1000:.1f} mm from target "
                f"(tolerance {self.spec.place_tolerance * 1000:.0f} mm)",
            )

    def _op_observe(self, args):
        last = self.last_op
        self.log.snapshots.append(
            Snapshot(
                step_name=args["step_name"],
                stmt_id=last.stmt.id if last is not None else 0,
                subgoal_index=self.current_subgoal,
                t=self.t,
                scene=scene_state(self.scene),
                program_context=last.text if last is not None else "",
            )
        )

    _HANDLERS = {
        "open_gripper": _op_open_gripper,
        "close_gripper": _op_close_gripper,
        "move_by_displacement": _op_move_by_displacement,
        "back_to_origin": _op_back_to_origin,
        "grasp_actor": _op_grasp_actor,
        "place_actor": _op_place_actor,
        "observe": _op_observe,
    }

    # -- main loop -----------------------------------------------------------

    def _emit(self, op: _Statement, outcome: str, category: str, message: str):
        self.log.events.append(
            SymbolicEvent(
                stmt_id=op.stmt.id,
                subgoal_index=op.subgoal,
                op_name=op.stmt.name,
                args=dict(op.args),
                outcome=outcome,
                error_category=category,
                message=message,
                t=self.t,
            )
        )

    def run(self) -> TrialLog:
        self._setup_noise()
        for op in self.statements:
            stmt = op.stmt
            self.current_subgoal = op.subgoal
            if self.t >= self.cfg.max_steps:
                self._emit(op, "failure", "runtime_limit", f"step budget of {self.cfg.max_steps} exhausted")
                break
            if stmt.name == "observe":
                self._op_observe(stmt.args)
            else:
                try:
                    self._HANDLERS[stmt.name](self, stmt.args)
                except (_Failure, UnknownActorError, UnknownPointError) as exc:
                    category = exc.category if isinstance(exc, _Failure) else "invalid_call"
                    self._emit(op, "failure", category, str(exc))
                    self.last_op = op
                    self.t += 1
                    break
                self._emit(op, "success", "none", "")
                self.last_op = op
            self.t += 1

        if self.log.snapshots and self.log.snapshots[-1].step_name != FINAL_STEP:
            self._op_observe({"step_name": FINAL_STEP})
            self.t += 1

        self.log.goal_met = eval_predicate(self.spec.goal, self.scene)
        self.log.final_scene = self.scene
        return self.log


def execute(program: Program, spec: TaskSpec, cfg: SimConfig, trial_index: int = 0) -> TrialLog:
    """Run one trial. Pure in (program, spec, cfg): identical inputs yield
    bit-identical serialized logs."""
    return _Executor(_flatten(program), spec, cfg, trial_index).run()


def run_trials(
    program: Program,
    spec: TaskSpec,
    n: int,
    base_seed: int,
    noise_scale: float = 0.0,
    max_steps: int = 200,
) -> list[TrialLog]:
    """n independent trials; trial i runs on a fresh scene with seed
    base_seed + i. The program is flattened and rendered once for all n."""
    if n < 1:
        raise ValueError("need at least one trial")
    statements = _flatten(program)
    return [
        _Executor(
            statements,
            spec,
            SimConfig(seed=base_seed + i, noise_scale=noise_scale, max_steps=max_steps),
            trial_index=i,
        ).run()
        for i in range(n)
    ]
