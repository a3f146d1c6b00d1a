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

import numpy as np

from ..dsl.ast import CallStmt, FpRef, ParallelStmt, PoseLit, Program
from ..dsl.printer import render_args, render_call
from ..errors import UnknownActorError, UnknownPointError
from ..geometry import Pose, quat_between, quat_from_axis_angle, quat_mul
from ..instrument import FINAL_STEP
from ..scene import Actor, Scene, TaskSpec, eval_predicate
from .model import Snapshot, SimConfig, SymbolicEvent, TrialLog, scene_state

# A grasp approach counts as vertical (for constrain=auto) when the world
# approach axis is within 45 degrees of vertical.
_VERTICAL_COS = np.cos(np.pi / 4)

_PENETRATION_LIMIT = 0.005

_WORLD_UP = np.array([0.0, 0.0, 1.0])


class _Failure(Exception):
    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


def _penetration(point: np.ndarray, actor: Actor) -> float:
    lo, hi = actor.world_aabb()
    depths = np.minimum(point - lo, hi - point)
    return float(depths.min())


def _xy_overlap(a: Actor, b: Actor) -> bool:
    alo, ahi = a.world_aabb()
    blo, bhi = b.world_aabb()
    return bool((alo[0] < bhi[0]) and (blo[0] < ahi[0]) and (alo[1] < bhi[1]) and (blo[1] < ahi[1]))


class _Executor:
    def __init__(self, program: Program, spec: TaskSpec, cfg: SimConfig, trial_index: int):
        self.program = program
        self.spec = spec
        self.cfg = cfg
        self.scene = Scene.from_spec(spec)
        self.rng = np.random.default_rng(cfg.seed)
        self.log = TrialLog(trial_index=trial_index, seed=cfg.seed)
        self.t = 0
        self.holding: dict[str, tuple[str, Pose]] = {}  # arm -> (actor, offset)
        self.grasp_vertical: dict[str, bool] = {}
        self.grasp_approach: dict[str, np.ndarray] = {}
        self.last_op: CallStmt | None = None
        self.current_subgoal = 1

    # -- noise -------------------------------------------------------------

    def _setup_noise(self):
        pos_sigma = self.spec.noise.pos_sigma * self.cfg.noise_scale
        rot_sigma = self.spec.noise.rot_sigma * self.cfg.noise_scale
        for template in self.spec.actors:
            if template.static:
                continue
            actor = self.scene.actor(template.name)
            dp = self.rng.normal(size=3) * pos_sigma
            dyaw = float(self.rng.normal()) * rot_sigma
            actor.pose = Pose(
                actor.pose.p + dp,
                quat_mul(quat_from_axis_angle(_WORLD_UP, dyaw), actor.pose.q),
            )

    def _endpoint_noise(self) -> np.ndarray:
        return self.rng.normal(size=3) * (self.spec.noise.pos_sigma * self.cfg.noise_scale)

    # -- state helpers -------------------------------------------------------

    def _arm(self, tag: str):
        return self.scene.arms[tag]

    def _move_tcp(self, tag: str, p: np.ndarray, q: np.ndarray | None = None):
        arm = self._arm(tag)
        if not arm.in_workspace(p):
            raise _Failure(
                "unreachable",
                f"{tag} arm target [{p[0]:.3f}, {p[1]:.3f}, {p[2]:.3f}] outside workspace",
            )
        arm.tcp = Pose(p, arm.tcp.q if q is None else q)
        self._carry(tag)

    def _carry(self, tag: str):
        held = self.holding.get(tag)
        if held is None:
            return
        name, offset = held
        self.scene.actor(name).pose = self._arm(tag).tcp.compose(offset)

    def _check_invariants(self):
        for tag, (name, offset) in self.holding.items():
            actor = self.scene.actor(name)
            expected = self._arm(tag).tcp.compose(offset)
            if not actor.pose.approx_equal(expected, tol=1e-9):
                raise AssertionError(f"held actor {name} diverged from {tag} gripper")

    def _release(self, tag: str):
        held = self.holding.pop(tag, None)
        if held is None:
            return
        name, _ = held
        actor = self.scene.actor(name)
        actor.held_by = None
        self._drop(actor)

    def _drop(self, actor: Actor):
        """Fall straight down onto the highest supporting surface beneath the
        actor's center, else onto the table."""
        support_z = 0.0
        for other in self.scene.actors.values():
            if other is actor or other.held_by is not None:
                continue
            if _xy_overlap(actor, other) and other.top_z() <= actor.pose.p[2]:
                support_z = max(support_z, other.top_z())
        new_p = actor.pose.p.copy()
        new_p[2] = support_z + float(actor.extent[2])
        actor.pose = Pose(new_p, actor.pose.q)

    def _collision_check(self, tag: str, points, exclude: set[str]):
        held_name = self.holding.get(tag, (None, None))[0]
        for point in points:
            for other in self.scene.actors.values():
                if other.name in exclude or other.name == held_name:
                    continue
                depth = _penetration(np.asarray(point), other)
                if depth > _PENETRATION_LIMIT:
                    raise _Failure(
                        "collision",
                        f"{tag} arm path endpoint penetrates {other.name!r} by {depth * 1000:.1f} mm",
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
        d = np.array([args["x"], args["y"], args["z"]], dtype=float)
        if args["move_axis"] == "arm":
            d = arm.tcp.rotate(d)
        self._move_tcp(tag, arm.tcp.p + d)

    def _op_back_to_origin(self, args):
        tag = args["arm"]
        home = self._arm(tag).home
        self._move_tcp(tag, home.p.copy(), home.q.copy())

    def _op_grasp_actor(self, args):
        tag = args["arm"]
        actor = self.scene.actor(args["actor"])
        if actor.static:
            raise _Failure("invalid_call", f"actor {actor.name!r} is static and cannot be grasped")
        if tag in self.holding:
            raise _Failure("invalid_call", f"{tag} arm is already holding {self.holding[tag][0]!r}")
        self._require_pos_range(args["gripper_pos"], "gripper_pos")
        cid = args["contact_point_id"]
        if cid == "auto":
            tcp_p = self._arm(tag).tcp.p
            contact = min(
                actor.contact_points,
                key=lambda pt: (float(np.linalg.norm(actor.pose.compose(pt.pose).p - tcp_p)), pt.id),
            )
        else:
            contact = actor.point("contact", cid)

        contact_world = actor.pose.compose(contact.pose)
        approach = actor.world_axis("grasp")
        noise = self._endpoint_noise()
        pre_p = contact_world.p - approach * args["pre_grasp_dis"] + noise
        final_p = contact_world.p - approach * args["grasp_dis"] + noise

        arm = self._arm(tag)
        for point in (pre_p, final_p):
            if not arm.in_workspace(point):
                raise _Failure(
                    "unreachable",
                    f"grasp of {actor.name!r} needs {tag} arm at "
                    f"[{point[0]:.3f}, {point[1]:.3f}, {point[2]:.3f}], outside workspace",
                )
        self._collision_check(tag, (pre_p, final_p), exclude={actor.name})

        slip_draw = float(self.rng.uniform())
        slip_p = self.spec.noise.slip_base * self.cfg.noise_scale

        self._move_tcp(tag, final_p)
        arm.gripper = float(args["gripper_pos"])
        if slip_draw < slip_p:
            raise _Failure("grasp_slip", f"grasp of {actor.name!r} slipped (p={slip_p:.2f})")

        if actor.held_by is not None:
            # Handover: the other gripper keeps its state but loses the object.
            self.holding.pop(actor.held_by, None)
        actor.held_by = tag
        offset = arm.tcp.inverse().compose(actor.pose)
        self.holding[tag] = (actor.name, offset)
        self.grasp_vertical[tag] = abs(float(approach[2])) >= _VERTICAL_COS
        self.grasp_approach[tag] = approach.copy()

    def _op_place_actor(self, args):
        tag = args["arm"]
        actor = self.scene.actor(args["actor"])
        if actor.held_by != tag:
            raise _Failure("not_held", f"actor {actor.name!r} is not held by the {tag} arm")

        target = args["target"]
        if isinstance(target, FpRef):
            target_actor = self.scene.actor(target.actor)
            target_pose = target_actor.pose.compose(
                target_actor.point("functional", target.point_id).pose
            )
        elif isinstance(target, PoseLit):
            target_pose = Pose.from_list(list(target.values))
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
            approach = self.grasp_approach.get(tag)
            offset_dir = -approach if approach is not None else _WORLD_UP.copy()

        constrain = args["constrain"]
        if constrain == "auto":
            constrain = "align" if self.grasp_vertical.get(tag, True) else "free"
        fp_world = actor.pose.compose(fp_local)
        if constrain == "align":
            desired_q = target_pose.q.copy()
        else:  # free: match z-axes only, keep the rest of the current orientation
            current_z = fp_world.rotate(_WORLD_UP)
            target_z = target_pose.rotate(_WORLD_UP)
            desired_q = quat_mul(quat_between(current_z, target_z), fp_world.q)

        noise = self._endpoint_noise()
        intended_p = target_pose.p + offset_dir * args["dis"]
        achieved_p = intended_p + noise
        pre_fp = Pose(target_pose.p + offset_dir * args["pre_dis"], desired_q)
        final_fp = Pose(achieved_p, desired_q)

        _, grasp_offset = self.holding[tag]
        inv_fp_local = fp_local.inverse()
        inv_offset = grasp_offset.inverse()
        tcp_targets = []
        for fp_pose in (pre_fp, final_fp):
            actor_pose = fp_pose.compose(inv_fp_local)
            tcp_targets.append(actor_pose.compose(inv_offset))

        arm = self._arm(tag)
        for tcp_pose in tcp_targets:
            if not arm.in_workspace(tcp_pose.p):
                raise _Failure(
                    "unreachable",
                    f"placing {actor.name!r} needs {tag} arm at "
                    f"[{tcp_pose.p[0]:.3f}, {tcp_pose.p[1]:.3f}, {tcp_pose.p[2]:.3f}], outside workspace",
                )

        self._move_tcp(tag, tcp_targets[1].p, tcp_targets[1].q)
        miss = float(np.linalg.norm(achieved_p - intended_p))
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
        context = render_call(self.last_op) if self.last_op is not None else ""
        self.log.snapshots.append(
            Snapshot(
                step_name=args["step_name"],
                stmt_id=self.last_op.id if self.last_op is not None else 0,
                subgoal_index=self.current_subgoal,
                t=self.t,
                scene=scene_state(self.scene),
                program_context=context,
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

    def _flat_statements(self):
        """Execution order: parallel branches interleaved, left arm first."""
        for sg in self.program.subgoals:
            for stmt in sg.statements:
                if isinstance(stmt, ParallelStmt):
                    for i in range(max(len(stmt.left), len(stmt.right))):
                        if i < len(stmt.left):
                            yield sg.index, stmt.left[i]
                        if i < len(stmt.right):
                            yield sg.index, stmt.right[i]
                else:
                    yield sg.index, stmt

    def _emit(self, stmt: CallStmt, subgoal: int, outcome: str, category: str, message: str):
        self.log.events.append(
            SymbolicEvent(
                stmt_id=stmt.id,
                subgoal_index=subgoal,
                op_name=stmt.name,
                args=render_args(stmt),
                outcome=outcome,
                error_category=category,
                message=message,
                t=self.t,
            )
        )

    def run(self) -> TrialLog:
        self._setup_noise()
        for subgoal, stmt in self._flat_statements():
            self.current_subgoal = subgoal
            if self.t >= self.cfg.max_steps:
                self._emit(stmt, subgoal, "failure", "runtime_limit",
                           f"step budget of {self.cfg.max_steps} exhausted")
                break
            if stmt.name == "observe":
                self._op_observe(stmt.args)
            else:
                try:
                    self._HANDLERS[stmt.name](self, stmt.args)
                except (_Failure, UnknownActorError, UnknownPointError) as exc:
                    category = exc.category if isinstance(exc, _Failure) else "invalid_call"
                    self._emit(stmt, subgoal, "failure", category, str(exc))
                    self.last_op = stmt
                    self.t += 1
                    break
                self._emit(stmt, subgoal, "success", "none", "")
                self.last_op = stmt
                self._check_invariants()
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
    return _Executor(program, spec, cfg, trial_index).run()


def run_trials(
    program: Program,
    spec: TaskSpec,
    n: int,
    base_seed: int,
    noise_scale: float = 0.0,
    max_steps: int = 200,
) -> list[TrialLog]:
    """n independent trials; trial i runs on a fresh scene with seed
    base_seed + i."""
    if n < 1:
        raise ValueError("need at least one trial")
    return [
        execute(
            program,
            spec,
            SimConfig(seed=base_seed + i, noise_scale=noise_scale, max_steps=max_steps),
            trial_index=i,
        )
        for i in range(n)
    ]
