import collections
import dataclasses
import hashlib
import json
import math
import operator
import random
import re
from pathlib import Path

import numpy as np
import pytest

from armloop.dsl import parse
from armloop.dsl.ast import API_SIGNATURES, CallStmt, PoseLit
from armloop.errors import ArtifactError
from armloop.geometry import Pose, compose_rows, inverse_rows, quat_from_axis_angle_rows, quat_rotate_rows
from armloop.instrument import insert_observations
from armloop.scene import AXIS_CATEGORIES, POINT_CATEGORIES, NoiseSpec, eval_predicate, load_task_spec
from armloop.sim import (
    Snapshot, SymbolicEvent, TrialLog, dump_trials, dumps_trial, load_trials, run_trials,
    scene_from_state,
)
from armloop.sim import executor, model
from armloop.sim.model import trial_records

from conftest import TASK_NAMES, one_trial, program_path, task_path


def _correct(task="place_shoe"):
    return insert_observations(parse(program_path(task, "correct").read_text()), cap=10)


def _final_scene(spec, log):
    """The trial's final state, as its final snapshot records it."""
    assert log.snapshots[-1].step_name == "final_scene_state"
    return scene_from_state(spec, log.snapshots[-1].scene)


def _approx_equal(a, b, tol: float) -> bool:
    """Same rigid transform within tol (q and -q encode the same rotation)
    for poses as 7-rows."""
    return np.allclose(a[..., :3], b[..., :3], atol=tol) and (
        np.allclose(a[..., 3:], b[..., 3:], atol=tol) or np.allclose(a[..., 3:], -b[..., 3:], atol=tol))


def _row(values):
    """A snapshot's pose as a (1, 7) row."""
    return np.array([Pose.from_list(values).values])


def test_zero_noise_success(place_shoe_spec):
    log = one_trial(_correct(), place_shoe_spec, 7)
    assert log.goal_met
    assert all(ev.outcome == "success" for ev in log.events)


def test_shrunk_workspace_unreachable(tmp_path, place_shoe_spec):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["workspaces"] = {"left": {"x": [-0.15, 0.05], "y": [-0.15, 0.45], "z": [0.0, 0.5]}}
    path = tmp_path / "shrunk.task.json"
    path.write_text(json.dumps(raw))
    spec = load_task_spec(path)
    log = one_trial(_correct(), spec, 7)
    failure = log.failure_event
    assert failure is not None
    assert failure.error_category == "unreachable"
    assert failure.op_name == "grasp_actor"
    assert not log.goal_met


def test_execute_deterministic_bytes(place_shoe_spec):
    a = dumps_trial(one_trial(_correct(), place_shoe_spec, 7, noise_scale=1.0))
    b = dumps_trial(one_trial(_correct(), place_shoe_spec, 7, noise_scale=1.0))
    assert a == b


def test_fail_fast_no_success_after_failure(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "loud").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    outcomes = [ev.outcome for ev in log.events]
    assert "failure" in outcomes
    assert outcomes.index("failure") == len(outcomes) - 1


def test_run_trials_seeds_and_indices(place_shoe_spec):
    logs = run_trials(_correct(), place_shoe_spec, 10, base_seed=50, noise_scale=0.0, max_steps=200)
    assert [log.seed for log in logs] == list(range(50, 60))
    assert [log.trial_index for log in logs] == list(range(10))
    assert sum(log.goal_met for log in logs) == 10


def test_batch_trial_is_the_trial_run_alone():
    # The trials of a batch step together; each must still be what it is
    # alone, also when others in its batch fail at other statements.
    mixed = []
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            for noise in (0.0, 1.0):
                logs = run_trials(program, spec, 20, base_seed=0, noise_scale=noise, max_steps=200)
                for i, log in enumerate(logs):
                    alone = one_trial(program, spec, i, noise_scale=noise)
                    assert dumps_trial(log) == dumps_trial(dataclasses.replace(alone, trial_index=i)), (
                        task, kind, noise, i)
                failed_at = {log.failure_event.stmt_id for log in logs if log.failure_event is not None}
                if len(failed_at) > 1 and any(log.failure_event is None for log in logs):
                    mixed.append((task, kind, noise))
    assert mixed  # some batch lost rows at different statements and kept others to the end


def _mutated(program, rng: random.Random):
    """The program with random values for some of its calls' distances,
    displacements, targets and modes; actors and arms are kept."""
    choices = {"move_axis": ("world", "arm"), "constrain": ("auto", "free", "align"),
               "pre_dis_axis": ("grasp", "fp"), "is_open": (True, False),
               "contact_point_id": ("auto", 0, 1), "functional_point_id": ("none", 0, 1)}
    for stmt in program.walk():
        if not isinstance(stmt, CallStmt):
            continue
        for param in API_SIGNATURES[stmt.name]:
            if rng.random() < 0.6:
                continue
            if param.kind == "num":
                stmt.args[param.name] = round(rng.uniform(-0.12, 0.12), 3)
            elif param.name == "target":
                xyz = (rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.2))
                stmt.args[param.name] = PoseLit(tuple(round(c, 3) for c in xyz) + (0.0, 0.0, 0.0, 1.0))
            elif param.name in choices:
                stmt.args[param.name] = rng.choice(choices[param.name])
    return program


def test_batch_trial_is_the_trial_run_alone_on_mutated_programs():
    # Rows of one batch that fail in every way a row can: out of reach, in
    # collision, slipping, missing the placement.
    rng = random.Random(8)
    mixed = collections.Counter()
    for k in range(120):
        task = TASK_NAMES[k % len(TASK_NAMES)]
        spec = load_task_spec(task_path(task))
        kind = rng.choice(("correct", "loud", "silent"))
        program = insert_observations(_mutated(parse(program_path(task, kind).read_text()), rng), cap=1000)
        noise = rng.choice((0.0, 1.0, 5.0))
        logs = run_trials(program, spec, 12, base_seed=k, noise_scale=noise, max_steps=200)
        for i, log in enumerate(logs):
            alone = one_trial(program, spec, k + i, noise_scale=noise)
            assert dumps_trial(log) == dumps_trial(dataclasses.replace(alone, trial_index=i)), (task, kind, k, i)
        ends = {(log.failure_event.error_category, log.failure_event.stmt_id) if log.failure_event else None
                for log in logs}
        if len(ends) > 1:
            mixed.update(end[0] for end in ends if end is not None)
    assert {"unreachable", "collision", "grasp_slip", "placement_miss"} <= set(mixed)


def test_equal_perturbations_share_one_row_at_noise_0():
    # Every perturbation is +0.0 and no grasp slips: a batch is one row, and
    # every trial holds the first one's lists under its own index and seed.
    spec = load_task_spec(task_path("stack_blocks_three"))
    logs = run_trials(_correct("stack_blocks_three"), spec, 10, base_seed=0, noise_scale=0.0, max_steps=200)
    assert [(log.trial_index, log.seed) for log in logs] == [(i, i) for i in range(10)]
    for log in logs:
        assert log.events is logs[0].events and log.snapshots is logs[0].snapshots
        assert log.goal_met == logs[0].goal_met


def test_distinct_perturbations_share_nothing_at_noise_1():
    spec = load_task_spec(task_path("stack_blocks_three"))
    logs = run_trials(_correct("stack_blocks_three"), spec, 10, base_seed=0, noise_scale=1.0, max_steps=200)
    assert len({id(log.events) for log in logs}) == len({id(log.snapshots) for log in logs}) == 10


def test_perturbations_equal_but_for_the_sign_of_zero_share_one_row(tmp_path):
    # Zero sigmas turn each normal draw into a zero of the draw's sign; a
    # grasp still slips with p = 0.5, so the trials differ in their slips
    # only. Trials share their lists exactly when they slip alike, and each
    # is still what it is when run alone.
    raw = json.loads(task_path("place_shoe").read_text())
    raw["noise"] = {"pos_sigma": 0.0, "rot_sigma": 0.0, "slip_base": 0.5}
    path = tmp_path / "zero_sigma.task.json"
    path.write_text(json.dumps(raw))
    spec = load_task_spec(path)
    logs = run_trials(_correct(), spec, 12, base_seed=0, noise_scale=1.0, max_steps=200)
    slipped = [log.failure_event is not None for log in logs]
    assert 0 < sum(slipped) < len(logs)
    assert any(np.random.default_rng(i).normal() < 0 for i in range(12))  # some draws are negative
    for log in logs:
        first = logs[slipped.index(slipped[log.trial_index])]
        assert log.events is first.events and log.snapshots is first.snapshots, log.trial_index
        alone = one_trial(_correct(), spec, log.trial_index, noise_scale=1.0)
        assert dumps_trial(log) == dumps_trial(dataclasses.replace(alone, trial_index=log.trial_index))


def test_run_trials_single(place_shoe_spec):
    logs = run_trials(_correct(), place_shoe_spec, 1, base_seed=3, noise_scale=0.0, max_steps=200)
    assert len(logs) == 1
    assert logs[0].trial_index == 0


def test_slip_and_goal_replay_oracle(tmp_path):
    # Independent replay of the frozen per-trial draw order:
    # 4 setup normals per non-static actor, then per grasp 3 normals and one
    # slip uniform, then per place 3 endpoint normals.
    raw = json.loads(task_path("place_shoe").read_text())
    raw["noise"]["slip_base"] = 0.5
    path = tmp_path / "slippery.task.json"
    path.write_text(json.dumps(raw))
    spec = load_task_spec(path)
    n, base_seed = 40, 123
    logs = run_trials(_correct(), spec, n, base_seed, noise_scale=1.0, max_steps=200)

    predicted_goal = []
    predicted_slips = 0
    for i in range(n):
        rng = np.random.default_rng(base_seed + i)
        rng.normal(size=3)  # shoe position perturbation
        rng.normal()  # shoe yaw perturbation
        rng.normal(size=3)  # grasp endpoint
        slip = float(rng.uniform()) < 0.5 * 1.0
        if slip:
            predicted_slips += 1
            predicted_goal.append(False)
            continue
        place_noise = rng.normal(size=3) * spec.noise.pos_sigma
        predicted_goal.append(bool(np.linalg.norm(place_noise) <= spec.place_tolerance))

    actual_slips = sum(
        1 for log in logs
        if log.failure_event is not None and log.failure_event.error_category == "grasp_slip"
    )
    assert actual_slips == predicted_slips
    assert [log.goal_met for log in logs] == predicted_goal
    assert 0 < actual_slips < n  # the draw actually exercised both branches


def test_nan_target_is_unreachable(place_shoe_spec):
    # A yaw sigma this large overflows some setup draws to inf, which leaves
    # the shoe's orientation nan; a nan coordinate is outside every workspace.
    # The task loader rejects such a sigma, so the spec is built around it.
    noise = place_shoe_spec.noise
    spec = dataclasses.replace(place_shoe_spec, noise=NoiseSpec(noise.pos_sigma, 1e308, noise.slip_base))
    logs = run_trials(_correct(), spec, 40, base_seed=0, noise_scale=1.0, max_steps=200)
    nan_trials = [log for log in logs if any(map(math.isnan, log.snapshots[0].scene["actors"]["shoe"]["pose"]))]
    assert nan_trials
    for log in logs:
        for snap in log.snapshots:
            for arm in snap.scene["arms"].values():
                assert not any(map(math.isnan, arm["tcp"])), (log.trial_index, snap.step_name)
    for log in nan_trials:
        assert log.failure_event.error_category == "unreachable", log.trial_index
        assert not log.goal_met


def test_largest_noise_the_loader_accepts_stays_finite(tmp_path):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["noise"].update(pos_sigma=1.0, rot_sigma=math.pi)
    path = tmp_path / "widest.task.json"
    path.write_text(json.dumps(raw))
    logs = run_trials(_correct(), load_task_spec(path), 40, base_seed=0, noise_scale=100.0, max_steps=200)
    text = "".join(map(dumps_trial, logs))
    assert "NaN" not in text and "Infinity" not in text


def test_silent_failure_has_no_failure_event(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "silent").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    assert log.failure_event is None
    assert not log.goal_met


def test_drop_rule_to_table_and_support(place_shoe_spec):
    text = (
        "program t\n"
        'subgoal "grab"\n'
        "  grasp_actor(shoe, left)\n"
        "  move_by_displacement(left, z=0.2)\n"
        "  move_by_displacement(left, x=0.1, y=0.1)\n"
        "  open_gripper(left)\n"
    )
    final = _final_scene(place_shoe_spec, one_trial(insert_observations(parse(text), cap=10), place_shoe_spec, 0))
    # Dropped above the block at (-0.1, 0.2): lands on its top face.
    assert np.allclose(final.poses["shoe"][0, :3], [-0.1, 0.2, 0.06], atol=1e-9)
    assert final.held_by("shoe") is None

    text_table = (
        "program t\n"
        'subgoal "grab"\n'
        "  grasp_actor(shoe, left)\n"
        "  move_by_displacement(left, z=0.2)\n"
        "  move_by_displacement(left, y=0.2)\n"
        "  open_gripper(left)\n"
    )
    final = _final_scene(place_shoe_spec, one_trial(insert_observations(parse(text_table), cap=10), place_shoe_spec, 0))
    assert final.poses["shoe"][0, 2] == pytest.approx(0.02)  # table + half height


def test_close_gripper_is_noop_on_world(place_shoe_spec):
    text = 'program t\nsubgoal "s"\n  close_gripper(left)\n  close_gripper(right, pos=0.5)\n'
    log = one_trial(insert_observations(parse(text), cap=10), place_shoe_spec, 0)
    assert all(ev.outcome == "success" for ev in log.events)
    final = _final_scene(place_shoe_spec, log)
    assert np.allclose(final.poses["shoe"][0, :3], [-0.2, 0.1, 0.02])
    assert final.grippers["right"] == 0.5


def test_gripper_pos_range_checked(place_shoe_spec):
    text = 'program t\nsubgoal "s"\n  open_gripper(left, pos=1.5)\n'
    log = one_trial(parse(text), place_shoe_spec, 0)
    assert log.failure_event.error_category == "invalid_call"


def test_place_without_grasp_not_held(place_shoe_spec):
    text = 'program t\nsubgoal "s"\n  place_actor(shoe, left, fp(target_block, 0))\n'
    log = one_trial(parse(text), place_shoe_spec, 0)
    assert log.failure_event.error_category == "not_held"


def test_runtime_limit(place_shoe_spec):
    lines = ["program t", 'subgoal "s"']
    lines += ["  move_by_displacement(left, z=0.001)"] * 30
    log = one_trial(parse("\n".join(lines)), place_shoe_spec, 0, max_steps=10)
    assert log.failure_event.error_category == "runtime_limit"
    assert len(log.events) == 11  # 10 executed + the limit event


def test_runtime_functional_point_invalid_call(place_shoe_spec):
    # Slips past static validation only if validate() is skipped, which is
    # exactly the runtime safety net's job.
    text = 'program t\nsubgoal "s"\n  grasp_actor(shoe, left)\n  place_actor(shoe, left, fp(target_block, 0), functional_point_id=7)\n'
    log = one_trial(parse(text), place_shoe_spec, 0)
    assert log.failure_event.error_category == "invalid_call"


@pytest.mark.parametrize("stmts, message", [
    (["grasp_actor(ghost, left)"], "unknown actor 'ghost'"),
    (["grasp_actor(shoe, left, contact_point_id=3)"], "actor 'shoe' has no contact point 3"),
    (["place_actor(ghost, left, fp(target_block, 0))"], "unknown actor 'ghost'"),
    (["grasp_actor(shoe, left)", "place_actor(shoe, left, fp(ghost, 0))"],
     "unknown actor 'ghost'"),
    (["grasp_actor(shoe, left)", "place_actor(shoe, left, fp(target_block, 5))"],
     "actor 'target_block' has no functional point 5"),
    (["grasp_actor(shoe, left)",
      "place_actor(shoe, left, fp(target_block, 0), functional_point_id=7)"],
     "actor 'shoe' has no functional point 7"),
])
def test_runtime_unknown_actor_or_point_messages(place_shoe_spec, stmts, message):
    text = 'program t\nsubgoal "s"\n' + "".join(f"  {s}\n" for s in stmts)
    log = one_trial(parse(text), place_shoe_spec, 0)
    failure = log.failure_event
    assert (failure.stmt_id, failure.error_category, failure.message) == (
        len(stmts), "invalid_call", message,
    )
    assert len(log.events) == len(stmts)


def test_handover_transfers_held_by():
    spec = load_task_spec(task_path("handover_block"))
    program = _correct("handover_block")
    log = one_trial(program, spec, 0)
    assert log.goal_met
    grasps = [ev for ev in log.events if ev.op_name == "grasp_actor"]
    assert [ev.args["arm"] for ev in grasps] == ["left", "right"]
    # After the right grasp the block travels with the right arm only.
    assert _final_scene(spec, log).held_by("block") is None  # released at place


def test_parallel_interleaves_left_first():
    spec = load_task_spec(task_path("pick_dual_bottles_easy"))
    program = _correct("pick_dual_bottles_easy")
    log = one_trial(program, spec, 0)
    assert log.goal_met
    arms = [ev.args["arm"] for ev in log.events if ev.op_name == "grasp_actor"]
    assert arms == ["left", "right"]
    ts = [ev.t for ev in log.events]
    assert ts == sorted(ts)


def test_no_teleportation_between_snapshots(place_shoe_spec):
    program = _correct()
    log = one_trial(program, place_shoe_spec, 7, noise_scale=1.0)
    prev = None
    for snap in log.snapshots:
        if prev is not None:
            for name in prev["actors"]:
                p0 = np.array(prev["actors"][name]["pose"][:3])
                p1 = np.array(snap.scene["actors"][name]["pose"][:3])
                if not np.allclose(p0, p1, atol=1e-12):
                    held_before = prev["actors"][name]["held_by"]
                    held_after = snap.scene["actors"][name]["held_by"]
                    assert held_before is not None or held_after is not None, name
        prev = snap.scene
    assert set(log.snapshots[0].scene["actors"]) == set(log.snapshots[-1].scene["actors"])


def test_snapshot_boundaries_present_even_on_failure(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "loud").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    assert log.snapshots[0].step_name == "initial_scene_state"
    assert log.snapshots[-1].step_name == "final_scene_state"


def test_held_object_moves_rigidly_with_tcp(place_shoe_spec):
    program = _correct()
    log = one_trial(program, place_shoe_spec, 3, noise_scale=1.0)

    def grip_offset(state):
        arm = state["actors"]["shoe"]["held_by"]
        if arm is None:
            return None, None
        tcp = _row(state["arms"][arm]["tcp"])
        shoe = _row(state["actors"]["shoe"]["pose"])
        return arm, compose_rows(inverse_rows(tcp), shoe)

    prev_arm = prev_offset = None
    checked = 0
    for snap in log.snapshots:
        arm, offset = grip_offset(snap.scene)
        if arm is not None and arm == prev_arm:
            assert _approx_equal(offset, prev_offset, tol=1e-9)
            checked += 1
        prev_arm, prev_offset = arm, offset
    assert checked >= 1  # the grasp was actually tracked across a motion


def test_quaternion_closure_under_noise(place_shoe_spec):
    program = _correct()
    for seed in range(5):
        log = one_trial(program, place_shoe_spec, seed, noise_scale=1.0)
        for snap in log.snapshots:
            for entry in snap.scene["actors"].values():
                q = np.array(entry["pose"][3:])
                assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
            for arm in snap.scene["arms"].values():
                q = np.array(arm["tcp"][3:])
                assert abs(np.linalg.norm(q) - 1.0) <= 1e-9


def test_constrain_free_keeps_yaw_align_resets_it(tmp_path):
    yaw = quat_from_axis_angle_rows(np.array([0.0, 0.0, 1.0]), np.array([np.deg2rad(30)]))[0]
    raw = json.loads(task_path("place_shoe").read_text())
    assert raw["actors"][0]["name"] == "shoe"
    raw["actors"][0]["pose"][3:] = [float(v) for v in yaw]
    path = tmp_path / "yawed.task.json"
    path.write_text(json.dumps(raw))
    spec = load_task_spec(path)
    for constrain, expect_yaw in (("free", True), ("align", False)):
        text = (
            "program t\n"
            'subgoal "s"\n'
            "  grasp_actor(shoe, left)\n"
            "  move_by_displacement(left, z=0.1)\n"
            f"  place_actor(shoe, left, pose(-0.3, 0.3, 0.05, 1.0, 0.0, 0.0, 0.0), constrain={constrain}, is_open=false)\n"
        )
        log = one_trial(insert_observations(parse(text), cap=10), spec, 0)
        assert log.failure_event is None
        x_axis = quat_rotate_rows(_final_scene(spec, log).poses["shoe"][0, 3:], np.array([1.0, 0.0, 0.0]))
        if expect_yaw:
            assert x_axis[1] == pytest.approx(np.sin(np.deg2rad(30)), abs=1e-9)
        else:
            assert x_axis[1] == pytest.approx(0.0, abs=1e-9)


# --- shared immutable geometry; the held-pose invariant -------------------------


@pytest.mark.parametrize("task", TASK_NAMES)
def test_held_actor_pose_is_tcp_times_grasp_offset(task):
    """Observed after every top-level statement: a held actor sits at
    tcp o offset, with the offset read at the first snapshot after its grasp."""
    spec = load_task_spec(task_path(task))
    carried = 0
    for kind in ("correct", "loud", "silent"):
        program = insert_observations(parse(program_path(task, kind).read_text()), cap=1000)
        for log in run_trials(program, spec, 4, base_seed=11, noise_scale=1.0, max_steps=200):
            offsets = {}  # (actor, arm) -> grasp offset, while that hold lasts
            for snap in log.snapshots:
                holds = {}
                for name, entry in snap.scene["actors"].items():
                    arm = entry["held_by"]
                    if arm is None:
                        continue
                    tcp = _row(snap.scene["arms"][arm]["tcp"])
                    pose = _row(entry["pose"])
                    if (name, arm) in offsets:
                        holds[name, arm] = offsets[name, arm]
                        assert _approx_equal(pose, compose_rows(tcp, holds[name, arm]), tol=1e-12), (
                            kind, log.seed, snap.step_name, name)
                        carried += 1
                    else:
                        holds[name, arm] = compose_rows(inverse_rows(tcp), pose)
                offsets = holds
    assert carried > 0


def test_unmoved_pose_is_one_tuple_in_every_snapshot():
    # The trial writer reuses an entry's text only while its values are the
    # same objects, so a snapshot must hold the pose's own tuple, not a copy.
    spec = load_task_spec(task_path("stack_blocks_three"))
    log = one_trial(_correct("stack_blocks_three"), spec, 0, noise_scale=1.0)
    tcps = [snap.scene["arms"]["left"]["tcp"] for snap in log.snapshots]  # the left arm stays idle
    assert len(tcps) > 2 and type(tcps[0]) is tuple
    assert all(tcp is tcps[0] for tcp in tcps)


def test_shared_entry_is_one_dict_while_its_values_are_the_same_objects(place_shoe_spec):
    # A snapshot entry is handed on to the next snapshot while its pose and
    # its holder or gripper are the same objects, and made anew otherwise.
    text = ('program t\nsubgoal "s"\n  observe("a")\n  close_gripper(right, pos=0.5)\n  observe("b")\n'
            '  grasp_actor(shoe, left)\n  observe("c")\n  move_by_displacement(left, z=0.07)\n  observe("d")\n')
    log = one_trial(parse(text), place_shoe_spec, 0)
    assert [snap.step_name for snap in log.snapshots] == ["a", "b", "c", "d", "final_scene_state"]
    a, b, c, d = (snap.scene for snap in log.snapshots[:4])
    # close_gripper: only the right arm's entry changes, its TCP unmoved.
    assert b["arms"]["right"] is not a["arms"]["right"]
    assert b["arms"]["right"]["tcp"] is a["arms"]["right"]["tcp"]
    assert b["arms"]["left"] is a["arms"]["left"]
    assert all(b["actors"][name] is a["actors"][name] for name in a["actors"])
    # grasp_actor: the shoe's holder changes, its pose does not.
    assert c["actors"]["shoe"] is not b["actors"]["shoe"]
    assert c["actors"]["shoe"]["pose"] is b["actors"]["shoe"]["pose"]
    assert c["actors"]["shoe"]["held_by"] == "left"
    assert c["arms"]["left"] is not b["arms"]["left"] and c["arms"]["right"] is b["arms"]["right"]
    # move_by_displacement: the held shoe moves with the TCP.
    assert d["actors"]["shoe"] is not c["actors"]["shoe"]
    assert d["actors"]["shoe"]["pose"] is not c["actors"]["shoe"]["pose"]
    assert d["actors"]["target_block"] is a["actors"]["target_block"]
    # The same rule over noisy batches of every kind of bundled program.
    shared = 0
    for kind in ("correct", "loud", "silent"):
        program = insert_observations(parse(program_path("place_shoe", kind).read_text()), cap=10)
        for log in run_trials(program, place_shoe_spec, 4, base_seed=0, noise_scale=1.0, max_steps=200):
            for before, after in zip(log.snapshots, log.snapshots[1:]):
                for section, entries in after.scene.items():
                    for name, entry in entries.items():
                        previous = before.scene[section][name]
                        assert (entry is previous) == all(entry[k] is previous[k] for k in entry)
                        shared += entry is previous
    assert shared > 0


def test_task_geometry_is_frozen():
    spec = load_task_spec(task_path("place_shoe"))
    shoe = spec.actors["shoe"]
    assert type(spec.subgoals) is tuple
    for frozen in (shoe, *spec.subgoals, spec.noise):
        for fld in dataclasses.fields(frozen):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(frozen, fld.name, getattr(frozen, fld.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        shoe.functional_points[0].pose = Pose()
    with pytest.raises(dataclasses.FrozenInstanceError):
        shoe.pose.q = shoe.pose.q
    for vector in (shoe.pose.p, shoe.pose.q, shoe.extent, shoe.grasp_axis,
                   shoe.contact_points[0].pose.p):
        with pytest.raises(TypeError):
            vector[0] = 0.5


def test_scene_from_state_inverts_scene_payloads(monkeypatch):
    # Each payload the executor makes reads back as the row of the scene it
    # was made from: its positions, holder and grippers exactly, its
    # quaternions up to the renormalization of a loaded pose.
    made = []

    def recording(scene, rows, memo):
        rows = list(rows)
        payloads = model.scene_payloads(scene, rows, memo)
        made.append((dict(scene.poses), dict(scene.tcps), dict(scene.holding), dict(scene.grippers), rows, payloads))
        return payloads

    monkeypatch.setattr(executor, "scene_payloads", recording)
    held = gripped = 0
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        made.clear()
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            run_trials(program, spec, 3, base_seed=5, noise_scale=1.0, max_steps=200)
        for poses, tcps, holding, grippers, rows, payloads in made:
            for r, payload in zip(rows, payloads):
                back = scene_from_state(spec, payload)
                assert back.holding == holding and back.grippers == grippers
                for arrays, read in ((poses, back.poses), (tcps, back.tcps)):
                    assert list(read) == list(arrays)
                    for name, array in arrays.items():
                        assert read[name][0, :3].tolist() == array[r, :3].tolist()
                        assert np.abs(read[name][0, 3:] - array[r, 3:]).max() <= 1e-15
            held += any(holding.values())
            gripped += any(value != 1.0 for value in grippers.values())
    assert held and gripped


def _geometry(spec) -> dict:
    return {
        "actors": {
            name: [actor.pose.values, list(actor.extent), actor.static]
            + [[(pt.id, pt.pose.values) for pt in actor.points(c)] for c in POINT_CATEGORIES]
            + [list(actor.axis(c)) for c in AXIS_CATEGORIES]
            for name, actor in spec.actors.items()
        },
        "homes": {tag: home.values for tag, home in spec.homes.items()},
        "workspaces": spec.workspaces,
    }


@pytest.mark.parametrize("task", TASK_NAMES)
def test_trials_leave_task_geometry_unchanged(task):
    spec = load_task_spec(task_path(task))
    for kind in ("correct", "loud", "silent"):
        program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
        for log in run_trials(program, spec, 3, base_seed=5, noise_scale=1.0, max_steps=200):
            for snap in log.snapshots:
                eval_predicate(spec.goal, spec, scene_from_state(spec, snap.scene))
    assert _geometry(spec) == _geometry(load_task_spec(task_path(task)))


# --- trials.jsonl codec -----------------------------------------------------------


@pytest.mark.parametrize("noise", [0, 1])
def test_trials_write_load_write_is_byte_identical(tmp_path, noise):
    first, second = tmp_path / "first.jsonl", tmp_path / "second.jsonl"
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            logs = run_trials(program, spec, 4, base_seed=0, noise_scale=float(noise), max_steps=200)
            dump_trials(logs, first)
            loaded = load_trials(first)
            assert [(log.trial_index, log.seed, log.goal_met) for log in loaded] == [
                (log.trial_index, log.seed, log.goal_met) for log in logs]
            dump_trials(loaded, second)
            assert second.read_bytes() == first.read_bytes(), (task, kind)


@pytest.mark.parametrize("appended", ["event", "summary"])
def test_load_trials_refuses_a_record_after_its_trials_summary(tmp_path, place_shoe_spec, appended):
    """A 2-trial file with a copy of trial 0's first event, or a second
    summary of trial 1, appended: the appended record is an ArtifactError
    naming its line, not an event or a summary the trial takes on."""
    path = tmp_path / "trials.jsonl"
    dump_trials(run_trials(_correct(), place_shoe_spec, 2, base_seed=0, noise_scale=0.0, max_steps=200), path)
    lines = path.read_text().splitlines(keepends=True)
    if appended == "event":
        extra = next(line for line in lines if line.startswith('{"type": "event", "trial_index": 0,'))
    else:
        extra = json.dumps({**json.loads(lines[-1]), "seed": 99, "goal_met": False}) + "\n"
    path.write_text("".join(lines) + extra)
    with pytest.raises(ArtifactError) as err:
        load_trials(path)
    assert err.value.field == f"{path}:{len(lines) + 1}"


def _reference_text(logs) -> str:
    """What the trial writer must produce, byte for byte: json.dumps of every
    record."""
    return "".join(json.dumps(rec, ensure_ascii=False) + "\n" for log in logs for rec in trial_records(log))


@pytest.mark.parametrize("noise", [0, 1])
def test_trial_writer_matches_json_dumps(tmp_path, noise):
    path = tmp_path / "trials.jsonl"
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            logs = run_trials(program, spec, 4, base_seed=0, noise_scale=float(noise), max_steps=200)
            dump_trials(logs, path)
            assert path.read_bytes() == _reference_text(logs).encode("utf-8"), (task, kind)
            loaded = load_trials(path)  # poses as lists, records shared across trials of equal lines
            assert "".join(map(dumps_trial, loaded)) == _reference_text(loaded), (task, kind)


class _Index(int):
    def __repr__(self):  # json writes an int subclass through int.__repr__, never its own
        return "wrong"


class _Name(str):
    def __str__(self):
        return "wrong"


def test_trial_writer_matches_json_dumps_on_edge_values():
    zero = 0.0
    neg_zero = -zero  # == zero, but written "-0.0": an entry holding it must be encoded anew
    still = (0.5, -0.25, 0.0, 1.0, 0.0, 0.0, 0.0)
    shared = (0.25, 0.5, 0.75, 1.0, 0.0, 0.0, 0.0)  # one object in several entries and snapshots
    gripper = 1.0

    def scene(moved_pose, odd_pose=still, held_by=None, grippers=(gripper, gripper), odd_name="杯"):
        return {
            "actors": {"Schuh_ß": {"pose": moved_pose, "held_by": held_by},
                       odd_name: {"pose": odd_pose, "held_by": None}},
            "arms": {"left": {"tcp": still, "gripper": grippers[0]},
                     "right": {"tcp": still, "gripper": grippers[1]}},
        }

    scenes = [
        scene((zero, 0.1, 0.2, 1.0, 0.0, 0.0, 0.0)),
        scene((neg_zero, 0.1, 0.2, 1.0, 0.0, 0.0, 0.0)),
        scene((neg_zero, 0.1, 0.2, 1.0, 0.0, 0.0, 0.0), (math.nan, math.inf, -math.inf, 1.0, 0.0, 0.0, 0.0)),
        scene((zero, 0.1, 0.2, 1.0, 0.0, 0.0, 0.0), held_by="left"),
        scene(still),
        # Not plain floats, or not seven of them: encoded by the JSON encoder.
        scene((np.float64(0.1), 0.2, 0.3, 1.0, 0.0, 0.0, 0.0)),
        scene((0.1, 0.2, 0.3, 1.0, 0.0, 0.0), (0.1, 0.2, 0.3, 1.0, 0.0, 0.0, 0.0, 0.5)),
        scene([0.1, 0.2, 0.3, 1.0, 0.0, 0.0, 0.0]),
        # A name that is a str subclass: the scene is encoded whole.
        scene(still, odd_name=_Name("Becher")),
        # One pose object under two names, then under two holders in turn.
        scene(shared, shared),
        scene(shared, held_by="left"),
        scene(shared, held_by="right"),
        scene(shared),
        # One TCP object with grippers that are == but not the same.
        scene(still, grippers=(zero, zero)),
        scene(still, grippers=(neg_zero, zero)),
        scene(still, grippers=(np.float64(0.5), zero)),
        scene(still, grippers=(math.nan, math.inf)),
        # An actor and an arm of one name, pose object and other value.
        scene(still, odd_name="left", grippers=(None, None)),
        # Not scene_state's layout, so encoded whole; the first two hold the
        # same value objects as the entry before them.
        {"actors": {"Schuh_ß": {"pose": still, "holder": None}}, "arms": {}},
        {"actors": {"Schuh_ß": {"held_by": None, "pose": still}}, "arms": {}},
        {"arms": {"left": {"tcp": still, "gripper": gripper}}, "actors": {}},
        {"actors": {1: {"pose": still, "held_by": None}}, "arms": {}},
        {"actors": [still], "arms": {}},
        [still, None],
        scene(still),
    ]
    steps = ['say "hi"', "back\\slash", "tab\tand \u00e9", "", _Name("named")]
    steps += [f"step{i}" for i in range(len(scenes) - len(steps))]
    log = TrialLog(trial_index=_Index(3), seed=-1, goal_met=True)
    log.events.append(SymbolicEvent(1, 1, "observe", {"step_name": '"q\\"'}, "success", "none", "", 0))
    log.events.append(SymbolicEvent(True, _Index(2), _Name("observe"), {}, "success", "none", "", 0))
    log.snapshots += [Snapshot(step, 1, 1, t, payload, f'observe("{step}")')
                      for t, (step, payload) in enumerate(zip(steps, scenes), 1)]
    assert dumps_trial(log) == _reference_text([log])


def _random_trial_logs(rng: random.Random, n: int) -> list:
    """n trial logs whose snapshots share entry dicts, pose tuples and args
    dicts across snapshots and trials, as the executor's do, mixed with the
    values the writer must leave to the JSON encoder."""
    zero = 0.0
    floats = [zero, -zero, 0.5, -0.25, 1.0, 1e-300, 1.5e300, 0.1 + 0.2]
    odd = [math.nan, math.inf, -math.inf, np.float64(0.1), np.float64(-zero)]

    def pose():
        values = [rng.choice(floats) for _ in range(7)]
        if rng.random() < 0.15:
            values[rng.randrange(7)] = rng.choice(odd)
        shape = rng.random()
        if shape < 0.05:
            return values  # a list, as load_trials reads one
        if shape < 0.08:
            return tuple(values[:6])
        return tuple(values)

    names = ["shoe", "target_block", "杯", "left", "right", "Schuh_ß", 'q"uote', _Name("shoe"), 1]
    others = [None, "left", "right", 1.0, zero, -zero, math.nan, np.float64(0.5), True, 1, _Index(1)]
    poses = [pose() for _ in range(12)]
    keys = [("pose", "held_by"), ("tcp", "gripper")]
    entries = [{k: v for k, v in zip(rng.choice(keys), (rng.choice(poses), rng.choice(others)))} for _ in range(16)]
    entries += [{"held_by": None, "pose": poses[0]}, {"pose": poses[1]}, dict(entries[0], extra=1)]
    args_pool = [{}, {"actor": "shoe", "arm": "left"}, {"step_name": '"q\\"'}, {"z": -zero, "pos": math.nan}]

    def section():
        return {rng.choice(names): rng.choice(entries) for _ in range(rng.randrange(4))}

    def scene():
        shape = rng.random()
        if shape < 0.03:
            return [section()]
        if shape < 0.06:
            return {"arms": section(), "actors": section()}
        if shape < 0.08:
            return {"actors": section(), "arms": [1]}
        return {"actors": section(), "arms": section()}

    ints = [0, 1, 2, 7, -3, 10**20, True, False, _Index(4)]
    texts = ["", "observe", "grasp_actor", "tab\tand é", "back\\slash", " ", _Name("named"),
             '"trial_index": 1, "t": 0', "100% of %s at %d", '{"type": "summary", "trial_index": 10}']
    scenes = [scene() for _ in range(24)]  # each payload may recur, in one trial or in several
    logs = []
    for index in range(n):
        log = TrialLog(trial_index=rng.choice([index, _Index(index), True]), seed=rng.choice([index, -1, 2**40]),
                       goal_met=rng.random() < 0.5)
        for t in range(rng.randrange(6)):
            log.events.append(SymbolicEvent(rng.choice(ints), rng.choice(ints), rng.choice(texts),
                                            rng.choice(args_pool), rng.choice(["success", "failure"]),
                                            rng.choice(["none", "collision"]), rng.choice(texts + [None, 1.5]),
                                            rng.choice([t, t, True, _Index(t)])))
        for t in range(rng.randrange(8)):
            log.snapshots.append(Snapshot(rng.choice(texts), rng.choice(ints), rng.choice(ints), t,
                                          rng.choice(scenes), rng.choice(texts)))
        logs.append(log)
    return logs


def _share_runs(rng: random.Random, logs: list) -> None:
    """Runs of consecutive logs that hold the `events` and `snapshots` lists
    of the run's first, as trials with equal perturbations do, each with its
    own index, seed and goal. A log in a run may hold its own lists, or only
    one of the first's, which breaks the run for the writer; the run goes on
    after it."""
    first = None
    for log in logs:
        shape = rng.random()
        if first is None or shape < 0.2:
            first = log
        elif shape < 0.3:
            pass
        elif shape < 0.35:
            log.events = first.events
        elif shape < 0.4:
            log.snapshots = first.snapshots
        else:
            log.events, log.snapshots = first.events, first.snapshots


def _assert_writes_json_dumps(logs, path):
    """The writer's text is json.dumps of each record, line by line."""
    dump_trials(logs, path)  # one args memo over every trial
    lines = path.read_text(encoding="utf-8").split("\n")
    records = [rec for log in logs for rec in trial_records(log)]
    assert lines.pop() == "" and len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == json.dumps(rec, ensure_ascii=False)
    assert "".join(map(dumps_trial, logs)) == _reference_text(logs)


def test_trial_writer_matches_json_dumps_on_random_logs(tmp_path):
    rng = random.Random(20)
    path = tmp_path / "trials.jsonl"
    for _ in range(5):
        logs = _random_trial_logs(rng, 120)
        _share_runs(rng, logs)
        _assert_writes_json_dumps(logs, path)
    # One run under indices that are prefixes of one another, broken by a
    # trial with lists of its own equal to the run's, with texts that hold a
    # trial index and % signs.
    events = [SymbolicEvent(1, 1, "grasp_actor", {"arm": "left"}, "failure", "collision",
                            'ends "trial_index": 1, at 100%', 0)]
    snapshots = [Snapshot('"trial_index": 10', 1, 1, 0, {"actors": {}, "arms": {}}, "%s %d %%")]
    logs = [TrialLog(index, seed, events, snapshots, index == 10) for index, seed in [(1, 2), (10, 3), (100, 4)]]
    logs.append(TrialLog(10, 5, list(events), list(snapshots)))
    logs += [TrialLog(100, 6, events, snapshots), TrialLog(1, 7, events, snapshots, True)]
    _assert_writes_json_dumps(logs, path)


# --- trials.jsonl reader memo ---------------------------------------------------


def _loaded(path) -> str:
    """What load_trials makes of a file: its trials' records as json.dumps
    writes them, or its error."""
    try:
        return _reference_text(load_trials(path))
    except ArtifactError as exc:
        return f"ArtifactError: {exc}"


def _assert_loads_as_every_line(path, monkeypatch) -> str:
    """load_trials reads the file as its reference does: load_trials with no
    line memoized, each line decoded by _record."""
    got = _loaded(path)
    with monkeypatch.context() as unmemoized:
        unmemoized.setattr(model, "_KEYED", re.compile("(?!)"))  # matches no line
        assert got == _loaded(path)
    return got


def _dumped(path, spec, n) -> list:
    """The lines of n noiseless trials of the correct place_shoe program,
    written to path: equal but for the index."""
    dump_trials(run_trials(_correct(), spec, n, base_seed=0, noise_scale=0.0, max_steps=200), path)
    return path.read_text().splitlines(keepends=True)


def _split(line: str) -> list:
    """[head, index text, rest] of a line the writer made."""
    return list(re.fullmatch(r'(\{"type": "\w+", "trial_index": )(\d+)(.*)', line, re.S).groups())


_SECOND_INDEX_KEYS = ['"trial_index"', '"trial\\u005findex"']  # the decoder reads both as trial_index
_ODD_INDICES = ["01", "1.0", "-0", "true", "1" * 18 + "9", "2" * 18 + "9", "1" + "0" * 18, "0" * 19]


def _mutate(rng: random.Random, lines: list) -> None:
    """One line of lines ([head, index text, rest] each) changed: a byte of
    its rest, a second trial index key, its index spelled otherwise, an
    escape that spells a key as it reads, or its rest cut short. Then a
    copy of it goes after it under the index of some line, so that its rest
    repeats: half the time, and always when the line was left unchanged."""
    at = rng.randrange(len(lines))
    head, index, rest = line = lines[at]
    shape = rng.randrange(6)
    if shape == 0:
        i = rng.randrange(len(rest) - 1)
        line[2] = rest[:i] + rng.choice('07x", }') + rest[i + 1:]
    elif shape == 1:
        line[2] = f"{rest[:-2]}, {rng.choice(_SECOND_INDEX_KEYS)}: {rng.choice(['0', index, index])}}}\n"
    elif shape == 2:
        line[1] = rng.choice(_ODD_INDICES + ["0"])
    elif shape == 3:
        line[2] = rest.replace('"t": ', '"\\u0074": ', 1)
    elif shape == 4:
        line[2] = rest[:len(rest) // 2] + "\n"
    if shape == 5 or rng.random() < 0.5:
        lines.insert(rng.randrange(at + 1, len(lines) + 1), [line[0], rng.choice(lines)[1], line[2]])


@pytest.mark.parametrize("noise", [0, 1])
def test_load_trials_equals_every_line_reference_on_random_files(tmp_path, monkeypatch, noise):
    """Files of trials drawn from a few batches, so that lines repeat across
    trials at either noise (within a batch at noise 0, where a trial is
    drawn twice at noise 1), a few lines changed in most."""
    trials = []
    for task in ("place_shoe", "handover_block"):
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            logs = run_trials(program, spec, 3, base_seed=0, noise_scale=float(noise), max_steps=200)
            trials += [[_split(line) for line in dumps_trial(log).splitlines(keepends=True)] for log in logs]
    rng = random.Random(27 + noise)
    path = tmp_path / "trials.jsonl"
    errors = 0
    for _ in range(200):
        lines = []
        for index in range(rng.randrange(1, 7)):
            lines += [[head, str(index), rest] for head, _, rest in rng.choice(trials)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            _mutate(rng, lines)
        path.write_text("".join(map("".join, lines)))
        errors += _assert_loads_as_every_line(path, monkeypatch).startswith("ArtifactError")
    assert 40 < errors < 160  # both outcomes, often


def test_load_trials_shares_the_records_of_equal_lines(tmp_path, place_shoe_spec):
    """Trials of equal perturbations write equal lines but for the index:
    loaded, they share their record objects, as the executor's trials do."""
    path = tmp_path / "trials.jsonl"
    _dumped(path, place_shoe_spec, 3)
    first, *others = load_trials(path)
    for log in others:
        assert len(log.events) == len(first.events) and len(log.snapshots) == len(first.snapshots)
        assert all(map(operator.is_, log.events + log.snapshots, first.events + first.snapshots))


def test_load_trials_decodes_a_line_one_byte_off_a_memoized_one(tmp_path, place_shoe_spec, monkeypatch):
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith('{"type": "snapshot", ')][-1]  # trial 1's last
    start = lines[at].index('"step_name": "') + len('"step_name": "')
    lines[at] = lines[at][:start] + "X" + lines[at][start + 1:]
    path.write_text("".join(lines))
    _assert_loads_as_every_line(path, monkeypatch)
    first, second = load_trials(path)
    assert second.snapshots[-1].step_name == "X" + first.snapshots[-1].step_name[1:] != first.snapshots[-1].step_name
    assert second.snapshots[:-1] == first.snapshots[:-1]


@pytest.mark.parametrize("key", _SECOND_INDEX_KEYS, ids=["plain", "escaped"])
def test_load_trials_takes_a_second_trial_index_key_as_the_decoder_does(tmp_path, place_shoe_spec, monkeypatch,
                                                                         key):
    """Every event line of a 2-trial file given a second trial index key of
    0, which the decoder takes over the first: trial 1's first event, whose
    rest equals trial 0's, is a record of trial 0 after its summary."""
    path = tmp_path / "trials.jsonl"
    lines = [line[:-2] + f", {key}: 0}}\n" if line.startswith('{"type": "event", ') else line
             for line in _dumped(path, place_shoe_spec, 2)]
    path.write_text("".join(lines))
    at = next(i for i, line in enumerate(lines) if line.startswith('{"type": "event", "trial_index": 1, ')) + 1
    assert _assert_loads_as_every_line(path, monkeypatch) == (
        f"ArtifactError: {path}:{at}: trial_index: a record of trial 0 after its summary")


@pytest.mark.parametrize("indices", [("01", "2"), ("1.0", "2"), ("-0", "2"), ("1" * 18 + "9", "2" * 18 + "9"),
                                     ("1" + "0" * 18, "2" + "0" * 18)],
                         ids=["leading_zero", "float", "minus_zero", "19_digits", "10_to_the_18"])
def test_load_trials_reads_an_index_spelled_otherwise_as_the_decoder_does(tmp_path, place_shoe_spec, monkeypatch,
                                                                          indices):
    """Trials 1 and 2 of a 3-trial file, whose lines equal trial 0's but for
    the index, with their indices written as given in every line."""
    path = tmp_path / "trials.jsonl"
    lines = [_split(line) for line in _dumped(path, place_shoe_spec, 3)]
    for line in lines:
        line[1] = {"0": "0", "1": indices[0], "2": indices[1]}[line[1]]
    path.write_text("".join(map("".join, lines)))
    got = _assert_loads_as_every_line(path, monkeypatch)
    if indices[0].isdigit() and not indices[0].startswith("0"):
        assert [log.trial_index for log in load_trials(path)] == [0, *map(int, indices)]
    else:
        assert got.startswith(f"ArtifactError: {path}:{len(lines) // 3 + 1}: ")


@pytest.mark.parametrize("fault", ["not_json", "t_not_int"])
def test_load_trials_refuses_a_repeated_malformed_line_at_its_first(tmp_path, place_shoe_spec, monkeypatch, fault):
    """Trial 0's first event line and trial 1's, equal but for the index,
    broken alike: the file is refused at trial 0's."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    events = [i for i, line in enumerate(lines) if line.startswith('{"type": "event", ')]
    for at in events[0], events[len(events) // 2]:
        lines[at] = lines[at][:-2] + "\n" if fault == "not_json" else re.sub(r'"t": \d+', '"t": "x"', lines[at])
    path.write_text("".join(lines))
    assert _assert_loads_as_every_line(path, monkeypatch).startswith(f"ArtifactError: {path}:{events[0] + 1}: ")


def test_runtime_limit_event_precedes_final_snapshot_at_same_t(tmp_path, place_shoe_spec):
    log = one_trial(_correct(), place_shoe_spec, 0, max_steps=3)
    limit, final = log.events[-1], log.snapshots[-1]
    assert (limit.error_category, final.step_name) == ("runtime_limit", "final_scene_state")
    assert limit.t == final.t
    dump_trials([log], tmp_path / "trials.jsonl")
    records = [json.loads(line) for line in (tmp_path / "trials.jsonl").read_text().splitlines()]
    assert [(r["type"], r.get("t")) for r in records[-3:]] == [
        ("event", limit.t), ("snapshot", limit.t), ("summary", None)]
    assert records[-3]["error_category"] == "runtime_limit"


# --- golden digests -------------------------------------------------------------

GOLDEN_DIGESTS = Path(__file__).parent / "golden" / "sim_digests.json"


def sim_digests() -> dict[str, str]:
    """sha256 of the serialized trials of every bundled program, per noise."""
    digests = {}
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            for noise in (0, 1):
                logs = run_trials(program, spec, 20, base_seed=0, noise_scale=float(noise), max_steps=200)
                text = "".join(dumps_trial(log) for log in logs)
                digests[f"{task}/{kind}/noise{noise}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_sim_digests_match_golden():
    expected = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    assert sim_digests() == expected


if __name__ == "__main__":
    # Re-record the golden digests: PYTHONPATH=src:tests python tests/test_sim.py
    GOLDEN_DIGESTS.write_text(json.dumps(sim_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
