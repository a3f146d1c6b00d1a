import collections
import dataclasses
import hashlib
import json
import math
import operator
import random
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from armloop.dsl import parse
from armloop.dsl.ast import API_SIGNATURES, Args, CallStmt, ParallelStmt, PoseLit
from armloop.errors import ArtifactError
from armloop.geometry import Pose, compose_rows, inverse_rows, quat_from_axis_angle_rows, quat_rotate_rows
from armloop.instrument import insert_observations
from armloop.scene import (
    ARM_TAGS, AXIS_CATEGORIES, POINT_CATEGORIES, NoiseSpec, SceneRows, eval_predicate, load_task_spec,
)
from armloop.sim import (
    Snapshot, SymbolicEvent, TrialLog, dump_trials, load_trials, run_trials, scene_from_state, trial_texts,
)
from armloop.sim import executor, model

from conftest import TASK_NAMES, one_trial, program_path, task_path, trial_records, trial_text


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


def _state(snap) -> dict:
    """The payload a snapshot's scene text holds."""
    return json.loads(snap.scene)


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
    a = trial_text(one_trial(_correct(), place_shoe_spec, 7, noise_scale=1.0))
    b = trial_text(one_trial(_correct(), place_shoe_spec, 7, noise_scale=1.0))
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
                    assert trial_text(log) == trial_text(dataclasses.replace(alone, trial_index=i)), (
                        task, kind, noise, i)
                failed_at = {log.failure_event.stmt_id for log in logs if log.failure_event is not None}
                if len(failed_at) > 1 and any(log.failure_event is None for log in logs):
                    mixed.append((task, kind, noise))
    assert mixed  # some batch lost rows at different statements and kept others to the end


# Literals at the edges of what a float holds, and unit quaternions 1e-7
# off unit (within the parser's tolerance), for _mutated.
_EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1e300, -1e300, 1e308)
_NEAR_UNIT = ((0.0, 0.0, 0.0, 1.0 + 1e-7), (1e-7, 0.0, 0.0, 1.0), (0.0, 0.0, 1.0 - 1e-7, 0.0))


def _mutated(program, rng: random.Random, extremes: bool = False):
    """A copy of the program with random values for some of its calls'
    distances, displacements, targets and modes; actors and arms are kept.
    Calls are drawn for in source order, a parallel block's left branch
    before its right. With extremes, a number or a target coordinate is
    one of _EXTREMES a third of the time, and a target's quaternion one of
    _NEAR_UNIT."""
    choices = {"move_axis": ("world", "arm"), "constrain": ("auto", "free", "align"),
               "pre_dis_axis": ("grasp", "fp"), "is_open": (True, False),
               "contact_point_id": ("auto", 0, 1), "functional_point_id": ("none", 0, 1)}

    def number(value: float) -> float:
        return rng.choice(_EXTREMES) if extremes and rng.random() < 1 / 3 else value

    def call(stmt: CallStmt) -> CallStmt:
        args = dict(stmt.args)
        for param in API_SIGNATURES[stmt.name]:
            if rng.random() < 0.6:
                continue
            if param.kind == "num":
                args[param.name] = number(round(rng.uniform(-0.12, 0.12), 3))
            elif param.name == "target":
                xyz = (rng.uniform(-0.3, 0.3), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.2))
                quaternion = rng.choice(_NEAR_UNIT) if extremes else (0.0, 0.0, 0.0, 1.0)
                args[param.name] = PoseLit(tuple(number(round(c, 3)) for c in xyz) + quaternion)
            elif param.name in choices:
                args[param.name] = rng.choice(choices[param.name])
        return dataclasses.replace(stmt, args=Args(args))

    def stmt(s):
        if isinstance(s, ParallelStmt):
            return dataclasses.replace(s, left=tuple(map(call, s.left)), right=tuple(map(call, s.right)))
        return call(s)

    return dataclasses.replace(program, subgoals=tuple(
        dataclasses.replace(sg, statements=tuple(map(stmt, sg.statements))) for sg in program.subgoals))


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
            assert trial_text(log) == trial_text(dataclasses.replace(alone, trial_index=i)), (task, kind, k, i)
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
    # No lists: each trial is its own row. Rows still share the events they
    # emit alike (test_shared_event_of_the_rows_that_emit_it_alike).
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
        assert trial_text(log) == trial_text(dataclasses.replace(alone, trial_index=log.trial_index))


def _drawn_perturbations(statements, spec, seeds, noise_scale):
    """Each trial's draws in the frozen order, from its own generator, then
    scaled: the normals times their sigmas plus 0.0, the slips uniform <
    slip_p."""
    moving = sum(not actor.static for actor in spec.actors.values())
    draws = {"grasp_actor": (3, 1), "place_actor": (3, 0)}
    pos, yaw, slip_p = (spec.noise.pos_sigma * noise_scale, spec.noise.rot_sigma * noise_scale,
                        spec.noise.slip_base * noise_scale)
    normals, slips = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        row, slip = [], []
        for _ in range(moving):
            row += [*rng.normal(size=3) * pos, rng.normal() * yaw]
        for op in statements:
            k, u = draws.get(op.stmt.name, (0, 0))
            row += list(rng.normal(size=k) * pos)
            slip += list(rng.uniform(size=u) < slip_p)
        normals.append(row)
        slips.append(slip)
    return np.array(normals, ndmin=2) + 0.0, np.array(slips, bool, ndmin=2)


@pytest.mark.parametrize("task", TASK_NAMES)
def test_unread_perturbations_are_the_drawn_rows_without_a_draw(monkeypatch, tmp_path, task):
    """Where no draw can be read (noise 0, or zero sigmas and no slip
    probability), the perturbation rows are those that drawing and scaling
    give, byte for byte, and no generator is built."""
    spec = load_task_spec(task_path(task))
    raw = json.loads(task_path(task).read_text())
    raw["noise"] = {"pos_sigma": 0.0, "rot_sigma": 0.0, "slip_base": 0.0}
    path = tmp_path / f"{task}.task.json"
    path.write_text(json.dumps(raw))
    quiet = load_task_spec(path)
    statements = executor._flatten(insert_observations(parse(program_path(task, "loud").read_text()), cap=10))
    seeds = [0, 1, 7, 123]
    expected = {(spec, 0.0): _drawn_perturbations(statements, spec, seeds, 0.0),
                (quiet, 5.0): _drawn_perturbations(statements, quiet, seeds, 5.0)}

    def no_generator(seed):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    for (s, noise_scale), (normals, slips) in expected.items():
        assert s.noise.draws_unread(noise_scale)
        got_normals, got_slips, columns = executor._perturbations(statements, s, seeds, noise_scale)
        assert (got_normals.shape, got_slips.shape) == (normals.shape, slips.shape)
        assert got_normals.tobytes() == normals.tobytes() and got_slips.tobytes() == slips.tobytes()
        assert got_normals.dtype == np.float64 and got_slips.dtype == bool


@pytest.mark.parametrize("noise, noise_scale, unread", [
    ((0.01, 0.1, 0.2), 0.0, True), ((0.0, 0.0, 0.0), 100.0, True), ((0.01, 0.0, 0.0), 1.0, False),
    ((0.0, 0.1, 0.0), 1.0, False), ((0.0, 0.0, 0.2), 1.0, False), ((1e-320, 0.0, 0.0), 1e-10, True),
])
def test_draws_unread_exactly_where_every_perturbation_is_zero(noise, noise_scale, unread):
    """The predicate holds where each sigma times the scale is 0 (also by
    underflow) and slip_base times the scale is not above 0."""
    assert NoiseSpec(*noise).draws_unread(noise_scale) is unread


# Failures whose message is a function of the row: one event per row.
_ROW_MESSAGES = {"unreachable", "collision", "placement_miss"}


@pytest.mark.parametrize("task, kind, noise, max_steps", [
    ("place_shoe", "correct", 3.0, 200), ("place_container_plate", "loud", 1.0, 200),
    ("place_empty_cup", "loud", 1.0, 200), ("pick_diverse_bottles", "loud", 1.0, 200),
    ("stack_blocks_three", "correct", 1.0, 12)])
def test_shared_event_of_the_rows_that_emit_it_alike(task, kind, noise, max_steps):
    """At noise above zero every trial is its own row. The rows that succeed
    at a statement hold the very same SymbolicEvent, as do the rows that
    fail at it with a message of text (a slip, a call refused, the step
    budget); a failure whose message is the row's own is one event per
    row. The writer's text is json.dumps of each record either way."""
    spec = load_task_spec(task_path(task))
    program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
    logs = run_trials(program, spec, 40, base_seed=0, noise_scale=noise, max_steps=max_steps)
    assert len({id(log.events) for log in logs}) == len(logs)
    alike = collections.defaultdict(list)
    for log in logs:
        for ev in log.events:
            alike[ev.stmt_id, ev.outcome, ev.error_category].append(ev)
    categories = {category for _, _, category in alike}
    assert "none" in categories and len(categories) > 1
    for (_, _, category), events in alike.items():
        assert len(set(map(id, events))) == (len(events) if category in _ROW_MESSAGES else 1), category
    assert "".join(trial_texts(logs)) == _reference_text(logs)


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
    # A scene text writes a nan as repr does, which JSON spells NaN.
    states = {id(snap): json.loads(snap.scene.replace("nan", "NaN")) for log in logs for snap in log.snapshots}
    nan_trials = [log for log in logs if any(map(math.isnan, states[id(log.snapshots[0])]["actors"]["shoe"]["pose"]))]
    assert nan_trials
    for log in logs:
        for snap in log.snapshots:
            for arm in states[id(snap)]["arms"].values():
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
    text = "".join(trial_texts(logs))
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
        state = _state(snap)
        if prev is not None:
            for name in prev["actors"]:
                p0 = np.array(prev["actors"][name]["pose"][:3])
                p1 = np.array(state["actors"][name]["pose"][:3])
                if not np.allclose(p0, p1, atol=1e-12):
                    held_before = prev["actors"][name]["held_by"]
                    held_after = state["actors"][name]["held_by"]
                    assert held_before is not None or held_after is not None, name
        prev = state
    assert set(_state(log.snapshots[0])["actors"]) == set(_state(log.snapshots[-1])["actors"])


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
        arm, offset = grip_offset(_state(snap))
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
            state = _state(snap)
            for entry in state["actors"].values():
                q = np.array(entry["pose"][3:])
                assert abs(np.linalg.norm(q) - 1.0) <= 1e-9
            for arm in state["arms"].values():
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
                state = _state(snap)
                for name, entry in state["actors"].items():
                    arm = entry["held_by"]
                    if arm is None:
                        continue
                    tcp = _row(state["arms"][arm]["tcp"])
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


class _CountingPose(str):
    """model._POSE, which appends each pose it formats to `made`."""

    def __new__(cls, made: list):
        pose = super().__new__(cls, model._POSE)
        pose.made = made
        return pose

    def __mod__(self, values):
        self.made.append(values)
        return str.__mod__(self, values)


def _payload(scene: SceneRows, r: int) -> dict:
    """The payload of row r of the scene, as _SCENE_KEYS lays it out."""
    return {"actors": {name: {"pose": array[r].tolist(), "held_by": scene.held_by(name)}
                       for name, array in scene.poses.items()},
            "arms": {tag: {"tcp": array[r].tolist(), "gripper": scene.grippers[tag]}
                     for tag, array in scene.tcps.items()}}


def test_entry_text_is_made_once_while_its_array_and_value_are_the_same_objects(place_shoe_spec, monkeypatch):
    """A name's entry text is made anew only when its pose array or its
    holder or gripper value is a new object, for a row the first time a
    snapshot needs it, and once for every row where the array's rows are
    equal byte for byte."""
    made = []
    monkeypatch.setattr(model, "_POSE", _CountingPose(made))
    calls = []  # per scene_texts call: each name's (array, value), the rows, the poses made

    def recording(scene, rows, memo):
        rows, before = list(rows), len(made)
        texts = model.scene_texts(scene, rows, memo)
        names = [(("actors", name), (array, scene.held_by(name))) for name, array in scene.poses.items()]
        names += [(("arms", tag), (array, scene.grippers[tag])) for tag, array in scene.tcps.items()]
        calls.append((names, rows, len(made) - before))
        assert texts == [json.dumps(_payload(scene, r), ensure_ascii=False) for r in rows]
        return texts

    monkeypatch.setattr(executor, "scene_texts", recording)
    # One row: close_gripper remakes only the right arm's entry, grasp_actor
    # the shoe's (its holder) and the left arm's, a move of the left arm its
    # own and the held shoe's; the final snapshot follows no statement.
    text = ('program t\nsubgoal "s"\n  observe("a")\n  close_gripper(right, pos=0.5)\n  observe("b")\n'
            '  grasp_actor(shoe, left)\n  observe("c")\n  move_by_displacement(left, z=0.07)\n  observe("d")\n')
    log = one_trial(parse(text), place_shoe_spec, 0)
    assert [snap.step_name for snap in log.snapshots] == ["a", "b", "c", "d", "final_scene_state"]
    assert [count for _, _, count in calls] == [4, 1, 2, 2, 0]
    # The same rule over noisy batches of every kind of bundled program,
    # against a count kept here: per name, the objects its texts were made
    # from and the rows made since (None: one text for every row).
    calls.clear()
    for kind in ("correct", "loud", "silent"):
        program = insert_observations(parse(program_path("place_shoe", kind).read_text()), cap=10)
        kept = {}
        before = len(calls)
        run_trials(program, place_shoe_spec, 6, base_seed=0, noise_scale=1.0, max_steps=200)
        for names, rows, count in calls[before:]:
            expected = 0
            for key, (array, value) in names:
                hit = kept.get(key)
                if hit is None or hit[0] is not array or hit[1] is not value:
                    uniform = len({row.tobytes() for row in array}) == 1
                    hit = kept[key] = (array, value, None if uniform else set())
                    expected += uniform
                if hit[2] is not None:
                    expected += len(set(rows) - hit[2])
                    hit[2].update(rows)
            assert count == expected
    assert sum(count for _, _, count in calls) < sum(len(rows) * len(names) for names, rows, _ in calls) / 2


def test_scene_texts_make_each_row_when_needed_and_equal_rows_once(monkeypatch):
    """Rows are made as snapshots ask for them; an array of rows equal byte
    for byte is made once, and one whose rows differ only in a zero's sign
    is not such an array."""
    spec = load_task_spec(task_path("place_shoe"))
    n = 4
    shoe, block = (np.tile(spec.actors[name].pose.values, (n, 1)) for name in ("shoe", "target_block"))
    shoe[2, 0] = 0.5
    left, right = (np.tile(spec.homes[tag].values, (n, 1)) for tag in ARM_TAGS)
    right[:, 3], right[1, 3] = 0.0, -0.0
    scene = SceneRows({"shoe": shoe, "target_block": block}, {"left": left, "right": right},
                      dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))
    made, memo = [], {}
    monkeypatch.setattr(model, "_POSE", _CountingPose(made))
    for rows, count in (([0, 3], 2 + 1 + 1 + 2), ([1, 2, 3], 2 + 2), ([3, 0], 0)):
        before = len(made)
        assert model.scene_texts(scene, iter(rows), memo) == [
            json.dumps(_payload(scene, r), ensure_ascii=False) for r in rows]
        assert len(made) - before == count, rows
    assert '"right": {"tcp": [0.25, 0.0, 0.3, -0.0, ' in model.scene_texts(scene, [1], memo)[0]


_EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.5e300, 0.1 + 0.2, 1e16, 1e-7, 0.5)


def test_scene_texts_match_json_dumps_on_edge_values():
    """Over SceneRows whose rows hold floats at their edges, names that are
    not ASCII or need escapes (an actor named as an arm too), holders and
    gripper values that change, some to values == but not the same."""
    rng = random.Random(39)
    names = ["Schuh_ß", "杯", 'q"uote', "back\\slash", "tab\tand\n", "left"]
    n = 5

    def rows():
        array = np.array([[rng.choice(_EDGE_FLOATS) for _ in range(7)] for _ in range(n)])
        if rng.random() < 0.3:
            array[:] = array[0]  # every row alike
        return array

    scene = SceneRows({name: rows() for name in names}, {tag: rows() for tag in ARM_TAGS},
                      dict.fromkeys(ARM_TAGS), dict.fromkeys(ARM_TAGS, 1.0))
    memo = {}
    for _ in range(60):
        change = rng.randrange(4)
        if change == 0:
            scene.poses[rng.choice(names)] = rows()
        elif change == 1:
            scene.tcps[rng.choice(ARM_TAGS)] = rows()
        elif change == 2:
            scene.grippers[rng.choice(ARM_TAGS)] = rng.choice(_EDGE_FLOATS) + rng.choice((0.0, -0.0))
        else:
            tag, name = rng.choice(ARM_TAGS), rng.choice(names + [None])
            if name is None or scene.held_by(name) is None:
                scene.holding[tag] = name
        asked = rng.sample(range(n), rng.randrange(1, n + 1))
        texts = model.scene_texts(scene, asked, memo)
        assert texts == [json.dumps(_payload(scene, r), ensure_ascii=False) for r in asked]


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


def test_scene_from_state_inverts_scene_texts(monkeypatch):
    # Each scene text the executor makes reads back as the row of the scene
    # it was made from: its positions, holder and grippers exactly, its
    # quaternions up to the renormalization of a loaded pose.
    made = []

    def recording(scene, rows, memo):
        rows = list(rows)
        texts = model.scene_texts(scene, rows, memo)
        made.append((dict(scene.poses), dict(scene.tcps), dict(scene.holding), dict(scene.grippers), rows, texts))
        return texts

    monkeypatch.setattr(executor, "scene_texts", recording)
    held = gripped = 0
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        made.clear()
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            run_trials(program, spec, 3, base_seed=5, noise_scale=1.0, max_steps=200)
        for poses, tcps, holding, grippers, rows, texts in made:
            for r, text in zip(rows, texts):
                back = scene_from_state(spec, text)
                assert back.holding == holding and back.grippers == grippers
                for arrays, read in ((poses, back.poses), (tcps, back.tcps)):
                    assert list(read) == list(arrays)
                    for name, array in arrays.items():
                        assert read[name][0, :3].tolist() == array[r, :3].tolist()
                        assert np.abs(read[name][0, 3:] - array[r, 3:]).max() <= 1e-15
            held += any(holding.values())
            gripped += any(value != 1.0 for value in grippers.values())
    assert held and gripped


def test_scene_from_state_refuses_two_actors_held_by_one_arm(place_shoe_spec):
    payload = {"actors": {name: {"pose": list(actor.pose.values), "held_by": "left"}
                          for name, actor in place_shoe_spec.actors.items()}, "arms": {}}
    assert list(payload["actors"]) == ["shoe", "target_block"]
    with pytest.raises(ArtifactError) as err:
        scene_from_state(place_shoe_spec, json.dumps(payload))
    assert err.value.field == "scene.actors.target_block.held_by"
    assert str(err.value) == "scene.actors.target_block.held_by: arm 'left' already holds 'shoe'"


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


def _finite_floats(values, n: int) -> bool:
    return type(values) is list and len(values) == n and all(type(v) is float and math.isfinite(v) for v in values)


def test_executor_records_are_what_the_trial_writer_takes():
    """The trial writer formats only what the executor makes: every field
    of a record exactly of its declared type, a scene text that is
    json.dumps of the payload it holds, a payload of _SCENE_KEYS's layout
    with the task's actors then the arms in ARM_TAGS order, each pose seven
    finite floats, each holder None or an arm tag, each gripper a finite
    float, and each event's args keyed by its op's parameters in signature
    order. Over mutated bundled programs with extreme literals, at noise 0,
    1 and 3."""
    head_types = {"step_name": str, "stmt_id": int, "subgoal_index": int, "t": int, "scene": str,
                  "program_context": str}
    event_types = {"stmt_id": int, "subgoal_index": int, "op_name": str, "args": dict, "outcome": str,
                   "error_category": str, "message": str, "t": int}
    parameters = {name: [p.name for p in params] for name, params in API_SIGNATURES.items()}
    rng = random.Random(38)
    texts, extreme, ends = set(), 0, collections.Counter()
    for k in range(300):
        task = TASK_NAMES[k % len(TASK_NAMES)]
        spec = load_task_spec(task_path(task))
        kind = rng.choice(("correct", "loud", "silent"))
        program = insert_observations(_mutated(parse(program_path(task, kind).read_text()), rng, True), cap=1000)
        for noise in (0.0, 1.0, 3.0):
            logs = run_trials(program, spec, 3, base_seed=k, noise_scale=noise, max_steps=200)
            seen = set()  # ids of the shared events checked; the batch keeps each alive
            for log in logs:
                assert (type(log.trial_index), type(log.seed), type(log.goal_met)) == (int, int, bool)
                for event in log.events:
                    if id(event) in seen:
                        continue
                    seen.add(id(event))
                    assert {f: type(getattr(event, f)) for f in event_types} == event_types
                    assert list(event.args) == parameters[event.op_name]
                    assert all(type(value) is str for value in event.args.values())
                    extreme += any("e+" in value or "e-324" in value for value in event.args.values())
                    ends[event.error_category] += 1
                for snap in log.snapshots:
                    assert {f: type(getattr(snap, f)) for f in head_types} == head_types
                    if snap.scene in texts:
                        continue
                    texts.add(snap.scene)
                    state = json.loads(snap.scene)
                    assert snap.scene == json.dumps(state, ensure_ascii=False)
                    assert list(state) == ["actors", "arms"]
                    assert list(state["actors"]) == list(spec.actors)
                    assert list(state["arms"]) == list(ARM_TAGS)
                    for entry in state["actors"].values():
                        assert list(entry) == ["pose", "held_by"]
                        assert _finite_floats(entry["pose"], 7) and entry["held_by"] in (None, *ARM_TAGS)
                    for entry in state["arms"].values():
                        assert list(entry) == ["tcp", "gripper"]
                        assert _finite_floats(entry["tcp"], 7) and _finite_floats([entry["gripper"]], 1)
    assert len(texts) > 3000 and extreme > 500
    assert set(model.ERROR_CATEGORIES) - set(ends) == {"runtime_limit"}


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


def _around_scene(rec: dict) -> tuple:
    """The texts json.dumps(rec, ensure_ascii=False) writes before and after
    a snapshot record's scene."""
    before, after = json.dumps({**rec, "scene": 0}, ensure_ascii=False).split('"scene": 0, "program_context": ')
    return before + '"scene": ', ', "program_context": ' + after


def _reference_line(rec: dict) -> str:
    """json.dumps(rec, ensure_ascii=False), a snapshot's scene written as the
    JSON text it holds."""
    if rec["type"] != "snapshot":
        return json.dumps(rec, ensure_ascii=False)
    before, after = _around_scene(rec)
    return before + rec["scene"] + after


def _reference_text(logs) -> str:
    """What the trial writer must produce, byte for byte: json.dumps of every
    record, each scene as its text."""
    return "".join(_reference_line(rec) + "\n" for log in logs for rec in trial_records(log))


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
            loaded = load_trials(path)  # records shared across trials of equal lines
            assert "".join(trial_texts(loaded)) == _reference_text(loaded), (task, kind)


# An event's args as the executor renders them, for grasp_actor.
_GRASP_ARGS = {"actor": "shoe", "arm": "left", "pre_grasp_dis": "0.1", "grasp_dis": "0.0", "gripper_pos": "0.0",
               "contact_point_id": "auto"}


def _assert_round_trips(logs, path):
    """The trials load back from the writer's file, and write back the
    same bytes, which are json.dumps of the loaded records."""
    text = path.read_text(encoding="utf-8")
    loaded = load_trials(path)  # records shared across trials of equal lines
    assert "".join(trial_texts(loaded)) == _reference_text(loaded) == text


def test_trial_writer_matches_json_dumps_on_edge_values(tmp_path):
    """Heads and contexts that need escapes or hold % signs, and scene texts
    that are not ASCII (scene_texts' own edge values are checked in
    test_scene_texts_match_json_dumps_on_edge_values)."""
    still = (0.5, -0.25, 0.0, 1.0, 0.0, 0.0, 0.0)

    def scene(pose, held_by=None, gripper=1.0, odd_name="杯"):
        return json.dumps({
            "actors": {"Schuh_ß": {"pose": pose, "held_by": held_by}, odd_name: {"pose": still, "held_by": None}},
            "arms": {"left": {"tcp": still, "gripper": gripper}, "right": {"tcp": still, "gripper": gripper}},
        }, ensure_ascii=False)

    scenes = [scene((-0.0, 0.1, 0.2, 1.0, 0.0, 0.0, 0.0)), scene((5e-324, 1.5e300, 0.1 + 0.2, 1.0, 0.0, 0.0, 0.0)),
              scene(still, "left", -0.0), scene(still, odd_name='q"uote \\ %s'), scene(still), scene(still),
              json.dumps({"actors": {}, "arms": {}})]
    steps = ['say "hi"', "back\\slash", "tab\tand é", "", "100% of %s at %d", '"trial_index": 10']
    steps += [f"step{i}" for i in range(len(scenes) - len(steps))]
    log = TrialLog(trial_index=3, seed=-1, goal_met=True)
    log.events.append(SymbolicEvent(1, 1, "observe", {"step_name": '"q\\"'}, "success", "none", "", 0))
    log.events.append(SymbolicEvent(2, 1, "grasp_actor", _GRASP_ARGS, "failure", "collision", "100% at %s é", 0))
    log.snapshots += [Snapshot(step, 1, 1, t, text, f'observe("{step}")')
                      for t, (step, text) in enumerate(zip(steps, scenes), 1)]
    assert trial_text(log) == _reference_text([log])
    path = tmp_path / "trials.jsonl"
    dump_trials([log], path)
    _assert_round_trips([log], path)


def _random_trial_logs(rng: random.Random, n: int) -> list:
    """n trial logs, indexed 0..n-1, whose events share args dicts and
    whose snapshots share scene texts across snapshots and trials, with the
    values the executor makes at their edges."""
    zero = 0.0
    floats = [zero, -zero, 0.5, -0.25, 1.0, 1e-300, 5e-324, 1.5e300, 0.1 + 0.2]

    def pose():
        return tuple(rng.choice(floats) for _ in range(7))

    names = ["shoe", "target_block", "杯", "left", "right", "Schuh_ß", 'q"uote']
    poses = [pose() for _ in range(12)]
    actor_entries = [{"pose": rng.choice(poses), "held_by": rng.choice([None, "left", "right"])} for _ in range(10)]
    arm_entries = [{"tcp": rng.choice(poses), "gripper": rng.choice(floats)} for _ in range(6)]
    args_pool = [("observe", {"step_name": '"q\\"'}), ("observe", {"step_name": "100% of %s"}),
                 ("back_to_origin", {"arm": "left"}), ("open_gripper", {"arm": "right", "pos": "-0.0"}),
                 ("grasp_actor", _GRASP_ARGS)]

    def scene():
        return json.dumps({"actors": {rng.choice(names): rng.choice(actor_entries) for _ in range(rng.randrange(4))},
                           "arms": {tag: rng.choice(arm_entries) for tag in ARM_TAGS}}, ensure_ascii=False)

    ints = [0, 1, 2, 7, 10**20]
    texts = ["", "observe", "grasp_actor", "tab\tand é", "back\\slash", " ",
             '"trial_index": 1, "t": 0', "100% of %s at %d", '{"type": "summary", "trial_index": 10}']
    scenes = [scene() for _ in range(24)]  # each payload may recur, in one trial or in several

    def event(t):
        op_name, args = rng.choice(args_pool)
        return SymbolicEvent(rng.choice(ints), rng.choice(ints), op_name, args, rng.choice(["success", "failure"]),
                             rng.choice(["none", "collision"]), rng.choice(texts), t)

    # Events shared as the executor's rows share them: each may recur, in
    # one trial or in several, beside events equal to it.
    shared = [event(t) for t in range(6) for _ in range(3)]
    logs = []
    for index in range(n):
        log = TrialLog(trial_index=index, seed=rng.choice([index, -1, 2**40]), goal_met=rng.random() < 0.5)
        for t in range(rng.randrange(6)):
            log.events.append(rng.choice(shared) if rng.random() < 0.5 else event(t))
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
    """The writer's text is json.dumps of each record, each scene as its
    text, line by line."""
    dump_trials(logs, path)  # one args memo over every trial
    lines = path.read_text(encoding="utf-8").split("\n")
    records = [rec for log in logs for rec in trial_records(log)]
    assert lines.pop() == "" and len(lines) == len(records)
    for line, rec in zip(lines, records):
        assert line == _reference_line(rec)
    assert "".join(trial_texts(logs)) == _reference_text(logs)


def test_trial_writer_matches_json_dumps_on_random_logs(tmp_path):
    rng = random.Random(20)
    path = tmp_path / "trials.jsonl"
    for _ in range(5):
        logs = _random_trial_logs(rng, 120)
        _share_runs(rng, logs)
        _assert_writes_json_dumps(logs, path)
        _assert_round_trips(logs, path)
    # One run under indices that are prefixes of one another, broken by a
    # trial with lists of its own equal to the run's, with texts that hold a
    # trial index and % signs.
    events = [SymbolicEvent(1, 1, "grasp_actor", _GRASP_ARGS, "failure", "collision",
                            'ends "trial_index": 1, at 100%', 0)]
    snapshots = [Snapshot('"trial_index": 10', 1, 1, 0, '{"actors": {}, "arms": {}}', "%s %d %%")]
    logs = [TrialLog(index, seed, events, snapshots, index == 10) for index, seed in [(1, 2), (10, 3), (100, 4)]]
    logs.append(TrialLog(10, 5, list(events), list(snapshots)))
    logs += [TrialLog(100, 6, events, snapshots), TrialLog(1, 7, events, snapshots, True)]
    _assert_writes_json_dumps(logs, path)
    # One event object in consecutive trials, in trials apart and twice in
    # one trial, beside events equal to it that are other objects; and
    # snapshot heads equal but for the object.
    event = SymbolicEvent(1, 1, "grasp_actor", _GRASP_ARGS, "success", "none", "", 1)
    alike = [dataclasses.replace(event), dataclasses.replace(event, args=dict(_GRASP_ARGS)),
             dataclasses.replace(event, message="other")]
    scene = '{"actors": {}, "arms": {}}'
    heads = [Snapshot("step", 1, 1, t, scene, "ctx") for t in (1, 1, 2)]
    logs = [TrialLog(0, 0, [event, alike[0]], heads[:2]), TrialLog(1, 1, [event, event], heads[1:]),
            TrialLog(2, 2, [alike[1], alike[2]], heads[::-1]), TrialLog(3, 3, [alike[0], event], [heads[1]]),
            TrialLog(4, 4, [event], heads)]
    _assert_writes_json_dumps(logs, path)


# --- trials.jsonl reader -------------------------------------------------------


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
def test_load_trials_accepts_a_random_file_only_as_it_writes_it_back(tmp_path, noise):
    """Files of trials drawn from a few batches, so that lines repeat across
    trials at either noise (within a batch at noise 0, where a trial is
    drawn twice at noise 1), a few lines changed in most. A file that loads
    writes back the lines it holds (as a multiset: a line moved into
    another trial is written back in that trial's order); any other is an
    ArtifactError naming the file or one of its lines."""
    trials = []
    for task in ("place_shoe", "handover_block"):
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            logs = run_trials(program, spec, 3, base_seed=0, noise_scale=float(noise), max_steps=200)
            trials += [[_split(line) for line in trial_text(log).splitlines(keepends=True)] for log in logs]
    rng = random.Random(27 + noise)
    path = tmp_path / "trials.jsonl"
    outcomes = collections.Counter()
    for _ in range(200):
        lines = []
        for index in range(rng.randrange(1, 7)):
            lines += [[head, str(index), rest] for head, _, rest in rng.choice(trials)]
        mutations = rng.choice([0, 0, 1, 2])
        for _ in range(mutations):
            _mutate(rng, lines)
        text = "".join(map("".join, lines))
        path.write_text(text)
        try:
            written = "".join(trial_texts(load_trials(path)))
        except ArtifactError as exc:
            assert mutations and re.fullmatch(f"{re.escape(str(path))}(:[0-9]+)?", exc.field), exc
            outcomes["refused"] += 1
            continue
        assert collections.Counter(written.split("\n")) == collections.Counter(text.split("\n"))
        outcomes["accepted after a change" if mutations else "accepted"] += 1
    assert outcomes["accepted"] > 40 and outcomes["refused"] > 40 and outcomes["accepted after a change"], outcomes


def test_load_trials_shares_the_records_of_equal_lines(tmp_path, place_shoe_spec):
    """Trials of equal perturbations write equal lines but for the index:
    loaded, they share their record objects, as the executor's trials do."""
    path = tmp_path / "trials.jsonl"
    _dumped(path, place_shoe_spec, 3)
    first, *others = load_trials(path)
    for log in others:
        assert len(log.events) == len(first.events) and len(log.snapshots) == len(first.snapshots)
        assert all(map(operator.is_, log.events + log.snapshots, first.events + first.snapshots))


def test_load_trials_decodes_a_line_one_byte_off_a_memoized_one(tmp_path, place_shoe_spec):
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith('{"type": "snapshot", ')][-1]  # trial 1's last
    start = lines[at].index('"step_name": "') + len('"step_name": "')
    lines[at] = lines[at][:start] + "X" + lines[at][start + 1:]
    path.write_text("".join(lines))
    first, second = loaded = load_trials(path)
    assert second.snapshots[-1].step_name == "X" + first.snapshots[-1].step_name[1:] != first.snapshots[-1].step_name
    assert second.snapshots[:-1] == first.snapshots[:-1]
    assert "".join(trial_texts(loaded)) == "".join(lines)


def _respelled(line: str, respell: str) -> str:
    """The line, ending in its newline, spelled otherwise than the writer
    spells it but decoding to the same record."""
    record = json.loads(line)
    if respell == "reordered":
        return json.dumps(dict(reversed(record.items())), ensure_ascii=False) + "\n"
    if respell == "compact":
        return json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n"
    if respell == "ascii_escape":  # a key's first letter as a \u escape
        return re.sub(r'"(\w)(\w*)": (?!.*"type": )', lambda m: f'"\\u{ord(m[1]):04x}{m[2]}": ', line, count=1)
    if respell in ("second_index_key", "second_index_key_escaped"):
        key = _SECOND_INDEX_KEYS[respell.endswith("escaped")]
        return f"{line[:-2]}, {key}: {record['trial_index']}}}\n"
    if respell == "index_minus_zero":
        return line.replace('"trial_index": 0, ', '"trial_index": -0, ', 1)
    return {"trailing_space": line[:-1] + " \n", "crlf": line[:-1] + "\r\n",
            "space_before_value": line.replace(": ", ":  ", 1)}[respell]


_RESPELLINGS = ["reordered", "compact", "ascii_escape", "second_index_key", "second_index_key_escaped",
                "index_minus_zero", "trailing_space", "crlf", "space_before_value"]


@pytest.mark.parametrize("key", _SECOND_INDEX_KEYS, ids=["plain", "escaped"])
def test_load_trials_takes_a_second_trial_index_key_as_the_decoder_does(tmp_path, place_shoe_spec, key):
    """Every event line of a 2-trial file given a second trial index key of
    0, which the decoder takes over the first: trial 1's first event decodes
    to a record of trial 0, and no line with the second key is the writer's
    text of the record it decodes to, so the file is refused at its first
    event line."""
    path = tmp_path / "trials.jsonl"
    lines = [line[:-2] + f", {key}: 0}}\n" if line.startswith('{"type": "event", ') else line
             for line in _dumped(path, place_shoe_spec, 2)]
    path.write_text("".join(lines))
    second = next(line for line in lines if line.startswith('{"type": "event", "trial_index": 1, '))
    assert json.loads(second)["trial_index"] == 0
    at = next(i for i, line in enumerate(lines) if line.startswith('{"type": "event", ')) + 1
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert str(exc.value) == f"{path}:{at}: not the trial writer's text of its record"


@pytest.mark.parametrize("kind", ["event", "snapshot", "summary"])
@pytest.mark.parametrize("respell", _RESPELLINGS)
def test_load_trials_refuses_a_line_that_is_not_the_writers_text_of_its_record(tmp_path, place_shoe_spec, kind,
                                                                               respell):
    """A line that decodes to a well-formed record, but is not the text the
    writer writes for it, is refused at its line: the writer never writes
    it, and the file written back would not be the file read."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith(f'{{"type": "{kind}", "trial_index": 0, ')][-1]
    written = lines[at]
    lines[at] = _respelled(written, respell)
    assert lines[at] != written and json.loads(lines[at]) == json.loads(written)
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert str(exc.value) == f"{path}:{at + 1}: not the trial writer's text of its record"


@pytest.mark.parametrize("edit, at, reason", [
    (lambda lines: lines.insert(1, "\n"), 2, "not JSON: line 1, col 1: Expecting value"),
    (lambda lines: lines.insert(1, " \n"), 2, "not JSON: line 1, col 2: Expecting value"),
    (lambda lines: lines.__setitem__(-1, lines[-1][:-1]), -1, "not the trial writer's text of its record"),
    (lambda lines: lines.__setitem__(1, lines[1].replace('"trial_index": 0', '"trial_index": 00', 1)), 2,
     "not JSON: line 1, col 35: Expecting ',' delimiter"),
    (lambda lines: lines.__setitem__(1, lines[1].replace('"trial_index": 0', '"trial_index": 0.0', 1)), 2,
     "trial_index: expected an integer, got 0.0"),
    (lambda lines: lines.__setitem__(-1, re.sub('"goal_met": (true|false)', '"goal_met": 1', lines[-1])), -1,
     "summary.goal_met: expected true or false, got 1"),
    (lambda lines: lines.insert(1, lines[0].replace('"type": "snapshot"', '"type": "event"', 1)), 2,
     "event.step_name: unexpected field"),
], ids=["blank_line", "space_line", "no_last_newline", "index_leading_zero", "index_float", "goal_met_number",
        "snapshot_as_event"])
def test_load_trials_refuses_a_line_no_record_of_the_writer_spells(tmp_path, place_shoe_spec, edit, at, reason):
    """A blank line, a last line without its newline, an index as JSON does
    not write an integer, a summary's goal as a number, or a snapshot read
    just before under an event's head, is refused at its line, with what
    decoding the line whole finds at fault."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 1)
    edit(lines)
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert str(exc.value) == f"{path}:{at % (len(lines) + 1)}: {reason}"


@pytest.mark.parametrize("indices", [("1" * 18 + "9", "2" * 18 + "9"), ("1" + "0" * 18, "2" + "0" * 18)],
                         ids=["19_digits", "10_to_the_18"])
def test_load_trials_reads_a_long_index_as_the_writer_writes_it(tmp_path, place_shoe_spec, indices):
    """Trials 1 and 2 of a 3-trial file, whose lines equal trial 0's but
    for an index of 19 digits: each line is the writer's text of its record,
    so the trials load under those indices and write the file back."""
    path = tmp_path / "trials.jsonl"
    lines = [_split(line) for line in _dumped(path, place_shoe_spec, 3)]
    for line in lines:
        line[1] = {"0": "0", "1": indices[0], "2": indices[1]}[line[1]]
    text = "".join(map("".join, lines))
    path.write_text(text)
    loaded = load_trials(path)
    assert [log.trial_index for log in loaded] == [0, *map(int, indices)]
    assert "".join(trial_texts(loaded)) == text


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any length")
@pytest.mark.parametrize("kind, field", [("event", "trial_index"), ("snapshot", "trial_index"),
                                         ("snapshot", "stmt_id"), ("summary", "trial_index"), ("summary", "seed")])
def test_load_trials_refuses_an_int_that_int_cannot_read(tmp_path, place_shoe_spec, kind, field):
    """An integer of more digits than int() reads, as the writer would
    write it, is refused at its line, never a traceback."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 1)
    at = [i for i, line in enumerate(lines) if line.startswith(f'{{"type": "{kind}", ')][-1]
    lines[at] = re.sub(f'"{field}": [0-9]+', f'"{field}": {"7" * 5000}', lines[at], count=1)
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert exc.value.field == f"{path}:{at + 1}" and exc.value.reason.startswith("not JSON: ")


@pytest.mark.parametrize("fault", ["not_json", "t_not_int"])
def test_load_trials_refuses_a_repeated_malformed_line_at_its_first(tmp_path, place_shoe_spec, fault):
    """Trial 0's first event line and trial 1's, equal but for the index,
    broken alike: the file is refused at trial 0's."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    events = [i for i, line in enumerate(lines) if line.startswith('{"type": "event", ')]
    for at in events[0], events[len(events) // 2]:
        lines[at] = lines[at][:-2] + "\n" if fault == "not_json" else re.sub(r'"t": \d+', '"t": "x"', lines[at])
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert exc.value.field == f"{path}:{events[0] + 1}"
    assert exc.value.reason == "event.t: expected an integer, got 'x'" or fault == "not_json"


def test_load_trials_refuses_an_event_field_of_another_type_at_its_line(tmp_path, place_shoe_spec):
    """An event is frozen: a field of another type is refused as an
    artifact error naming path:line, never by assigning to the event."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith('{"type": "event", ')][-1]  # trial 1's last
    lines[at] = json.dumps({**json.loads(lines[at]), "stmt_id": "x"}) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert (exc.value.code, str(exc.value)) == (
        "artifact_error", f"{path}:{at + 1}: event.stmt_id: expected an integer, got 'x'")


@pytest.mark.parametrize("written, mutated, field", [
    ('"outcome": "success"', '"outcome": "succes"', "outcome"),
    ('"error_category": "none"', '"error_category": "no[e"', "error_category"),
    ('"op_name": "place_actor"', '"op_name": "/place_actor"', "op_name"),
    ('"arm": "left"', '"arn": "left"', "args"),
    ('"arm": "left"', '"arm": "eft"', "args.arm"),
    ('"is_open": "true"', '"is_open": "True"', "args.is_open"),
    ('"constrain": "align"', '"constrain": "align "', "args.constrain"),
    ('"move_axis": "world"', '"move_axis": 0', "args.move_axis"),
])
def test_load_trials_refuses_an_event_the_executor_could_not_make(tmp_path, place_shoe_spec, written, mutated,
                                                                  field):
    """An event's op, outcome and error category are closed vocabularies,
    its args' keys are its op's parameters, and an arm, bool or enum arg is
    one of its kind's values: any other is refused as an artifact error
    naming path:line, never by assigning to the event."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith('{"type": "event", ') and written in line][-1]
    lines[at] = lines[at].replace(written, mutated, 1)
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert exc.value.code == "artifact_error"
    assert str(exc.value).startswith(f"{path}:{at + 1}: event.{field}: ")


@pytest.mark.parametrize("scene", ["[]", "1", '"x"', "null", "NaN", '[{"actors": {}, "arms": {}}]'])
@pytest.mark.parametrize("layout", ["writer", "compact"])
def test_load_trials_refuses_a_snapshot_whose_scene_is_not_an_object(tmp_path, place_shoe_spec, scene, layout):
    """Read piecewise or decoded whole, a scene that is not a JSON object is
    an artifact error naming path:line and the field."""
    path = tmp_path / "trials.jsonl"
    lines = _dumped(path, place_shoe_spec, 2)
    at = [i for i, line in enumerate(lines) if line.startswith('{"type": "snapshot", ')][-1]  # trial 1's last
    record = json.loads(lines[at])
    if layout == "writer":
        before, after = _around_scene(record)
        lines[at] = before + scene + after + "\n"
    else:
        lines[at] = json.dumps({**record, "scene": json.loads(scene)}, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ArtifactError) as exc:
        load_trials(path)
    assert str(exc.value) == f"{path}:{at + 1}: snapshot.scene: expected an object, got {json.loads(scene)!r}"


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
                text = "".join(trial_texts(logs))
                digests[f"{task}/{kind}/noise{noise}"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return digests


def test_sim_digests_match_golden():
    expected = json.loads(GOLDEN_DIGESTS.read_text(encoding="utf-8"))
    assert sim_digests() == expected


if __name__ == "__main__":
    # Re-record the golden digests: PYTHONPATH=src:tests python tests/test_sim.py
    GOLDEN_DIGESTS.write_text(json.dumps(sim_digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
