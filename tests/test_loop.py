import gc
import json
import random
import re
import tracemalloc
from dataclasses import asdict, fields, replace
from pathlib import Path

import pytest

from armloop import loop
from armloop.agents import AgentConfig, Diagnosis, SubgoalVerdict
from armloop.dsl import parse, to_text
from armloop.errors import ArtifactError, MalformedReplyError
from armloop.harness import TrialScore
from armloop.loop import (
    CampaignConfig,
    CampaignRecord,
    CandidateRecord,
    LoopConfig,
    RepairSignal,
    _expand_env,
    fuse,
    iteration_base_seed,
    load_campaign_config,
    run_campaign,
    run_loop,
)
from armloop.scene import load_task_spec
from armloop.sim import run_trials, trial_texts
from armloop.sim.model import ERROR_CATEGORIES, SymbolicEvent, TrialLog, load_trials

from conftest import TASK_NAMES, TASKS_DIR, program_path, task_path
from test_metrics import asr, cr_iter, top5_asr


def _program():
    return parse(
        "program t\n"
        'subgoal "grab"\n'
        "  grasp_actor(shoe, left)\n"
        "  move_by_displacement(left, z=0.07)\n"
        'subgoal "put"\n'
        "  place_actor(shoe, left, fp(target_block, 0))\n"
        "  back_to_origin(left)\n"
    )


def _event(stmt_id, subgoal, outcome="success", category="none", message=""):
    return SymbolicEvent(
        stmt_id=stmt_id, subgoal_index=subgoal, op_name="x", args={},
        outcome=outcome, error_category=category, message=message, t=stmt_id,
    )


def _verdict(subgoal, stmt, cause, rationale="looked off"):
    return SubgoalVerdict(
        index=subgoal, passed=False, deviation_stmt=stmt,
        cause=cause, rationale=rationale,
    )


def test_fuse_agreement_single_entry():
    log = TrialLog(0, 0, events=[
        _event(1, 1), _event(2, 1), _event(3, 2, "failure", "grasp_slip", "slipped"),
    ], goal_met=False)
    diagnosis = Diagnosis(False, [SubgoalVerdict(1, True), _verdict(2, 3, "execution_failure")])
    signal = fuse(log, diagnosis, _program())
    assert [f.stmt_id for f in signal.faults] == [3]
    fault = signal.faults[0]
    assert fault.source == "both"
    assert fault.cause == "execution_failure"
    assert fault.symbolic_error_category == "grasp_slip"
    assert signal.last_error == "slipped"


def test_fuse_silent_failure_perceptual_only():
    log = TrialLog(0, 0, events=[_event(i, (i > 2) + 1) for i in range(1, 5)], goal_met=False)
    diagnosis = Diagnosis(False, [SubgoalVerdict(1, True), _verdict(2, 5, "perception_mismatch")])
    program = _program()
    put = program.subgoals[1]
    put = replace(put, statements=(replace(put.statements[0], id=5), *put.statements[1:]))  # align ids with the diagnosis
    signal = fuse(log, diagnosis, replace(program, subgoals=(program.subgoals[0], put)))
    assert [f.source for f in signal.faults] == ["perceptual"]
    assert signal.faults[0].stmt_id == 5
    assert "goal predicate not satisfied" in signal.last_error


def test_fuse_disagreement_symbolic_ranked_first():
    log = TrialLog(0, 0, events=[
        _event(1, 1), _event(2, 1), _event(3, 2, "failure", "unreachable", "cannot reach"),
    ], goal_met=False)
    diagnosis = Diagnosis(False, [SubgoalVerdict(1, True), _verdict(2, 4, "logic_error")])
    signal = fuse(log, diagnosis, _program())
    assert [f.stmt_id for f in signal.faults] == [3, 4]
    assert [f.source for f in signal.faults] == ["symbolic", "perceptual"]
    assert signal.faults[0].cause == "geometric_infeasibility"
    assert signal.faults[1].cause == "logic_error"


def test_fuse_earlier_subgoal_ranks_first():
    log = TrialLog(0, 0, events=[
        _event(1, 1), _event(2, 1), _event(3, 2, "failure", "not_held", "not holding"),
    ], goal_met=False)
    diagnosis = Diagnosis(False, [_verdict(1, 2, "logic_error"), _verdict(2, 3, "logic_error")])
    signal = fuse(log, diagnosis, _program())
    assert [f.stmt_id for f in signal.faults] == [2, 3]
    assert [f.subgoal_index for f in signal.faults] == [1, 2]


def test_fuse_symbolic_only_with_empty_diagnosis():
    log = TrialLog(0, 0, events=[
        _event(1, 1, "failure", "collision", "bumped"),
    ], goal_met=False)
    signal = fuse(log, Diagnosis(), _program())
    assert [f.stmt_id for f in signal.faults] == [1]
    assert signal.faults[0].source == "symbolic"
    assert signal.observation_feedback == "No perceptual diagnosis available."


def test_fuse_empty_diagnosis_silent_log_yields_no_faults():
    log = TrialLog(0, 0, events=[_event(1, 1), _event(2, 2)], goal_met=False)
    signal = fuse(log, Diagnosis(), _program())
    assert signal.faults == []
    assert "- [subgoal " not in signal.render_feedback()


def test_fuse_edit_class_mapping_total():
    from armloop.agents.diagnosis import CAUSES
    from armloop.loop import EDIT_CLASS_FROM_CAUSE

    assert set(EDIT_CLASS_FROM_CAUSE) == set(CAUSES)
    assert EDIT_CLASS_FROM_CAUSE["api_misuse"] == "api_substitution"
    assert EDIT_CLASS_FROM_CAUSE["geometric_infeasibility"] == "parameter_retune"
    assert EDIT_CLASS_FROM_CAUSE["execution_failure"] == "parameter_retune"
    assert EDIT_CLASS_FROM_CAUSE["logic_error"] == "logic_rewrite"
    assert EDIT_CLASS_FROM_CAUSE["perception_mismatch"] == "logic_rewrite"


def test_repair_signal_json_roundtrip():
    log = TrialLog(0, 0, events=[
        _event(1, 1), _event(2, 1), _event(3, 2, "failure", "grasp_slip", "slipped"),
    ], goal_met=False)
    diagnosis = Diagnosis(False, [SubgoalVerdict(1, True), _verdict(2, 3, "execution_failure")])
    signal = fuse(log, diagnosis, _program())
    assert RepairSignal.from_json(asdict(signal), "repair_signal.json") == signal


def test_repair_signal_from_json_names_the_malformed_field():
    """repair_signal.json is read through the checked reader: a field of the
    wrong JSON type, in the signal or in a fault entry, is an
    artifact_error that names it, as are a missing and an unexpected one."""
    log = TrialLog(0, 0, events=[_event(1, 1), _event(2, 2, "failure", "grasp_slip", "slipped")], goal_met=False)
    raw = asdict(fuse(log, Diagnosis(), _program()))
    assert raw["faults"]
    bad_entry = {**raw, "faults": [{**raw["faults"][0], "stmt_id": "x"}]}
    cases = [
        (bad_entry, "repair_signal.json: faults[0].stmt_id"),
        ({**raw, "faults": 5}, "repair_signal.json.faults"),
        ({**raw, "faults": [{**raw["faults"][0], "stmt_id": True}]}, "repair_signal.json: faults[0].stmt_id"),
        ({**raw, "faults": [{**raw["faults"][0], "cause": None}]}, "repair_signal.json: faults[0].cause"),
        ({**raw, "faults": [{**raw["faults"][0], "why": "x"}]}, "repair_signal.json: faults[0].why"),
        ({**raw, "faults": ["x"]}, "repair_signal.json: faults[0]"),
        ({**raw, "faults": [{k: v for k, v in raw["faults"][0].items() if k != "perceptual_rationale"}]},
         "repair_signal.json: faults[0]"),
        ({**raw, "last_error": 3}, "repair_signal.json.last_error"),
        ({"faults": []}, "repair_signal.json"),
        ([], "repair_signal.json"),
    ]
    for bad, field in cases:
        with pytest.raises(ArtifactError) as info:
            RepairSignal.from_json(bad, "repair_signal.json")
        assert info.value.code == "artifact_error"
        assert info.value.field == field, bad


def _fault_json(**changes) -> dict:
    """A repair_signal.json whose one fault, as fuse makes it, has these
    fields changed."""
    log = TrialLog(0, 0, events=[_event(1, 1), _event(2, 2, "failure", "grasp_slip", "slipped")], goal_met=False)
    raw = asdict(fuse(log, Diagnosis(), _program()))
    RepairSignal.from_json(raw, "repair_signal.json")  # fuse's own entry passes
    return {**raw, "faults": [{**raw["faults"][0], **changes}]}


@pytest.mark.parametrize("name, value, reason", [
    ("stmt_id", 0, "must be at least 1, got 0"),
    ("subgoal_index", 0, "must be at least 1, got 0"),
    ("subgoal_index", -7, "must be at least 1, got -7"),
])
def test_repair_signal_from_json_refuses_an_index_below_1(name, value, reason):
    """Statement ids and subgoal indices count from 1, as fuse makes them."""
    with pytest.raises(ArtifactError) as info:
        RepairSignal.from_json(_fault_json(**{name: value}), "repair_signal.json")
    assert (info.value.field, info.value.reason) == (f"repair_signal.json: faults[0].{name}", reason)


def test_repair_signal_from_json_refuses_an_unknown_cause():
    with pytest.raises(ArtifactError) as info:
        RepairSignal.from_json(_fault_json(cause="banana"), "repair_signal.json")
    assert info.value.field == "repair_signal.json: faults[0].cause"
    assert info.value.reason.startswith("expected one of ['logic_error', ") and "got 'banana'" in info.value.reason


def test_repair_signal_from_json_refuses_an_unknown_source():
    with pytest.raises(ArtifactError) as info:
        RepairSignal.from_json(_fault_json(source="nobody"), "repair_signal.json")
    assert info.value.field == "repair_signal.json: faults[0].source"
    assert info.value.reason == "expected one of ['symbolic', 'perceptual', 'both'], got 'nobody'"


@pytest.mark.parametrize("category", ["zzz", "none"])
def test_repair_signal_from_json_refuses_a_category_that_no_failure_has(category):
    """A fault's error category is a failure's, or null for a perceptual
    fault; "none" is a success's."""
    assert RepairSignal.from_json(_fault_json(symbolic_error_category=None), "repair_signal.json")
    with pytest.raises(ArtifactError) as info:
        RepairSignal.from_json(_fault_json(symbolic_error_category=category), "repair_signal.json")
    assert info.value.field == "repair_signal.json: faults[0].symbolic_error_category"
    assert info.value.reason == f"expected one of {list(ERROR_CATEGORIES[1:])}, got {category!r}"


def test_repair_signal_from_json_refuses_an_edit_class_its_cause_does_not_map_to():
    raw = _fault_json()
    assert raw["faults"][0]["suggested_edit_class"] == "parameter_retune"  # grasp_slip: execution_failure
    for edit_class in ("logic_rewrite", "rewrite_everything"):
        with pytest.raises(ArtifactError) as info:
            RepairSignal.from_json(_fault_json(suggested_edit_class=edit_class), "repair_signal.json")
        assert info.value.field == "repair_signal.json: faults[0].suggested_edit_class"
        assert info.value.reason == (f"expected 'parameter_retune' for cause 'execution_failure', "
                                     f"got {edit_class!r}")


def test_fuse_refuses_a_verdict_index_below_1():
    """A remote verdict's index is the reply's own: one below 1 names no
    subgoal, and fuse refuses it as it refuses an unknown statement."""
    log = TrialLog(0, 0, events=[_event(1, 1), _event(2, 2)], goal_met=False)
    diagnosis = Diagnosis(False, [SubgoalVerdict(1, True), _verdict(0, 3, "logic_error")])
    with pytest.raises(MalformedReplyError) as info:
        fuse(log, diagnosis, _program())
    assert info.value.field == "reply.subgoals[1].index"


# --- loop ---------------------------------------------------------------------


def _loop_cfg(mode="hybrid", max_iterations=5, n_trials=10):
    return LoopConfig(
        synthesis=AgentConfig(backend="mock"),
        verifier=AgentConfig(backend="mock"),
        n_trials=n_trials,
        max_iterations=1 if mode == "one_shot" else max_iterations,
        perception=(mode == "hybrid"),
    )


def _playbook(*kinds, task="place_shoe"):
    """The texts of the task's bundled programs of these kinds, in order."""
    return [program_path(task, kind).read_text() for kind in kinds]


def _cr_iter(result, cfg):
    """CR-Iter of a loop's batches, by the rule campaign.json rows are built with."""
    batches = [(it.success_count, it.n_trials) for it in result.iterations]
    return CandidateRecord.of(0, cfg.base_seed, batches, cfg.success_threshold, cfg.max_iterations, None).cr_iter


def test_loop_buggy_then_fixed_converges_in_two(place_shoe_spec):
    cfg = _loop_cfg()
    result = run_loop(place_shoe_spec, cfg, playbook=_playbook("loud", "correct"))
    assert result.converged
    assert _cr_iter(result, cfg) == 2
    assert result.iterations[0].success_count == 0
    assert result.iterations[1].success_count == 10


def test_loop_one_shot_success(place_shoe_spec):
    cfg = _loop_cfg()
    result = run_loop(place_shoe_spec, cfg, playbook=_playbook("correct"))
    assert result.converged
    assert _cr_iter(result, cfg) == 1


def test_loop_permanently_broken_hits_cap(place_shoe_spec):
    cfg = _loop_cfg()
    result = run_loop(place_shoe_spec, cfg, playbook=_playbook(*["loud"] * 5))
    assert not result.converged
    assert _cr_iter(result, cfg) == 5
    assert len(result.iterations) == 5


def test_loop_fresh_seeds_per_iteration(place_shoe_spec, tmp_path):
    cfg = _loop_cfg()
    cfg.base_seed = 1000
    result = run_loop(place_shoe_spec, cfg, out_dir=tmp_path, playbook=_playbook("loud", "correct"))
    assert len(result.iterations) == 2
    first = [log.seed for log in load_trials(tmp_path / "iter_1" / "trials.jsonl")]
    second = [log.seed for log in load_trials(tmp_path / "iter_2" / "trials.jsonl")]
    assert first == list(range(1000, 1010))
    assert second == list(range(1010, 1020))


def _loop_peak(spec, kinds, out) -> int:
    """The traced memory peak of one place_shoe loop over these programs, at
    40 noisy trials per batch."""
    cfg = _loop_cfg(max_iterations=len(kinds), n_trials=40)
    cfg.noise_scale = 1.0
    gc.collect()  # also empties the free lists, so that each peak starts alike
    tracemalloc.start()
    try:
        result = run_loop(spec, cfg, out_dir=out, playbook=_playbook(*kinds))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.iterations) == len(kinds) and result.converged
    return peak


def test_loop_holds_one_batch_of_trials_not_every_iteration(place_shoe_spec, tmp_path):
    """An iteration's trials are written and dropped before the next one
    runs: a 4-iteration loop peaks little above a 1-iteration one."""
    _loop_peak(place_shoe_spec, ["loud", "correct"], tmp_path / "warm")
    one = _loop_peak(place_shoe_spec, ["correct"], tmp_path / "one")
    four = _loop_peak(place_shoe_spec, ["loud"] * 3 + ["correct"], tmp_path / "four")
    assert four <= 1.3 * one, (one, four)


def test_loop_silent_failure_needs_perception(place_shoe_spec):
    playbook = _playbook("silent", "correct")
    hybrid_cfg, symbolic_cfg = _loop_cfg(mode="hybrid"), _loop_cfg(mode="symbolic")
    hybrid = run_loop(place_shoe_spec, hybrid_cfg, playbook=playbook)
    assert hybrid.converged and _cr_iter(hybrid, hybrid_cfg) == 2
    symbolic = run_loop(place_shoe_spec, symbolic_cfg, playbook=playbook)
    assert not symbolic.converged
    assert _cr_iter(symbolic, symbolic_cfg) == 5


def _counted_loop(monkeypatch, spec, cfg, playbook, out) -> tuple:
    """The iterations and run_trials calls of one loop, after checking that
    each iteration's trials.jsonl is what run_trials makes afresh of its
    instrumented program and seeds."""
    calls = []
    monkeypatch.setattr(loop, "run_trials", lambda *args: calls.append(args) or run_trials(*args))
    result = run_loop(spec, cfg, out_dir=out, playbook=playbook)
    for record in result.iterations:
        fresh = run_trials(record.instrumented, spec, cfg.n_trials,
                           iteration_base_seed(cfg.base_seed, record.index, cfg.n_trials), cfg.noise_scale,
                           cfg.max_steps)
        assert (out / f"iter_{record.index}" / "trials.jsonl").read_text() == "".join(trial_texts(fresh))
    return len(result.iterations), len(calls)


def test_loop_reuses_the_batch_of_an_unchanged_program_at_noise_0(monkeypatch, tmp_path, place_shoe_spec):
    """Symbolic mode is stuck on a silent failure: the repair hands back the
    same program, whose batch at noise 0 is a function of the program, so
    one simulation serves all five iterations, each under its own seeds."""
    cfg = _loop_cfg(mode="symbolic")
    assert cfg.noise_scale == 0.0
    iterations, calls = _counted_loop(monkeypatch, place_shoe_spec, cfg, _playbook("silent", "correct"), tmp_path)
    assert (iterations, calls) == (5, 1)


def test_loop_simulates_every_batch_where_a_draw_is_read(monkeypatch, tmp_path, place_shoe_spec):
    """At noise 1 each batch of the same program is simulated, also on a
    task whose sigmas are 0 but whose grasps slip with p = 0.5."""
    cfg = _loop_cfg(mode="symbolic")
    cfg.noise_scale = 1.0
    assert _counted_loop(monkeypatch, place_shoe_spec, cfg, _playbook("silent"), tmp_path / "noisy") == (5, 5)
    raw = json.loads(task_path("place_shoe").read_text())
    raw["noise"] = {"pos_sigma": 0.0, "rot_sigma": 0.0, "slip_base": 0.5}
    path = tmp_path / "zero_sigma.task.json"
    path.write_text(json.dumps(raw))
    slippery = load_task_spec(path)
    assert not slippery.noise.draws_unread(cfg.noise_scale) and slippery.noise.draws_unread(0.0)
    assert _counted_loop(monkeypatch, slippery, cfg, _playbook("silent"), tmp_path / "slip") == (5, 5)


def test_loop_simulates_a_program_equal_but_for_a_signed_zero(monkeypatch, tmp_path, place_shoe_spec):
    """A pose literal's -0.0 compares equal to 0.0 but reaches the
    snapshots, so a repair that only flips such a sign is simulated."""
    silent = program_path("place_shoe", "silent").read_text()
    flipped = silent.replace("1.0, 0.0, 0.0, 0.0)", "1.0, -0.0, 0.0, 0.0)")
    assert flipped != silent and parse(flipped) == parse(silent)
    cfg = _loop_cfg(mode="hybrid", max_iterations=3)
    iterations, calls = _counted_loop(monkeypatch, place_shoe_spec, cfg, [silent, flipped, flipped], tmp_path)
    assert (iterations, calls) == (3, 2)
    assert (tmp_path / "iter_1" / "trials.jsonl").read_text() != (tmp_path / "iter_2" / "trials.jsonl").read_text()


def test_instrumented_prog_keeps_a_signed_zero_default_and_replays_its_trials(tmp_path, place_shoe_spec):
    """An argument of -0.0 whose default is 0.0 reaches the events as "-0.0",
    so the printer keeps it: the iteration's instrumented.prog parses back
    with the sign and replays to its own trials.jsonl byte for byte."""
    text = program_path("place_shoe", "correct").read_text().replace(
        "move_by_displacement(left, z=0.07)", "move_by_displacement(left, x=-0.0, z=0.07)", 1)
    back = parse(to_text(parse(text)))
    assert str(back.subgoals[0].statements[1].args["x"]) == "-0.0"
    cfg = _loop_cfg(mode="one_shot", n_trials=3)
    run_loop(place_shoe_spec, cfg, out_dir=tmp_path, playbook=[text])
    stored = (tmp_path / "iter_1" / "trials.jsonl").read_text()
    assert '"x": "-0.0"' in stored
    instrumented = parse((tmp_path / "iter_1" / "instrumented.prog").read_text())
    replayed = run_trials(instrumented, place_shoe_spec, cfg.n_trials,
                          iteration_base_seed(cfg.base_seed, 1, cfg.n_trials), cfg.noise_scale, cfg.max_steps)
    assert "".join(trial_texts(replayed)) == stored


def test_loop_persists_all_artifacts(tmp_path, place_shoe_spec):
    result = run_loop(place_shoe_spec, _loop_cfg(), out_dir=tmp_path, playbook=_playbook("loud", "correct"))
    assert result.converged
    iter1 = tmp_path / "iter_1"
    for name in ("program.prog", "instrumented.prog", "trials.jsonl", "scores.json",
                 "diagnosis.json", "repair_signal.json"):
        assert (iter1 / name).exists(), name
    # Converged final iteration has no diagnosis to persist.
    iter2 = tmp_path / "iter_2"
    assert (iter2 / "trials.jsonl").exists()
    assert not (iter2 / "diagnosis.json").exists()


def test_fuse_replayable_from_artifacts(tmp_path, place_shoe_spec):
    run_loop(place_shoe_spec, _loop_cfg(), out_dir=tmp_path, playbook=_playbook("silent", "correct"))
    iter1 = tmp_path / "iter_1"
    stored = RepairSignal.from_json(json.loads((iter1 / "repair_signal.json").read_text()), "repair_signal.json")
    diagnosis = Diagnosis.from_json(json.loads((iter1 / "diagnosis.json").read_text()))
    logs = load_trials(iter1 / "trials.jsonl")
    scores = json.loads((iter1 / "scores.json").read_text())
    program = parse((iter1 / "instrumented.prog").read_text())
    replayed = fuse(logs[scores["selected_index"]], diagnosis, program)
    assert replayed == stored


def test_loop_verifier_reported_success_on_a_missed_batch(tmp_path, monkeypatch, place_shoe_spec):
    """A remote verifier that reports success on a batch that missed the
    goal: the iteration persists an empty repair signal whose feedback
    renders the decomposed subgoals (the task's templates, not the
    program's own subgoal texts), and the playbook does not advance."""
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    loud = tmp_path / "loud.prog"
    loud.write_text(program_path("place_shoe", "loud").read_text()
                    .replace('"pick up the shoe"', '"grab"')
                    .replace('"place the shoe on the target block"', '"put"'))
    reply = {"overall_success": True, "subgoals": [{"index": 1, "passed": True, "rationale": "held"},
                                                   {"index": 2, "passed": True, "rationale": "placed"}]}
    calls = []

    def transport(url, headers, payload, timeout):
        calls.append(payload)
        return 200, json.dumps({"choices": [{"message": {"content": json.dumps(reply)}}]})

    cfg = _loop_cfg(max_iterations=2)
    cfg.verifier = AgentConfig(backend="remote", endpoint="https://example.test/v1/chat", model="m",
                               api_key_env="ARMLOOP_TEST_KEY")
    result = run_loop(place_shoe_spec, cfg, out_dir=tmp_path / "run", transport=transport,
                      playbook=[loud.read_text(), *_playbook("correct")])
    assert not result.converged and len(calls) == 2
    assert [it.success_count for it in result.iterations] == [0, 0]
    first, second = result.iterations
    assert second.program == first.program  # the empty signal leaves the playbook where it was
    assert first.signal.faults == [] and first.diagnosis.overall_success
    iter1 = tmp_path / "run" / "iter_1"
    assert (iter1 / "repair_signal.json").read_text() == (
        '{\n'
        '  "faults": [],\n'
        '  "last_error": "trials missed the goal but the verifier reported success",\n'
        '  "observation_feedback": "Subgoal 1 (pick up the shoe): completed\\n'
        'Subgoal 2 (place the shoe on the target block): completed"\n'
        '}\n')
    assert (iter1 / "diagnosis.json").read_text() == (
        '{\n'
        '  "overall_success": true,\n'
        '  "subgoals": [\n'
        '    {\n'
        '      "index": 1,\n'
        '      "passed": true,\n'
        '      "deviation_stmt": null,\n'
        '      "cause": null,\n'
        '      "rationale": "held"\n'
        '    },\n'
        '    {\n'
        '      "index": 2,\n'
        '      "passed": true,\n'
        '      "deviation_stmt": null,\n'
        '      "cause": null,\n'
        '      "rationale": "placed"\n'
        '    }\n'
        '  ]\n'
        '}\n')
    for name in ("repair_signal.json", "diagnosis.json"):
        assert (tmp_path / "run" / "iter_2" / name).read_bytes() == (iter1 / name).read_bytes(), name


# --- campaign -------------------------------------------------------------------


def _campaign_cfg(task, mode="hybrid"):
    candidates = [_playbook("loud", "correct", task=task), _playbook("silent", "correct", task=task),
                  _playbook("correct", task=task)]
    return CampaignConfig(loop=_loop_cfg(mode=mode), candidates=candidates)


def test_invalid_playbook_program_is_agent_failure(tmp_path, place_shoe_spec):
    from armloop.errors import AgentFailureError

    bad = tmp_path / "bad.prog"
    bad.write_text('program t\nsubgoal "s"\n  grasp_actor(ghost, left)\n')
    with pytest.raises(AgentFailureError):
        run_loop(place_shoe_spec, _loop_cfg(), playbook=[bad.read_text()])
    # In a campaign the failure stays quarantined to its candidate.
    campaign_cfg = CampaignConfig(loop=_loop_cfg(), candidates=[[bad.read_text()], _playbook("correct")])
    campaign = run_campaign(place_shoe_spec, campaign_cfg)
    failed, converged = campaign.record.candidates
    assert failed.error is not None and campaign.finals[0] is None and campaign.batches[0] == []
    assert converged.converged and converged.error is None
    assert asr(campaign) == 1.0  # errored candidate has no trials to count


@pytest.mark.parametrize("batches, row", [
    ([], (False, 0, 0, 0, 0)),  # an agent failure stopped the candidate
    ([(10, 10)], (True, 1, 1, 10, 10)),
    ([(0, 10), (6, 10)], (True, 2, 2, 6, 10)),
    ([(5, 10), (5, 10)], (False, 5, 2, 5, 10)),  # a rate at the threshold does not converge
    ([(0, 0)], (False, 5, 1, 0, 0)),  # nor does an empty batch
    ([(6, 10), (0, 10)], (True, 1, 2, 0, 10)),  # CR-Iter is the first converging iteration
])
def test_candidate_record_of_applies_the_convergence_rule(batches, row):
    record = CandidateRecord.of(3, 30, batches, 0.5, 5, None)
    assert (record.candidate_id, record.base_seed, record.error) == (3, 30, None)
    assert (record.converged, record.cr_iter, record.final_iteration,
            record.success_count, record.n_trials) == row


def test_campaign_json_is_the_campaign_record(tmp_path, place_shoe_spec):
    campaign = run_campaign(place_shoe_spec, _campaign_cfg("place_shoe"), out_dir=tmp_path)
    raw = json.loads((tmp_path / "campaign.json").read_text())
    assert list(raw) == ["task", "created_at", "n_trials", "success_threshold", "max_iterations",
                         "expert_program", "candidates"]
    assert CampaignRecord.from_json(raw, "campaign.json") == campaign.record
    assert [row.cr_iter for row in campaign.record.candidates] == [2, 2, 1]


@pytest.mark.parametrize("task", TASK_NAMES)
def test_iteration_records_are_their_dataclasses(tmp_path, task):
    """In a noisy hybrid campaign, each diagnosis.json is asdict() of the
    Diagnosis it reads back as, and each scores.json row holds the fields
    of TrialScore in order."""
    spec = load_task_spec(task_path(task))
    cfg = load_campaign_config(TASKS_DIR / "configs" / "hybrid.json", task_path(task), spec)
    cfg.loop.noise_scale = 1.0
    run_campaign(spec, cfg, out_dir=tmp_path)
    diagnoses = [json.loads(path.read_text()) for path in sorted(tmp_path.glob("cand_*/iter_*/diagnosis.json"))]
    assert any(not verdict["passed"] for raw in diagnoses for verdict in raw["subgoals"])
    for raw in diagnoses:
        assert raw == asdict(Diagnosis.from_json(raw))
    names = [f.name for f in fields(TrialScore)]
    rows = [row for path in tmp_path.glob("cand_*/iter_*/scores.json") for row in json.loads(path.read_text())["trials"]]
    assert len(rows) >= 30 and all(list(row) == names for row in rows)


def test_campaign_asr_arithmetic(place_shoe_spec):
    campaign = run_campaign(place_shoe_spec, _campaign_cfg("place_shoe", mode="one_shot"))
    # one-shot: only the correct-first candidate succeeds.
    assert asr(campaign) == pytest.approx(10 / 30)


def test_campaign_single_candidate_equals_run_loop(place_shoe_spec):
    campaign = run_campaign(place_shoe_spec, CampaignConfig(loop=_loop_cfg(), candidates=[_playbook("correct")]))
    assert len(campaign.record.candidates) == 1
    assert asr(campaign) == 1.0
    assert cr_iter(campaign) == 1.0


def test_campaign_permutation_invariant(place_shoe_spec):
    cfg = _campaign_cfg("place_shoe")
    forward = run_campaign(place_shoe_spec, cfg)
    shuffled_cfg = _campaign_cfg("place_shoe")
    rng = random.Random(9)
    rng.shuffle(shuffled_cfg.candidates)
    backward = run_campaign(place_shoe_spec, shuffled_cfg)
    assert asr(forward) == asr(backward)
    assert top5_asr(forward) == top5_asr(backward)
    assert cr_iter(forward) == cr_iter(backward)


def test_campaign_config_loading(tmp_path, place_shoe_spec):
    cfg = load_campaign_config(
        TASKS_DIR / "configs" / "hybrid.json", task_path("place_shoe"), place_shoe_spec
    )
    assert cfg.loop.perception
    assert len(cfg.candidates) == 3
    assert cfg.candidates[0] == _playbook("loud", "correct")
    assert cfg.expert_program.endswith("place_shoe/correct.prog")
    one_shot = load_campaign_config(
        TASKS_DIR / "configs" / "one_shot.json", task_path("place_shoe"), place_shoe_spec
    )
    assert one_shot.loop.max_iterations == 1
    symbolic = load_campaign_config(
        TASKS_DIR / "configs" / "symbolic.json", task_path("place_shoe"), place_shoe_spec
    )
    assert not symbolic.loop.perception


def test_agent_fields_expand_environment_variables(tmp_path, monkeypatch, place_shoe_spec):
    monkeypatch.setenv("ARMLOOP_TEST_HOST", "models.example")
    monkeypatch.delenv("ARMLOOP_TEST_UNSET", raising=False)
    assert _expand_env("https://${ARMLOOP_TEST_HOST}/v1${ARMLOOP_TEST_UNSET}") == "https://models.example/v1"
    nested = {"urls": ["${ARMLOOP_TEST_HOST}", {"key": "$ARMLOOP_TEST_HOST [${ARMLOOP_TEST_UNSET}]"}], "n": 3}
    assert _expand_env(nested) == {"urls": ["models.example", {"key": "$ARMLOOP_TEST_HOST []"}], "n": 3}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"candidates": [{"playbook": ["correct.prog"]}],
                                  "synthesis": {"model": "${ARMLOOP_TEST_HOST}", "endpoint": "${ARMLOOP_TEST_UNSET}"},
                                  "verifier": {"model": "m-${ARMLOOP_TEST_HOST}"}}))
    cfg = load_campaign_config(config, task_path("place_shoe"), place_shoe_spec)
    assert (cfg.loop.synthesis.model, cfg.loop.synthesis.endpoint) == ("models.example", "")
    assert cfg.loop.verifier.model == "m-models.example"


def test_readme_config_example_loads(tmp_path, place_shoe_spec):
    """README's loop config example, its // comments stripped, loads for
    place_shoe: each candidate is its playbook."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = readme.split("## Loop configs", 1)[1].split("```jsonc\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "config.json"
    config.write_text(re.sub(r"//.*", "", example))
    cfg = load_campaign_config(config, task_path("place_shoe"), place_shoe_spec)
    assert cfg.candidates == [_playbook("loud", "correct"), _playbook("silent", "correct")]
    assert cfg.expert_program.endswith("place_shoe/correct.prog")
