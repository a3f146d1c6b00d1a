import json
import shutil

import pytest

from armloop.agents import remote
from armloop.cli import main
from armloop.loop import load_campaign_config, run_campaign
from armloop.scene import load_task_spec
from armloop.sim import load_trials

from conftest import TASKS_DIR, program_path, task_path


def _task(name="place_shoe"):
    return str(task_path(name))


def _prog(kind, task="place_shoe"):
    return str(program_path(task, kind))


def test_run_correct_fixture_exit_zero(tmp_path, capsys):
    code = main(["run", _task(), _prog("correct"), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "10/10" in out
    assert (tmp_path / "trials.jsonl").exists()
    assert (tmp_path / "scores.json").exists()


def test_run_unreachable_fixture_exit_one(tmp_path, capsys):
    code = main(["run", _task(), _prog("loud"), "--out", str(tmp_path)])
    assert code == 1
    assert "unreachable" in capsys.readouterr().out
    lines = (tmp_path / "trials.jsonl").read_text().splitlines()
    assert any('"error_category": "unreachable"' in line for line in lines)


def test_run_malformed_program_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("program x\nsubgoal oops\n")
    code = main(["run", _task(), str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err


def test_run_invalid_reference_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text('program x\nsubgoal "s"\n  grasp_actor(ghost, left)\n')
    code = main(["run", _task(), str(bad), "--out", str(tmp_path)])
    assert code == 2
    assert "unknown_actor" in capsys.readouterr().err


def test_loop_demo_campaign_cr_iter_two(tmp_path, capsys):
    config = str(TASKS_DIR / "configs" / "demo_two_step.json")
    code = main(["loop", _task(), "--config", config, "--out", str(tmp_path)])
    assert code == 0
    metrics = json.loads((tmp_path / "place_shoe" / "metrics.json").read_text())
    assert metrics["cr_iter"] == 2.0
    assert metrics["asr"] == 1.0
    assert "CR-Iter 2.00" in capsys.readouterr().out


@pytest.mark.parametrize("text, field", [
    ('{"mode": "hybrid", "n_trials": "a"}', "n_trials"),
    ('{"mode": "hybrid", "n_trials": 10, "candidates": [{"playbook": ["loud.prog"', "config"),
    ('[1, 2]', "config"),
    ('{"max_iterations": 0}', "max_iterations"),
    ('{"observation_cap": 2}', "observation_cap"),
    ('{"weights": [1.0]}', "weights"),
    ('{"synthesis": {"timeout_s": "slow"}}', "synthesis.timeout_s"),
    ('{"synthesis": 5}', "synthesis"),
    ('{"synthesis": {"backend": "foo"}}', "synthesis.backend"),
    ('{"verifier": {"backend": "remote"}}', "verifier.backend"),
    ('{"verifier": {"max_retries": "x"}}', "verifier.max_retries"),
    ('{"synthesis": {"endpoint": 5}}', "synthesis.endpoint"),
    ('{"synthesis": {"playbook": "x.prog"}}', "synthesis.playbook"),
    ('{"candidates": [{"base_seed": -1, "playbook": ["correct.prog"]}]}', "candidates[0].base_seed"),
    ('{"candidates": [{"playbook": ["missing.prog"]}]}', "candidates[0].playbook"),
    ('{"expert_program": "missing.prog"}', "expert_program"),
    ('{"max_steps": 0}', "max_steps"),
    ('{"n_trials": 2.5}', "n_trials"),
    ('{"n_trials": true}', "n_trials"),
    ('{"noise_scale": Infinity}', "noise_scale"),
    pytest.param('{"noise_scale": 1' + '0' * 400 + '}', "noise_scale", id="noise_scale_1e400"),
    pytest.param('{"n_trials": 1' + '0' * 5000 + '}', "config", id="n_trials_5001_digits"),
])
def test_loop_malformed_config_exits_two(tmp_path, capsys, text, field):
    config = tmp_path / "bad.json"
    config.write_text(text)
    code = main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert f"error [config_error]: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("argv, flag", [
    (["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json"),
      "--max-iter", "0"], "--max-iter"),
    (["run", _task(), _prog("correct"), "--trials", "0"], "--trials"),
    (["run", _task(), _prog("correct"), "--seed", "-1"], "--seed"),
    (["run", _task(), _prog("correct"), "--observation-cap", "2"], "--observation-cap"),
    (["run", _task(), _prog("correct"), "--noise-scale", "-1"], "--noise-scale"),
    (["run", _task(), _prog("correct"), "--noise-scale", "nan"], "--noise-scale"),
    (["run", _task(), _prog("correct"), "--max-steps", "-1"], "--max-steps"),
    (["run", _task(), _prog("correct"), "--max-steps", "0"], "--max-steps"),
])
def test_out_of_range_option_exits_two(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error [config_error]: {flag}: must be at least" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    (["validate", _task(), "MISSING"], "program_file"),
    (["run", _task(), "MISSING", "--out", "OUT"], "program_file"),
    (["instrument", "MISSING"], "program_file"),
    (["validate", _task(), "BINARY"], "program_file"),
    (["run", _task(), _prog("correct"), "--out", "FILE/out"], "--out"),
    (["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json"),
      "--out", "FILE/out"], "--out"),
])
def test_unreadable_program_or_unusable_out_exits_two(tmp_path, capsys, argv, field):
    """MISSING is a program file that does not exist, BINARY one that is not
    UTF-8, FILE a regular file (so no directory can be made under it), OUT a
    fresh directory."""
    (tmp_path / "file").write_text("")
    (tmp_path / "binary.prog").write_bytes(b"\xff\xfe\x00")
    paths = {"MISSING": tmp_path / "missing.prog", "BINARY": tmp_path / "binary.prog",
             "FILE": tmp_path / "file", "OUT": tmp_path / "out"}
    for name, path in paths.items():
        argv = [arg.replace(name, str(path)) for arg in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error [config_error]: {field}: ")
    assert not (tmp_path / "out").exists()


def test_run_malformed_task_exits_two(tmp_path, capsys):
    raw = json.loads(task_path("place_shoe").read_text())
    raw["arm_home"] = {"left": [-0.25, 0.0, 0.3]}
    task = tmp_path / "bad.task.json"
    task.write_text(json.dumps(raw))
    code = main(["run", str(task), _prog("correct"), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error [schema_error]: arm_home.left: " in capsys.readouterr().err


def test_loop_missing_api_key_exits_three_before_network(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ARMLOOP_MISSING_KEY", raising=False)
    config = tmp_path / "remote.json"
    config.write_text(json.dumps({
        "mode": "hybrid",
        "synthesis": {
            "backend": "remote",
            "endpoint": "https://example.invalid/v1/chat",
            "api_key_env": "ARMLOOP_MISSING_KEY",
        },
        "verifier": {"backend": "mock"},
    }))
    code = main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "runs")])
    assert code == 3
    assert "agent_failure" in capsys.readouterr().err


def _chat_transport(first_reply):
    """A chat endpoint whose first reply is first_reply and every later one a
    well-formed failing verdict on place_shoe's two subgoals."""
    replies = [first_reply]
    good = json.dumps({"overall_success": False, "subgoals": [
        {"index": 1, "passed": True}, {"index": 2, "passed": False, "cause": "logic_error"}]})

    def transport(url, headers, payload, timeout):
        text = replies.pop() if replies else good
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})
    return transport


@pytest.mark.parametrize("reply, error", [
    ("no verdict here", "verification failed: reply: contains no JSON object"),
    (json.dumps({"overall_success": False, "subgoals": [
        {"index": 1, "passed": False, "deviation_stmt": 999, "cause": "logic_error"},
        {"index": 2, "passed": False}]}),
     "verification failed: reply.subgoals[0].deviation_stmt: "),
], ids=["not_json", "unknown_stmt"])
def test_verifier_reply_fault_stays_in_its_candidate(tmp_path, capsys, monkeypatch, reply, error):
    """Candidate 0 makes the first verifier call and gets the faulty reply."""
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    raw = json.loads((TASKS_DIR / "configs" / "demo_two_step.json").read_text())
    raw["verifier"] = {"backend": "remote", "endpoint": "https://example.test/v1/chat",
                       "api_key_env": "ARMLOOP_TEST_KEY"}
    config = tmp_path / "remote.json"
    config.write_text(json.dumps(raw))
    spec = load_task_spec(_task())
    cfg = load_campaign_config(config, _task(), spec)
    run_campaign(spec, cfg, out_dir=tmp_path / "api", transport=_chat_transport(reply))
    meta = json.loads((tmp_path / "api" / "campaign.json").read_text())
    assert meta["candidates"][0]["error"].startswith(error)
    assert meta["candidates"][1]["error"] is None
    assert (tmp_path / "api" / "cand_1" / "iter_1" / "trials.jsonl").exists()

    monkeypatch.setattr(remote, "_default_transport", _chat_transport(reply))
    assert main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "cli")]) == 3
    assert "agent_failure" in capsys.readouterr().out


def test_loop_max_iter_override_one_shot(tmp_path):
    config = str(TASKS_DIR / "configs" / "hybrid.json")
    code = main([
        "loop", _task(), "--config", config, "--max-iter", "1", "--out", str(tmp_path),
    ])
    assert code == 0
    metrics = json.loads((tmp_path / "place_shoe" / "metrics.json").read_text())
    assert metrics["cr_iter"] == 1.0  # no repair round ever ran
    assert metrics["asr"] == pytest.approx(1 / 3)


def test_metrics_recompute_matches_stored(tmp_path, capsys):
    config = str(TASKS_DIR / "configs" / "demo_two_step.json")
    main(["loop", _task(), "--config", config, "--out", str(tmp_path)])
    run_dir = tmp_path / "place_shoe"
    code = main(["metrics", str(run_dir), "--check", "--out", str(tmp_path / "again.json")])
    assert code == 0
    assert (tmp_path / "again.json").read_bytes() == (run_dir / "metrics.json").read_bytes()


def test_metrics_missing_artifacts_exit_two(tmp_path, capsys):
    assert main(["metrics", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, seeds", [
    ([], [0, 10, 20]),
    (["--max-iter", "5"], [0, 50, 100]),
])
def test_candidate_seed_blocks_are_disjoint(tmp_path, argv, seeds):
    config = str(TASKS_DIR / "configs" / "one_shot.json")
    main(["loop", _task(), "--config", config, "--out", str(tmp_path), *argv])
    run_dir = tmp_path / "place_shoe"
    meta = json.loads((run_dir / "campaign.json").read_text())
    assert [c["base_seed"] for c in meta["candidates"]] == seeds
    blocks = {
        it_dir.relative_to(run_dir): {log.seed for log in load_trials(it_dir / "trials.jsonl")}
        for it_dir in run_dir.glob("cand_*/iter_*")
    }
    # With five iterations cand_0 converges at 2 and cand_1 runs all 5.
    assert len(blocks) == (8 if argv else 3)
    assert sum(len(b) for b in blocks.values()) == len(set().union(*blocks.values()))


# --- malformed artifacts ------------------------------------------------------


def _edit_record(kind, edit):
    """Apply edit to the first record of the given type in a trials.jsonl."""
    def mutate(lines):
        i = next(i for i, line in enumerate(lines) if json.loads(line)["type"] == kind)
        record = json.loads(lines[i])
        edit(record)
        lines[i] = json.dumps(record) + "\n"
    return mutate


TRIALS_CASES = {
    "not_json": lambda lines: lines.insert(1, '{"type": "event",\n'),
    "not_an_object": lambda lines: lines.insert(1, "[1, 2]\n"),
    "unknown_type": _edit_record("event", lambda r: r.update(type="note")),
    "missing_stmt_id": _edit_record("event", lambda r: r.pop("stmt_id")),
    "extra_field": _edit_record("snapshot", lambda r: r.update(camera="top")),
    "bad_trial_index": _edit_record("event", lambda r: r.update(trial_index="0")),
    "goal_met_not_bool": _edit_record("summary", lambda r: r.update(goal_met="yes")),
    "seed_not_int": _edit_record("summary", lambda r: r.update(seed=7.5)),
    "n_events_wrong": _edit_record("summary", lambda r: r.update(n_events=r["n_events"] + 1)),
    "no_summary": lambda lines: lines.pop(),
}
SCENE_CASES = {
    "unknown_actor": _edit_record("snapshot", lambda r: r["scene"]["actors"].update(
        ghost={"pose": [0, 0, 0, 1, 0, 0, 0], "held_by": None})),
    "short_pose": _edit_record("snapshot", lambda r: r["scene"]["actors"]["shoe"].update(pose=[0, 0])),
    "scene_not_object": _edit_record("snapshot", lambda r: r.update(scene={"actors": [1]})),
    "unknown_arm": _edit_record("snapshot", lambda r: r["scene"]["actors"]["shoe"].update(held_by="mid")),
}


def _edit_campaign(edit):
    def mutate(path):
        meta = json.loads(path.read_text())
        edit(meta)
        path.write_text(json.dumps(meta))
    return mutate


CAMPAIGN_CASES = {
    "campaign_not_json": lambda path: path.write_text('{"task": '),
    "campaign_not_object": lambda path: path.write_text("[1, 2]"),
    "no_success_threshold": _edit_campaign(lambda m: m.pop("success_threshold")),
    "max_iterations_not_int": _edit_campaign(lambda m: m.update(max_iterations="5")),
    "candidates_not_list": _edit_campaign(lambda m: m.update(candidates={})),
    "candidate_not_object": _edit_campaign(lambda m: m.update(candidates=[3])),
    "candidate_id_not_int": _edit_campaign(lambda m: m["candidates"][0].update(candidate_id="0")),
    "task_missing": _edit_campaign(lambda m: m.pop("task")),
}


@pytest.fixture(scope="module")
def demo_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    config = str(TASKS_DIR / "configs" / "demo_two_step.json")
    assert main(["loop", _task(), "--config", config, "--out", str(out)]) == 0
    return out / "place_shoe"


def _mutate_lines(path, mutate):
    lines = path.read_text().splitlines(keepends=True)
    mutate(lines)
    path.write_text("".join(lines))


@pytest.mark.parametrize("case", [*TRIALS_CASES, *CAMPAIGN_CASES])
def test_metrics_malformed_artifact_exits_two(tmp_path, capsys, demo_run, case):
    run_dir = tmp_path / "run"
    shutil.copytree(demo_run, run_dir)
    if case in TRIALS_CASES:
        _mutate_lines(run_dir / "cand_0" / "iter_1" / "trials.jsonl", TRIALS_CASES[case])
    else:
        CAMPAIGN_CASES[case](run_dir / "campaign.json")
    assert main(["metrics", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error [artifact_error]: ")
    assert not captured.out


@pytest.mark.parametrize("case", [*TRIALS_CASES, *SCENE_CASES])
def test_render_malformed_artifact_exits_two(tmp_path, capsys, case):
    main(["run", _task(), _prog("correct"), "--trials", "2", "--out", str(tmp_path)])
    trials = tmp_path / "trials.jsonl"
    _mutate_lines(trials, {**TRIALS_CASES, **SCENE_CASES}[case])
    assert main(["render", str(trials), _task(), "--out", str(tmp_path / "svg")]) == 2
    assert capsys.readouterr().err.startswith(f"error [artifact_error]: {trials}")


def test_render_counts_files(tmp_path, capsys):
    main(["run", _task(), _prog("correct"), "--out", str(tmp_path)])
    code = main([
        "render", str(tmp_path / "trials.jsonl"), _task(), "--out", str(tmp_path / "svg"),
    ])
    assert code == 0
    svgs = list((tmp_path / "svg").glob("*.svg"))
    assert len(svgs) == 70  # 10 trials x 7 snapshots


def test_validate_command(tmp_path, capsys):
    assert main(["validate", _task(), _prog("correct")]) == 0
    bad = tmp_path / "bad.prog"
    bad.write_text('program x\nsubgoal "s"\n  grasp_actor(ghost, left)\n')
    assert main(["validate", _task(), str(bad)]) == 2


def test_instrument_command(tmp_path, capsys):
    out = tmp_path / "inst.prog"
    code = main(["instrument", _prog("correct"), "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.count("observe(") == 7
    assert main(["instrument", _prog("correct"), "--cap", "2"]) == 2


def test_loop_outputs_byte_stable_across_runs(tmp_path):
    config = str(TASKS_DIR / "configs" / "demo_two_step.json")
    for sub in ("a", "b"):
        main(["loop", _task(), "--config", config, "--out", str(tmp_path / sub)])
    a_root = tmp_path / "a" / "place_shoe"
    b_root = tmp_path / "b" / "place_shoe"
    for a_file in sorted(a_root.rglob("*")):
        if a_file.is_dir():
            continue
        b_file = b_root / a_file.relative_to(a_root)
        if a_file.name == "campaign.json":
            a_meta = json.loads(a_file.read_text())
            b_meta = json.loads(b_file.read_text())
            a_meta.pop("created_at")
            b_meta.pop("created_at")  # the single timestamp field
            assert a_meta == b_meta
        else:
            assert a_file.read_bytes() == b_file.read_bytes(), a_file.name


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["run", "--frobnicate"])
    assert err.value.code == 2


def test_help_available_for_every_command(capsys):
    for command in ("run", "loop", "metrics", "render", "validate", "instrument"):
        with pytest.raises(SystemExit) as err:
            main([command, "--help"])
        assert err.value.code == 0
        assert "--help" in capsys.readouterr().out or True
