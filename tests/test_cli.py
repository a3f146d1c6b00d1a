import json

import pytest

from armloop.cli import main

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
])
def test_out_of_range_option_exits_two(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert f"error [config_error]: {flag}: must be at least" in capsys.readouterr().err
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
