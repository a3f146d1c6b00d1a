import dataclasses
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from armloop import cli, parallel
from armloop import loop as loop_mod
from armloop.agents import remote
from armloop.cli import CHUNK, OPTIONS, build_parser, main
from armloop.dsl import parse
from armloop.errors import ConfigError
from armloop.harness import scores_report, select_trial
from armloop.instrument import insert_observations
from armloop.loop import LoopConfig, load_campaign_config, run_campaign
from armloop.scene import load_task_spec
from armloop.sim import dump_trials, load_trials, run_trials

from conftest import TASK_NAMES, TASKS_DIR, program_path, task_path


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


def test_run_non_unit_pose_target_fails_invalid_call(tmp_path, capsys):
    text = program_path("place_shoe", "correct").read_text()
    assert "fp(target_block, 0)" in text
    bad = tmp_path / "bad.prog"
    bad.write_text(text.replace("fp(target_block, 0)", "pose(0.1, 0.1, 0.05, 2, 0, 0, 0)"))
    code = main(["run", _task(), str(bad), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "failed [invalid_call] quaternion norm 2.0 too far from 1" in capsys.readouterr().out


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
    ('{"synthesis": {"playbook": ["correct.prog"]}, "candidates": [{"playbook": ["correct.prog"]}]}',
     "synthesis.playbook"),
    ('{"verifier": {"playbook": ["no_such_file.prog", 3]}, "candidates": [{"playbook": ["correct.prog"]}]}',
     "verifier.playbook"),
    ('{"candidates": [{"base_seed": -1, "playbook": ["correct.prog"]}]}', "candidates[0].base_seed"),
    ('{"candidates": [{"base_seed": 100, "playbook": ["correct.prog"]}]}', "candidates[0].base_seed"),
    ('{"candidates": [{"playbook": ["missing.prog"]}]}', "candidates[0].playbook"),
    ('{"candidates": [{"playbook": "x.playbook"}]}', "candidates[0].playbook"),
    ('{"candidates": [{"candidate_id": 0, "playbook": ["correct.prog"]},'
     ' {"candidate_id": 0, "playbook": ["loud.prog"]}]}', "candidates[0].candidate_id"),
    ('{"expert_program": "missing.prog"}', "expert_program"),
    ('{"max_steps": 0}', "max_steps"),
    ('{"n_trials": 2.5}', "n_trials"),
    ('{"n_trials": true}', "n_trials"),
    ('{"noise_scale": Infinity}', "noise_scale"),
    ('{"noise_scale": 100.5}', "noise_scale"),
    pytest.param('{"noise_scale": 1' + '0' * 400 + '}', "noise_scale", id="noise_scale_1e400"),
    pytest.param('{"n_trials": 1' + '0' * 5000 + '}', "config", id="n_trials_5001_digits"),
    ('{"synthesis": {"backend": "mock"}, "verifier": {"backend": "mock"}}', "candidates"),
    ('{"candidates": [{"playbook": ["correct.prog"]}, {}]}', "candidates[1].playbook"),
    ('{"n_trails": 3}', "n_trails"),
    ('{"perception": false}', "perception"),
    ('{"synthesis": {"backend": "mock", "tmeout_s": 3}}', "synthesis.tmeout_s"),
    ('{"verifier": {"temprature": 0}}', "verifier.temprature"),
    ('{"candidates": [{"playbook": ["correct.prog"], "seed": 3}]}', "candidates[0].seed"),
    ('{"synthesis": {"timeout_s": 0}}', "synthesis.timeout_s"),
    ('{"synthesis": {"backend": "remote", "endpoint": "https://example.invalid/v1/chat",'
     ' "api_key_env": "ARMLOOP_TEST_KEY", "timeout_s": -1}}', "synthesis.timeout_s"),
    ('{"verifier": {"temperature": -0.5}}', "verifier.temperature"),
    ('{"verifier": {"max_retries": -1}}', "verifier.max_retries"),
])
def test_loop_malformed_config_exits_two(tmp_path, capsys, text, field):
    config = tmp_path / "bad.json"
    config.write_text(text)
    code = main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert f"error [config_error]: {field}: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_loop_unparsable_expert_program_exits_two_before_any_campaign(tmp_path, capsys):
    expert = tmp_path / "expert.prog"
    expert.write_text("program x\n")
    raw = json.loads((TASKS_DIR / "configs" / "demo_two_step.json").read_text())
    raw["expert_program"] = expert.name
    config = tmp_path / "expert.json"
    config.write_text(json.dumps(raw))
    code = main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "runs")])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error [config_error]: expert_program: {expert}: line 2, col 1: "
        "program needs at least one subgoal (expected subgoal)\n")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("field, value", [
    ("name", "../escaped"),
    ("name", ""),
    ("instruction", "   "),
])
def test_loop_bad_task_name_or_instruction_exits_two(tmp_path, capsys, field, value):
    raw = json.loads(task_path("place_shoe").read_text())
    raw[field] = value
    task = tmp_path / "place_shoe.task.json"
    task.write_text(json.dumps(raw))
    config = str(TASKS_DIR / "configs" / "demo_two_step.json")
    code = main(["loop", str(task), "--config", config, "--out", str(tmp_path / "runs" / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error [schema_error]: {field}: ")
    assert [path.name for path in tmp_path.iterdir()] == [task.name]  # nothing written


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
    (["instrument", _prog("correct"), "--cap", "2"], "--cap"),
])
def test_out_of_range_option_exits_two(tmp_path, capsys, argv, flag):
    code = main(argv + ["--out", str(tmp_path / "out")])
    assert code == 2
    # nan is not below any bound, so it is refused as not finite
    reason = "expected a finite number, got nan" if argv[-1] == "nan" else "must be at least"
    assert f"error [config_error]: {flag}: {reason}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


_COMMAND_ARGV = {
    "run": ["run", _task(), _prog("correct")],
    "loop": ["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json")],
    "instrument": ["instrument", _prog("correct")],
}
_OPTION_FIELDS = [(command, option, name) for command, options in OPTIONS.items()
                  for option, name in options.items()]


def _bad_values(name):
    """Values the LoopConfig field name refuses: past each bound, of the
    wrong type, and not finite."""
    declared = {f.name: f for f in dataclasses.fields(LoopConfig)}[name]
    bounds = declared.metadata
    values = [bounds["minimum"] - 1] if "minimum" in bounds else []
    values += [bounds["maximum"] + 1] if "maximum" in bounds else []
    return values + (["x", math.nan, math.inf] if declared.type == "float" else [2.5, "x"])


@pytest.mark.parametrize("command, option, name", _OPTION_FIELDS)
def test_option_and_config_key_refuse_alike(tmp_path, capsys, command, option, name):
    """An option and the config key of one run parameter are one declared
    field: each value the field refuses exits 2 with the same reason by
    either path."""
    config = tmp_path / "bad.json"
    for value in _bad_values(name):
        config.write_text(json.dumps({name: value}))
        argv = ["loop", _task(), "--config", str(config), "--out", str(tmp_path / "runs")]
        assert main(argv) == 2, value
        err = capsys.readouterr().err
        prefix = f"error [config_error]: {name}: "
        assert err.startswith(prefix), err
        reason = err[len(prefix):]
        assert main([*_COMMAND_ARGV[command], option, str(value), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error [config_error]: {option}: {reason}"
    assert not (tmp_path / "runs").exists() and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "instrument"])
def test_option_defaults_are_the_field_defaults(command):
    args = build_parser().parse_args(_COMMAND_ARGV[command])
    for name in OPTIONS[command].values():
        default = getattr(LoopConfig, name)
        assert getattr(args, name) == default and type(getattr(args, name)) is type(default)


def test_max_iter_does_not_lift_one_shot(tmp_path, capsys):
    """--max-iter replaces the config's max_iterations before the mode
    rule, so a one_shot run stays one iteration per candidate; in a
    symbolic config it sets the cap as the config key would."""
    config = TASKS_DIR / "configs" / "one_shot.json"
    argv = ["loop", _task(), "--config", str(config), "--out", str(tmp_path), "--max-iter", "3"]
    assert main(argv) == 0
    campaign = json.loads((tmp_path / "place_shoe" / "campaign.json").read_text())
    assert campaign["max_iterations"] == 1
    assert [c["final_iteration"] for c in campaign["candidates"]] == [1, 1, 1]
    assert sorted(p.name for p in (tmp_path / "place_shoe").glob("cand_*/iter_*")) == ["iter_1"] * 3
    spec = load_task_spec(_task())
    for mode, expected in [("one_shot", 1), ("symbolic", 3)]:
        raw = json.loads(config.read_text())
        keyed = tmp_path / f"{mode}.json"
        keyed.write_text(json.dumps({**raw, "mode": mode, "max_iterations": 3}))
        by_key = load_campaign_config(keyed, _task(), spec).loop.max_iterations
        by_option = load_campaign_config(config.with_name(f"{mode}.json"), _task(), spec,
                                         max_iterations=3).loop.max_iterations
        assert by_key == by_option == expected


def test_infinite_noise_scale_exits_two(tmp_path, capsys):
    argv = ["run", _task(), _prog("correct"), "--noise-scale", "inf", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert ("error [config_error]: --noise-scale: expected a finite number, got inf"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_noise_scale_above_bound_exits_two(tmp_path, capsys):
    argv = ["run", _task(), _prog("correct"), "--noise-scale", "100.5", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert ("error [config_error]: --noise-scale: must be at most 100, got 100.5"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, field", [
    (["validate", _task(), "MISSING"], "program_file"),
    (["run", _task(), "MISSING", "--out", "OUT"], "program_file"),
    (["instrument", "MISSING"], "program_file"),
    (["validate", _task(), "BINARY"], "program_file"),
    (["run", _task(), _prog("correct"), "--out", "FILE/out"], "--out"),
    (["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json"),
      "--out", "FILE/out"], "--out"),
    (["instrument", _prog("correct"), "--out", "FILE/x.prog"], "--out"),
    (["metrics", "RUN", "--out", "FILE/m.json"], "--out"),
    (["run", _task(), _prog("correct"), "--out", "TRIALS_TAKEN"], "--out"),
    (["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json"),
      "--out", "CAND_TAKEN"], "--out"),
    (["loop", _task(), "--config", str(TASKS_DIR / "configs" / "demo_two_step.json"),
      "--out", "METRICS_TAKEN"], "--out"),
    (["loop", _task(), "--config", "BINARY_PLAYBOOK", "--out", "OUT"], "candidates[0].playbook"),
    (["render", "RUN/cand_0/iter_1/trials.jsonl", _task(), "--out", "FILE"], "--out"),
])
def test_unreadable_program_or_unusable_out_exits_two(tmp_path, capsys, demo_run, argv, field):
    """MISSING is a program file that does not exist, BINARY one that is not
    UTF-8, FILE a regular file (so no directory or file can be made under
    it), OUT a fresh directory, RUN a finished campaign directory.
    TRIALS_TAKEN is an out directory whose trials.jsonl is a directory,
    CAND_TAKEN one whose place_shoe/cand_0 is a regular file, METRICS_TAKEN
    one whose place_shoe/metrics.json is a directory, and BINARY_PLAYBOOK a
    config whose candidate plays BINARY."""
    (tmp_path / "file").write_text("")
    (tmp_path / "binary.prog").write_bytes(b"\xff\xfe\x00")
    (tmp_path / "trials_taken" / "trials.jsonl").mkdir(parents=True)
    (tmp_path / "cand_taken" / "place_shoe").mkdir(parents=True)
    (tmp_path / "cand_taken" / "place_shoe" / "cand_0").write_text("")
    (tmp_path / "metrics_taken" / "place_shoe" / "metrics.json").mkdir(parents=True)
    (tmp_path / "playbook.json").write_text(json.dumps({"candidates": [{"playbook": ["binary.prog"]}]}))
    paths = {"MISSING": tmp_path / "missing.prog", "BINARY": tmp_path / "binary.prog",
             "FILE": tmp_path / "file", "OUT": tmp_path / "out", "RUN": demo_run,
             "TRIALS_TAKEN": tmp_path / "trials_taken", "CAND_TAKEN": tmp_path / "cand_taken",
             "METRICS_TAKEN": tmp_path / "metrics_taken", "BINARY_PLAYBOOK": tmp_path / "playbook.json"}

    def resolve(arg):  # a name is a whole argument or the part before its first "/"
        head, sep, rest = arg.partition("/")
        return str(paths[head]) + sep + rest if head in paths else arg
    assert main([resolve(arg) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(f"error [config_error]: {field}: ")
    assert not (tmp_path / "out").exists()


def test_run_writes_what_the_first_loop_iteration_writes(tmp_path):
    """`run` and iteration 1 of a one-candidate one_shot loop, on one program
    at one seed and noise, write the same trials.jsonl and scores.json
    bytes, and `run` exits 0 exactly when that iteration converged."""
    seed = 3
    config = tmp_path / "one_shot.json"
    config.write_text(json.dumps({"mode": "one_shot", "n_trials": 5, "base_seed": seed, "noise_scale": 1,
                                  "candidates": [{"playbook": ["correct.prog"]}]}))
    assert main(["loop", _task(), "--config", str(config), "--out", str(tmp_path / "loop")]) == 0
    code = main(["run", _task(), _prog("correct"), "--trials", "5", "--seed", str(seed), "--noise-scale", "1",
                 "--out", str(tmp_path / "run")])
    campaign = json.loads((tmp_path / "loop" / "place_shoe" / "campaign.json").read_text())
    assert code == (0 if campaign["candidates"][0]["converged"] else 1)
    iteration = tmp_path / "loop" / "place_shoe" / "cand_0" / "iter_1"
    for name in ("trials.jsonl", "scores.json"):
        assert (tmp_path / "run" / name).read_bytes() == (iteration / name).read_bytes(), name
    assert not json.loads((iteration / "scores.json").read_text())["all_success"]


def test_run_in_chunks_writes_what_one_whole_batch_writes(tmp_path, capsys, monkeypatch):
    """`run` simulates CHUNK trials at a time, yet writes the trials.jsonl
    and scores.json of one whole batch and prints its status lines."""
    n, seed, cfg = 2 * CHUNK + 3, 11, LoopConfig()
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cfg.observation_cap)
    logs = run_trials(program, load_task_spec(_task()), n, seed, 1.0, cfg.max_steps)
    dump_trials(logs, tmp_path / "whole.jsonl")
    scores = scores_report(select_trial(logs, program, cfg.weights), logs)

    sizes = []
    real_run_trials = cli.run_trials
    monkeypatch.setattr(parallel, "cpus", lambda: 1)  # forked workers' calls would not reach `sizes`
    monkeypatch.setattr(cli, "run_trials", lambda *a: sizes.append(a[2]) or real_run_trials(*a))
    argv = ["run", _task(), _prog("correct"), "--trials", str(n), "--seed", str(seed), "--noise-scale", "1"]
    code = main([*argv, "--out", str(tmp_path / "chunked")])
    chunked = capsys.readouterr().out
    assert sizes == [CHUNK, CHUNK, 3]
    assert (tmp_path / "chunked" / "trials.jsonl").read_bytes() == (tmp_path / "whole.jsonl").read_bytes()
    assert (tmp_path / "chunked" / "scores.json").read_text() == scores
    assert chunked.count("\n") == n + 1 and f"trial {n - 1} (seed {seed + n - 1})" in chunked

    monkeypatch.setattr(cli, "CHUNK", n)
    assert main([*argv, "--out", str(tmp_path / "whole")]) == code
    assert capsys.readouterr().out == chunked
    assert sizes[3:] == [n]


# Under -X dev a pipe left open is a ResourceWarning raised in a finalizer,
# which pytest reports as PytestUnraisableExceptionWarning: a forked run fails on it.
closes_its_pipes = pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture()
def bounded():
    """Fails a test whose forked run does not end within a minute, rather
    than letting it hang; the workers inherit the handler but not the alarm."""
    def expire(*_):
        raise TimeoutError("the run did not end within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def _run_peak(out, n: int) -> int:
    """The traced memory peak of this process over one noisy `run` of n trials."""
    tracemalloc.start()
    try:
        main(["run", _task(), _prog("correct"), "--trials", str(n), "--noise-scale", "1", "--out", str(out)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_memory_is_one_chunk_not_every_trial(tmp_path, capsys, monkeypatch):
    """What `run` keeps of a written trial is its events and summary, so
    its traced peak barely grows from one chunk of trials to three."""
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    main(["run", _task(), _prog("correct"), "--trials", "2", "--out", str(tmp_path / "warm")])
    one, three = _run_peak(tmp_path / "one", CHUNK), _run_peak(tmp_path / "three", 3 * CHUNK)
    capsys.readouterr()
    assert three < 1.5 * one, (one, three)


@closes_its_pipes
def test_forked_run_chunks_hold_no_more_memory_here_than_inline(tmp_path, capsys, monkeypatch, bounded):
    """The trials that workers send back replace what this process would
    have simulated itself: its traced peak is no higher than inline."""
    main(["run", _task(), _prog("correct"), "--trials", "2", "--out", str(tmp_path / "warm")])
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    inline = _run_peak(tmp_path / "inline", 4 * CHUNK)
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    forked = _run_peak(tmp_path / "forked", 4 * CHUNK)
    capsys.readouterr()
    assert forked <= inline, (forked, inline)


def _run_argv(out, kind="correct", task="place_shoe", n=2 * CHUNK + 3):
    return ["run", _task(task), _prog(kind, task), "--trials", str(n), "--seed", "5", "--noise-scale", "1",
            "--out", str(out)]


def _assert_no_worker_left(out, names=("trials.jsonl", "scores.json")):
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert {p.name for p in out.iterdir()} <= set(names)


@closes_its_pipes
@pytest.mark.parametrize("task, kind", [("stack_blocks_three", "correct"), ("place_shoe", "silent")])
def test_run_chunks_write_the_same_bytes_at_every_worker_count(tmp_path, capsys, monkeypatch, bounded, task, kind):
    """The chunks split over 1, 2 or 3 processes: trials.jsonl, scores.json,
    the status lines and the exit code are those of the run in one."""
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "cpus", lambda: workers)
        out = tmp_path / str(workers)
        code = main(_run_argv(out, kind, task))
        runs.append((code, capsys.readouterr().out, (out / "trials.jsonl").read_bytes(),
                     (out / "scores.json").read_bytes()))
        _assert_no_worker_left(out)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert runs[0][1].count("\n") == 2 * CHUNK + 4
    if kind == "silent":
        assert "failed [" in runs[0][1] or "goal not met" in runs[0][1]


@closes_its_pipes
@pytest.mark.parametrize("workers", [2, 3])
def test_run_chunk_error_in_a_worker_is_reported_as_inline(tmp_path, capsys, monkeypatch, bounded, workers):
    """A ConfigError raised while a worker simulates its chunk ends the run
    with exit 2 and the stderr of the same error raised inline."""
    real_run_trials = cli.run_trials

    def failing(program, spec, n, seed, *rest):
        if seed >= 5 + CHUNK:
            raise ConfigError("noise_scale", f"no trial from seed {seed}")
        return real_run_trials(program, spec, n, seed, *rest)

    monkeypatch.setattr(cli, "run_trials", failing)
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    assert main(_run_argv(tmp_path / "inline")) == 2
    inline = capsys.readouterr().err
    assert inline == f"error [config_error]: noise_scale: no trial from seed {5 + CHUNK}\n"
    monkeypatch.setattr(parallel, "cpus", lambda: workers)
    assert main(_run_argv(tmp_path / "forked")) == 2
    assert capsys.readouterr().err == inline
    _assert_no_worker_left(tmp_path / "forked")


@closes_its_pipes
def test_run_chunk_worker_that_exits_without_a_result_is_a_coded_error(tmp_path, capfd, monkeypatch, bounded):
    """Of a run cut into three shares, the worker of the middle one leaves
    by os._exit(9) mid-chunk while the last one's still simulates or waits
    to send: the run ends in a coded error naming the lost trials, with no
    worker left behind."""
    parent, real_run_trials = os.getpid(), cli.run_trials

    def dying(program, spec, n, seed, *rest):
        if os.getpid() != parent and seed == 5 + CHUNK:
            os._exit(9)
        return real_run_trials(program, spec, n, seed, *rest)

    monkeypatch.setattr(cli, "run_trials", dying)
    monkeypatch.setattr(parallel, "cpus", lambda: 3)
    assert main(_run_argv(tmp_path, n=4 * CHUNK)) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error [worker_failure]: trials {CHUNK}-{2 * CHUNK - 1}: their worker process "
                            "exited with status 9 before sending them\n")
    _assert_no_worker_left(tmp_path)


def _campaign_config(tmp_path, mode="hybrid", noise=0.0, playbooks=None) -> str:
    """A bundled mode's config at the given noise, with its candidates or these playbooks."""
    raw = json.loads((TASKS_DIR / "configs" / f"{mode}.json").read_text())
    raw["noise_scale"] = noise
    if playbooks is not None:
        raw["candidates"] = [{"playbook": playbook} for playbook in playbooks]
    config = tmp_path / f"{mode}_{noise}.json"
    config.write_text(json.dumps(raw))
    return str(config)


@closes_its_pipes
@pytest.mark.parametrize("task", ["place_shoe", "stack_blocks_three"])
@pytest.mark.parametrize("noise", [0.0, 1.0])
@pytest.mark.parametrize("mode", ["one_shot", "symbolic", "hybrid"])
def test_campaign_writes_the_same_bytes_at_every_worker_count(tmp_path, capsys, monkeypatch, bounded,
                                                             mode, noise, task):
    """The candidates split over 1, 2 or 3 processes: every file of the run
    directory (campaign.json without created_at), the table and the exit
    code are those of the campaign run in one."""
    config = _campaign_config(tmp_path, mode, noise)
    runs = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(parallel, "cpus", lambda: workers)
        out = tmp_path / str(workers)
        code = main(["loop", _task(task), "--config", config, "--out", str(out)])
        runs.append((code, capsys.readouterr().out, _files(out / task)))
        _assert_no_worker_left(out, {task})
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert runs[0][0] == 0 and "metrics.json" in runs[0][2]
    assert {name.split("/")[0] for name in runs[0][2]} >= {"cand_0", "cand_1", "cand_2"}


@closes_its_pipes
@pytest.mark.parametrize("workers", [2, 3])
def test_campaign_error_in_a_worker_is_reported_as_inline(tmp_path, capsys, monkeypatch, bounded, workers):
    """A ConfigError raised while a worker runs candidate 1 ends the loop
    with exit 2 and the stderr of the same error raised inline."""
    real_run_loop, stride = loop_mod.run_loop, 5 * 10

    def failing(spec, cfg, **kwargs):
        if cfg.base_seed == stride:
            raise ConfigError("--out", f"cannot write candidate at seed {cfg.base_seed}")
        return real_run_loop(spec, cfg, **kwargs)

    monkeypatch.setattr(loop_mod, "run_loop", failing)
    config = _campaign_config(tmp_path)
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    assert main(["loop", _task(), "--config", config, "--out", str(tmp_path / "inline")]) == 2
    inline = capsys.readouterr()
    assert inline.err == f"error [config_error]: --out: cannot write candidate at seed {stride}\n"
    monkeypatch.setattr(parallel, "cpus", lambda: workers)
    assert main(["loop", _task(), "--config", config, "--out", str(tmp_path / "forked")]) == 2
    assert capsys.readouterr() == inline
    _assert_no_worker_left(tmp_path / "forked", {"place_shoe"})


@closes_its_pipes
def test_campaign_worker_that_exits_without_a_result_is_a_coded_error(tmp_path, capfd, monkeypatch, bounded):
    """Of four candidates on two CPUs, the worker that holds candidates 1
    and 3 leaves by os._exit(9) in candidate 3, after writing candidate 1:
    the loop ends in a coded error naming both, with no worker left."""
    parent, real_run_loop, stride = os.getpid(), loop_mod.run_loop, 5 * 10

    def dying(spec, cfg, **kwargs):
        if os.getpid() != parent and cfg.base_seed == 3 * stride:
            os._exit(9)
        return real_run_loop(spec, cfg, **kwargs)

    monkeypatch.setattr(loop_mod, "run_loop", dying)
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    config = _campaign_config(tmp_path, playbooks=[["correct.prog"]] * 4)
    assert main(["loop", _task(), "--config", config, "--out", str(tmp_path / "out")]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error [worker_failure]: candidates 1, 3: their worker process exited with status 9 "
                            "before sending them\n")
    _assert_no_worker_left(tmp_path / "out", {"place_shoe"})
    assert not (tmp_path / "out" / "place_shoe" / "campaign.json").exists()


@closes_its_pipes
@pytest.mark.parametrize("verifier, forks", [("mock", True), ("remote", False)])
def test_campaign_forks_only_with_mock_stages(tmp_path, monkeypatch, bounded, verifier, forks):
    """On two CPUs a mock campaign runs candidate 1 in a worker, so this
    process sees two of the three loops; one with a remote stage runs all
    three here, in candidate order."""
    seen, real_run_loop = [], loop_mod.run_loop
    monkeypatch.setattr(loop_mod, "run_loop", lambda spec, cfg, **kw: seen.append(cfg.base_seed) or
                        real_run_loop(spec, cfg, **kw))
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    monkeypatch.setenv("ARMLOOP_TEST_KEY", "k")
    raw = json.loads((TASKS_DIR / "configs" / "hybrid.json").read_text())
    if verifier == "remote":
        raw["verifier"] = {"backend": "remote", "endpoint": "https://example.test/v1/chat",
                           "api_key_env": "ARMLOOP_TEST_KEY"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    spec = load_task_spec(_task())
    campaign = run_campaign(spec, load_campaign_config(config, _task(), spec), out_dir=tmp_path / "out",
                            transport=_chat_transport(json.dumps({"overall_success": False, "subgoals": []})))
    assert seen == ([0, 100] if forks else [0, 50, 100])
    assert len(campaign.record.candidates) == 3
    _assert_no_worker_left(tmp_path / "out", {"campaign.json", "cand_0", "cand_1", "cand_2"})


def _loop_peak(out, config) -> int:
    """The traced memory peak of this process over one `loop` of config on place_shoe."""
    tracemalloc.start()
    try:
        main(["loop", _task(), "--config", config, "--out", str(out)])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@closes_its_pipes
def test_forked_campaign_holds_no_more_memory_here_than_inline(tmp_path, capsys, monkeypatch, bounded):
    """A worker sends back a candidate's batches and final program, never
    its trials: with candidate 1, the longest, in the worker, this
    process's traced peak is no higher than the inline campaign's."""
    config = _campaign_config(tmp_path, noise=1.0,
                              playbooks=[["correct.prog"], ["loud.prog"] * 3 + ["correct.prog"]])
    monkeypatch.setattr(parallel, "cpus", lambda: 1)
    main(["loop", _task(), "--config", config, "--out", str(tmp_path / "warm")])
    inline = _loop_peak(tmp_path / "inline", config)
    monkeypatch.setattr(parallel, "cpus", lambda: 2)
    forked = _loop_peak(tmp_path / "forked", config)
    capsys.readouterr()
    assert forked <= inline, (forked, inline)
    assert _files(tmp_path / "forked") == _files(tmp_path / "inline")


SRC = Path(cli.__file__).resolve().parents[1]


def _armloop(argv, cwd, stdout) -> subprocess.Popen:
    """`armloop argv` in a fresh interpreter, its stderr piped."""
    return subprocess.Popen([sys.executable, "-m", "armloop.cli", *argv], cwd=cwd, stdout=stdout,
                            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(SRC)))


def _closing_reader(argv, cwd, lines: int) -> tuple:
    """(exit status, stderr) of `armloop argv` whose stdout is a pipe that
    its reader closes after `lines` lines. The pipe is shrunk to one page
    (Linux's F_SETPIPE_SZ), so a writer of more than a page and its own
    buffer is still blocked in a write when the reader goes."""
    read_fd, write_fd = os.pipe()
    fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, 4096)
    with open(read_fd, "rb", buffering=0) as reader:
        proc = _armloop(argv, cwd, write_fd)
        os.close(write_fd)
        seen = 0
        while seen < lines and (byte := reader.read(1)):
            seen += byte == b"\n"
    err = proc.communicate(timeout=120)[1]
    return proc.returncode, err.decode()


def _files(root: Path) -> dict:
    """Each file under root by relative path: its bytes, or for
    campaign.json its record without the created_at timestamp."""
    files = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "campaign.json":
            data = {k: v for k, v in json.loads(data).items() if k != "created_at"}
        files[str(path.relative_to(root))] = data
    return files


@pytest.mark.parametrize("command, lines", [("run", 0), ("run", 1), ("loop", 0), ("loop", 1)])
def test_closed_stdout_ends_quietly_with_every_file_written(tmp_path, command, lines):
    """A reader that closes stdout early (`armloop run ... | head -1`) ends
    the command with status cli.CLOSED_STDOUT and an empty stderr, and the
    files are those of a run whose stdout stays open. A `loop` prints its
    few lines at once, so its reader may see them all before it closes,
    and the command then ends as usual."""
    if command == "run":
        argv = ["run", _task(), _prog("correct"), "--trials", "600", "--noise-scale", "1", "--out", "out"]
    else:
        argv = ["loop", _task(), "--config", str(TASKS_DIR / "configs" / "hybrid.json"), "--out", "out"]
    (tmp_path / "open").mkdir()
    (tmp_path / "closed").mkdir()
    proc = _armloop(argv, tmp_path / "open", subprocess.DEVNULL)
    assert proc.communicate(timeout=120)[1] == b"" and proc.returncode == 0
    status, err = _closing_reader(argv, tmp_path / "closed", lines)
    assert err == ""
    assert status == cli.CLOSED_STDOUT or (command, lines, status) == ("loop", 1, 0)
    assert _files(tmp_path / "closed") == _files(tmp_path / "open")


def test_cli_import_leaves_the_http_stack_unloaded():
    """urllib.request brings in http.client, ssl and email; only a remote
    backend's first request imports it."""
    code = "import sys, armloop.cli; print(sorted({'urllib.request', 'http.client', 'ssl'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=str(SRC))).stdout
    assert out == "[]\n"


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


@pytest.mark.parametrize("cap", [[], ["--max-iter", "2"]], ids=["default_cap", "max_iter_2"])
@pytest.mark.parametrize("mode", ["one_shot", "symbolic", "hybrid"])
@pytest.mark.parametrize("task", TASK_NAMES)
def test_noisy_campaign_metrics_recompute(tmp_path, capsys, task, mode, cap):
    """At noise 1 the trials of a batch differ, so counts, convergence and
    CR-Iter must be recomputed from trials that do not all agree."""
    raw = json.loads((TASKS_DIR / "configs" / f"{mode}.json").read_text())
    config = tmp_path / f"{mode}.json"
    config.write_text(json.dumps({**raw, "noise_scale": 1.0}))
    assert main(["loop", _task(task), "--config", str(config), "--out", str(tmp_path), *cap]) == 0
    assert main(["metrics", str(tmp_path / task), "--check"]) == 0


@pytest.mark.parametrize("stored, error", [
    ("missing", "recomputed metrics.json differs from the stored file"),
    ("not_utf8", "error [artifact_error]: METRICS: cannot read METRICS: "),
    ("directory", "error [artifact_error]: METRICS: cannot read METRICS: Is a directory"),
], ids=["missing", "not_utf8", "directory"])
def test_metrics_check_of_unreadable_stored_file_exits_two(tmp_path, capsys, demo_run, stored, error):
    run_dir = tmp_path / "run"
    shutil.copytree(demo_run, run_dir)
    metrics = run_dir / "metrics.json"
    metrics.unlink()
    if stored == "not_utf8":
        metrics.write_bytes(b"\xff\xfe{}")
    elif stored == "directory":
        metrics.mkdir()
    assert main(["metrics", str(run_dir), "--check"]) == 2
    assert capsys.readouterr().err.startswith(error.replace("METRICS", str(metrics)))


def test_metrics_check_compares_before_out_overwrites_the_stored_file(tmp_path, capsys, demo_run):
    run_dir = tmp_path / "run"
    shutil.copytree(demo_run, run_dir)
    stored = run_dir / "metrics.json"
    stored.write_text('{"asr": 0}\n')
    assert main(["metrics", str(run_dir), "--check", "--out", str(stored)]) == 2
    assert "recomputed metrics.json differs from the stored file" in capsys.readouterr().err
    assert stored.read_bytes() == (demo_run / "metrics.json").read_bytes()


def test_metrics_missing_artifacts_exit_two(tmp_path, capsys):
    assert main(["metrics", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv, seeds", [
    ([], [0, 10, 20]),
    (["--max-iter", "5"], [0, 50, 100]),
])
def test_candidate_seed_blocks_are_disjoint(tmp_path, argv, seeds):
    # one_shot.json's campaign as a one-iteration symbolic loop, which
    # --max-iter can raise (the one_shot mode itself always runs 1).
    raw = json.loads((TASKS_DIR / "configs" / "one_shot.json").read_text())
    config = tmp_path / "symbolic_1.json"
    config.write_text(json.dumps({**raw, "mode": "symbolic", "max_iterations": 1}))
    main(["loop", _task(), "--config", str(config), "--out", str(tmp_path), *argv])
    run_dir = tmp_path / "place_shoe"
    meta = json.loads((run_dir / "campaign.json").read_text())
    assert [(c["candidate_id"], c["base_seed"]) for c in meta["candidates"]] == list(enumerate(seeds))
    blocks = {
        it_dir.relative_to(run_dir): {log.seed for log in load_trials(it_dir / "trials.jsonl")}
        for it_dir in run_dir.glob("cand_*/iter_*")
    }
    # With five iterations cand_0 converges at 2 and cand_1 runs all 5.
    assert len(blocks) == (8 if argv else 3)
    assert sum(len(b) for b in blocks.values()) == len(set().union(*blocks.values()))
    # The one_shot mode runs 1 iteration under any --max-iter, so its
    # candidates keep the one-iteration blocks.
    one_shot = tmp_path / "one_shot"
    main(["loop", _task(), "--config", str(TASKS_DIR / "configs" / "one_shot.json"), "--out", str(one_shot), *argv])
    meta = json.loads((one_shot / "place_shoe" / "campaign.json").read_text())
    assert [(c["candidate_id"], c["base_seed"]) for c in meta["candidates"]] == [(0, 0), (1, 10), (2, 20)]


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
    "pose_not_numbers": _edit_record("snapshot", lambda r: r["scene"]["actors"]["shoe"].update(
        pose=["-0.2", True, "0.02", 1, 0, 0, 0])),
    "gripper_not_number": _edit_record("snapshot", lambda r: r["scene"]["arms"]["left"].update(
        gripper="0.5")),
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
    "converged_not_bool": _edit_campaign(lambda m: m["candidates"][0].update(converged="true")),
    "success_count_missing": _edit_campaign(lambda m: m["candidates"][0].pop("success_count")),
    "candidate_extra_key": _edit_campaign(lambda m: m["candidates"][0].update(seeds=[0])),
    "success_count_not_counted": _edit_campaign(lambda m: m["candidates"][0].update(success_count=3)),
    "cr_iter_not_counted": _edit_campaign(lambda m: m["candidates"][1].update(cr_iter=1)),
    "created_at_missing": _edit_campaign(lambda m: m.pop("created_at")),
    "campaign_extra_key": _edit_campaign(lambda m: m.update(seed=0)),
    "expert_program_not_str": _edit_campaign(lambda m: m.update(expert_program=5)),
}


def _unparsable_final_program(run_dir):
    final = json.loads((run_dir / "campaign.json").read_text())["candidates"][0]["final_iteration"]
    path = run_dir / "cand_0" / f"iter_{final}" / "program.prog"
    path.write_text("program x\n")
    return path


def _unparsable_expert_program(run_dir):
    path = run_dir / "expert.prog"
    path.write_text("program x\n")
    _edit_campaign(lambda m: m.update(expert_program=str(path)))(run_dir / "campaign.json")
    return path


# Each breaks a program file that metrics reads and returns its path.
PROGRAM_CASES = {
    "final_program_not_parsed": _unparsable_final_program,
    "expert_program_not_parsed": _unparsable_expert_program,
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


@pytest.mark.parametrize("case", [*TRIALS_CASES, *CAMPAIGN_CASES, *PROGRAM_CASES])
def test_metrics_malformed_artifact_exits_two(tmp_path, capsys, demo_run, case):
    run_dir = tmp_path / "run"
    shutil.copytree(demo_run, run_dir)
    where = run_dir / "campaign.json"
    if case in TRIALS_CASES:
        where = run_dir / "cand_0" / "iter_1" / "trials.jsonl"
        _mutate_lines(where, TRIALS_CASES[case])
    elif case in CAMPAIGN_CASES:
        CAMPAIGN_CASES[case](where)
    else:
        where = PROGRAM_CASES[case](run_dir)
    assert main(["metrics", str(run_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error [artifact_error]: {where}")
    assert not captured.out


def test_metrics_reads_the_recorded_iterations_only(tmp_path, capsys):
    # The run converges at iteration 2; an iteration past it (here a copy of
    # the failing iteration 1) must not be read.
    out = tmp_path / "runs"
    config = tmp_path / "hybrid.json"
    config.write_text(json.dumps({"mode": "hybrid", "candidates": [{"playbook": ["silent.prog", "correct.prog"]}]}))
    assert main(["loop", _task(), "--config", str(config), "--out", str(out)]) == 0
    run_dir = out / "place_shoe"
    assert json.loads((run_dir / "campaign.json").read_text())["candidates"][0]["final_iteration"] == 2
    shutil.copytree(run_dir / "cand_0" / "iter_1", run_dir / "cand_0" / "iter_3")
    capsys.readouterr()
    assert main(["metrics", str(run_dir), "--check"]) == 0
    assert json.loads(capsys.readouterr().out)["asr"] == 1.0

    shutil.rmtree(run_dir / "cand_0" / "iter_1")
    assert main(["metrics", str(run_dir)]) == 2
    missing = run_dir / "cand_0" / "iter_1" / "trials.jsonl"
    assert capsys.readouterr().err.startswith(f"error [artifact_error]: {missing}: cannot read")


def _renumber_trial(lines, old, new):
    """Every record of trial `old` moved to trial `new`, or dropped if new is None."""
    kept = []
    for line in lines:
        record = json.loads(line)
        if record["trial_index"] == old:
            if new is None:
                continue
            line = line.replace(f'"trial_index": {old},', f'"trial_index": {new},', 1)
        kept.append(line)
    lines[:] = kept


@pytest.mark.parametrize("edit, what", [
    (lambda lines: _renumber_trial(lines, 3, None), "no trial 3"),
    (lambda lines: _renumber_trial(lines, 9, 10), "no trial 9"),
    (lambda lines: lines.extend(line.replace('"trial_index": 0,', '"trial_index": 10,', 1)
                                for line in list(lines) if json.loads(line)["trial_index"] == 0), "a trial 10"),
], ids=["trial_missing", "trial_renumbered", "trial_extra"])
def test_metrics_check_refuses_an_iteration_without_its_whole_batch(tmp_path, capsys, demo_run, edit, what):
    """cand_0's first iteration failed (0 of 10), so a lost or added trial
    would change no count: metrics --check still names the file."""
    run_dir = tmp_path / "run"
    shutil.copytree(demo_run, run_dir)
    where = run_dir / "cand_0" / "iter_1" / "trials.jsonl"
    _mutate_lines(where, edit)
    assert main(["metrics", str(run_dir), "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error [artifact_error]: {where}: {what}, where the batch is trials 0-9\n"
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


def _file_names(root):
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def test_loop_rerun_leaves_no_files_of_the_earlier_run(tmp_path):
    """A symbolic run of a silent -> correct candidate repairs up to
    iteration 5; a hybrid run into the same --out converges at iteration 2
    and must leave what a fresh hybrid run leaves."""
    configs = {}
    for mode in ("symbolic", "hybrid"):
        configs[mode] = tmp_path / f"{mode}.json"
        configs[mode].write_text(json.dumps({"mode": mode, "candidates": [{"playbook": ["silent.prog", "correct.prog"]}]}))
    for mode, out in (("symbolic", "rerun"), ("hybrid", "rerun"), ("hybrid", "fresh")):
        assert main(["loop", _task(), "--config", str(configs[mode]), "--out", str(tmp_path / out)]) == 0
    rerun, fresh = tmp_path / "rerun" / "place_shoe", tmp_path / "fresh" / "place_shoe"
    assert json.loads((fresh / "campaign.json").read_text())["candidates"][0]["final_iteration"] == 2
    assert _file_names(rerun) == _file_names(fresh)


def test_loop_rerun_whose_candidates_all_fail_leaves_no_metrics(tmp_path, capsys):
    """A campaign whose only candidate fails validation, run into the --out
    of a finished campaign, exits 3 and leaves no metrics.json of the
    earlier campaign beside its own campaign.json."""
    out = tmp_path / "runs"
    assert main(["loop", _task(), "--config", str(TASKS_DIR / "configs" / "hybrid.json"), "--out", str(out)]) == 0
    (tmp_path / "bad.prog").write_text('program t\nsubgoal "s"\n  grasp_actor(ghost, left)\n')
    config = tmp_path / "failing.json"
    config.write_text(json.dumps({"candidates": [{"playbook": ["bad.prog"]}]}))
    assert main(["loop", _task(), "--config", str(config), "--out", str(out)]) == 3
    assert not (out / "place_shoe" / "metrics.json").exists()
    capsys.readouterr()
    assert main(["metrics", str(out / "place_shoe"), "--check"]) == 2
    assert capsys.readouterr().err.startswith("error [empty_campaign]: ")


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
