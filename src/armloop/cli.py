"""Command-line surface: run | loop | metrics | render | validate | instrument.

Exit codes: 0 success, 1 ran-but-failed (run: no majority of goal-met
trials), 2 parse/validation/artifact problems, 3 agent failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import metrics as metrics_mod
from .dsl import parse, to_text, validate
from .errors import AgentFailureError, ArmloopError, ConfigError
from .harness import scores_report, select_trial
from .instrument import MIN_OBSERVATION_CAP, insert_observations
from .loop import load_campaign_config, run_campaign
from .render import render_trials
from .scene import load_task_spec
from .sim import dump_trials, run_trials


def _read_program(path):
    return parse(ConfigError.read_text(path, "program_file"))


def _out_dir(path: Path) -> Path:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("--out", f"cannot create {path}: {exc.strerror}") from None
    return path


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _input_error(exc: Exception) -> int:
    code = f" [{exc.code}]" if isinstance(exc, ArmloopError) else ""
    return _fail(f"error{code}: {exc}", 2)


def _at_least(value, flag: str, minimum) -> None:
    if value is not None and not value >= minimum:
        raise ConfigError(flag, f"must be at least {minimum}, got {value}")


def cmd_run(args) -> int:
    try:
        _at_least(args.trials, "--trials", 1)
        _at_least(args.seed, "--seed", 0)
        _at_least(args.max_steps, "--max-steps", 1)
        _at_least(args.noise_scale, "--noise-scale", 0)
        _at_least(args.observation_cap, "--observation-cap", MIN_OBSERVATION_CAP)
        spec = load_task_spec(args.task_file)
        program = _read_program(args.program_file)
        out = _out_dir(Path(args.out))
    except ArmloopError as exc:
        return _input_error(exc)
    diagnostics = validate(program, spec)
    if diagnostics:
        for d in diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    if not args.no_instrument:
        program = insert_observations(program, cap=args.observation_cap)
    logs = run_trials(
        program, spec, args.trials, args.seed,
        noise_scale=args.noise_scale, max_steps=args.max_steps,
    )
    dump_trials(logs, out / "trials.jsonl")
    selection = select_trial(logs, program)
    (out / "scores.json").write_text(scores_report(selection, logs), encoding="utf-8")
    successes = sum(1 for log in logs if log.goal_met)
    print(f"{spec.name}: {successes}/{len(logs)} trials met the goal")
    for log in logs:
        failure = log.failure_event
        status = "ok" if log.goal_met else (
            f"failed [{failure.error_category}] {failure.message}" if failure else "goal not met"
        )
        print(f"  trial {log.trial_index} (seed {log.seed}): {status}")
    return 0 if successes * 2 > len(logs) else 1


def cmd_loop(args) -> int:
    try:
        _at_least(args.max_iter, "--max-iter", 1)
        spec = load_task_spec(args.task_file)
        cfg = load_campaign_config(args.config, args.task_file, spec)
        expert_text = (ConfigError.read_text(cfg.expert_program, "expert_program")
                       if cfg.expert_program else None)
        out = _out_dir(Path(args.out) / spec.name)
    except ArmloopError as exc:
        return _input_error(exc)
    if args.max_iter is not None:
        cfg.loop.max_iterations = args.max_iter
    try:
        campaign = run_campaign(spec, cfg, out_dir=out)
    except AgentFailureError as exc:
        return _fail(f"error [agent_failure]: {exc}", 3)

    try:
        payload = metrics_mod.metrics_from_campaign(campaign, expert_text)
    except ArmloopError:
        for cand in campaign.candidates:
            print(f"candidate {cand.candidate_id}: {cand.error}", file=sys.stderr)
        return _fail("error [agent_failure]: no candidate completed any trials", 3)
    (out / "metrics.json").write_text(metrics_mod.dumps_metrics(payload), encoding="utf-8")

    print(f"task {spec.name}: ASR {payload['asr']:.2f}  Top5-ASR {payload['top5_asr']:.2f}  CR-Iter {payload['cr_iter']:.2f}")
    print(f"{'cand':>4} {'iter':>4} {'success':>8} {'converged':>9}")
    for cand in campaign.candidates:
        if cand.error is not None:
            print(f"{cand.candidate_id:>4} {'-':>4} {'-':>8} {'agent_failure':>9}")
            continue
        for record in cand.result.iterations:
            print(
                f"{cand.candidate_id:>4} {record.index:>4} "
                f"{record.success_count:>3}/{record.n_trials:<4} "
                f"{str(cand.result.converged and record.index == cand.result.cr_iter):>9}"
            )
    if campaign.had_agent_failure:
        return 3
    return 0


def cmd_metrics(args) -> int:
    try:
        payload = metrics_mod.metrics_from_artifacts(args.run_dir)
    except (ArmloopError, OSError) as exc:
        return _input_error(exc)
    text = metrics_mod.dumps_metrics(payload)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    if args.check:
        stored = Path(args.run_dir) / "metrics.json"
        if not stored.exists() or stored.read_text(encoding="utf-8") != text:
            return _fail("recomputed metrics.json differs from the stored file", 2)
        print("metrics.json matches the stored artifact", file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    try:
        spec = load_task_spec(args.task_file)
        written = render_trials(args.trials_file, spec, args.out)
    except (ArmloopError, OSError) as exc:
        return _input_error(exc)
    print(f"wrote {len(written)} SVG files to {args.out}")
    return 0


def cmd_validate(args) -> int:
    try:
        spec = load_task_spec(args.task_file)
        program = _read_program(args.program_file)
    except ArmloopError as exc:
        return _input_error(exc)
    diagnostics = validate(program, spec)
    if diagnostics:
        for d in diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    print(f"{args.program_file}: statically valid for task {spec.name}")
    return 0


def cmd_instrument(args) -> int:
    try:
        program = _read_program(args.program_file)
        instrumented = insert_observations(program, cap=args.cap)
    except ArmloopError as exc:
        return _input_error(exc)
    text = to_text(instrumented)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armloop",
        description="Synthesize, execute, monitor, and repair tabletop manipulation programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a program against a task for N trials")
    p.add_argument("task_file")
    p.add_argument("program_file")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise-scale", type=float, default=0.0, dest="noise_scale")
    p.add_argument("--max-steps", type=int, default=200, dest="max_steps")
    p.add_argument("--observation-cap", type=int, default=10, dest="observation_cap")
    p.add_argument("--no-instrument", action="store_true")
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("loop", help="run the closed synthesis/repair loop or campaign")
    p.add_argument("task_file")
    p.add_argument("--config", required=True)
    p.add_argument("--max-iter", type=int, default=None, dest="max_iter",
                   help="override the iteration cap (1 = one-shot baseline)")
    p.add_argument("--out", default="runs")
    p.set_defaults(func=cmd_loop)

    p = sub.add_parser("metrics", help="recompute metrics.json from run artifacts")
    p.add_argument("run_dir")
    p.add_argument("--out", default=None)
    p.add_argument("--check", action="store_true",
                   help="compare against the stored metrics.json byte for byte")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("render", help="render one SVG per snapshot in a trials.jsonl")
    p.add_argument("trials_file")
    p.add_argument("task_file")
    p.add_argument("--out", default="render")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("validate", help="parse and statically validate a program")
    p.add_argument("task_file")
    p.add_argument("program_file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("instrument", help="insert observation hooks into a program")
    p.add_argument("program_file")
    p.add_argument("--cap", type=int, default=10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_instrument)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
