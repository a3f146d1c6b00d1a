"""Command-line surface: run | loop | metrics | render | validate | instrument.

Exit codes: 0 success, 1 ran-but-failed (run: a goal-met share not above
success_threshold), 2 input, validation or artifact problems, 3 agent failure,
141 stdout closed before all of the output was written to it.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import metrics as metrics_mod
from . import parallel
from .dsl import parse, to_text, validate
from .errors import AgentFailureError, ArmloopError, ArtifactError, ConfigError, DslSyntaxError
from .harness import scores_report, select_trial
from .instrument import insert_observations
from .loop import LoopConfig, converges, load_campaign_config, run_campaign
from .render import render_trials
from .scene import load_task_spec
from .sim import dump_trials, run_trials, trial_texts


def _read_program(path):
    return parse(ConfigError.read_text(path, "program_file"))


def _read_expert(path):
    """The expert program, parsed before any campaign runs: one that does
    not parse is a ConfigError naming the file."""
    try:
        return parse(ConfigError.read_text(path, "expert_program"))
    except DslSyntaxError as exc:
        raise ConfigError("expert_program", f"{path}: {exc}") from None


def _write_out(out: str | None, text: str) -> None:
    """text to the --out file, or to stdout without one."""
    if out:
        ConfigError.write_text(out, text, "--out")
    else:
        sys.stdout.write(text)


# 128 + SIGPIPE, the status a shell reports for a process that SIGPIPE ended.
CLOSED_STDOUT = 141


def _fail(message: str, code: int) -> int:
    print(message, file=sys.stderr)
    return code


def _input_error(exc: Exception) -> int:
    code = f" [{exc.code}]" if isinstance(exc, ArmloopError) else ""
    return _fail(f"error{code}: {exc}", 2)


# Trials `armloop run` simulates at a time. A trial's bytes depend on neither
# the size of its batch nor the other trials, so neither do the run's files.
CHUNK = 250


def _chunked_trials(program, spec, cfg: LoopConfig, starts: range, kept: list):
    """The trials of the chunks at `starts` in order, simulated CHUNK at a
    time. Each is yielded to be written, then appended to `kept` without its
    snapshots, which only trials.jsonl holds: memory holds one chunk plus
    every trial's events."""
    for start in starts:
        n = min(CHUNK, cfg.n_trials - start)
        for log in run_trials(program, spec, n, cfg.base_seed + start, cfg.noise_scale, cfg.max_steps):
            log.trial_index += start
            yield log
            log.snapshots.clear()
            kept.append(log)


def _share_text(program, spec, cfg: LoopConfig, starts: range) -> tuple:
    """A worker's share of the run: (its trials without snapshots, their
    trials.jsonl text as bytes)."""
    kept = []
    text = [piece.encode() for piece in trial_texts(_chunked_trials(program, spec, cfg, starts, kept))]
    return kept, text


def _received(workers: parallel.Workers, kept: list):
    """The workers' trials.jsonl text in trial order; each worker's trials
    are appended to `kept`."""
    for logs, text in workers.results():
        yield from text
        kept += logs


def _run_chunks(program, spec, cfg: LoopConfig, path: Path) -> list:
    """Simulate and write the run's trials; return them without snapshots.
    The chunks are cut into contiguous shares, one per CPU the process may
    use. This process simulates and writes the first share, as a run of one
    share does; a forked worker simulates each later one, and its text and
    trials are then appended in trial order."""
    starts = range(0, cfg.n_trials, CHUNK)
    shares = min(parallel.cpus(), len(starts))
    cuts = [len(starts) * k // shares for k in range(shares + 1)]
    kept = []
    with parallel.Workers() as workers:
        for k in range(1, shares):
            share = starts[cuts[k]:cuts[k + 1]]
            last = min(share[-1] + CHUNK, cfg.n_trials) - 1
            workers.fork(f"trials {share[0]}-{last}", lambda share=share: _share_text(program, spec, cfg, share))
        dump_trials(_chunked_trials(program, spec, cfg, starts[:cuts[1]], kept), path)
        if shares > 1:
            ConfigError.write_text(path, _received(workers, kept), "--out", mode="ab")
    return kept


def cmd_run(args) -> int:
    cfg = args.cfg
    spec = load_task_spec(args.task_file)
    program = _read_program(args.program_file)
    out = ConfigError.make_dir(args.out, "--out")
    diagnostics = validate(program, spec)
    if diagnostics:
        for d in diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    program = insert_observations(program, cfg.observation_cap)
    logs = _run_chunks(program, spec, cfg, out / "trials.jsonl")
    selection = select_trial(logs, program, cfg.weights)
    ConfigError.write_text(out / "scores.json", scores_report(selection, logs), "--out")
    successes = sum(1 for log in logs if log.goal_met)
    print(f"{spec.name}: {successes}/{len(logs)} trials met the goal")
    for log in logs:
        failure = log.failure_event
        status = "ok" if log.goal_met else (
            f"failed [{failure.error_category}] {failure.message}" if failure else "goal not met"
        )
        print(f"  trial {log.trial_index} (seed {log.seed}): {status}")
    return 0 if converges(successes, len(logs), cfg.success_threshold) else 1


def cmd_loop(args) -> int:
    spec = load_task_spec(args.task_file)
    cfg = load_campaign_config(args.config, args.task_file, spec, max_iterations=args.max_iterations)
    expert = _read_expert(cfg.expert_program) if cfg.expert_program else None
    out = ConfigError.make_dir(Path(args.out) / spec.name, "--out")
    campaign = run_campaign(spec, cfg, out_dir=out)

    rows = campaign.record.candidates
    try:
        payload = metrics_mod.metrics_from_campaign(campaign, expert)
    except ArmloopError:
        for row in rows:
            print(f"candidate {row.candidate_id}: {row.error}", file=sys.stderr)
        return _fail("error [agent_failure]: no candidate completed any trials", 3)
    ConfigError.write_text(out / "metrics.json", metrics_mod.dumps_metrics(payload), "--out")

    print(f"task {spec.name}: ASR {payload['asr']:.2f}  Top5-ASR {payload['top5_asr']:.2f}  CR-Iter {payload['cr_iter']:.2f}")
    print(f"{'cand':>4} {'iter':>4} {'success':>8} {'converged':>9}")
    for row, batches in zip(rows, campaign.batches):
        if row.error is not None:
            print(f"{row.candidate_id:>4} {'-':>4} {'-':>8} {'agent_failure':>9}")
        for k, (success, n) in enumerate(batches, 1):
            print(f"{row.candidate_id:>4} {k:>4} {success:>3}/{n:<4} {str(row.converged and k == row.cr_iter):>9}")
    return 3 if any(row.error is not None for row in rows) else 0


def cmd_metrics(args) -> int:
    stored = Path(args.run_dir) / "metrics.json"
    text = metrics_mod.dumps_metrics(metrics_mod.metrics_from_artifacts(args.run_dir))
    # Compared before --out is written: it may name the stored file itself.
    matches = args.check and stored.exists() and ArtifactError.read_text(stored, str(stored)) == text
    _write_out(args.out, text)
    if args.check:
        if not matches:
            return _fail("recomputed metrics.json differs from the stored file", 2)
        print("metrics.json matches the stored artifact", file=sys.stderr)
    return 0


def cmd_render(args) -> int:
    written = render_trials(args.trials_file, load_task_spec(args.task_file), args.out)
    print(f"wrote {len(written)} SVG files to {args.out}")
    return 0


def cmd_validate(args) -> int:
    spec = load_task_spec(args.task_file)
    diagnostics = validate(_read_program(args.program_file), spec)
    if diagnostics:
        for d in diagnostics:
            print(str(d), file=sys.stderr)
        return 2
    print(f"{args.program_file}: statically valid for task {spec.name}")
    return 0


def cmd_instrument(args) -> int:
    program = _read_program(args.program_file)
    _write_out(args.out, to_text(insert_observations(program, args.cfg.observation_cap)))
    return 0


# Per command, each option that sets a run parameter -> the LoopConfig field
# that declares its type, default and bound.
OPTIONS = {
    "run": {"--trials": "n_trials", "--seed": "base_seed", "--noise-scale": "noise_scale",
            "--max-steps": "max_steps", "--observation-cap": "observation_cap"},
    "loop": {"--max-iter": "max_iterations"},
    "instrument": {"--cap": "observation_cap"},
}


def _number(text: str):
    """The number int() or float() reads, else the text, for check() to refuse."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="armloop",
        description="Synthesize, execute, monitor, and repair tabletop manipulation programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a program against a task for N trials")
    p.add_argument("task_file")
    p.add_argument("program_file")
    for option, name in OPTIONS["run"].items():
        p.add_argument(option, type=_number, default=getattr(LoopConfig, name), dest=name)
    p.add_argument("--out", default="out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("loop", help="run the closed synthesis/repair loop or campaign")
    p.add_argument("task_file")
    p.add_argument("--config", required=True)
    p.add_argument("--max-iter", type=_number, default=None, dest="max_iterations",
                   help="replace the config's max_iterations (one_shot still runs 1)")
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
    for option, name in OPTIONS["instrument"].items():
        p.add_argument(option, type=_number, default=getattr(LoopConfig, name), dest=name)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_instrument)

    return parser


def _options_config(args) -> LoopConfig:
    """The LoopConfig of the command's given options, each checked as its
    config key is; a refused value is reported under its option."""
    options = OPTIONS.get(args.command, {})
    try:
        return LoopConfig(**{name: getattr(args, name) for name in options.values()
                             if getattr(args, name) is not None})
    except ConfigError as exc:
        raise ConfigError(next(o for o, name in options.items() if name == exc.field), exc.reason) from None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.cfg = _options_config(args)
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at shutdown
        return status
    except BrokenPipeError:
        # The reader of stdout went away: what is left for it goes to devnull,
        # so that the flush at shutdown succeeds (the "Note on SIGPIPE" in the
        # docs of the signal module).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT
    except AgentFailureError as exc:
        return _fail(f"error [agent_failure]: {exc}", 3)
    except (ArmloopError, OSError) as exc:
        return _input_error(exc)


if __name__ == "__main__":
    sys.exit(main())
