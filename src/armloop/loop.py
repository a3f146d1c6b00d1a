"""Closed-loop controller: fuse feedback, synthesize, execute, repair.

One iteration is synthesize -> instrument -> run trials -> (if below the
success threshold) select the most diagnostic trial, verify it, fuse the
symbolic and perceptual findings into a repair signal, and feed that signal
into the next synthesis round. A campaign runs several independent
candidates and aggregates their final success rates.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import re
import shutil
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import parallel
from .agents.config import AgentConfig
from .agents.diagnosis import CAUSE_FROM_ERROR, CAUSES, Diagnosis, render_diagnosis
from .agents.prompts import build_synthesis_prompt
from .agents.synthesizer import Synthesizer
from .agents.verifier import Verifier
from .dsl.ast import Program
from .dsl.printer import to_text
from .errors import (
    AgentFailureError,
    ArtifactError,
    BackendError,
    ConfigError,
    DslSyntaxError,
    InvalidProgramError,
    MalformedReplyError,
    NoCodeBlockError,
)
from .harness import SelectionResult, collect_observations, scores_report, select_trial
from .instrument import MIN_OBSERVATION_CAP, insert_observations
from .scene import MAX_NOISE_SCALE, TaskSpec
from .sim.executor import run_trials
from .sim.model import ERROR_CATEGORIES, TrialLog, dump_trials

# Anything that stops an iteration from producing a runnable program.
_SYNTHESIS_ERRORS = (
    BackendError,
    NoCodeBlockError,
    MalformedReplyError,
    InvalidProgramError,
    DslSyntaxError,
)

EDIT_CLASS_FROM_CAUSE = {
    "api_misuse": "api_substitution",
    "geometric_infeasibility": "parameter_retune",
    "execution_failure": "parameter_retune",
    "logic_error": "logic_rewrite",
    "perception_mismatch": "logic_rewrite",
}


@dataclass
class FaultEntry:
    """A fault of a repair signal. The bounds are those fuse keeps: ids and
    subgoal indices from 1, and the edit class that the cause maps to."""

    stmt_id: int = field(metadata={"minimum": 1})
    subgoal_index: int = field(metadata={"minimum": 1})
    cause: str = field(metadata={"choices": CAUSES})
    suggested_edit_class: str
    source: str = field(metadata={"choices": ("symbolic", "perceptual", "both")})
    symbolic_error_category: str | None = field(metadata={"choices": ERROR_CATEGORIES[1:]})  # no "none"
    perceptual_rationale: str | None

    def __post_init__(self):
        ArtifactError.check_fields(self)
        if self.suggested_edit_class != EDIT_CLASS_FROM_CAUSE[self.cause]:
            raise ArtifactError("suggested_edit_class", f"expected {EDIT_CLASS_FROM_CAUSE[self.cause]!r} for cause "
                                                        f"{self.cause!r}, got {self.suggested_edit_class!r}")

    @classmethod
    def of(cls, stmt_id, subgoal_index, cause, source, category, rationale) -> "FaultEntry":
        """The entry with the edit class its cause maps to."""
        return cls(stmt_id, subgoal_index, cause, EDIT_CLASS_FROM_CAUSE[cause], source, category, rationale)


@dataclass
class RepairSignal:
    """repair_signal.json: these fields in order, the faults as their entries."""

    faults: list  # of FaultEntry
    last_error: str
    observation_feedback: str

    def __post_init__(self):
        ArtifactError.check_fields(self)

    def render_feedback(self) -> str:
        """Observation-feedback text for the repair prompt: the diagnosis,
        then one '- [subgoal i] ...' line per prioritized fault."""
        lines = [self.observation_feedback, "", "Prioritized faults:"]
        if not self.faults:
            lines.append("none localized")
        for f in self.faults:
            detail = f.perceptual_rationale or f.symbolic_error_category or ""
            lines.append(
                f"- [subgoal {f.subgoal_index}] stmt {f.stmt_id} "
                f"cause={f.cause} edit={f.suggested_edit_class} "
                f"source={f.source} {detail}".rstrip()
            )
        return "\n".join(lines)

    @classmethod
    def from_json(cls, raw, where: str) -> "RepairSignal":
        """A repair_signal.json's content; ArtifactError names where the fault is."""
        signal = ArtifactError.build(cls, raw, where)
        signal.faults = [ArtifactError.build(FaultEntry, entry, f"{where}: faults[{i}]")
                         for i, entry in enumerate(signal.faults)]
        return signal


def fuse(log: TrialLog, diagnosis: Diagnosis, program: Program) -> RepairSignal:
    """Joint interpretation of one failed trial, by one rule per subgoal.

    The symbolic failure statement (sym) and the perceptual deviation point
    (perc) of a subgoal agree when perc names sym's statement. A sym gives
    one entry: source "both" when they agree (cause perc's, else the error
    category's; rationale perc's), else "symbolic". A perc with a deviation
    point that does not agree gives one "perceptual" entry after it. Entries
    rank earlier-subgoal first. A verdict that points at a statement the
    program lacks, or whose index is below 1, raises MalformedReplyError
    naming it; so every entry has a statement id (the executor's and the
    program's are dense from 1) and a subgoal index of at least 1. A
    diagnosis that reports success is run_loop's to handle, not fuse's.
    """
    known_ids = {stmt.id for stmt in program.walk()}
    for i, verdict in enumerate(diagnosis.subgoals):
        if verdict.index < 1:
            raise MalformedReplyError(f"reply.subgoals[{i}].index", f"subgoals count from 1, got {verdict.index}")
        if verdict.deviation_stmt is not None and verdict.deviation_stmt not in known_ids:
            raise MalformedReplyError(f"reply.subgoals[{i}].deviation_stmt",
                                      f"no statement {verdict.deviation_stmt} in the program")

    failure = log.failure_event
    perceptual = {v.index: v for v in diagnosis.failed_verdicts()}
    subgoal_indices = set(perceptual)
    if failure is not None:
        subgoal_indices.add(failure.subgoal_index)

    faults: list[FaultEntry] = []
    for index in sorted(subgoal_indices):
        sym = failure if failure is not None and failure.subgoal_index == index else None
        perc = perceptual.get(index)
        agree = sym is not None and perc is not None and perc.deviation_stmt == sym.stmt_id
        if sym is not None:
            cause = perc.cause if agree and perc.cause else CAUSE_FROM_ERROR[sym.error_category]
            faults.append(FaultEntry.of(sym.stmt_id, index, cause, "both" if agree else "symbolic",
                                        sym.error_category, (perc.rationale or None) if agree else None))
        if perc is not None and perc.deviation_stmt is not None and not agree:
            faults.append(FaultEntry.of(perc.deviation_stmt, index, perc.cause or "perception_mismatch",
                                        "perceptual", None, perc.rationale or None))

    if failure is not None:
        last_error = failure.message
    else:
        last_error = (
            f"goal predicate not satisfied at the end of trial {log.trial_index} "
            f"(seed {log.seed})"
        )
    subgoal_texts = [sg.description for sg in program.subgoals]
    return RepairSignal(
        faults=faults,
        last_error=last_error,
        observation_feedback=render_diagnosis(diagnosis, subgoal_texts),
    )


# --- loop -------------------------------------------------------------------


@dataclass
class LoopConfig:
    """A loop's run parameters; a field declares its default and its bound."""

    synthesis: AgentConfig = field(default_factory=AgentConfig)
    verifier: AgentConfig = field(default_factory=AgentConfig)
    n_trials: int = field(default=10, metadata={"minimum": 1})
    success_threshold: float = field(default=0.5, metadata={"minimum": 0})
    max_iterations: int = field(default=5, metadata={"minimum": 1})
    base_seed: int = field(default=0, metadata={"minimum": 0})
    weights: tuple = (1.0, 1.0)  # (severity, divergence); a config gives two numbers
    noise_scale: float = field(default=0.0, metadata={"minimum": 0, "maximum": MAX_NOISE_SCALE})
    max_steps: int = field(default=200, metadata={"minimum": 1})
    observation_cap: int = field(default=10, metadata={"minimum": MIN_OBSERVATION_CAP})
    perception: bool = True  # False: symbolic-only feedback (empty diagnosis)

    def __post_init__(self):
        ConfigError.check_fields(self)


@dataclass
class IterationRecord:
    index: int
    program: Program
    instrumented: Program
    success_count: int
    n_trials: int
    diagnosis: Diagnosis | None = None  # None on a converging iteration, as is signal
    signal: RepairSignal | None = None


@dataclass
class LoopResult:
    iterations: list
    converged: bool


def converges(success_count: int, n_trials: int, threshold: float) -> bool:
    """The convergence rule: a batch converges when its success rate is
    strictly above the threshold (an empty batch never does)."""
    return n_trials > 0 and success_count / n_trials > threshold


def iteration_base_seed(base_seed: int, k: int, n_trials: int) -> int:
    """The first seed of iteration k of a loop from base_seed: its
    iterations run consecutive blocks of n_trials seeds."""
    return base_seed + (k - 1) * n_trials


def json_text(payload) -> str:
    """A JSON file's text, as json.dumps(indent=2) writes it: a record's
    (diagnosis.json, repair_signal.json, campaign.json) is its asdict(), its
    fields in declaration order; metrics.json's is the metrics payload."""
    return json.dumps(payload, indent=2) + "\n"


def _persist_iteration(out_dir: Path | None, record: IterationRecord, logs: list, selection: SelectionResult):
    """The iteration's files under out_dir/iter_<k>: its batch's trials
    `logs` and their selection among them. One that cannot be written is a
    ConfigError naming --out."""
    if out_dir is None:
        return
    it_dir = ConfigError.make_dir(out_dir / f"iter_{record.index}", "--out")
    dump_trials(logs, it_dir / "trials.jsonl")
    texts = {"program.prog": to_text(record.program), "instrumented.prog": to_text(record.instrumented),
             "scores.json": scores_report(selection)}
    if record.diagnosis is not None:
        texts["diagnosis.json"] = json_text(asdict(record.diagnosis))
    if record.signal is not None:
        texts["repair_signal.json"] = json_text(asdict(record.signal))
    for name, text in texts.items():
        ConfigError.write_text(it_dir / name, text, "--out")


def _same_program(a: Program, b: Program) -> bool:
    """Whether two instrumented programs run alike. `==` on the nodes
    leaves out ids, which instrumenting numbers from the structure, but
    holds -0.0 equal to 0.0, which a pose literal carries into the
    snapshots; repr tells them apart."""
    return a == b and repr(a) == repr(b)


def _run_iteration(k: int, program: Program, spec: TaskSpec, cfg: LoopConfig, verifier: Verifier, subgoals,
                   out_dir: Path | None, last: tuple | None) -> tuple:
    """Iteration k of program: instrument, run its batch, and unless the
    batch converges, diagnose its selected trial into a repair signal. The
    batch's trials are written under out_dir and dropped on return, all
    but the first, which is returned with the record. `last`, given where
    no draw can be read, is the previous iteration's instrumented program
    and first trial: a batch of the same program is that trial's log under
    each of the batch's seeds."""
    instrumented = insert_observations(program, cfg.observation_cap)
    base = iteration_base_seed(cfg.base_seed, k, cfg.n_trials)
    if last is not None and _same_program(instrumented, last[0]):
        first = last[1]
        logs = [TrialLog(i, base + i, first.events, first.snapshots, first.goal_met) for i in range(cfg.n_trials)]
    else:
        logs = run_trials(instrumented, spec, cfg.n_trials, base, cfg.noise_scale, cfg.max_steps)
    success_count = sum(1 for log in logs if log.goal_met)
    selection = select_trial(logs, instrumented, cfg.weights)
    diagnosis = signal = None
    if not converges(success_count, cfg.n_trials, cfg.success_threshold):
        selected = logs[selection.index]
        observations = collect_observations(selected, instrumented)
        try:
            diagnosis = (verifier.verify(subgoals, observations, selected) if cfg.perception
                         else Diagnosis())
            if diagnosis.overall_success:
                signal = RepairSignal([], "trials missed the goal but the verifier reported success",
                                      render_diagnosis(diagnosis, subgoals))
            else:
                signal = fuse(selected, diagnosis, instrumented)
        except (BackendError, MalformedReplyError) as exc:
            raise AgentFailureError(f"verification failed: {exc}") from exc
    record = IterationRecord(k, program, instrumented, success_count, cfg.n_trials, diagnosis, signal)
    _persist_iteration(out_dir, record, logs, selection)
    return record, logs[0]


def run_loop(
    spec: TaskSpec,
    cfg: LoopConfig,
    out_dir=None,
    transport=None,
    playbook=(),
) -> LoopResult:
    """Iterate synthesize/instrument/execute/diagnose until the batch
    success rate exceeds the threshold or the iteration cap is hit. The
    mock synthesizer replays `playbook`, the candidate's program texts. An
    iteration's record holds no trials: they are in its trials.jsonl.
    Where no draw can be read, an iteration whose instrumented program is
    the previous one's runs no simulation: its batch is the previous first
    trial's log under its own seeds, as run_trials would give it."""
    out_dir = Path(out_dir) if out_dir is not None else None
    synthesizer = Synthesizer(cfg.synthesis, transport, playbook)
    verifier = Verifier(cfg.verifier, spec, transport=transport)

    try:
        subgoals = synthesizer.decompose(spec.instruction, spec)
    except (BackendError, MalformedReplyError) as exc:
        raise AgentFailureError(f"decomposition failed: {exc}") from exc

    iterations: list[IterationRecord] = []
    signal = None
    current: Program | None = None
    converged = False
    reuse = spec.noise.draws_unread(cfg.noise_scale)  # a batch is then a function of its program
    last = None  # with reuse, the previous iteration's instrumented program and first trial

    for k in range(1, cfg.max_iterations + 1):
        feedback = (signal.last_error, signal.render_feedback()) if signal is not None else None
        prompt = build_synthesis_prompt(spec, subgoals, current=current, feedback=feedback)
        try:
            program = synthesizer.synthesize(prompt, spec, signal)
        except _SYNTHESIS_ERRORS as exc:
            raise AgentFailureError(f"synthesis failed: {exc}") from exc
        record, first = _run_iteration(k, program, spec, cfg, verifier, subgoals, out_dir, last)
        iterations.append(record)
        if reuse:
            last = record.instrumented, first
        converged = converges(record.success_count, record.n_trials, cfg.success_threshold)
        if converged:
            break
        signal, current = record.signal, record.instrumented

    return LoopResult(iterations=iterations, converged=converged)


# --- campaign ----------------------------------------------------------------


@dataclass
class CampaignConfig:
    loop: LoopConfig = field(default_factory=LoopConfig)
    candidates: list = field(default_factory=list)  # per candidate, its playbook; none: one candidate
    expert_program: str | None = None


@dataclass
class CandidateRecord:
    """A candidate's outcome, as its campaign.json row holds it in field
    order. Metrics count on the fields, so each holds exactly its declared
    type (a bool is no int). A candidate an agent failure stopped has its
    error, converged false and zeros."""

    candidate_id: int
    base_seed: int
    converged: bool
    cr_iter: int
    final_iteration: int  # index of the last iteration run
    success_count: int  # of the final iteration's batch
    n_trials: int
    error: str | None

    def __post_init__(self):
        ArtifactError.check_fields(self)

    @classmethod
    def from_json(cls, raw, where: str) -> "CandidateRecord":
        """A campaign.json candidate row; ArtifactError names where it is."""
        return ArtifactError.build(cls, raw, where)

    @classmethod
    def of(cls, candidate_id: int, base_seed: int, batches: list, threshold: float, cap: int,
           error: str | None) -> "CandidateRecord":
        """The row of a candidate whose iterations 1, 2, ... ran batches of
        (goal-met count, trials). CR-Iter is the first iteration whose batch
        converges, else the cap; a candidate without batches has zeros."""
        converged_at = next((k for k, (success, n) in enumerate(batches, 1)
                             if converges(success, n, threshold)), None)
        success, n = batches[-1] if batches else (0, 0)
        return cls(candidate_id, base_seed, converged_at is not None,
                   converged_at or (cap if batches else 0), len(batches), success, n, error)


@dataclass
class CampaignRecord:
    """campaign.json: these fields in order, the candidates as their rows."""

    task: str
    created_at: str  # the lone timestamp in any artifact; everything else is byte-stable
    n_trials: int
    success_threshold: float
    max_iterations: int
    expert_program: str | None
    candidates: list  # of CandidateRecord

    def __post_init__(self):
        ArtifactError.check_fields(self)

    @classmethod
    def from_json(cls, raw, where: str) -> "CampaignRecord":
        """A campaign.json's content; ArtifactError names where the fault is."""
        campaign = ArtifactError.build(cls, raw, where)
        campaign.candidates = [CandidateRecord.from_json(row, f"{where}: candidates[{i}]")
                               for i, row in enumerate(campaign.candidates)]
        return campaign


@dataclass
class CampaignResult:
    record: CampaignRecord
    batches: list  # per candidate, (goal-met count, trials) per iteration run; none where an agent failure stopped it
    finals: list  # per candidate, its final iteration's program, or None where an agent failure stopped it


def _run_candidate(spec: TaskSpec, cfg: CampaignConfig, i: int, out_dir, transport) -> tuple:
    """Candidate i's loop, written to out_dir/cand_<i>: its campaign.json
    row, its batches and its final program, and nothing more, so that a
    worker sends back no trial logs. An agent failure is the row's error."""
    loop_cfg = replace(cfg.loop, base_seed=cfg.loop.base_seed + i * cfg.loop.max_iterations * cfg.loop.n_trials)
    cand_dir = out_dir / f"cand_{i}" if out_dir is not None else None
    iterations, error = [], None
    try:
        iterations = run_loop(spec, loop_cfg, out_dir=cand_dir, transport=transport,
                              playbook=cfg.candidates[i] if cfg.candidates else ()).iterations
    except AgentFailureError as exc:
        error = str(exc)
    batches = [(it.success_count, it.n_trials) for it in iterations]
    row = CandidateRecord.of(i, loop_cfg.base_seed, batches, loop_cfg.success_threshold,
                             loop_cfg.max_iterations, error)
    return row, batches, iterations[-1].program if iterations else None


def run_campaign(
    spec: TaskSpec,
    cfg: CampaignConfig,
    out_dir=None,
    transport=None,
) -> CampaignResult:
    """Independent loop runs per candidate; an agent failure marks its
    candidate and leaves the others running. Candidate i is cand_<i> and
    runs the i-th block of max_iterations x n_trials seeds from base_seed,
    laid out from the final iteration cap so no two (candidate, iteration)
    batches share seeds. The candidate directories and the metrics.json an
    earlier run left in out_dir are removed first, so it holds this
    campaign's files only.

    Candidate i runs in share i mod shares: this process runs share 0 and a
    forked worker each later one, at most one share per CPU the process may
    use.
    A campaign forks only when both agent stages are mock: a remote stage's
    transport may hold state that the candidates share, so a remote
    campaign runs as one share."""
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        for stale in out_dir.glob("cand_*"):
            if stale.is_dir():
                shutil.rmtree(stale)
        if (out_dir / "metrics.json").is_file():
            (out_dir / "metrics.json").unlink()
    record = CampaignRecord(spec.name, datetime.datetime.now(datetime.timezone.utc).isoformat(),
                            cfg.loop.n_trials, cfg.loop.success_threshold, cfg.loop.max_iterations,
                            cfg.expert_program, [])  # created_at before any candidate runs
    n = len(cfg.candidates) or 1
    mock = cfg.loop.synthesis.backend == cfg.loop.verifier.backend == "mock"
    shares = min(parallel.cpus(), n) if mock else 1

    def share(k: int) -> list:
        return [_run_candidate(spec, cfg, i, out_dir, transport) for i in range(k, n, shares)]

    outcomes = [None] * n
    with parallel.Workers() as workers:
        for k in range(1, shares):
            workers.fork(f"candidates {', '.join(map(str, range(k, n, shares)))}", lambda k=k: share(k))
        outcomes[::shares] = share(0)
        for k, received in enumerate(workers.results(), 1):
            outcomes[k::shares] = received
    rows, batches, finals = map(list, zip(*outcomes))
    record.candidates = rows
    if out_dir is not None:
        ConfigError.write_text(ConfigError.make_dir(out_dir, "--out") / "campaign.json", json_text(asdict(record)), "--out")
    return CampaignResult(record, batches, finals)


# --- config files -------------------------------------------------------------


_ENV_RE = re.compile(r"\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


def _expand_env(value):
    if isinstance(value, str):
        return _ENV_RE.sub(lambda m: os.environ.get(m.group(1), ""), value)
    if isinstance(value, dict):
        return {k: _expand_env(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_expand_env(v) for v in value]
    return value


def _resolve_program(entry, programs_dir: Path, config_dir: Path, where: str) -> str:
    """The first of programs_dir/entry and config_dir/entry that is a file."""
    for path in (programs_dir / ConfigError.check(entry, str, where), config_dir / entry):
        if path.is_file():
            return str(path)
    raise ConfigError(where, f"no program file {entry!r}")


def load_campaign_config(config_path, task_file, spec: TaskSpec, max_iterations=None) -> CampaignConfig:
    """Parse a campaign/loop config JSON.

    A candidate is {"playbook": [program paths]}; the mock synthesizer
    needs at least one candidate and a playbook in each. Bare playbook
    filenames resolve against <task dir>/<task name>/ so one config file
    drives every bundled task; other relative paths resolve against the
    config file's directory. Each playbook program is read here, so the
    loaded candidates are playbooks of program texts; the expert program is
    only resolved to its path. ${VAR} in agent fields expands from the
    environment. A malformed field or an undeclared key raises
    ConfigError naming it. A given max_iterations (`loop --max-iter`)
    replaces the config's; the one_shot mode still runs 1 iteration.
    """
    config_path = Path(config_path)
    raw = ConfigError.check(ConfigError.read_json(config_path, "config"), dict, "config")
    config_dir = config_path.parent
    programs_dir = Path(task_file).parent / spec.name

    # The campaign's keys; the others are LoopConfig's.
    mode = ConfigError.check(raw.pop("mode", "hybrid"), str, "mode", choices=("hybrid", "symbolic", "one_shot"))
    entries = ConfigError.check(raw.pop("candidates", []), list, "candidates")
    expert = raw.pop("expert_program", None)
    if expert is not None:
        expert = _resolve_program(expert, programs_dir, config_dir, "expert_program")
    for key in ("synthesis", "verifier"):
        raw[key] = ConfigError.build(AgentConfig, _expand_env(raw.get(key, {})), key)
    if "weights" in raw:
        weights = ConfigError.check(raw["weights"], list, "weights")
        if len(weights) != 2:
            raise ConfigError("weights", f"expected two numbers, got {weights!r}")
        raw["weights"] = tuple(ConfigError.check(w, float, "weights", minimum=0.0) for w in weights)
        if not math.isfinite(sum(raw["weights"])):  # psi is at most their sum
            raise ConfigError("weights", f"their sum must be finite, got {weights!r}")
    if max_iterations is not None:
        raw["max_iterations"] = max_iterations
    loop_cfg = ConfigError.build(LoopConfig, raw, "", perception=(mode == "hybrid"))
    if mode == "one_shot":
        loop_cfg.max_iterations = 1

    mock = loop_cfg.synthesis.backend == "mock"
    if mock and not entries:
        raise ConfigError("candidates", "the mock synthesizer needs a candidate with a playbook")
    candidates = []
    for i, entry in enumerate(entries):
        where = f"candidates[{i}]"
        paths = ConfigError.get(entry, "playbook", list, where, default=[])
        unexpected = next((key for key in entry if key != "playbook"), None)
        if unexpected is not None:
            raise ConfigError(f"{where}.{unexpected}", "unexpected field")
        where += ".playbook"
        if mock and not paths:
            raise ConfigError(where, "the mock synthesizer needs a playbook")
        candidates.append([ConfigError.read_text(_resolve_program(path, programs_dir, config_dir, where), where)
                           for path in paths])
    return CampaignConfig(loop=loop_cfg, candidates=candidates, expert_program=expert)
