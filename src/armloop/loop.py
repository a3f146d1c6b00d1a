"""Closed-loop controller: fuse feedback, synthesize, execute, repair.

One iteration is synthesize -> instrument -> run trials -> (if below the
success threshold) select the most diagnostic trial, verify it, fuse the
symbolic and perceptual findings into a repair signal, and feed that signal
into the next synthesis round. A campaign runs several independent
candidates and aggregates their final success rates.
"""

from __future__ import annotations

import copy
import datetime
import json
import os
import re
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from types import NoneType

from .agents.config import AgentConfig
from .agents.diagnosis import CAUSE_FROM_ERROR, Diagnosis, render_diagnosis
from .agents.prompts import build_synthesis_prompt
from .agents.synthesizer import Synthesizer
from .agents.verifier import Verifier
from .dsl.ast import Program
from .dsl.printer import to_text
from .errors import (
    AgentFailureError,
    BackendError,
    ConfigError,
    DslSyntaxError,
    InvalidProgramError,
    MalformedReplyError,
    NoCodeBlockError,
    NothingToFuseError,
)
from .harness import SelectionResult, collect_observations, scores_report, select_trial
from .instrument import MIN_OBSERVATION_CAP, insert_observations
from .scene import TaskSpec
from .sim.executor import run_trials
from .sim.model import TrialLog, dump_trials

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
    stmt_id: int
    subgoal_index: int
    cause: str
    suggested_edit_class: str
    source: str  # symbolic | perceptual | both
    symbolic_error_category: str | None = None
    perceptual_rationale: str | None = None


@dataclass
class RepairSignal:
    faults: list = field(default_factory=list)
    last_error: str = ""
    observation_feedback: str = ""

    @property
    def faulty_stmt_ids(self) -> list[int]:
        return [f.stmt_id for f in self.faults]

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

    to_json = asdict  # repair_signal.json: the fields in declaration order

    @classmethod
    def from_json(cls, raw: dict) -> "RepairSignal":
        return cls(**{**raw, "faults": [FaultEntry(**e) for e in raw["faults"]]})


def fuse(log: TrialLog, diagnosis: Diagnosis, program: Program) -> RepairSignal:
    """Joint interpretation of one failed trial.

    Per failed subgoal: agreement between the symbolic failure statement and
    the perceptual deviation point yields a single fault entry; disagreement
    yields two with the symbolic one first; a silent symbolic log leaves the
    perceptual entry alone. Entries rank earlier-subgoal first, then
    symbolic-confirmed before perceptual-only. A verdict that points at a
    statement the program lacks raises MalformedReplyError naming it.
    """
    if diagnosis.overall_success:
        raise NothingToFuseError("diagnosis reports overall success")

    known_ids = {stmt.id for stmt in program.walk()}
    for i, verdict in enumerate(diagnosis.verdicts):
        if verdict.deviation_stmt is not None and verdict.deviation_stmt not in known_ids:
            raise MalformedReplyError(f"reply.subgoals[{i}].deviation_stmt",
                                      f"no statement {verdict.deviation_stmt} in the program")

    failure = log.failure_event
    perceptual = {v.subgoal_index: v for v in diagnosis.failed_verdicts()}
    subgoal_indices = set(perceptual)
    if failure is not None:
        subgoal_indices.add(failure.subgoal_index)

    faults: list[FaultEntry] = []
    for index in sorted(subgoal_indices):
        sym = failure if failure is not None and failure.subgoal_index == index else None
        perc = perceptual.get(index)

        if sym is not None and perc is not None and perc.deviation_stmt == sym.stmt_id:
            cause = perc.cause or CAUSE_FROM_ERROR[sym.error_category]
            faults.append(
                FaultEntry(
                    stmt_id=sym.stmt_id,
                    subgoal_index=index,
                    cause=cause,
                    suggested_edit_class=EDIT_CLASS_FROM_CAUSE[cause],
                    source="both",
                    symbolic_error_category=sym.error_category,
                    perceptual_rationale=perc.rationale or None,
                )
            )
            continue
        if sym is not None:
            cause = CAUSE_FROM_ERROR[sym.error_category]
            faults.append(
                FaultEntry(
                    stmt_id=sym.stmt_id,
                    subgoal_index=index,
                    cause=cause,
                    suggested_edit_class=EDIT_CLASS_FROM_CAUSE[cause],
                    source="symbolic",
                    symbolic_error_category=sym.error_category,
                )
            )
        if perc is not None and perc.deviation_stmt is not None and (
            sym is None or perc.deviation_stmt != sym.stmt_id
        ):
            cause = perc.cause or "perception_mismatch"
            faults.append(
                FaultEntry(
                    stmt_id=perc.deviation_stmt,
                    subgoal_index=index,
                    cause=cause,
                    suggested_edit_class=EDIT_CLASS_FROM_CAUSE[cause],
                    source="perceptual",
                    perceptual_rationale=perc.rationale or None,
                )
            )

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
    synthesis: AgentConfig = field(default_factory=AgentConfig)
    verifier: AgentConfig = field(default_factory=AgentConfig)
    n_trials: int = 10
    success_threshold: float = 0.5
    max_iterations: int = 5
    base_seed: int = 0
    weights: tuple = (1.0, 1.0)
    noise_scale: float = 0.0
    max_steps: int = 200
    observation_cap: int = 10
    perception: bool = True  # False: symbolic-only feedback (empty diagnosis)


@dataclass
class IterationRecord:
    index: int
    program: Program
    instrumented: Program
    success_count: int
    n_trials: int
    logs: list
    selection: SelectionResult
    diagnosis: Diagnosis | None = None
    signal: RepairSignal | None = None

    @property
    def success_rate(self) -> float:
        return self.success_count / self.n_trials


@dataclass
class LoopResult:
    iterations: list
    converged: bool
    final_program: Program
    cr_iter: int

    @property
    def final_iteration(self) -> IterationRecord:
        return self.iterations[-1]


def _persist_iteration(out_dir: Path | None, record: IterationRecord):
    if out_dir is None:
        return
    it_dir = out_dir / f"iter_{record.index}"
    it_dir.mkdir(parents=True, exist_ok=True)
    (it_dir / "program.prog").write_text(to_text(record.program), encoding="utf-8")
    (it_dir / "instrumented.prog").write_text(to_text(record.instrumented), encoding="utf-8")
    dump_trials(record.logs, it_dir / "trials.jsonl")
    (it_dir / "scores.json").write_text(scores_report(record.selection, record.logs), encoding="utf-8")
    if record.diagnosis is not None:
        (it_dir / "diagnosis.json").write_text(
            json.dumps(record.diagnosis.to_json(), indent=2) + "\n", encoding="utf-8"
        )
    if record.signal is not None:
        (it_dir / "repair_signal.json").write_text(
            json.dumps(record.signal.to_json(), indent=2) + "\n", encoding="utf-8"
        )


def run_loop(
    spec: TaskSpec,
    cfg: LoopConfig,
    out_dir=None,
    transport=None,
) -> LoopResult:
    """Iterate synthesize/instrument/execute/diagnose until the batch
    success rate exceeds the threshold or the iteration cap is hit."""
    out_dir = Path(out_dir) if out_dir is not None else None
    synthesizer = Synthesizer(cfg.synthesis, transport=transport)
    verifier = Verifier(cfg.verifier, spec, transport=transport)

    try:
        subgoals = synthesizer.decompose(spec.instruction, spec)
    except (BackendError, MalformedReplyError) as exc:
        raise AgentFailureError(f"decomposition failed: {exc}") from exc

    iterations: list[IterationRecord] = []
    signal = None
    current: Program | None = None
    converged = False

    for k in range(1, cfg.max_iterations + 1):
        feedback = (signal.last_error, signal.render_feedback()) if signal is not None else None
        prompt = build_synthesis_prompt(spec, subgoals, current=current, feedback=feedback)
        try:
            program = synthesizer.synthesize(prompt, spec, signal)
        except _SYNTHESIS_ERRORS as exc:
            raise AgentFailureError(f"synthesis failed: {exc}") from exc
        instrumented = insert_observations(program, cfg.observation_cap)
        logs = run_trials(
            instrumented,
            spec,
            cfg.n_trials,
            cfg.base_seed + (k - 1) * cfg.n_trials,
            noise_scale=cfg.noise_scale,
            max_steps=cfg.max_steps,
        )
        success_count = sum(1 for log in logs if log.goal_met)
        selection = select_trial(logs, instrumented, cfg.weights)
        record = IterationRecord(
            index=k,
            program=program,
            instrumented=instrumented,
            success_count=success_count,
            n_trials=cfg.n_trials,
            logs=logs,
            selection=selection,
        )
        iterations.append(record)

        if record.success_rate > cfg.success_threshold:
            converged = True
            _persist_iteration(out_dir, record)
            break

        selected = logs[selection.index]
        observations = collect_observations(selected, instrumented)
        try:
            diagnosis = (verifier.verify(subgoals, observations, selected) if cfg.perception
                         else Diagnosis.empty())
            signal = fuse(selected, diagnosis, instrumented)
        except NothingToFuseError:
            signal = RepairSignal(
                faults=[],
                last_error="trials missed the goal but the verifier reported success",
                observation_feedback=render_diagnosis(diagnosis, subgoals),
            )
        except (BackendError, MalformedReplyError) as exc:
            raise AgentFailureError(f"verification failed: {exc}") from exc
        record.diagnosis = diagnosis
        record.signal = signal
        _persist_iteration(out_dir, record)
        current = instrumented

    result = LoopResult(
        iterations=iterations,
        converged=converged,
        final_program=iterations[-1].program,
        cr_iter=iterations[-1].index if converged else cfg.max_iterations,
    )
    return result


# --- campaign ----------------------------------------------------------------


@dataclass
class CandidateSpec:
    candidate_id: int
    base_seed: int | None  # None: the candidate's default seed block
    playbook: list = field(default_factory=list)


@dataclass
class CampaignConfig:
    loop: LoopConfig = field(default_factory=LoopConfig)
    candidates: list = field(default_factory=list)
    expert_program: str | None = None

    def candidate_specs(self) -> list[CandidateSpec]:
        """The candidates with their seeds. Candidate i defaults to the i-th
        block of max_iterations x n_trials seeds, laid out from the final
        iteration cap so no two (candidate, iteration) batches share seeds."""
        loop = self.loop
        if not self.candidates:
            return [CandidateSpec(0, loop.base_seed, list(loop.synthesis.playbook))]
        stride = loop.max_iterations * loop.n_trials
        return [
            c if c.base_seed is not None else replace(c, base_seed=loop.base_seed + i * stride)
            for i, c in enumerate(self.candidates)
        ]


@dataclass
class CandidateResult:
    candidate_id: int
    base_seed: int
    result: LoopResult | None = None
    error: str | None = None

    @property
    def success_count(self) -> int:
        return self.result.final_iteration.success_count if self.result else 0

    @property
    def n_trials(self) -> int:
        return self.result.final_iteration.n_trials if self.result else 0

    @property
    def cr_iter(self) -> int:
        return self.result.cr_iter if self.result else 0


@dataclass
class CampaignResult:
    task: str
    n_trials: int
    success_threshold: float
    max_iterations: int
    candidates: list = field(default_factory=list)

    @property
    def had_agent_failure(self) -> bool:
        return any(c.error is not None for c in self.candidates)


def run_campaign(
    spec: TaskSpec,
    cfg: CampaignConfig,
    out_dir=None,
    transport=None,
) -> CampaignResult:
    """Independent loop runs per candidate (distinct seeds and playbooks);
    an agent failure marks its candidate and leaves the others running."""
    out_dir = Path(out_dir) if out_dir is not None else None
    campaign = CampaignResult(
        task=spec.name,
        n_trials=cfg.loop.n_trials,
        success_threshold=cfg.loop.success_threshold,
        max_iterations=cfg.loop.max_iterations,
    )
    for cand in cfg.candidate_specs():
        loop_cfg = copy.deepcopy(cfg.loop)
        loop_cfg.base_seed = cand.base_seed
        if loop_cfg.synthesis.backend == "mock" and cand.playbook:
            loop_cfg.synthesis.playbook = list(cand.playbook)
        cand_dir = out_dir / f"cand_{cand.candidate_id}" if out_dir is not None else None
        entry = CandidateResult(candidate_id=cand.candidate_id, base_seed=cand.base_seed)
        try:
            entry.result = run_loop(spec, loop_cfg, out_dir=cand_dir, transport=transport)
        except AgentFailureError as exc:
            entry.error = str(exc)
        campaign.candidates.append(entry)
    if out_dir is not None:
        _write_campaign_json(out_dir, campaign, cfg.expert_program)
    return campaign


def _write_campaign_json(out_dir: Path, campaign: CampaignResult, expert_program=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "task": campaign.task,
        # The lone timestamp in any artifact; everything else is byte-stable.
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "n_trials": campaign.n_trials,
        "success_threshold": campaign.success_threshold,
        "max_iterations": campaign.max_iterations,
        "expert_program": expert_program,
        "candidates": [
            {
                "candidate_id": c.candidate_id,
                "base_seed": c.base_seed,
                "converged": bool(c.result.converged) if c.result else False,
                "cr_iter": c.cr_iter,
                "final_iteration": c.result.final_iteration.index if c.result else 0,
                "success_count": c.success_count,
                "n_trials": c.n_trials,
                "error": c.error,
            }
            for c in campaign.candidates
        ],
    }
    (out_dir / "campaign.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


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
    for path in (programs_dir / ConfigError.check(entry, str, where), config_dir / entry):
        if path.is_file():
            return str(path)
    raise ConfigError(where, f"no program file {entry!r}")


def _resolve_playbook(raw_playbook, programs_dir: Path, config_dir: Path, where: str) -> list[str]:
    if isinstance(raw_playbook, str):
        # A playbook file: JSON array of .prog paths.
        raw_playbook = ConfigError.read_json(config_dir / raw_playbook, where)
    return [_resolve_program(entry, programs_dir, config_dir, where)
            for entry in ConfigError.check(raw_playbook, list, where)]


def _agent_config(raw: dict, key: str) -> AgentConfig:
    section = _expand_env(ConfigError.get(raw, key, dict, default={}))

    def value(name: str, kind):  # AgentConfig's class attributes are its defaults
        return ConfigError.get(section, name, kind, key, default=getattr(AgentConfig, name))

    try:
        return AgentConfig(
            backend=value("backend", str),
            endpoint=value("endpoint", str),
            model=value("model", str),
            api_key_env=value("api_key_env", str),
            timeout_s=value("timeout_s", float),
            max_retries=value("max_retries", int),
            temperature=value("temperature", float),
            playbook=ConfigError.get(section, "playbook", list, key, default=[]),
        )
    except AgentFailureError as exc:  # no usable backend as configured
        raise ConfigError(f"{key}.backend", str(exc)) from None


def load_campaign_config(config_path, task_file, spec: TaskSpec) -> CampaignConfig:
    """Parse a campaign/loop config JSON.

    Bare playbook filenames resolve against <task dir>/<task name>/ so one
    config file drives every bundled task; other relative paths resolve
    against the config file's directory. ${VAR} in agent fields expands from
    the environment. A malformed field raises ConfigError naming it.
    """
    config_path = Path(config_path)
    raw = ConfigError.check(ConfigError.read_json(config_path, "config"), dict, "config")
    config_dir = config_path.parent
    programs_dir = Path(task_file).parent / spec.name

    def value(name: str, kind, minimum=None):  # LoopConfig's class attributes are its defaults
        return ConfigError.get(raw, name, kind, default=getattr(LoopConfig, name), minimum=minimum)

    mode = ConfigError.get(raw, "mode", str, default="hybrid")
    if mode not in ("hybrid", "symbolic", "one_shot"):
        raise ConfigError("mode", f"unknown mode {mode!r}")
    weights = value("weights", list)
    if len(weights) != 2:
        raise ConfigError("weights", f"expected two numbers, got {weights!r}")

    loop_cfg = LoopConfig(
        synthesis=_agent_config(raw, "synthesis"),
        verifier=_agent_config(raw, "verifier"),
        n_trials=value("n_trials", int, 1),
        success_threshold=value("success_threshold", float, 0),
        max_iterations=value("max_iterations", int, 1),
        base_seed=value("base_seed", int, 0),
        weights=tuple(ConfigError.check(w, float, "weights") for w in weights),
        noise_scale=value("noise_scale", float, 0),
        max_steps=value("max_steps", int, 1),
        observation_cap=value("observation_cap", int, MIN_OBSERVATION_CAP),
        perception=(mode == "hybrid"),
    )
    if mode == "one_shot":
        loop_cfg.max_iterations = 1

    candidates = []
    for i, entry in enumerate(ConfigError.get(raw, "candidates", list, default=[])):
        where = f"candidates[{i}]"
        candidates.append(
            CandidateSpec(
                candidate_id=ConfigError.get(entry, "candidate_id", int, where, default=i),
                base_seed=ConfigError.get(entry, "base_seed", int, where, default=None, minimum=0),
                playbook=_resolve_playbook(
                    ConfigError.get(entry, "playbook", (str, list), where, default=[]),
                    programs_dir, config_dir, f"{where}.playbook",
                ),
            )
        )
    if loop_cfg.synthesis.playbook:
        loop_cfg.synthesis.playbook = _resolve_playbook(
            loop_cfg.synthesis.playbook, programs_dir, config_dir, "synthesis.playbook"
        )

    expert = ConfigError.get(raw, "expert_program", (str, NoneType), default=None)
    if expert is not None:
        expert = _resolve_program(expert, programs_dir, config_dir, "expert_program")
    return CampaignConfig(loop=loop_cfg, candidates=candidates, expert_program=expert)
