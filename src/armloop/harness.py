"""Batch scoring and selection of the most diagnostic trial.

Raw failure severity and trace divergence are min-max normalized over the
batch, combined with configurable weights, and the argmax trial (ties to the
lowest index) is handed to perceptual verification. Snapshot grouping turns
the selected trial's snapshots into ordered groups keyed by subgoal, with
boundary snapshots on pseudo-subgoals 0 and N+1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from operator import attrgetter

from .dsl.ast import Program
from .errors import NoSnapshotsError
from .instrument import FINAL_STEP, INITIAL_STEP
from .sim.model import TrialLog

_PAD = "<end>"


@dataclass
class TrialScore:
    """A trial's scores, as its scores.json row holds them in field order."""

    index: int  # the trial's index
    seed: int
    severity: float  # min-max normalized over the batch
    divergence: float  # min-max normalized over the batch
    psi: float
    selected: bool = False


@dataclass
class SelectionResult:
    index: int
    scores: list[TrialScore]
    all_success: bool = False


def failure_severity(log: TrialLog, program: Program) -> float:
    """0 for a clean success; a goal miss with a silent log scores 0.5;
    otherwise earlier-subgoal failures score higher, up to 1.0."""
    failure = log.failure_event
    if failure is None:
        return 0.0 if log.goal_met else 0.5
    n = len(program.subgoals)
    return 1.0 - (failure.subgoal_index - 1) / n


def _signature(log: TrialLog) -> tuple[str, ...]:
    return tuple(ev.signature() for ev in log.events)


def majority_signature(batch: list[TrialLog]) -> list[str]:
    """Per-position mode over the batch's event signatures. Shorter traces
    are padded with a sentinel; a real signature beats the sentinel on count
    ties, remaining ties go to the lexicographically smallest."""
    return _majority([_signature(log) for log in batch])


def _majority(signatures: list[tuple[str, ...]]) -> list[str]:
    longest = max((len(s) for s in signatures), default=0)
    majority = []
    for pos in range(longest):
        counts: dict[str, int] = {}
        for sig in signatures:
            token = sig[pos] if pos < len(sig) else _PAD
            counts[token] = counts.get(token, 0) + 1
        winner = min(
            counts.items(),
            key=lambda kv: (-kv[1], kv[0] == _PAD, kv[0]),
        )[0]
        if winner != _PAD:
            majority.append(winner)
    return majority


def levenshtein(a: list[str], b: list[str]) -> int:
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, xa in enumerate(a, start=1):
        cur = [i]
        for j, xb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (xa != xb)))
        prev = cur
    return prev[-1]


def _divergence(mine: tuple[str, ...], majority: list[str]) -> float:
    denom = max(len(mine), len(majority))
    if denom == 0:
        return 0.0
    return levenshtein(mine, majority) / denom


def trace_divergence(log: TrialLog, batch: list[TrialLog]) -> float:
    """Normalized edit distance between this trial's event signature
    sequence and the batch majority sequence, in [0, 1]."""
    return _divergence(_signature(log), majority_signature(batch))


def _minmax(values: list[float]) -> list[float]:
    lo, hi = min(values), max(values)
    if hi - lo <= 0.0:
        return [0.0] * len(values)
    return [(v - lo) / (hi - lo) for v in values]


def select_trial(
    batch: list[TrialLog],
    program: Program,
    weights: tuple[float, float],
) -> SelectionResult:
    """Argmax of psi = w_s*severity + w_d*divergence over the batch, both
    signals min-max normalized first. Ties break to the lowest trial index;
    an all-successful batch selects index 0 and is flagged."""
    if not batch:
        raise ValueError("empty batch")
    w_s, w_d = weights
    raw_severity = [failure_severity(log, program) for log in batch]
    # trace_divergence per trial, with the majority computed once and the
    # distance once per distinct trace.
    signatures = [_signature(log) for log in batch]
    majority = _majority(signatures)
    by_trace = {sig: _divergence(sig, majority) for sig in set(signatures)}
    raw_divergence = [by_trace[sig] for sig in signatures]
    severity = _minmax(raw_severity)
    divergence = _minmax(raw_divergence)
    scores = [
        TrialScore(log.trial_index, log.seed, severity[i], divergence[i], w_s * severity[i] + w_d * divergence[i])
        for i, log in enumerate(batch)
    ]
    best = min(range(len(batch)), key=lambda i: (-scores[i].psi, batch[i].trial_index))
    scores[best].selected = True
    all_success = all(log.goal_met and log.failure_event is None for log in batch)
    return SelectionResult(index=best, scores=scores, all_success=all_success)


def collect_observations(log: TrialLog, program: Program) -> dict[int, list]:
    """The trial's snapshots by originating subgoal, order preserved, for
    each of the program's N subgoals; the initial and final boundary
    snapshots attach to pseudo-subgoals 0 and N+1."""
    if not log.snapshots:
        raise NoSnapshotsError("trial has no snapshots; was the program instrumented?")
    n = len(program.subgoals)
    groups: dict[int, list] = {i: [] for i in range(0, n + 2)}
    for snap in log.snapshots:
        if snap.step_name == INITIAL_STEP:
            groups[0].append(snap)
        elif snap.step_name == FINAL_STEP:
            groups[n + 1].append(snap)
        else:
            groups[snap.subgoal_index].append(snap)
    return groups


# scores.json as json.dumps(payload, indent=2) writes it: the head's two
# values and the trials' rows, each row one fill of its template with a
# TrialScore's fields.
_SCORES = '{\n  "selected_index": %s,\n  "all_success": %s,\n  "trials": [%s]\n}\n'
_NAMES = [f.name for f in fields(TrialScore)]
_ROW = "    {\n" + ",\n".join(f'      "{name}": %s' for name in _NAMES) + "\n    }"
_row_fields = attrgetter(*_NAMES)


def _json(value, indent: str = " " * 6) -> str:
    """json.dumps(value, indent=2) as it reads nested under `indent` (a
    row value's, unless given): its later lines shifted by the indent."""
    return json.dumps(value, indent=2).replace("\n", "\n" + indent)


def _row(score: TrialScore) -> str:
    """The score's row. Fields of exactly their declared types, the floats
    finite, fill the template as they are; any other value goes through
    _json."""
    index, seed, severity, divergence, psi, selected = values = _row_fields(score)
    if (type(index) is type(seed) is int and type(severity) is type(divergence) is type(psi) is float
            and type(selected) is bool and math.isfinite(severity + divergence + psi)):
        return _ROW % (index, seed, severity, divergence, psi, "true" if selected else "false")
    return _ROW % tuple(map(_json, values))


def scores_report(selection: SelectionResult) -> str:
    """scores.json: the selected index, the all-success flag and a row per
    trial score; the bytes of json.dumps(payload, indent=2) + "\\n"."""
    rows = ",\n".join([_row(score) for score in selection.scores])
    return _SCORES % (_json(selection.index, "  "), _json(selection.all_success, "  "), rows and f"\n{rows}\n  ")
