"""Batch scoring and selection of the most diagnostic trial.

Raw failure severity and trace divergence are min-max normalized over the
batch, combined with configurable weights, and the argmax trial (ties to the
lowest index) is handed to perceptual verification. Snapshot grouping turns
the selected trial's snapshots into ordered groups keyed by subgoal, with
boundary snapshots on pseudo-subgoals 0 and N+1.

`edit_distance` is the package's one sequence edit-distance DP: trace
divergence calls it with unit costs, and `metrics` with the costs of its
two tree edit distance bounds.
"""

from __future__ import annotations

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


def _signature(log: TrialLog, memo: dict) -> tuple[str, ...]:
    """The log's trace; memo maps id(event) to its signature (never
    empty), for events that live at least as long as the memo."""
    return tuple([memo.get(id(ev)) or memo.setdefault(id(ev), ev.signature()) for ev in log.events])


def _majority(signatures: list[tuple[str, ...]]) -> list[str]:
    """Per-position mode over the batch's event signatures. Shorter traces
    are padded with a sentinel; a real signature beats the sentinel on count
    ties, remaining ties go to the lexicographically smallest."""
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


def edit_distance(a, b, weight, substitute) -> int:
    """The least cost of editing sequence a into b, where deleting or
    inserting x costs weight(x) and putting y in x's place costs
    substitute(x, y), which is 0 for x == y. The common prefix and suffix
    are matched as they stand and the DP runs over what lies between."""
    n = min(len(a), len(b))
    i = 0
    while i < n and a[i] == b[i]:
        i += 1
    j = 0
    while j < n - i and a[-1 - j] == b[-1 - j]:
        j += 1
    a, b = a[i:len(a) - j], b[i:len(b) - j]
    wb = [weight(y) for y in b]
    row = [0]
    for w in wb:
        row.append(row[-1] + w)
    for x in a:
        wx = weight(x)
        prev, row = row, [row[0] + wx]
        for k, y in enumerate(b):
            row.append(min(prev[k] + substitute(x, y), prev[k + 1] + wx, row[k] + wb[k]))
    return row[-1]


def _divergence(mine: tuple[str, ...], majority: list[str]) -> float:
    """The trace's unit-cost edit distance to the majority trace over the
    longer one's length, in [0, 1]."""
    denom = max(len(mine), len(majority))
    if denom == 0:
        return 0.0
    return edit_distance(mine, majority, lambda _: 1, str.__ne__) / denom


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
    # An event's signature is computed once per event object (rows and
    # trials that emit an event alike share it), the majority trace once,
    # and the divergence once per distinct trace.
    memo = {}
    signatures = [_signature(log, memo) for log in batch]
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
_numbers = attrgetter(*_NAMES[:-1])  # a row's fields but `selected`, its last


def scores_report(selection: SelectionResult) -> str:
    """scores.json: the selected index, the all-success flag and a row per
    trial score; the bytes of json.dumps(payload, indent=2) + "\\n" for what
    select_trial makes: each field exactly of its declared type, finite."""
    rows = ",\n".join([_ROW % (*_numbers(score), "true" if score.selected else "false")
                       for score in selection.scores])
    return _SCORES % (selection.index, "true" if selection.all_success else "false", rows and f"\n{rows}\n  ")
