import json
import math
import random

import numpy as np
import pytest

from armloop.dsl import parse
from armloop.dsl.ast import Program, SubgoalBlock
from armloop.errors import NoSnapshotsError
from armloop.harness import (
    SelectionResult,
    collect_observations,
    failure_severity,
    levenshtein,
    majority_signature,
    scores_report,
    select_trial,
    trace_divergence,
)
from armloop.instrument import insert_observations
from armloop.sim.model import SymbolicEvent, TrialLog

from conftest import one_trial, program_path


def _program(n_subgoals: int) -> Program:
    return Program("t", [SubgoalBlock(i + 1, f"s{i}", []) for i in range(n_subgoals)])


def _event(subgoal, op="grasp_actor", outcome="success", category="none", stmt=1, t=0):
    return SymbolicEvent(
        stmt_id=stmt, subgoal_index=subgoal, op_name=op, args={},
        outcome=outcome, error_category=category, message="", t=t,
    )


def _log(index, events, goal_met):
    return TrialLog(trial_index=index, seed=index, events=events, goal_met=goal_met)


def test_severity_success_is_zero():
    log = _log(0, [_event(1), _event(2)], goal_met=True)
    assert failure_severity(log, _program(2)) == 0.0


def test_severity_first_subgoal_failure_is_one():
    log = _log(0, [_event(1, outcome="failure", category="unreachable")], goal_met=False)
    assert failure_severity(log, _program(2)) == 1.0


def test_severity_second_subgoal_failure():
    events = [_event(1), _event(2, outcome="failure", category="grasp_slip", t=1)]
    assert failure_severity(_log(0, events, False), _program(2)) == 0.5


def test_severity_silent_goal_miss():
    log = _log(0, [_event(1), _event(2, t=1)], goal_met=False)
    assert failure_severity(log, _program(2)) == 0.5


def _trace_log(index, signatures, goal_met=True):
    events = []
    for t, sig in enumerate(signatures):
        op, outcome, category = sig.split(":")
        events.append(_event(1, op=op, outcome=outcome, category=category, stmt=t + 1, t=t))
    return _log(index, events, goal_met)


def test_divergence_identical_batch_is_zero():
    batch = [_trace_log(i, ["grasp_actor:success:none"] * 5) for i in range(10)]
    for log in batch:
        assert trace_divergence(log, batch) == 0.0


def test_divergence_single_position_difference():
    common = ["move_by_displacement:success:none"] * 8
    odd = list(common)
    odd[3] = "move_by_displacement:failure:unreachable"
    batch = [_trace_log(i, common) for i in range(9)] + [_trace_log(9, odd, goal_met=False)]
    assert trace_divergence(batch[9], batch) == pytest.approx(1 / 8)
    assert trace_divergence(batch[0], batch) == 0.0


def test_divergence_matches_brute_force_levenshtein_oracle():
    ops = ["grasp_actor:success:none", "place_actor:failure:placement_miss",
           "open_gripper:success:none"]
    rng = random.Random(17)

    def oracle_distance(a, b):
        # Plain recursive Levenshtein, memoized: independent of the
        # iterative implementation under test.
        from functools import lru_cache

        @lru_cache(maxsize=None)
        def d(i, j):
            if i == 0:
                return j
            if j == 0:
                return i
            return min(
                d(i - 1, j) + 1,
                d(i, j - 1) + 1,
                d(i - 1, j - 1) + (a[i - 1] != b[j - 1]),
            )

        return d(len(a), len(b))

    for _ in range(100):
        batch = [
            _trace_log(i, [rng.choice(ops) for _ in range(rng.randint(1, 6))])
            for i in range(rng.randint(1, 6))
        ]
        majority = majority_signature(batch)
        for log in batch:
            mine = [ev.signature() for ev in log.events]
            expected = oracle_distance(tuple(mine), tuple(majority)) / max(
                len(mine), len(majority)
            )
            assert trace_divergence(log, batch) == pytest.approx(expected)


def test_levenshtein_basics():
    assert levenshtein([], []) == 0
    assert levenshtein(["a"], []) == 1
    assert levenshtein(["a", "b"], ["a", "c"]) == 1
    assert levenshtein(["a", "b"], ["b"]) == 1


def test_select_trial_dominant_severity():
    batch = [_trace_log(i, ["grasp_actor:success:none"] * 3) for i in range(9)]
    batch.append(_trace_log(9, ["grasp_actor:failure:unreachable"], goal_met=False))
    result = select_trial(batch, _program(1), (1.0, 1.0))
    assert result.index == 9
    assert not result.all_success
    assert result.scores[9].selected


def test_select_trial_tie_breaks_to_lowest_index():
    batch = [
        _trace_log(0, ["grasp_actor:failure:unreachable"], goal_met=False),
        _trace_log(1, ["grasp_actor:failure:unreachable"], goal_met=False),
        _trace_log(2, ["grasp_actor:success:none", "place_actor:success:none"]),
    ]
    result = select_trial(batch, _program(1), (1.0, 1.0))
    assert result.index == 0


def test_select_trial_all_success_flag():
    batch = [_trace_log(i, ["grasp_actor:success:none"] * 2) for i in range(5)]
    result = select_trial(batch, _program(1), (1.0, 1.0))
    assert result.index == 0
    assert result.all_success
    assert all(s.psi == 0.0 for s in result.scores)


def test_select_trial_matches_bruteforce_argmax_oracle():
    ops = ["grasp_actor:success:none", "grasp_actor:failure:grasp_slip",
           "place_actor:failure:placement_miss", "back_to_origin:success:none"]
    rng = random.Random(23)
    program = _program(2)
    for _ in range(200):
        batch = []
        for i in range(rng.randint(1, 8)):
            length = rng.randint(1, 5)
            sigs = [rng.choice(ops) for _ in range(length)]
            # enforce fail-fast shape: truncate after first failure
            cut = next((k for k, s in enumerate(sigs) if ":failure:" in s), None)
            if cut is not None:
                sigs = sigs[: cut + 1]
            goal = cut is None and rng.random() < 0.7
            log = _trace_log(i, sigs, goal_met=goal)
            for ev in log.events:
                ev.subgoal_index = rng.randint(1, 2)
            batch.append(log)
        weights = (rng.choice([0.5, 1.0, 2.0]), rng.choice([0.5, 1.0, 2.0]))
        result = select_trial(batch, program, weights)

        # Brute-force oracle: recompute psi from raw signals with its own
        # min-max normalization and scan every trial.
        raw_s = [failure_severity(log, program) for log in batch]
        raw_d = [trace_divergence(log, batch) for log in batch]

        def norm(values):
            lo, hi = min(values), max(values)
            return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in values]

        psis = [weights[0] * s + weights[1] * d for s, d in zip(norm(raw_s), norm(raw_d))]
        best = 0
        for i in range(1, len(psis)):
            if psis[i] > psis[best]:
                best = i
        assert result.index == best
        assert result.scores[best].psi == pytest.approx(max(psis))


def _scores_payload(selection, batch) -> dict:
    return {
        "selected_index": selection.index,
        "all_success": selection.all_success,
        "trials": [{"index": score.trial_index, "seed": log.seed, "severity": score.severity,
                    "divergence": score.divergence, "psi": score.psi, "selected": score.selected}
                   for score, log in zip(selection.scores, batch)],
    }


def test_scores_report_matches_json_dumps_on_random_selections():
    """scores.json is json.dumps(payload, indent=2) plus a newline, for
    real selections over batches of one trial and more, and for scores
    holding values the template leaves to json.dumps."""
    ops = ["grasp_actor:success:none", "grasp_actor:failure:grasp_slip", "place_actor:failure:placement_miss"]
    odd = [math.nan, math.inf, -math.inf, -0.0, np.float64(0.25), 1, True, None, [0.5, [1, {"a": -0.0}]], {}]
    rng = random.Random(5)
    program = _program(2)
    sizes = []
    for _ in range(300):
        batch = [_trace_log(i, [rng.choice(ops) for _ in range(rng.randint(1, 3))], goal_met=rng.random() < 0.5)
                 for i in range(rng.choice([1, 1, 2, 5, 9]))]
        for log in batch:
            log.seed = rng.choice([log.trial_index, 2**40, -7])
        selection = select_trial(batch, program, (rng.choice([0.5, 1.0]), rng.choice([0.5, 2.0])))
        sizes.append(len(batch))
        assert scores_report(selection, batch) == json.dumps(_scores_payload(selection, batch), indent=2) + "\n"
        for score in selection.scores:
            for name in ("severity", "divergence", "psi", "trial_index"):
                if rng.random() < 0.2:
                    setattr(score, name, rng.choice(odd))
        if rng.random() < 0.2:
            batch[0].seed = rng.choice(odd)
        if rng.random() < 0.1:
            selection.index, selection.all_success = rng.choice(odd), rng.choice(odd)
        assert scores_report(selection, batch) == json.dumps(_scores_payload(selection, batch), indent=2) + "\n"
    assert 1 in sizes and max(sizes) > 1
    empty = SelectionResult(index=0, scores=[])  # select_trial refuses an empty batch; the writer does not
    assert scores_report(empty, []) == json.dumps(_scores_payload(empty, []), indent=2) + "\n"


def test_selection_stable_under_batch_permutation():
    rng = random.Random(31)
    sigs = [["grasp_actor:success:none"] * 3,
            ["grasp_actor:failure:unreachable"],
            ["grasp_actor:success:none", "place_actor:failure:placement_miss"]]
    batch = [_trace_log(i, sigs[i % 3], goal_met=(i % 3 == 0)) for i in range(6)]
    baseline = select_trial(batch, _program(1), (1.0, 1.0))
    baseline_seed = batch[baseline.index].seed
    for _ in range(10):
        shuffled = batch[:]
        rng.shuffle(shuffled)
        result = select_trial(shuffled, _program(1), (1.0, 1.0))
        assert shuffled[result.index].seed == baseline_seed


def test_minmax_normalization_extremes():
    batch = [
        _trace_log(0, ["grasp_actor:failure:unreachable"], goal_met=False),
        _trace_log(1, ["grasp_actor:success:none", "place_actor:success:none"]),
        _trace_log(2, ["grasp_actor:success:none", "place_actor:success:none"]),
    ]
    result = select_trial(batch, _program(1), (1.0, 1.0))
    severities = [s.severity for s in result.scores]
    assert min(severities) == 0.0 and max(severities) == 1.0


def test_collect_observations_groups(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 7)
    obs = collect_observations(log, program)
    assert set(obs.groups) == {0, 1, 2, 3}
    assert [s.step_name for s in obs.groups[0]] == ["initial_scene_state"]
    assert [s.step_name for s in obs.groups[3]] == ["final_scene_state"]
    assert len(obs.groups[1]) == 2  # grasp + lift hooks
    assert len(obs.groups[2]) == 3  # place + lift + back hooks
    total = sum(len(v) for v in obs.groups.values())
    assert total == len(log.snapshots)


def test_collect_observations_truncated_trial(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "loud").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    obs = collect_observations(log, program)
    assert obs.groups[2] == []  # fail-fast in subgoal 1


def test_collect_observations_requires_snapshots(place_shoe_spec):
    program = parse(program_path("place_shoe", "loud").read_text())
    log = one_trial(program, place_shoe_spec, 0)
    with pytest.raises(NoSnapshotsError):
        collect_observations(log, program)


def test_select_trial_large_batch_matches_per_trial_oracle():
    """Every score and the selection on batches of a few hundred divergent
    trials, with empty traces and psi ties, against the per-trial
    definition (trace_divergence recomputes the majority for each trial)."""
    ops = ["grasp_actor:success:none", "place_actor:success:none",
           "grasp_actor:failure:grasp_slip", "place_actor:failure:placement_miss",
           "move_by_displacement:failure:unreachable"]
    rng = random.Random(97)
    program = _program(3)
    for n, weights in ((320, (1.0, 1.0)), (300, (0.7, 1.9))):
        batch = []
        for i in range(n):
            if rng.random() < 0.05:
                sigs = []
            else:
                sigs = [rng.choice(ops) for _ in range(rng.randint(1, 8))]
                cut = next((k for k, s in enumerate(sigs) if ":failure:" in s), None)
                if cut is not None:
                    sigs = sigs[: cut + 1]
            log = _trace_log(i, sigs, goal_met=":failure:" not in "".join(sigs) and rng.random() < 0.8)
            for ev in log.events:
                ev.subgoal_index = rng.randint(1, 3)
            batch.append(log)
        # Trial indices in shuffled order, so the tie break (lowest trial
        # index) differs from the lowest position in the batch.
        indices = list(range(n))
        rng.shuffle(indices)
        for log, index in zip(batch, indices):
            log.trial_index = index
        result = select_trial(batch, program, weights)

        raw_s = [failure_severity(log, program) for log in batch]
        raw_d = [trace_divergence(log, batch) for log in batch]

        def norm(values):
            lo, hi = min(values), max(values)
            return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in values]

        sev, div = norm(raw_s), norm(raw_d)
        psis = [weights[0] * s + weights[1] * d for s, d in zip(sev, div)]
        best = max(range(n), key=lambda i: (psis[i], -batch[i].trial_index))
        assert sum(1 for p in psis if p == psis[best]) > 1  # a real tie
        assert any(not log.events for log in batch)
        assert result.index == best
        for i, score in enumerate(result.scores):
            assert score.trial_index == batch[i].trial_index
            assert (score.severity, score.divergence, score.psi) == (sev[i], div[i], psis[i])
            assert score.selected == (i == best)
