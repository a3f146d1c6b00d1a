import collections
import dataclasses
import json
import math
import random

import pytest

from armloop.dsl import parse
from armloop.dsl.ast import Program, SubgoalBlock
from armloop.errors import NoSnapshotsError
from armloop.harness import (
    SelectionResult,
    TrialScore,
    collect_observations,
    edit_distance,
    failure_severity,
    scores_report,
    select_trial,
)
from armloop.instrument import insert_observations
from armloop.loop import LoopConfig
from armloop.sim import run_trials
from armloop.sim.model import SymbolicEvent, TrialLog

from conftest import one_trial, program_path, sequence_edit_distance, trace_divergence


def _program(n_subgoals: int) -> Program:
    return Program("t", [SubgoalBlock(f"s{i}", []) for i in range(n_subgoals)])


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


def _divergences(batch) -> list:
    return [score.divergence for score in select_trial(batch, _program(1), (1.0, 1.0)).scores]


def _norm(values):
    lo, hi = min(values), max(values)
    return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in values]


# Two anchors that leave the majority trace be: an empty trace diverges by
# 1 and one of twice the majority's length by 1/2, so the min-max
# normalized divergences select_trial reports are the raw ones.
def _anchored(batch, majority):
    return batch + [_trace_log(len(batch), [], goal_met=False), _trace_log(len(batch) + 1, majority * 2)]


def test_divergence_identical_batch_is_zero():
    common = ["grasp_actor:success:none"] * 5
    batch = [_trace_log(i, common) for i in range(10)]
    assert _divergences(batch) == [0.0] * 10
    assert _divergences(_anchored(batch, common)) == [0.0] * 10 + [1.0, 0.5]


def test_divergence_single_position_difference():
    common = ["move_by_displacement:success:none"] * 8
    odd = list(common)
    odd[3] = "move_by_displacement:failure:unreachable"
    batch = [_trace_log(i, common) for i in range(9)] + [_trace_log(9, odd, goal_met=False)]
    assert trace_divergence(batch[9], batch) == pytest.approx(1 / 8)
    assert _divergences(_anchored(batch, common)) == pytest.approx([0.0] * 9 + [1 / 8, 1.0, 0.5])


def test_divergence_matches_brute_force_levenshtein_oracle():
    """select_trial's divergences are the min-max normalized divergences of
    the reference: its own majority vote and a plain recursive edit
    distance, per trial."""
    ops = ["grasp_actor:success:none", "place_actor:failure:placement_miss",
           "open_gripper:success:none"]
    rng = random.Random(17)
    for _ in range(100):
        batch = [
            _trace_log(i, [rng.choice(ops) for _ in range(rng.randint(1, 6))])
            for i in range(rng.randint(1, 6))
        ]
        expected = _norm([trace_divergence(log, batch) for log in batch])
        assert _divergences(batch) == pytest.approx(expected)


def test_levenshtein_basics():
    def unit(a, b):
        return edit_distance(a, b, lambda _: 1, str.__ne__)

    assert unit([], []) == 0
    assert unit(["a"], []) == 1
    assert unit(["a", "b"], ["a", "c"]) == 1
    assert unit(["a", "b"], ["b"]) == 1


def _size(tree: tuple) -> int:
    return 1 + sum(map(_size, tree[1:]))


def _top_down(x: tuple, y: tuple) -> int:
    """Selkow's top-down distance of two (label, *children) trees, as
    metrics._top_down runs it through edit_distance."""
    return (x[0] != y[0]) + edit_distance(x[1:], y[1:], _size, _top_down)


def _top_down_reference(x: tuple, y: tuple) -> int:
    return (x[0] != y[0]) + sequence_edit_distance(x[1:], y[1:], _size, _top_down_reference)


def _tree(rng: random.Random, depth: int) -> tuple:
    return (rng.choice("xy"), *(_tree(rng, depth - 1) for _ in range(rng.randint(0, 2) if depth else 0)))


def test_edit_distance_matches_recursive_reference():
    """edit_distance against the plain recursion over prefixes, with unit
    costs and with subtree sizes as weights and the top-down distance as the
    substitute, over pairs that differ only at their ends or only in their
    middle: empty sides and equal sequences among them, on small alphabets,
    so that the common prefix and suffix run into the edits."""
    rng = random.Random(41)
    trees = [_tree(rng, 2) for _ in range(5)]
    seen = collections.Counter()
    for _ in range(600):
        sized = rng.random() < 0.5
        atoms = trees if sized else "abc"

        def seq(n_max):
            return [rng.choice(atoms) for _ in range(rng.randint(0, n_max))]

        ends = rng.random() < 0.5
        if ends:  # the same core, each side with its own head and tail
            core = seq(5)
            a, b = seq(2) + core + seq(2), seq(2) + core + seq(2)
        else:  # the same head and tail, each side with its own middle
            head, tail = seq(3), seq(3)
            a, b = head + seq(3) + tail, head + seq(3) + tail
        seen["ends" if ends else "middle", "sized" if sized else "unit"] += 1
        seen["equal"] += a == b
        seen["an empty side"] += not a or not b
        if sized:
            got = edit_distance(a, b, _size, _top_down)
            expected = sequence_edit_distance(a, b, _size, _top_down_reference)
        else:
            got, expected = edit_distance(a, b, lambda _: 1, str.__ne__), sequence_edit_distance(a, b)
        assert got == expected, (a, b)
    assert min(seen.values()) >= 10, seen


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
            log.events = [dataclasses.replace(ev, subgoal_index=rng.randint(1, 2)) for ev in log.events]
            batch.append(log)
        weights = (rng.choice([0.5, 1.0, 2.0]), rng.choice([0.5, 1.0, 2.0]))
        result = select_trial(batch, program, weights)

        # Brute-force oracle: recompute psi from raw signals with its own
        # min-max normalization and scan every trial.
        raw_s = [failure_severity(log, program) for log in batch]
        raw_d = [trace_divergence(log, batch) for log in batch]
        psis = [weights[0] * s + weights[1] * d for s, d in zip(_norm(raw_s), _norm(raw_d))]
        best = 0
        for i in range(1, len(psis)):
            if psis[i] > psis[best]:
                best = i
        assert result.index == best
        assert result.scores[best].psi == pytest.approx(max(psis))


def _scores_payload(selection) -> dict:
    return {
        "selected_index": selection.index,
        "all_success": selection.all_success,
        "trials": [{"index": score.index, "seed": score.seed, "severity": score.severity,
                    "divergence": score.divergence, "psi": score.psi, "selected": score.selected}
                   for score in selection.scores],
    }


def test_scores_report_matches_json_dumps_on_random_selections():
    """scores.json is json.dumps(payload, indent=2) plus a newline, for
    real selections over batches of one trial and more, under weights as
    LoopConfig holds them, up to a sum near the largest float. The report
    formats each field as it is, so every field select_trial makes must be
    exactly its declared type, and each float finite."""
    ops = ["grasp_actor:success:none", "grasp_actor:failure:grasp_slip", "place_actor:failure:placement_miss"]
    declared = {field.name: {"int": int, "float": float, "bool": bool}[field.type]
                for field in dataclasses.fields(TrialScore)}
    rng = random.Random(5)
    program = _program(2)
    sizes = []
    for _ in range(300):
        batch = [_trace_log(i, [rng.choice(ops) for _ in range(rng.randint(1, 3))], goal_met=rng.random() < 0.5)
                 for i in range(rng.choice([1, 1, 2, 5, 9]))]
        for log in batch:
            log.seed = rng.choice([log.trial_index, 2**40, -7])
        weights = LoopConfig(weights=[rng.choice([0, 0.5, 1, 2.0, 8e307]) for _ in range(2)]).weights
        selection = select_trial(batch, program, weights)
        sizes.append(len(batch))
        assert scores_report(selection) == json.dumps(_scores_payload(selection), indent=2) + "\n"
        assert type(selection.index) is int and type(selection.all_success) is bool
        for score in selection.scores:
            for name, kind in declared.items():
                value = getattr(score, name)
                assert type(value) is kind and (kind is not float or math.isfinite(value)), (name, value)
    assert 1 in sizes and max(sizes) > 1
    empty = SelectionResult(index=0, scores=[])  # select_trial refuses an empty batch; the writer does not
    assert scores_report(empty) == json.dumps(_scores_payload(empty), indent=2) + "\n"


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
    groups = collect_observations(log, program)
    assert list(groups) == [0, 1, 2, 3]
    assert [s.step_name for s in groups[0]] == ["initial_scene_state"]
    assert [s.step_name for s in groups[3]] == ["final_scene_state"]
    assert len(groups[1]) == 2  # grasp + lift hooks
    assert len(groups[2]) == 3  # place + lift + back hooks
    # In key order the groups hold the trial's snapshots in log order.
    assert [s for key in groups for s in groups[key]] == log.snapshots


def test_collect_observations_truncated_trial(place_shoe_spec):
    program = insert_observations(parse(program_path("place_shoe", "loud").read_text()), cap=10)
    log = one_trial(program, place_shoe_spec, 0)
    groups = collect_observations(log, program)
    assert groups[2] == []  # fail-fast in subgoal 1


def test_collect_observations_requires_snapshots(place_shoe_spec):
    program = parse(program_path("place_shoe", "loud").read_text())
    log = one_trial(program, place_shoe_spec, 0)
    with pytest.raises(NoSnapshotsError):
        collect_observations(log, program)


def test_select_trial_signs_each_distinct_event_once_per_call(monkeypatch, place_shoe_spec):
    """Rows that emit an event alike share it, and trials of equal
    perturbations share their events: select_trial makes one signature per
    event object in each call, and the same scores as a signature per
    event would give."""
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    batch = run_trials(program, place_shoe_spec, 60, 0, 3.0, 200)
    batch += run_trials(program, place_shoe_spec, 20, 60, 0.0, 200)
    events = [ev for log in batch for ev in log.events]
    distinct = len(set(map(id, events)))
    assert distinct < len(events) / 4
    expected = select_trial(batch, program, (1.0, 1.0))
    signed = []
    signature = SymbolicEvent.signature
    monkeypatch.setattr(SymbolicEvent, "signature", lambda ev: signed.append(id(ev)) or signature(ev))
    for _ in range(2):
        assert select_trial(batch, program, (1.0, 1.0)) == expected
        assert sorted(signed) == sorted(set(map(id, events)))
        signed.clear()


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
            log.events = [dataclasses.replace(ev, subgoal_index=rng.randint(1, 3)) for ev in log.events]
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
        sev, div = _norm(raw_s), _norm(raw_d)
        psis = [weights[0] * s + weights[1] * d for s, d in zip(sev, div)]
        best = max(range(n), key=lambda i: (psis[i], -batch[i].trial_index))
        assert sum(1 for p in psis if p == psis[best]) > 1  # a real tie
        assert any(not log.events for log in batch)
        assert result.index == best
        for i, score in enumerate(result.scores):
            assert (score.index, score.seed) == (batch[i].trial_index, batch[i].seed)
            assert (score.severity, score.divergence, score.psi) == (sev[i], div[i], psis[i])
            assert score.selected == (i == best)
