"""Offline acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints a PASS line when it holds. Everything runs on the bundled tasks and
mock agents; no network, no nondeterminism.
"""

import json
import random
import time
from functools import lru_cache
from pathlib import Path

import numpy as np

from armloop.agents import AgentConfig, Diagnosis, SubgoalVerdict
from armloop.agents.diagnosis import CAUSE_FROM_ERROR
from armloop.dsl import CallStmt, parse, to_text
from armloop.harness import failure_severity, select_trial
from armloop.instrument import insert_observations
from armloop.loop import (
    CampaignConfig,
    EDIT_CLASS_FROM_CAUSE,
    FaultEntry,
    LoopConfig,
    fuse,
    run_campaign,
)
from armloop.metrics import LabeledTree
from armloop.scene import load_task_spec
from armloop.sim import run_trials
from armloop.sim.model import SymbolicEvent, TrialLog

from conftest import (
    TASK_NAMES, one_trial, program_path, random_program, strip_observes, task_path, trace_divergence, trial_text,
    tree_edit_distance,
)
from test_metrics import asr, cr_iter, make_campaign, top5_asr

GOLDEN = Path(__file__).parent / "golden"

_SUITE_START = time.monotonic()


def _ok(criterion: int, name: str):
    print(f"ACCEPTANCE {criterion} ({name}): PASS")


# -- criterion 1: DSL round-trip ------------------------------------------------


def test_acceptance_1_dsl_roundtrip_1000():
    start = time.monotonic()
    rng = random.Random(20240)
    for i in range(1000):
        program = random_program(rng, max_subgoals=4, max_stmts=6)
        back = parse(to_text(program))
        assert back == program and hash(back) == hash(program), f"round-trip broke at case {i}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"1000 round-trips took {elapsed:.1f}s"
    _ok(1, f"dsl round-trip, {elapsed:.1f}s")


# -- criterion 2: instrumentation contract ---------------------------------------


def test_acceptance_2_instrumentation_contract():
    rng = random.Random(777)
    violations = 0
    for _ in range(200):
        program = random_program(rng, max_subgoals=4, max_stmts=8)
        instrumented = insert_observations(program, cap=10)
        n = sum(isinstance(s, CallStmt) and s.name == "observe" for s in instrumented.walk())
        if not (2 <= n <= 10):
            violations += 1
        if strip_observes(instrumented) != strip_observes(program):
            violations += 1
        if insert_observations(instrumented, cap=10) != instrumented:
            violations += 1
    assert violations == 0
    _ok(2, "instrumentation contract, 200 programs, zero violations")


# -- criterion 3: simulator determinism + RNG replay oracle ----------------------


def test_acceptance_3_simulator_determinism():
    for task in TASK_NAMES:
        spec = load_task_spec(task_path(task))
        for kind in ("correct", "loud", "silent"):
            program = insert_observations(parse(program_path(task, kind).read_text()), cap=10)
            for seed in (0, 7, 42):
                first = trial_text(one_trial(program, spec, seed, noise_scale=1.0))
                second = trial_text(one_trial(program, spec, seed, noise_scale=1.0))
                assert first == second, (task, kind, seed)

    # Golden file guards serialization stability across versions.
    spec = load_task_spec(task_path("place_shoe"))
    program = insert_observations(parse(program_path("place_shoe", "correct").read_text()), cap=10)
    produced = trial_text(one_trial(program, spec, 7))
    assert produced == (GOLDEN / "place_shoe_seed7.jsonl").read_text(encoding="utf-8")

    # Slip-count replay oracle: same generator, same draw order, no simulator.
    raw = json.loads(task_path("place_shoe").read_text())
    raw["noise"]["slip_base"] = 0.5
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "slippery.task.json"
        path.write_text(json.dumps(raw))
        slippery = load_task_spec(path)
    n, base_seed = 50, 9000
    logs = run_trials(program, slippery, n, base_seed, noise_scale=1.0, max_steps=200)
    actual_slips = sum(
        1 for log in logs
        if log.failure_event is not None
        and log.failure_event.error_category == "grasp_slip"
    )
    predicted_slips = 0
    for i in range(n):
        rng = np.random.default_rng(base_seed + i)
        rng.normal(size=3)  # actor position perturbation
        rng.normal()  # actor yaw perturbation
        rng.normal(size=3)  # grasp endpoint perturbation
        if float(rng.uniform()) < 0.5:
            predicted_slips += 1
    assert actual_slips == predicted_slips
    _ok(3, f"simulator determinism, 30 fixtures x 3 seeds; slips {actual_slips}/{n} replayed")


# -- criterion 4: psi selection vs brute force -----------------------------------


def _synthetic_log(index, sigs, goal_met):
    events = []
    for t, sig in enumerate(sigs):
        op, outcome, category = sig.split(":")
        events.append(
            SymbolicEvent(
                stmt_id=t + 1, subgoal_index=1 + (t % 2), op_name=op, args={},
                outcome=outcome, error_category=category, message="", t=t,
            )
        )
    return TrialLog(trial_index=index, seed=index, events=events, goal_met=goal_met)


def test_acceptance_4_selection_matches_bruteforce():
    from armloop.dsl.ast import Program, SubgoalBlock

    ops = [
        "grasp_actor:success:none",
        "place_actor:success:none",
        "grasp_actor:failure:grasp_slip",
        "place_actor:failure:placement_miss",
        "move_by_displacement:failure:unreachable",
    ]
    program = Program("t", [SubgoalBlock("a", []), SubgoalBlock("b", [])])
    rng = random.Random(31337)
    agreements = 0
    for _ in range(500):
        batch = []
        for i in range(rng.randint(1, 10)):
            sigs = [rng.choice(ops) for _ in range(rng.randint(1, 6))]
            cut = next((k for k, s in enumerate(sigs) if ":failure:" in s), None)
            if cut is not None:
                sigs = sigs[: cut + 1]
            batch.append(_synthetic_log(i, sigs, goal_met=cut is None and rng.random() < 0.8))
        weights = (rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0))
        selected = select_trial(batch, program, weights).index

        raw_s = [failure_severity(log, program) for log in batch]
        raw_d = [trace_divergence(log, batch) for log in batch]

        def norm(vals):
            lo, hi = min(vals), max(vals)
            return [0.0 if hi == lo else (v - lo) / (hi - lo) for v in vals]

        psis = [weights[0] * s + weights[1] * d for s, d in zip(norm(raw_s), norm(raw_d))]
        best = 0
        for i in range(1, len(psis)):
            if psis[i] > psis[best]:
                best = i
        agreements += selected == best
    assert agreements == 500
    _ok(4, "psi selection, 500 batches, 100% oracle agreement")


# -- criterion 5: metrics exactness ----------------------------------------------


def _oracle_ted(a: LabeledTree, b: LabeledTree) -> int:
    def freeze(node):
        return (node.label, tuple(freeze(c) for c in node.children))

    def size(forest):
        return sum(1 + size(t[1]) for t in forest)

    @lru_cache(maxsize=None)
    def dist(f1, f2):
        if not f1 and not f2:
            return 0
        if not f1:
            return size(f2)
        if not f2:
            return size(f1)
        t1, t2 = f1[-1], f2[-1]
        return min(
            dist(f1[:-1] + t1[1], f2) + 1,
            dist(f1, f2[:-1] + t2[1]) + 1,
            dist(f1[:-1], f2[:-1]) + dist(t1[1], t2[1]) + (t1[0] != t2[0]),
        )

    return dist((freeze(a),), (freeze(b),))


def _random_tree(rng, max_nodes):
    labels = ["p", "q", "r", "s"]
    budget = rng.randint(1, max_nodes)

    def grow(remaining):
        node = LabeledTree((rng.choice(labels),))
        remaining -= 1
        while remaining > 0 and rng.random() < 0.6:
            child, remaining = grow(remaining)
            node.children.append(child)
        return node, remaining

    return grow(budget)[0]


def test_acceptance_5_metrics_exact():
    # Three frozen campaign fixtures, hand-computed values.
    f1 = make_campaign(
        [(10, 1, True), (9, 1, True), (8, 1, True), (7, 2, True), (6, 2, True),
         (10, 1, True), (9, 2, True), (5, 3, True), (4, 5, False), (3, 5, False)]
    )
    assert asr(f1) == 0.71
    assert top5_asr(f1) == (1.0 + 1.0 + 0.9 + 0.9 + 0.8) / 5
    assert cr_iter(f1) == (1 + 1 + 1 + 2 + 2 + 1 + 2 + 3 + 5 + 5) / 10

    f2 = make_campaign([(7, 2, True), (3, 5, False), (10, 1, True)])
    assert asr(f2) == 20 / 30
    assert top5_asr(f2) == (1.0 + 0.7 + 0.3) / 3
    assert cr_iter(f2) == (2 + 5 + 1) / 3

    f3 = make_campaign(
        [(10, 1, True), (6, 3, True), (0, 5, False), (0, 5, False), (8, 2, True)]
    )
    assert asr(f3) == 24 / 50
    assert top5_asr(f3) == (1.0 + 0.8 + 0.6 + 0.0 + 0.0) / 5
    assert cr_iter(f3) == (1 + 3 + 5 + 5 + 2) / 5

    # Tree edit distance against the independent recursive oracle: exact.
    rng = random.Random(4242)
    for _ in range(200):
        a = _random_tree(rng, 12)
        b = _random_tree(rng, 12)
        assert tree_edit_distance(a, b) == _oracle_ted(a, b)
    _ok(5, "metrics exact on 3 fixtures; TED exact on 200 tree pairs")


# -- criterion 6: oracle loop convergence and ablation ordering -------------------


def _ablation_campaign(task: str, mode: str):
    """Run one bundled configuration (one_shot/symbolic/hybrid.json) on a task."""
    from armloop.loop import load_campaign_config
    from conftest import TASKS_DIR

    spec = load_task_spec(task_path(task))
    cfg = load_campaign_config(TASKS_DIR / "configs" / f"{mode}.json", task_path(task), spec)
    return run_campaign(spec, cfg)


def test_acceptance_6_ablation_ordering_on_all_tasks():
    per_mode = {"one_shot": [], "symbolic": [], "hybrid": []}
    for task in TASK_NAMES:
        for mode in per_mode:
            campaign = _ablation_campaign(task, mode)
            per_mode[mode].append(asr(campaign))
            if mode == "hybrid":
                for row in campaign.record.candidates:
                    assert row.converged, (task, row.candidate_id)
                    assert row.cr_iter <= 3, (task, row.candidate_id)
    macro = {mode: sum(vals) / len(vals) for mode, vals in per_mode.items()}
    assert macro["one_shot"] <= macro["symbolic"] <= macro["hybrid"]
    assert macro["one_shot"] < macro["hybrid"]  # at least one strict inequality
    for task_idx, task in enumerate(TASK_NAMES):
        assert per_mode["one_shot"][task_idx] <= per_mode["symbolic"][task_idx] <= per_mode["hybrid"][task_idx], task
    _ok(
        6,
        "ablation ASR one-shot {:.3f} <= symbolic {:.3f} <= hybrid {:.3f} on 10 tasks".format(
            macro["one_shot"], macro["symbolic"], macro["hybrid"]
        ),
    )


# -- criterion 7: fusion correctness on 50 constructed pairs ----------------------


def _mk_event(stmt_id, subgoal, outcome="success", category="none", message=""):
    return SymbolicEvent(
        stmt_id=stmt_id, subgoal_index=subgoal, op_name="op", args={},
        outcome=outcome, error_category=category, message=message, t=stmt_id,
    )


def _mk_program(n_stmts):
    lines = ["program t", 'subgoal "one"']
    lines += ["  back_to_origin(left)"] * (n_stmts // 2)
    lines += ['subgoal "two"']
    lines += ["  back_to_origin(right)"] * (n_stmts - n_stmts // 2)
    return parse("\n".join(lines))


def test_acceptance_7_fusion_50_cases():
    cases = []
    categories = ["unreachable", "collision", "invalid_call", "grasp_slip", "not_held"]

    # 15 agreement cases: symbolic failure and perceptual deviation coincide.
    for k in range(15):
        stmt = 2 + (k % 4)
        subgoal = 1 if stmt <= 3 else 2
        category = categories[k % len(categories)]
        cause = CAUSE_FROM_ERROR[category]
        log = TrialLog(0, 0, events=[
            _mk_event(s, 1 if s <= 3 else 2) for s in range(1, stmt)
        ] + [_mk_event(stmt, subgoal, "failure", category, f"boom {k}")], goal_met=False)
        diagnosis = Diagnosis(subgoals=[
            SubgoalVerdict(subgoal, False, stmt, cause, "seen"),
        ], overall_success=False)
        expected = [FaultEntry(stmt, subgoal, cause, EDIT_CLASS_FROM_CAUSE[cause],
                               "both", category, "seen")]
        cases.append((log, diagnosis, expected, f"boom {k}"))

    # 15 disagreement cases: two entries, symbolic ranked first.
    for k in range(15):
        sym_stmt = 2 + (k % 3)
        perc_stmt = sym_stmt + 1 + (k % 2)
        subgoal = 1
        category = categories[k % len(categories)]
        sym_cause = CAUSE_FROM_ERROR[category]
        perc_cause = "logic_error" if k % 2 else "perception_mismatch"
        log = TrialLog(0, 0, events=[
            _mk_event(s, subgoal) for s in range(1, sym_stmt)
        ] + [_mk_event(sym_stmt, subgoal, "failure", category, f"sym {k}")], goal_met=False)
        diagnosis = Diagnosis(subgoals=[
            SubgoalVerdict(subgoal, False, perc_stmt, perc_cause, "drifted"),
        ], overall_success=False)
        expected = [
            FaultEntry(sym_stmt, subgoal, sym_cause, EDIT_CLASS_FROM_CAUSE[sym_cause],
                       "symbolic", category, None),
            FaultEntry(perc_stmt, subgoal, perc_cause, EDIT_CLASS_FROM_CAUSE[perc_cause],
                       "perceptual", None, "drifted"),
        ]
        cases.append((log, diagnosis, expected, f"sym {k}"))

    # 10 silent-failure cases: all-success log, perceptual entry stands alone.
    for k in range(10):
        stmt = 3 + (k % 5)
        subgoal = 2
        cause = "perception_mismatch" if k % 2 else "logic_error"
        log = TrialLog(0, 0, events=[
            _mk_event(s, 1 if s <= 2 else 2) for s in range(1, 8)
        ], goal_met=False)
        diagnosis = Diagnosis(subgoals=[
            SubgoalVerdict(1, True),
            SubgoalVerdict(subgoal, False, stmt, cause, "off target"),
        ], overall_success=False)
        expected = [FaultEntry(stmt, subgoal, cause, EDIT_CLASS_FROM_CAUSE[cause],
                               "perceptual", None, "off target")]
        cases.append((log, diagnosis, expected, "goal predicate not satisfied"))

    # 10 symbolic-only cases (empty diagnosis): loud logs yield one symbolic
    # entry, silent logs yield none.
    for k in range(10):
        if k % 2 == 0:
            stmt = 1 + (k % 4)
            category = categories[k % len(categories)]
            cause = CAUSE_FROM_ERROR[category]
            log = TrialLog(0, 0, events=[
                _mk_event(s, 1) for s in range(1, stmt)
            ] + [_mk_event(stmt, 1, "failure", category, f"only {k}")], goal_met=False)
            expected = [FaultEntry(stmt, 1, cause, EDIT_CLASS_FROM_CAUSE[cause],
                                   "symbolic", category, None)]
            cases.append((log, Diagnosis(), expected, f"only {k}"))
        else:
            log = TrialLog(0, 0, events=[_mk_event(s, 1) for s in range(1, 6)], goal_met=False)
            cases.append((log, Diagnosis(), [], "goal predicate not satisfied"))

    assert len(cases) == 50
    program = _mk_program(12)
    for i, (log, diagnosis, expected, error_fragment) in enumerate(cases):
        signal = fuse(log, diagnosis, program)
        assert signal.faults == expected, f"case {i}"
        assert error_fragment in signal.last_error, f"case {i}"
        for fault in signal.faults:
            assert any(stmt.id == fault.stmt_id for stmt in program.walk()), f"case {i}"
    _ok(7, "fusion exact on 50 constructed cases")


# -- criterion 8: CR-Iter boundary cases -------------------------------------------


def test_acceptance_8_cr_iter_boundaries():
    spec = load_task_spec(task_path("place_shoe"))

    def campaign_cfg(playbook, cap=5):
        loop = LoopConfig(synthesis=AgentConfig(backend="mock"), verifier=AgentConfig(backend="mock"),
                          n_trials=10, max_iterations=cap)
        return CampaignConfig(loop=loop, candidates=[[p.read_text() for p in playbook]])

    one_shot = run_campaign(spec, campaign_cfg([program_path("place_shoe", "correct")]))
    assert cr_iter(one_shot) == 1.00
    assert one_shot.record.candidates[0].converged

    stuck = run_campaign(spec, campaign_cfg([program_path("place_shoe", "loud")] * 5))
    assert cr_iter(stuck) == 5.0
    assert not stuck.record.candidates[0].converged
    _ok(8, "cr_iter 1.00 one-shot, 5.00 at cap")


# -- criterion 9: wall time ---------------------------------------------------------


def test_acceptance_9_wall_time_budget():
    elapsed = time.monotonic() - _SUITE_START
    assert elapsed < 300.0, f"acceptance suite took {elapsed:.0f}s"
    _ok(9, f"acceptance module finished in {elapsed:.1f}s (< 300s)")
