import random
from functools import lru_cache

import pytest

from armloop.dsl import ParallelStmt, parse
from armloop.errors import EmptyCampaignError
from armloop.loop import (
    CampaignRecord,
    CampaignResult,
    CandidateRecord,
)
from armloop.metrics import (
    LabeledTree,
    ast_similarity,
    flatten,
    metrics_from_campaign,
    program_tree,
)

from conftest import program_path, random_program, tree_edit_distance


# --- campaign fixtures -----------------------------------------------------------


_FIXTURE_PROGRAM = parse('program t\nsubgoal "s"\n  open_gripper(left)\n')


def make_campaign(rows, n_trials=10, cap=5):
    """rows: (success_count, cr_iter, converged) per candidate, each taken
    as given: the metrics aggregate the rows and do not re-derive them."""
    record = CampaignRecord("fixture", "", n_trials, 0.5, cap, None, [])
    for cid, (success, cr, converged) in enumerate(rows):
        record.candidates.append(CandidateRecord(cid, cid * 100, converged, cr, cr, success, n_trials, None))
    return CampaignResult(record, [[(success, n_trials)] for success, _, _ in rows], [_FIXTURE_PROGRAM] * len(rows))


def asr(campaign):
    return metrics_from_campaign(campaign)["asr"]


def top5_asr(campaign):
    return metrics_from_campaign(campaign)["top5_asr"]


def cr_iter(campaign):
    return metrics_from_campaign(campaign)["cr_iter"]


def test_asr_paper_scale_example():
    rows = [(10, 1, True), (9, 1, True), (8, 1, True), (7, 2, True), (6, 2, True),
            (10, 1, True), (9, 2, True), (5, 3, True), (4, 5, False), (3, 5, False)]
    assert sum(r[0] for r in rows) == 71
    assert asr(make_campaign(rows)) == pytest.approx(0.71)


def test_asr_all_success():
    assert asr(make_campaign([(10, 1, True)] * 4)) == 1.0


def test_asr_three_candidate_fixture():
    campaign = make_campaign([(7, 2, True), (3, 5, False), (10, 1, True)])
    assert asr(campaign) == pytest.approx(20 / 30)
    assert top5_asr(campaign) == pytest.approx((1.0 + 0.7 + 0.3) / 3)
    assert cr_iter(campaign) == pytest.approx((2 + 5 + 1) / 3)


def test_top5_takes_best_five():
    rows = [(10, 1, True), (9, 1, True), (8, 1, True), (7, 1, True), (6, 1, True),
            (0, 5, False), (0, 5, False), (0, 5, False), (0, 5, False), (0, 5, False)]
    assert top5_asr(make_campaign(rows)) == pytest.approx(0.8)


def test_top5_matches_sort_oracle():
    rng = random.Random(77)
    for _ in range(50):
        rows = [(rng.randint(0, 10), rng.randint(1, 5), True) for _ in range(10)]
        campaign = make_campaign(rows)
        rates = sorted((r[0] / 10 for r in rows), reverse=True)[:5]
        assert top5_asr(campaign) == pytest.approx(sum(rates) / 5)
        assert top5_asr(campaign) >= asr(campaign) - 1e-12


def test_cr_iter_boundaries():
    assert cr_iter(make_campaign([(10, 1, True)] * 3)) == 1.0
    assert cr_iter(make_campaign([(0, 5, False)] * 3)) == 5.0
    mixed = make_campaign([(10, 1, True), (0, 5, False), (0, 5, False), (10, 2, True)])
    assert cr_iter(mixed) == pytest.approx(3.25)


def test_metric_invariance_under_reordering():
    rng = random.Random(5)
    rows = [(rng.randint(0, 10), rng.randint(1, 5), bool(rng.random() < 0.5)) for _ in range(8)]
    base = make_campaign(rows)
    shuffled_rows = rows[:]
    rng.shuffle(shuffled_rows)
    other = make_campaign(shuffled_rows)
    # candidate ids differ after the shuffle, but aggregates cannot
    assert asr(base) == pytest.approx(asr(other))
    assert cr_iter(base) == pytest.approx(cr_iter(other))
    assert top5_asr(base) == pytest.approx(top5_asr(other))


def test_empty_campaign_errors():
    campaign = make_campaign([])
    for fn in (asr, top5_asr, cr_iter):
        with pytest.raises(EmptyCampaignError):
            fn(campaign)


def test_metrics_payload_reports_null_for_model_metrics():
    campaign = make_campaign([(10, 1, True)])
    campaign.finals[0] = parse(program_path("place_shoe", "correct").read_text())
    payload = metrics_from_campaign(campaign)
    assert payload["codebleu_similarity"] is None
    assert payload["codebert_similarity"] is None
    assert payload["unixcoder_similarity"] is None
    assert "pretrained" in payload["similarity_note"]
    assert payload["cr_iter"] == 1.0


# --- tree edit distance ------------------------------------------------------------


def _oracle_ted(a: LabeledTree, b: LabeledTree) -> int:
    """Memoized recursive forest edit distance (independent of the
    keyroot-based implementation under test)."""

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
        options = [
            dist(f1[:-1] + t1[1], f2) + 1,
            dist(f1, f2[:-1] + t2[1]) + 1,
            dist(f1[:-1], f2[:-1]) + dist(t1[1], t2[1]) + (t1[0] != t2[0]),
        ]
        return min(options)

    return dist((freeze(a),), (freeze(b),))


def _random_tree(rng: random.Random, max_nodes: int) -> LabeledTree:
    labels = ["a", "b", "c", "d"]
    budget = rng.randint(1, max_nodes)

    def grow(remaining):
        node = LabeledTree((rng.choice(labels),))
        remaining -= 1
        while remaining > 0 and rng.random() < 0.6:
            child, remaining = grow(remaining)
            node.children.append(child)
        return node, remaining

    tree, _ = grow(budget)
    return tree


def test_ted_identical_trees_zero():
    rng = random.Random(1)
    for _ in range(20):
        tree = _random_tree(rng, 10)
        assert tree_edit_distance(tree, tree) == 0


def test_ted_matches_recursive_oracle():
    rng = random.Random(13)
    for _ in range(60):
        a = _random_tree(rng, 12)
        b = _random_tree(rng, 12)
        assert tree_edit_distance(a, b) == _oracle_ted(a, b)


def test_ast_similarity_reflexive(place_shoe_spec):
    program = parse(program_path("place_shoe", "correct").read_text())
    assert ast_similarity(program, program) == 1.0


def test_ast_similarity_single_relabel():
    a = parse('program t\nsubgoal "s"\n  open_gripper(left)\n')
    b = parse('program t\nsubgoal "s"\n  close_gripper(left)\n')
    # program + subgoal + description + call + 2 args = 6 nodes; one relabel.
    assert len(flatten(program_tree(a))) == 6
    assert ast_similarity(a, b) == pytest.approx(1 - 1 / 6)


def test_ast_similarity_symmetric():
    rng = random.Random(3)
    for _ in range(10):
        a = random_program(rng, max_subgoals=2, max_stmts=2)
        b = random_program(rng, max_subgoals=2, max_stmts=2)
        assert ast_similarity(a, b) == pytest.approx(ast_similarity(b, a))
        assert 0.0 <= ast_similarity(a, b) <= 1.0


def test_parameter_retune_scores_as_identical_structure():
    a = parse('program t\nsubgoal "s"\n  place_actor(shoe, left, fp(block, 0), pre_dis=0.1)\n')
    b = parse('program t\nsubgoal "s"\n  place_actor(shoe, left, fp(block, 0), pre_dis=0.25)\n')
    assert ast_similarity(a, b) == 1.0


def test_actor_change_is_structural():
    a = parse('program t\nsubgoal "s"\n  grasp_actor(shoe, left)\n')
    b = parse('program t\nsubgoal "s"\n  grasp_actor(mug, left)\n')
    assert ast_similarity(a, b) < 1.0


def _count_nodes(program) -> int:
    """Independent node count: program, subgoals, descriptions, statements
    (parallel blocks included) and arguments."""

    def stmt_nodes(stmt) -> int:
        if isinstance(stmt, ParallelStmt):
            return 1 + sum(stmt_nodes(c) for c in stmt.left + stmt.right)
        return 1 + len(stmt.args)

    return 1 + sum(2 + sum(stmt_nodes(s) for s in sg.statements) for sg in program.subgoals)


def test_node_count_consistency_with_tree(place_shoe_spec):
    rng = random.Random(21)
    for _ in range(20):
        program = random_program(rng)
        campaign = make_campaign([(10, 1, True)])
        campaign.finals[0] = program
        payload = metrics_from_campaign(campaign)
        assert payload["per_candidate"][0]["node_count"] == _count_nodes(program)
        assert payload["node_count"] == _count_nodes(program)
