"""The TED kernel against the textbook Zhang-Shasha algorithm at the sizes
and shapes real programs have, on the pairs its two bounds settle and on
those they leave to the DP."""

import copy
import itertools
import random

import pytest

from armloop import metrics
from armloop.dsl import parse
from armloop.metrics import (
    LabeledTree,
    ast_similarity,
    flatten,
    program_tree,
)

from conftest import TASK_NAMES, program_path, tree_edit_distance

PROGRAM_KINDS = ("correct", "loud", "silent")


def reference_ted(a: LabeledTree, b: LabeledTree) -> int:
    """Textbook Zhang-Shasha (SIAM J. Comput. 1989): a forest DP for every
    pair of keyroots, one relabel call per cell."""

    def postorder(root):
        nodes, lmds = [], []

        def visit(node):
            first_leaf = None
            for child in node.children:
                leaf = visit(child)
                if first_leaf is None:
                    first_leaf = leaf
            nodes.append(node)
            index = len(nodes) - 1
            lmd = first_leaf if first_leaf is not None else index
            lmds.append(lmd)
            return lmd

        visit(root)
        return nodes, lmds

    def keyroots(lmds):
        seen = {}
        for i, lmd in enumerate(lmds):
            seen[lmd] = i
        return sorted(seen.values())

    def relabel(x, y):
        return 0 if x.label == y.label else 1

    an, al = postorder(a)
    bn, bl = postorder(b)
    td = [[0] * len(bn) for _ in range(len(an))]
    for i in keyroots(al):
        for j in keyroots(bl):
            m = i - al[i] + 2
            n = j - bl[j] + 2
            fd = [[0] * n for _ in range(m)]
            ioff = al[i] - 1
            joff = bl[j] - 1
            for x in range(1, m):
                fd[x][0] = fd[x - 1][0] + 1
            for y in range(1, n):
                fd[0][y] = fd[0][y - 1] + 1
            for x in range(1, m):
                for y in range(1, n):
                    if al[i] == al[x + ioff] and bl[j] == bl[y + joff]:
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[x - 1][y - 1] + relabel(an[x + ioff], bn[y + joff]),
                        )
                        td[x + ioff][y + joff] = fd[x][y]
                    else:
                        p = al[x + ioff] - 1 - ioff
                        q = bl[y + joff] - 1 - joff
                        fd[x][y] = min(
                            fd[x - 1][y] + 1,
                            fd[x][y - 1] + 1,
                            fd[p][q] + td[x + ioff][y + joff],
                        )
    return td[-1][-1]


def _assert_exact(a: LabeledTree, b: LabeledTree) -> int:
    expected = reference_ted(a, b)
    assert tree_edit_distance(a, b) == expected
    assert tree_edit_distance(b, a) == expected
    return expected


def _program_shaped_tree(rng: random.Random, max_nodes: int) -> LabeledTree:
    """program > subgoal > [parallel >] call > arguments: depth 4 with wide
    leaf fan-out, so most nodes are leaf keyroots. Small label alphabets
    make matches, and so the closed form's membership test, common."""
    budget = [rng.randint(2, max_nodes) - 1]

    def leaves(parent, kind, count):
        for _ in range(count):
            if budget[0] <= 0:
                return
            budget[0] -= 1
            parent.children.append(LabeledTree((kind, rng.choice("abcd"))))

    def call(parent):
        budget[0] -= 1
        stmt = LabeledTree(("call", rng.choice(["grasp", "place", "move"])))
        parent.children.append(stmt)
        leaves(stmt, "arg", rng.randint(2, 7))

    root = LabeledTree(("program",))
    while budget[0] > 0:
        budget[0] -= 1
        subgoal = LabeledTree(("subgoal",))
        root.children.append(subgoal)
        leaves(subgoal, "description", 1)
        for _ in range(rng.randint(1, 4)):
            if budget[0] <= 0:
                break
            if rng.random() < 0.2:
                budget[0] -= 1
                group = LabeledTree(("parallel",))
                subgoal.children.append(group)
                for _ in range(rng.randint(1, 3)):
                    call(group)
            else:
                call(subgoal)
    return root


def _nodes(tree: LabeledTree):
    yield tree
    for child in tree.children:
        yield from _nodes(child)


def test_random_program_shaped_trees_up_to_80_nodes():
    rng = random.Random(2011)
    n_nodes = n_leaf_keyroots = largest = 0
    for _ in range(40):
        a = _program_shaped_tree(rng, 80)
        b = _program_shaped_tree(rng, 80)
        _assert_exact(a, b)
        for tree in (flatten(a), flatten(b)):
            largest = max(largest, len(tree))
            n_nodes += len(tree)
            n_leaf_keyroots += sum(
                1 for i, p in enumerate(tree.parent)
                if tree.lmd[i] == i and (p < 0 or tree.lmd[p] != i)
            )
    assert largest >= 70
    assert n_leaf_keyroots > 0.5 * n_nodes  # as in the bundled programs (59 %)


def _bundled_tree(task: str, kind: str) -> LabeledTree:
    return program_tree(parse(program_path(task, kind).read_text()))


def test_bundled_programs_every_ordered_pair():
    trees = [_bundled_tree(task, kind) for task in TASK_NAMES for kind in PROGRAM_KINDS]
    for a, b in itertools.combinations(trees, 2):  # _assert_exact takes both orders
        _assert_exact(a, b)
    for tree in trees:
        assert tree_edit_distance(tree, copy.deepcopy(tree)) == 0


def _call(name: str, *args: tuple) -> LabeledTree:
    return LabeledTree(("call", name), [LabeledTree(("arg", *arg)) for arg in args])


def _small_program() -> LabeledTree:
    """program > subgoal > description and calls > arguments, as
    program_tree gives it, with few arguments per call."""
    left, right = ("arm", "sym", "left"), ("arm", "sym", "right")
    return LabeledTree(("program",), [
        LabeledTree(("subgoal",), [
            LabeledTree(("description", "grasp the shoe")),
            _call("grasp_actor", ("actor", "sym", "shoe"), left),
            _call("move_by_displacement", left, ("z", "num")),
            _call("open_gripper", left),
        ]),
        LabeledTree(("subgoal",), [
            LabeledTree(("description", "park")),
            _call("close_gripper", right),
            _call("back_to_origin", right),
        ]),
    ])


def _single_edits(tree: LabeledTree) -> list:
    """Every tree one edit away: an argument relabeled, a statement inserted
    or deleted, two neighbouring statements wrapped in parallel, a subgoal
    deleted. A subgoal's first child is its description."""
    edited = []

    def edit(change):
        new = copy.deepcopy(tree)
        change(new)
        edited.append(new)

    for g, subgoal in enumerate(tree.children):
        n = len(subgoal.children)
        for k in range(1, n):
            stmt = subgoal.children[k]
            for c, call in enumerate(stmt.children if stmt.label == ("parallel",) else [stmt]):
                for a in range(len(call.children)):
                    def relabel(new, g=g, k=k, c=c, a=a):
                        stmt = new.children[g].children[k]
                        call = stmt.children[c] if stmt.label == ("parallel",) else stmt
                        call.children[a].label = ("arg", "arm", "sym", "both")
                    edit(relabel)
            edit(lambda new, g=g, k=k: new.children[g].children.pop(k))
        for k in range(1, n + 1):
            edit(lambda new, g=g, k=k: new.children[g].children.insert(k, _call("open_gripper", ("arm", "sym", "right"))))
        for k in range(1, n - 1):
            def wrap(new, g=g, k=k):
                stmts = new.children[g].children
                stmts[k:k + 2] = [LabeledTree(("parallel",), stmts[k:k + 2])]
            edit(wrap)
        edit(lambda new, g=g: new.children.pop(g))
    return edited


def _frozen(tree: LabeledTree) -> tuple:
    return tree.label, tuple(_frozen(child) for child in tree.children)


@pytest.fixture()
def dp_calls(monkeypatch) -> list:
    """Grows by one each time the TED reaches the Zhang-Shasha DP."""
    calls = []
    zhang_shasha = metrics._zhang_shasha
    monkeypatch.setattr(metrics, "_zhang_shasha", lambda *args: calls.append(args) or zhang_shasha(*args))
    return calls


def test_single_and_double_edits_of_a_small_program(dp_calls):
    base = _small_program()
    singles = _single_edits(base)
    edits = {_frozen(tree): tree for tree in singles}
    for tree in singles:
        edits.update((_frozen(double), double) for double in _single_edits(tree))
    edits.pop(_frozen(base), None)
    assert len(singles) == 24 and len(edits) > 250
    for tree in edits.values():
        _assert_exact(base, tree)
    # Both the pairs the bounds settle and those they leave to the DP occur.
    assert 0 < len(dp_calls) < 2 * len(edits)


def test_bounds_settle_most_faulty_vs_correct_pairs(dp_calls):
    """Selkow's top-down distance meets the postorder label sequences' edit
    distance on 17 of the 20 bundled faulty-vs-correct pairs, so only the
    other three reach the Zhang-Shasha DP; those still give the exact TED."""
    through_dp = set()
    for task in TASK_NAMES:
        correct = _bundled_tree(task, "correct")
        for kind in ("loud", "silent"):
            faulty = _bundled_tree(task, kind)
            before = len(dp_calls)
            distance = tree_edit_distance(faulty, correct)
            if len(dp_calls) > before:
                through_dp.add((task, kind))
                assert distance == reference_ted(faulty, correct)
    assert through_dp == {("handover_block", "loud"), ("pick_diverse_bottles", "loud"),
                          ("pick_dual_bottles_easy", "loud")}


@pytest.mark.parametrize("task", TASK_NAMES)
def test_identical_and_single_edits(task):
    base = program_tree(parse(program_path(task, "correct").read_text()))
    assert _assert_exact(base, copy.deepcopy(base)) == 0
    rng = random.Random(task)
    for index in rng.sample(range(1, len(flatten(base))), 4):
        relabeled = copy.deepcopy(base)
        list(_nodes(relabeled))[index].label = ("edited",)
        assert _assert_exact(base, relabeled) == 1

        inserted = copy.deepcopy(base)
        target = list(_nodes(inserted))[index]
        target.children.insert(len(target.children) // 2, LabeledTree(("new",)))
        assert _assert_exact(base, inserted) == 1

        deleted = copy.deepcopy(base)
        nodes = list(_nodes(deleted))
        target = nodes[index]
        parent = next(n for n in nodes if any(kid is target for kid in n.children))
        pos = next(k for k, kid in enumerate(parent.children) if kid is target)
        parent.children[pos:pos + 1] = target.children  # its children move up
        assert _assert_exact(base, deleted) == 1


def test_single_node_trees():
    leaf = LabeledTree(("call", "grasp"))
    assert _assert_exact(leaf, LabeledTree(("call", "grasp"))) == 0
    assert _assert_exact(leaf, LabeledTree(("call", "place"))) == 1
    program = program_tree(parse(program_path("place_shoe", "correct").read_text()))
    size = len(flatten(program))
    assert _assert_exact(leaf, program) == size
    # The label occurs only deep inside the other tree.
    for label in (("subgoal",), list(_nodes(program))[-1].label):
        assert _assert_exact(LabeledTree(label), program) == size - 1


def test_same_postorder_labels_different_shape():
    wide = LabeledTree(("r",), [LabeledTree(("x",)), LabeledTree(("x",))])
    deep = LabeledTree(("r",), [LabeledTree(("x",), [LabeledTree(("x",))])])
    assert _assert_exact(wide, deep) == 2


def test_ast_similarity_accepts_a_flattened_side():
    a = parse(program_path("stack_blocks_two", "correct").read_text())
    b = parse(program_path("stack_blocks_two", "silent").read_text())
    flat_b = flatten(program_tree(b))
    assert ast_similarity(a, flat_b) == ast_similarity(a, b)
    assert ast_similarity(flat_b, a) == ast_similarity(b, a)
