"""Campaign metrics (ASR, Top5-ASR, CR-Iter) and code-structure metrics.

AST similarity is 1 - TED(a, b) / max(nodes(a), nodes(b)) with exact
unit-cost ordered tree edit distance over labeled trees. Labels keep node
kind, call names, argument names, and symbolic values, but collapse numeric
literals to a class so parameter retunes score as structural near-identity.
The TED lies between two cheap bounds: the edit distance of the two
postorder label sequences below and Selkow's top-down distance above, both
computed by `harness.edit_distance`, the sequence DP that trace divergence
runs too. Where they meet, that is the TED; only where they part does the
Zhang-Shasha DP run (3 of the 20 bundled faulty-vs-expert pairs). In
CPython 3.11 on a 2-core x86 host a bundled pair costs about 0.01 ms when
equal, 0.01-2.1 ms when the bounds meet and 1.4-3.8 ms through the DP.
Everything here is a pure function of campaign artifacts and can be
recomputed offline from a run directory.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dsl.ast import CallStmt, FpRef, ParallelStmt, PoseLit, Program
from .dsl.parser import count_tokens, parse
from .errors import ArtifactError, DslSyntaxError, EmptyCampaignError
from .harness import edit_distance
from .loop import CampaignRecord, CampaignResult, CandidateRecord, iteration_base_seed
from .sim.model import load_trials

_SIMILARITY_NOTE = (
    "embedding- and token-overlap similarity metrics need pretrained models "
    "and are not computed offline"
)


# --- labeled trees -----------------------------------------------------------


@dataclass
class LabeledTree:
    label: tuple
    children: list = field(default_factory=list)


def _value_label(name: str, value) -> tuple:
    if isinstance(value, bool):
        return ("arg", name, "bool", "true" if value else "false")
    if isinstance(value, (int, float)):
        return ("arg", name, "num")
    if isinstance(value, FpRef):
        return ("arg", name, "fp", value.actor)
    if isinstance(value, PoseLit):
        return ("arg", name, "pose")
    if name == "step_name":
        return ("arg", name, "str")
    return ("arg", name, "sym", str(value))


def _stmt_tree(stmt) -> LabeledTree:
    if isinstance(stmt, ParallelStmt):
        return LabeledTree(
            ("parallel",),
            [_stmt_tree(s) for s in stmt.left] + [_stmt_tree(s) for s in stmt.right],
        )
    assert isinstance(stmt, CallStmt)
    return LabeledTree(
        ("call", stmt.name),
        [LabeledTree(_value_label(name, value)) for name, value in stmt.args.items()],
    )


def program_tree(program: Program) -> LabeledTree:
    subgoal_nodes = []
    for sg in program.subgoals:
        children = [LabeledTree(("description", sg.description))]
        children += [_stmt_tree(s) for s in sg.statements]
        subgoal_nodes.append(LabeledTree(("subgoal",), children))
    return LabeledTree(("program",), subgoal_nodes)


# --- Zhang-Shasha ordered tree edit distance ---------------------------------


@dataclass(frozen=True)
class FlatTree:
    """A labeled tree indexed for TED, in postorder. The subtree rooted at
    node i spans indices lmd[i]..i; parent is -1 for the root; keyroots
    lists the keyroots that are not leaves, ascending."""

    labels: list
    lmd: list
    parent: list
    keyroots: list

    def __len__(self) -> int:
        return len(self.labels)


def flatten(root: LabeledTree) -> FlatTree:
    labels: list = []
    lmd: list[int] = []
    parent: list[int] = []

    def visit(node: LabeledTree) -> int:
        kids = [visit(child) for child in node.children]
        index = len(labels)
        labels.append(node.label)
        lmd.append(lmd[kids[0]] if kids else index)
        parent.append(-1)
        for kid in kids:
            parent[kid] = index
        return index

    visit(root)
    # A keyroot is the root or a node with a left sibling.
    keyroots = [
        i for i, p in enumerate(parent)
        if lmd[i] != i and (p < 0 or lmd[p] != lmd[i])
    ]
    return FlatTree(labels, lmd, parent, keyroots)


def _label_sets(ids: list[int], parent: list[int]) -> list[int]:
    """Per node, the label ids of its subtree as a bitmask."""
    masks = [1 << c for c in ids]
    for node in range(len(ids) - 1):  # children precede parents in postorder
        masks[parent[node]] |= masks[node]
    return masks


def _subtree_ids(labels: list, parent: list, shapes: dict, sizes: list) -> int:
    """The subtree id of the root of a postorder tree with the given label
    ids. A node's id is that of its key (label id, *child ids) in shapes,
    where a new key takes the next id and sizes its subtree's node count,
    so equal subtrees of two trees given the same shapes share an id."""
    kids: list = [[] for _ in labels]
    for x, (label, p) in enumerate(zip(labels, parent)):
        sid = shapes.setdefault((label, *kids[x]), len(sizes))
        if sid == len(sizes):
            sizes.append(1 + sum(sizes[k] for k in kids[x]))
        kids[p].append(sid)  # the root's parent is -1: its own list, already read
    return sid


def _top_down(s: int, t: int, shapes: dict, sizes: list) -> int:
    """Selkow's top-down distance between subtree ids s and t: roots map to
    roots, and children are aligned with a whole subtree's deletion or
    insertion costing its size. Every such edit script is an edit script,
    so this bounds the TED from above."""
    keys = list(shapes)
    memo: dict = {}

    def top(s: int, t: int) -> int:
        if s == t:
            return 0
        d = memo.get((s, t))
        if d is None:
            key_s, key_t = keys[s], keys[t]
            d = memo[s, t] = (key_s[0] != key_t[0]) + edit_distance(key_s[1:], key_t[1:], sizes.__getitem__, top)
        return d

    return top(s, t)


def _ted(a: FlatTree, b: FlatTree) -> int:
    """Unit-cost TED, exact. Deleting or inserting a node deletes or inserts
    one element of the postorder label sequence and relabeling it replaces
    one, so the edit distance of the two sequences bounds the TED from
    below (Guha et al., SIGMOD 2002); Selkow's top-down distance bounds it
    from above. Where the bounds meet, that is the TED; else the
    Zhang-Shasha DP computes it."""
    ids: dict = {}
    la = [ids.setdefault(label, len(ids)) for label in a.labels]
    lb = [ids.setdefault(label, len(ids)) for label in b.labels]
    if la == lb and a.lmd == b.lmd:  # equal trees, most of a campaign's pairs: cheaper than the bounds
        return 0
    shapes: dict = {}
    sizes: list = []
    root_a = _subtree_ids(la, a.parent, shapes, sizes)
    root_b = _subtree_ids(lb, b.parent, shapes, sizes)
    high = _top_down(root_a, root_b, shapes, sizes)
    if high == edit_distance(la, lb, lambda _: 1, int.__ne__):
        return high
    return _zhang_shasha(a, b, la, lb)


def _zhang_shasha(a: FlatTree, b: FlatTree, la: list, lb: list) -> int:
    """Zhang-Shasha over flattened trees with label ids la and lb. A
    one-node tree against any tree T has TED |T| - [its label occurs in T],
    so every td entry with a leaf on either side is filled in closed form
    and the forest DP runs only over pairs of non-leaf keyroots."""
    al, bl = a.lmd, b.lmd
    na, nb = len(la), len(lb)
    size_a = [x - al[x] + 1 for x in range(na)]
    size_b = [y - bl[y] + 1 for y in range(nb)]
    masks_a = _label_sets(la, a.parent)
    masks_b = _label_sets(lb, b.parent)
    leaves_b = [y for y in range(nb) if bl[y] == y]

    td = []
    for x in range(na):
        if al[x] == x:
            c = la[x]
            td.append([s - (m >> c & 1) for s, m in zip(size_b, masks_b)])
        else:
            row = [0] * nb
            s, m = size_a[x], masks_a[x]
            for y in leaves_b:
                row[y] = s - (m >> lb[y] & 1)
            td.append(row)

    for j in b.keyroots:
        lj = bl[j]
        cols = range(lj, j + 1)
        qs = [bl[y] - lj for y in cols]
        labels_j = lb[lj:j + 1]
        first = list(range(j - lj + 2))
        for i in a.keyroots:
            li = al[i]
            fd = [first]
            prev = first
            for x in range(li, i + 1):
                p = al[x] - li
                tdrow = td[x]
                left = x - li + 1
                row = [left]
                if p == 0:
                    c = la[x]
                    for y, q, cb, diag, up, t in zip(
                        cols, qs, labels_j, prev, prev[1:], tdrow[lj:j + 1]
                    ):
                        v = diag + (c != cb) if q == 0 else q + t
                        if up < v - 1:
                            v = up + 1
                        if left < v - 1:
                            v = left + 1
                        if q == 0:
                            tdrow[y] = v
                        row.append(v)
                        left = v
                else:
                    fp = fd[p]
                    for q, up, t in zip(qs, prev[1:], tdrow[lj:j + 1]):
                        v = fp[q] + t
                        if up < v - 1:
                            v = up + 1
                        if left < v - 1:
                            v = left + 1
                        row.append(v)
                        left = v
                fd.append(row)
                prev = row
    return td[-1][-1]


def ast_similarity(a: Program | FlatTree, b: Program | FlatTree) -> float:
    """1 - TED / max(nodes). Either side may come already flattened, so that
    a fixed reference program is indexed once."""
    if isinstance(a, Program):
        a = flatten(program_tree(a))
    if isinstance(b, Program):
        b = flatten(program_tree(b))
    sim = 1.0 - _ted(a, b) / max(len(a), len(b))
    return min(1.0, max(0.0, sim))


# --- metrics.json -------------------------------------------------------------


def metrics_payload(campaign: CampaignRecord, programs: list, expert: FlatTree | None) -> dict:
    """ASR, Top5-ASR, CR-Iter and the code-structure metrics of a campaign
    record, its candidates' final programs as (text, flattened tree) pairs
    (None where a candidate has none) and the expert program's tree, as a
    live campaign or its artifacts give them."""
    scored = [r for r in campaign.candidates if r.error is None and r.n_trials > 0]
    if not scored:
        raise EmptyCampaignError("campaign has no candidates with executed trials")

    total_success = sum(r.success_count for r in scored)
    total_trials = sum(r.n_trials for r in scored)
    rates = sorted(
        ((r.success_count / r.n_trials, r.candidate_id) for r in scored),
        key=lambda rc: (-rc[0], rc[1]),
    )
    top = rates[:5]

    per_candidate = []
    token_lens = []
    node_counts = []
    similarities = []
    for r, program in zip(campaign.candidates, programs):
        row = {
            "candidate_id": r.candidate_id,
            "success_count": r.success_count,
            "n_trials": r.n_trials,
            "success_rate": (r.success_count / r.n_trials) if r.n_trials else 0.0,
            "cr_iter": r.cr_iter,
            "converged": r.converged,
            "error": r.error,
            "token_len": None,
            "node_count": None,
            "ast_similarity_vs_expert": None,
        }
        if program:
            text, tree = program
            row["token_len"] = count_tokens(text)
            row["node_count"] = len(tree)
            token_lens.append(row["token_len"])
            node_counts.append(row["node_count"])
            if expert is not None:
                row["ast_similarity_vs_expert"] = ast_similarity(tree, expert)
                similarities.append(row["ast_similarity_vs_expert"])
        per_candidate.append(row)

    return {
        "task": campaign.task,
        "asr": total_success / total_trials,
        "top5_asr": sum(r for r, _ in top) / len(top),
        "cr_iter": sum(r.cr_iter for r in scored) / len(scored),
        "success_threshold": campaign.success_threshold,
        "max_iterations": campaign.max_iterations,
        "per_candidate": per_candidate,
        "ast_similarity_vs_expert": (
            sum(similarities) / len(similarities) if similarities else None
        ),
        "token_len": sum(token_lens) / len(token_lens) if token_lens else None,
        "node_count": sum(node_counts) / len(node_counts) if node_counts else None,
        "codebleu_similarity": None,
        "codebert_similarity": None,
        "unixcoder_similarity": None,
        "similarity_note": _SIMILARITY_NOTE,
    }


def metrics_from_campaign(campaign: CampaignResult, expert: Program | None = None) -> dict:
    """metrics.json of a campaign just run; `expert` is the parsed expert
    program, if the config names one. A final program's tree is that of the
    program itself, which is the tree of its persisted text: the printer and
    the parser round-trip every label."""
    from .dsl.printer import to_text

    programs = [(to_text(p), flatten(program_tree(p))) if p else None for p in campaign.finals]
    return metrics_payload(campaign.record, programs, flatten(program_tree(expert)) if expert is not None else None)


def _persisted_tree(text: str, path) -> FlatTree:
    """The flattened tree of a program text read from the file path; one
    that does not parse raises ArtifactError naming the file."""
    try:
        return flatten(program_tree(parse(text)))
    except DslSyntaxError as exc:
        raise ArtifactError(str(path), str(exc)) from None


def _batch(path: Path, n_trials: int, first_seed: int) -> tuple:
    """(goal-met count, trials) of an iteration's trials.jsonl, which must
    hold the batch's trials 0..n_trials-1, trial i run with seed
    first_seed + i, else ArtifactError names it."""
    logs = load_trials(path)
    indices, batch = {log.trial_index for log in logs}, set(range(n_trials))
    if indices != batch:
        what = f"no trial {min(batch - indices)}" if batch - indices else f"a trial {min(indices - batch)}"
        raise ArtifactError(str(path), f"{what}, where the batch is trials 0-{n_trials - 1}")
    for log in logs:
        if log.seed != first_seed + log.trial_index:
            raise ArtifactError(str(path), f"trial {log.trial_index} has seed {log.seed}, where the batch's "
                                           f"seeds are {first_seed}-{first_seed + n_trials - 1}")
    return sum(1 for log in logs if log.goal_met), n_trials


def metrics_from_artifacts(run_dir) -> dict:
    """Recompute metrics.json from a persisted run directory. Matches the
    payload written at run time byte for byte. Each candidate's row is
    rebuilt from the counts in the trials.jsonl of its iterations
    1..final_iteration (not of iterations an earlier, longer run may have
    left) and must equal the recorded row. A campaign.json or trials.jsonl
    that does not match its schema, a trials.jsonl that is not its batch's
    trials 0..n_trials-1 run with the iteration's block of seeds, a row that
    its trials do not bear out, or a final or expert program file that does
    not parse (an empty one among them), raises ArtifactError."""
    run_dir = Path(run_dir)
    campaign_path = run_dir / "campaign.json"
    if not campaign_path.exists():
        raise EmptyCampaignError(f"no campaign.json under {run_dir}")
    where = str(campaign_path)
    campaign = CampaignRecord.from_json(ArtifactError.read_json(campaign_path, where), where)
    expert = None
    if campaign.expert_program:
        expert_text = ArtifactError.read_text(campaign.expert_program, f"{where}: expert_program")
        expert = _persisted_tree(expert_text, campaign.expert_program)

    programs = []
    for i, row in enumerate(campaign.candidates):
        cand_dir = run_dir / f"cand_{row.candidate_id}"
        batches = [_batch(cand_dir / f"iter_{k}" / "trials.jsonl", campaign.n_trials,
                          iteration_base_seed(row.base_seed, k, campaign.n_trials))
                   for k in range(1, row.final_iteration + 1)]
        counted = CandidateRecord.of(row.candidate_id, row.base_seed, batches, campaign.success_threshold,
                                     campaign.max_iterations, row.error)
        for name, value in asdict(row).items():
            if getattr(counted, name) != value:
                raise ArtifactError(where, f"candidates[{i}]: {name}: {json.dumps(value)}"
                                    f" recorded, {json.dumps(getattr(counted, name))} in the trials")
        program_path = cand_dir / f"iter_{row.final_iteration}" / "program.prog"
        text = ArtifactError.read_text(program_path, str(program_path)) if batches else None
        programs.append((text, _persisted_tree(text, program_path)) if batches else None)
    return metrics_payload(campaign, programs, expert)
