"""Campaign metrics (ASR, Top5-ASR, CR-Iter) and code-structure metrics.

AST similarity is 1 - TED(a, b) / max(nodes(a), nodes(b)) with unit-cost
ordered tree edit distance (Zhang-Shasha) over labeled trees. Labels keep
node kind, call names, argument names, and symbolic values, but collapse
numeric literals to a class so parameter retunes score as structural
near-identity. Everything here is a pure function of campaign artifacts and
can be recomputed offline from a run directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from types import NoneType

from .dsl.ast import CallStmt, FpRef, ParallelStmt, PoseLit, Program
from .dsl.parser import count_tokens, parse
from .errors import ArtifactError, EmptyCampaignError
from .loop import CampaignResult
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


def _ted(a: FlatTree, b: FlatTree) -> int:
    """Zhang-Shasha over flattened trees. A one-node tree against any tree T
    has TED |T| - [its label occurs in T], so every td entry with a leaf on
    either side is filled in closed form and the forest DP runs only over
    pairs of non-leaf keyroots."""
    ids: dict = {}
    la = [ids.setdefault(label, len(ids)) for label in a.labels]
    lb = [ids.setdefault(label, len(ids)) for label in b.labels]
    if la == lb and a.lmd == b.lmd:
        return 0
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


def tree_edit_distance(a: LabeledTree, b: LabeledTree) -> int:
    """Unit-cost ordered TED (insert=delete=1, relabel=1 if labels differ)."""
    return _ted(flatten(a), flatten(b))


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


def _candidate_entries(campaign: CampaignResult) -> list[dict]:
    from .dsl.printer import to_text

    entries = []
    for c in campaign.candidates:
        entry = {
            "candidate_id": c.candidate_id,
            "error": c.error,
            "success_count": c.success_count,
            "n_trials": c.n_trials,
            "cr_iter": c.cr_iter,
            "converged": bool(c.result.converged) if c.result else False,
            "final_program_text": to_text(c.result.final_program) if c.result else None,
        }
        entries.append(entry)
    return entries


def metrics_payload(task: str, entries: list[dict], threshold: float,
                    max_iterations: int, expert_text: str | None) -> dict:
    """ASR, Top5-ASR, CR-Iter and the code-structure metrics over one entry
    row per candidate, as built from a live campaign or from artifacts."""
    scored = [e for e in entries if e["error"] is None and e["n_trials"] > 0]
    if not scored:
        raise EmptyCampaignError("campaign has no candidates with executed trials")

    total_success = sum(e["success_count"] for e in scored)
    total_trials = sum(e["n_trials"] for e in scored)
    rates = sorted(
        ((e["success_count"] / e["n_trials"], e["candidate_id"]) for e in scored),
        key=lambda rc: (-rc[0], rc[1]),
    )
    top = rates[:5]
    expert_tree = flatten(program_tree(parse(expert_text))) if expert_text else None

    per_candidate = []
    token_lens = []
    node_counts = []
    similarities = []
    for e in entries:
        row = {
            "candidate_id": e["candidate_id"],
            "success_count": e["success_count"],
            "n_trials": e["n_trials"],
            "success_rate": (e["success_count"] / e["n_trials"]) if e["n_trials"] else 0.0,
            "cr_iter": e["cr_iter"],
            "converged": e["converged"],
            "error": e["error"],
            "token_len": None,
            "node_count": None,
            "ast_similarity_vs_expert": None,
        }
        if e["final_program_text"]:
            tree = flatten(program_tree(parse(e["final_program_text"])))
            row["token_len"] = count_tokens(e["final_program_text"])
            row["node_count"] = len(tree)
            token_lens.append(row["token_len"])
            node_counts.append(row["node_count"])
            if expert_tree is not None:
                row["ast_similarity_vs_expert"] = ast_similarity(tree, expert_tree)
                similarities.append(row["ast_similarity_vs_expert"])
        per_candidate.append(row)

    return {
        "task": task,
        "asr": total_success / total_trials,
        "top5_asr": sum(r for r, _ in top) / len(top),
        "cr_iter": sum(e["cr_iter"] for e in scored) / len(scored),
        "success_threshold": threshold,
        "max_iterations": max_iterations,
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


def metrics_from_campaign(campaign: CampaignResult, expert_text: str | None = None) -> dict:
    return metrics_payload(
        campaign.task,
        _candidate_entries(campaign),
        campaign.success_threshold,
        campaign.max_iterations,
        expert_text,
    )


def metrics_from_artifacts(run_dir) -> dict:
    """Recompute metrics.json from a persisted run directory. Matches the
    payload written at run time byte for byte. A campaign.json or
    trials.jsonl that does not match its schema raises ArtifactError."""
    run_dir = Path(run_dir)
    campaign_path = run_dir / "campaign.json"
    if not campaign_path.exists():
        raise EmptyCampaignError(f"no campaign.json under {run_dir}")
    meta = ArtifactError.read_json(campaign_path, str(campaign_path))
    try:
        task = ArtifactError.get(meta, "task", str)
        threshold = ArtifactError.get(meta, "success_threshold", float)
        cap = ArtifactError.get(meta, "max_iterations", int)
        expert_path = ArtifactError.get(meta, "expert_program", (str, NoneType), default=None)
        expert_text = ArtifactError.read_text(expert_path, "expert_program") if expert_path else None
        candidates = [
            (ArtifactError.get(cand, "candidate_id", int, f"candidates[{i}]"),
             ArtifactError.get(cand, "error", (str, NoneType), f"candidates[{i}]", default=None))
            for i, cand in enumerate(ArtifactError.get(meta, "candidates", list))
        ]
    except ArtifactError as exc:
        raise ArtifactError(str(campaign_path), str(exc)) from None

    entries = []
    for cid, error in candidates:
        cand_dir = run_dir / f"cand_{cid}"
        entry = {
            "candidate_id": cid,
            "error": error,
            "success_count": 0,
            "n_trials": 0,
            "cr_iter": 0,
            "converged": False,
            "final_program_text": None,
        }
        iter_dirs = sorted(
            (int(d.name[len("iter_"):]), d) for d in cand_dir.glob("iter_*")
            if d.name[len("iter_"):].isdigit() and d.is_dir()
        )
        if error is None and iter_dirs:
            converged_at = None
            for k, it_dir in iter_dirs:
                logs = load_trials(it_dir / "trials.jsonl")
                successes = sum(1 for log in logs if log.goal_met)
                if converged_at is None and logs and successes / len(logs) > threshold:
                    converged_at = k
                entry["success_count"] = successes
                entry["n_trials"] = len(logs)
            entry["converged"] = converged_at is not None
            entry["cr_iter"] = converged_at if converged_at is not None else cap
            program_path = iter_dirs[-1][1] / "program.prog"
            entry["final_program_text"] = ArtifactError.read_text(program_path, str(program_path))
        entries.append(entry)

    return metrics_payload(task, entries, threshold, cap, expert_text)


def dumps_metrics(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
