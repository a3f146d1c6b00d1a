"""Shared fixtures: bundled task access and a seeded program generator."""

from __future__ import annotations

import collections
import dataclasses
import itertools
import random
from functools import lru_cache
from operator import attrgetter, ne
from pathlib import Path

import pytest

from armloop.dsl.ast import (
    API_SIGNATURES,
    Args,
    CallStmt,
    FpRef,
    ParallelStmt,
    PoseLit,
    Program,
    SubgoalBlock,
)
from armloop.metrics import LabeledTree, _ted, flatten
from armloop.scene import load_task_spec
from armloop.sim import run_trials, trial_texts
from armloop.sim.model import RECORD_TYPES, TrialLog, TrialSummary

TASKS_DIR = Path(__file__).resolve().parents[1] / "src" / "armloop" / "tasks"

TASK_NAMES = [
    "beat_block_hammer",
    "handover_block",
    "pick_diverse_bottles",
    "pick_dual_bottles_easy",
    "place_container_plate",
    "place_dual_shoes",
    "place_empty_cup",
    "place_shoe",
    "stack_blocks_three",
    "stack_blocks_two",
]


def task_path(name: str) -> Path:
    return TASKS_DIR / f"{name}.task.json"


def program_path(task: str, kind: str) -> Path:
    return TASKS_DIR / task / f"{kind}.prog"


def one_trial(program, spec, seed: int, noise_scale: float = 0.0, max_steps: int = 200):
    """The trial of a batch of one; without noise and with a 200-step budget unless given."""
    return run_trials(program, spec, 1, seed, noise_scale, max_steps)[0]


def tree_edit_distance(a: LabeledTree, b: LabeledTree) -> int:
    """Unit-cost ordered TED (insert = delete = 1, relabel = 1 where the
    labels differ) of two labeled trees, by the kernel ast_similarity runs."""
    return _ted(flatten(a), flatten(b))


def sequence_edit_distance(a, b, weight=lambda _: 1, substitute=ne) -> int:
    """The least cost of editing sequence a into b (deleting or inserting x
    costs weight(x), putting y in x's place substitute(x, y)) by the plain
    recursion over prefixes: no trimming, no rolling rows."""
    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return sum(weight(y) for y in b[:j])
        if j == 0:
            return sum(weight(x) for x in a[:i])
        return min(d(i - 1, j) + weight(a[i - 1]), d(i, j - 1) + weight(b[j - 1]),
                   d(i - 1, j - 1) + substitute(a[i - 1], b[j - 1]))

    return d(len(a), len(b))


def majority_signature(batch: list[TrialLog]) -> list[str]:
    """Per position, the event signature most of the batch's trials have
    there, a trial that has already ended voting for none; where none has
    the most votes alone, the position is left out. A tie among signatures
    goes to the least."""
    traces = [[ev.signature() for ev in log.events] for log in batch]
    majority = []
    for pos in range(max(map(len, traces), default=0)):
        votes = collections.Counter(trace[pos] if pos < len(trace) else None for trace in traces)
        most = max(votes.values())
        tied = sorted(sig for sig, count in votes.items() if count == most and sig is not None)
        majority += tied[:1]
    return majority


def trace_divergence(log: TrialLog, batch: list[TrialLog]) -> float:
    """A trial's raw divergence by its definition: the unit-cost edit
    distance from its event signatures to the batch majority, over the
    longer one's length (0 for two empty traces)."""
    mine = [ev.signature() for ev in log.events]
    majority = majority_signature(batch)
    longest = max(len(mine), len(majority))
    return sequence_edit_distance(mine, majority) / longest if longest else 0.0


def trial_text(log: TrialLog) -> str:
    """One trial's JSONL text, written alone through the trial writer."""
    return "".join(trial_texts([log]))


def trial_records(log: TrialLog):
    """The records of one trial as dicts, which the trial writer's lines
    must encode: {"type", "trial_index", <the record class's fields in
    declaration order>} for each event and snapshot by step counter (events
    first on ties), then the summary. A snapshot's scene is the JSON text
    its line holds."""
    kinds = {cls: kind for kind, cls in RECORD_TYPES.items()}
    summary = TrialSummary(log.goal_met, log.seed, len(log.events))
    for rec in (*sorted(log.events + log.snapshots, key=attrgetter("t")), summary):
        record = {"type": kinds[type(rec)], "trial_index": log.trial_index}
        for field in dataclasses.fields(rec):
            record[field.name] = getattr(rec, field.name)
        yield record


@pytest.fixture(scope="session")
def place_shoe_spec():
    return load_task_spec(task_path("place_shoe"))


@pytest.fixture()
def tasks_dir():
    return TASKS_DIR


# --- random program generator -------------------------------------------------

_ACTORS = ("shoe", "block", "mug", "hammer", "bottle", "plate")
_WORDS = (
    "grasp", "lift", "place", "align", "settle", "push", "hold",
    "swap", "raise", "lower", "slide", "park",
)


def _random_value(rng: random.Random, kind, name: str):
    if kind == "num":
        choice = rng.random()
        if choice < 0.3:
            return float(rng.choice((0.0, 0.1, 0.02, 1.0)))
        return round(rng.uniform(-0.5, 0.5), rng.randint(1, 4))
    if kind == "arm":
        return rng.choice(("left", "right"))
    if kind == "ident":
        return rng.choice(_ACTORS)
    if kind == "string":
        base = "_".join(rng.sample(_WORDS, rng.randint(1, 2)))
        if rng.random() < 0.1:
            base += ' with "quotes" and \\slash'
        return base + str(rng.randint(0, 99))
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "int_or_auto":
        return rng.choice(("auto", rng.randint(0, 3)))
    if kind == "int_or_none":
        return rng.choice(("none", rng.randint(0, 3)))
    if kind == "target":
        if rng.random() < 0.6:
            return FpRef(rng.choice(_ACTORS), rng.randint(0, 3))
        return PoseLit(tuple(round(rng.uniform(-1, 1), 3) for _ in range(7)))
    if isinstance(kind, tuple) and kind[0] == "enum":
        return rng.choice(kind[1])
    raise AssertionError(kind)


def random_call(rng: random.Random, name: str | None = None, arm: str | None = None, stmt_id: int = 0) -> CallStmt:
    name = name or rng.choice(list(API_SIGNATURES))
    args = {}
    for param in API_SIGNATURES[name]:
        if param.required or rng.random() < 0.5:
            value = _random_value(rng, param.kind, param.name)
        else:
            value = param.default
        if arm is not None and param.name == "arm":
            value = arm
        args[param.name] = value
    return CallStmt(name, Args(args), stmt_id)


def random_program(rng: random.Random, max_subgoals: int = 3, max_stmts: int = 5) -> Program:
    """A program whose statements get dense ids in source order as they are
    drawn, a parallel block's before its branches', as parse gives them."""
    ids = itertools.count(1)
    subgoals = []
    for _ in range(rng.randint(1, max_subgoals)):
        stmts = []
        for _ in range(rng.randint(1, max_stmts)):
            if rng.random() < 0.15:
                stmt_id = next(ids)
                left = tuple(random_call(rng, arm="left", stmt_id=next(ids)) for _ in range(rng.randint(1, 2)))
                right = tuple(random_call(rng, arm="right", stmt_id=next(ids)) for _ in range(rng.randint(1, 2)))
                stmts.append(ParallelStmt(left, right, stmt_id))
            else:
                stmts.append(random_call(rng, stmt_id=next(ids)))
        description = " ".join(rng.sample(_WORDS, rng.randint(1, 3)))
        if rng.random() < 0.1:
            description += ' "tight" \\ case #2'
        subgoals.append(SubgoalBlock(description, tuple(stmts)))
    return Program(rng.choice(_ACTORS) + "_task", tuple(subgoals))


def strip_observes(program: Program) -> Program:
    """The reference for the instrumentation contract: the program without
    its observe statements (parallel branches included), ids and lines kept."""
    def kept(stmts):
        return tuple(s for s in stmts if not (isinstance(s, CallStmt) and s.name == "observe"))

    subgoals = []
    for sg in program.subgoals:
        stmts = tuple(dataclasses.replace(s, left=kept(s.left), right=kept(s.right)) if isinstance(s, ParallelStmt)
                      else s for s in kept(sg.statements))
        subgoals.append(SubgoalBlock(sg.description, stmts))
    return Program(program.task_name, tuple(subgoals))
