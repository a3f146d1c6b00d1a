"""Deterministic seeded execution of programs against task specs."""

from .executor import run_trials
from .model import (
    Snapshot,
    SymbolicEvent,
    TrialLog,
    dump_trials,
    dumps_trial,
    load_trials,
    scene_from_state,
    trial_texts,
)

__all__ = [
    "Snapshot",
    "SymbolicEvent",
    "TrialLog",
    "dump_trials",
    "dumps_trial",
    "load_trials",
    "run_trials",
    "scene_from_state",
    "trial_texts",
]
