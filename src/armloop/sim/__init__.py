"""Deterministic seeded execution of programs against task specs."""

from .executor import execute, run_trials
from .model import (
    SimConfig,
    Snapshot,
    SymbolicEvent,
    TrialLog,
    dump_trials,
    dumps_trial,
    load_trials,
    scene_from_state,
    scene_states,
)

__all__ = [
    "SimConfig",
    "Snapshot",
    "SymbolicEvent",
    "TrialLog",
    "dump_trials",
    "dumps_trial",
    "execute",
    "load_trials",
    "run_trials",
    "scene_from_state",
    "scene_states",
]
