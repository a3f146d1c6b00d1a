"""How strong `metrics --check` is, as exact counts: seeded single-byte
mutations of a run directory's files, each checked in-process.

Each count is pinned exactly. A change that makes `--check` refuse more
mutations raises its count, in a commit that says why; a change that makes
it refuse fewer fails here. Never lower a count to pass.
"""

import random

from armloop.cli import main

from conftest import TASKS_DIR, task_path

PRINTABLE = bytes(range(0x20, 0x7F))


def _mutate(rng: random.Random, data: bytes) -> bytes:
    """data with one printable ASCII byte flipped to another, deleted, or
    inserted."""
    kind = rng.choice(("flip", "delete", "insert"))
    if kind == "insert":
        at = rng.randrange(len(data) + 1)
        return data[:at] + bytes([rng.choice(PRINTABLE)]) + data[at:]
    at = rng.randrange(len(data))
    if kind == "delete":
        return data[:at] + data[at + 1:]
    byte = rng.choice([b for b in PRINTABLE if b != data[at]])
    return data[:at] + bytes([byte]) + data[at + 1:]


def _refused(run, paths, draws: int, seed: int, capsys) -> int:
    """How many of `draws` mutations of the files `--check` refuses: each
    mutates one of `paths`, runs `metrics RUN --check` and restores it. Every
    mutation ends in exit 0 (passed) or 2 (refused), never a traceback."""
    rng = random.Random(seed)
    refused = 0
    for _ in range(draws):
        path = rng.choice(paths)
        original = path.read_bytes()
        path.write_bytes(_mutate(rng, original))
        try:
            status = main(["metrics", str(run), "--check"])
        finally:
            path.write_bytes(original)
        capsys.readouterr()
        assert status in (0, 2)
        refused += status == 2
    return refused


def test_check_refuses_a_pinned_count_of_trials_jsonl_mutations(tmp_path, capsys):
    config = TASKS_DIR / "configs" / "hybrid.json"
    assert main(["loop", str(task_path("place_shoe")), "--config", str(config), "--out", str(tmp_path)]) == 0
    run = tmp_path / "place_shoe"
    assert main(["metrics", str(run), "--check"]) == 0
    trials = sorted(run.glob("cand_*/iter_*/trials.jsonl"))
    assert len(trials) == 5
    assert _refused(run, trials, 150, 40, capsys) == 105
