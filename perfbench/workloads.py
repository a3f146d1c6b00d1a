"""Workload definitions of the armloop benchmark.

A workload turns a seed into input files (`make_inputs`), loads them once
to time set-up (`setup`), and runs one pass over them through the CLI entry
point (`run_pass`), exactly as `armloop loop` + `armloop metrics --check`
or `armloop run` would. Nothing here imports armloop at module level, so
the set-up timer in the worker covers the whole package import.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

TASK_DIR = Path("src/armloop/tasks")
MODES = ("one_shot", "symbolic", "hybrid")
# Candidate seeds of a campaign span base_seed .. base_seed + 150, and a
# 1000-trial run spans seed .. seed + 999; this stride keeps the blocks of
# different benchmark seeds apart.
SEED_STRIDE = 1000
RUN_TASK = "stack_blocks_three"
RUN_TRIALS = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "ablation" | "run"
    noise_scale: float


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ablation_noise0", "ablation", 0.0),
        Workload("ablation_noise1", "ablation", 1.0),
        Workload("run_n1000", "run", 1.0),
    )
}


WORK_ROOT = Path(".perfbench_work")


@contextlib.contextmanager
def work_dir(label: str):
    """A scratch directory inside the checkout, removed on exit together
    with its parent when that is left empty."""
    path = WORK_ROOT / f"{label}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()


def tasks() -> list[str]:
    return sorted(p.name[: -len(".task.json")] for p in TASK_DIR.glob("*.task.json"))


def task_file(task: str) -> str:
    return str(TASK_DIR / f"{task}.task.json")


def make_inputs(workload: Workload, seed: int, inputs_dir: Path) -> None:
    """Write the workload's inputs for `seed`: the (task, mode) campaigns to
    run and per-mode campaign configs (the bundled ones with base_seed and
    noise_scale replaced), or the arguments of the 1000-trial run."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if workload.kind == "ablation":
        for mode in MODES:
            raw = json.loads((TASK_DIR / "configs" / f"{mode}.json").read_text(encoding="utf-8"))
            raw["base_seed"] = seed * SEED_STRIDE
            raw["noise_scale"] = workload.noise_scale
            write_json(inputs_dir / f"{mode}.json", raw)
        write_json(inputs_dir / "campaigns.json", [[task, mode] for task in tasks() for mode in MODES])
    else:
        write_json(inputs_dir / "run.json", {
            "task_file": task_file(RUN_TASK),
            "program_file": str(TASK_DIR / RUN_TASK / "correct.prog"),
            "trials": RUN_TRIALS,
            "seed": seed * SEED_STRIDE,
            "noise_scale": workload.noise_scale,
        })


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def setup(workload: Workload, inputs_dir: Path) -> None:
    """Import the package and load every task spec and config the workload
    uses, so a malformed input fails before any timing starts."""
    from armloop import cli  # noqa: F401  (the whole CLI import graph)
    from armloop.dsl import parse
    from armloop.loop import load_campaign_config
    from armloop.scene import load_task_spec

    if workload.kind == "ablation":
        specs = {}
        for task, mode in read_json(inputs_dir / "campaigns.json"):
            if task not in specs:
                specs[task] = load_task_spec(task_file(task))
            load_campaign_config(inputs_dir / f"{mode}.json", task_file(task), specs[task])
    else:
        run = read_json(inputs_dir / "run.json")
        load_task_spec(run["task_file"])
        parse(Path(run["program_file"]).read_text(encoding="utf-8"))


@dataclass
class Op:
    """One campaign (loop + metrics --check) or one `run` invocation."""

    key: str
    seconds: float
    ok: bool
    error: str = ""
    start: float = 0.0  # perf_counter() when the operation began
    slowdown: float = 1.0  # host slowdown while it ran (hostspeed.SpeedProbe)
    digest: str = ""
    trials: int = 0


@dataclass
class PassResult:
    wall_s: float
    ops: list = field(default_factory=list)
    slowdown: float = 1.0  # host slowdown measured by hostspeed.SpeedProbe

    @property
    def trials(self) -> int:
        return sum(op.trials for op in self.ops)


def _call(main, argv: list[str]) -> tuple[int, str]:
    """Call the CLI entry point with its output captured; an exception is
    reported as exit code -1 with its message."""
    err = io.StringIO()
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # counted as a failed operation, never fatal
            return -1, f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue().strip()


def run_pass(workload: Workload, inputs_dir: Path, out_dir: Path, main) -> PassResult:
    """One pass of the workload through `main` (armloop.cli.main, possibly
    traced). Only the CLI calls are timed; digests are taken afterwards."""
    ops = []
    start = time.perf_counter()
    if workload.kind == "ablation":
        for task, mode in read_json(inputs_dir / "campaigns.json"):
            t0 = time.perf_counter()
            rc, err = _call(main, ["loop", task_file(task), "--config", str(inputs_dir / f"{mode}.json"),
                                   "--out", str(out_dir / mode)])
            if rc == 0:
                rc, err = _call(main, ["metrics", str(out_dir / mode / task), "--check"])
                err = "" if rc == 0 else err
            ops.append(Op(f"{mode}/{task}", time.perf_counter() - t0, rc == 0, err, t0))
    else:
        run = read_json(inputs_dir / "run.json")
        t0 = time.perf_counter()
        rc, err = _call(main, ["run", run["task_file"], run["program_file"],
                               "--trials", str(run["trials"]), "--seed", str(run["seed"]),
                               "--noise-scale", str(run["noise_scale"]), "--out", str(out_dir)])
        # Exit 1 means the run completed but most trials missed the goal.
        ops.append(Op("run", time.perf_counter() - t0, rc in (0, 1), err if rc not in (0, 1) else "", t0))
    wall = time.perf_counter() - start
    for op in ops:
        op_dir = out_dir if op.key == "run" else out_dir / op.key
        if op.ok:
            op.digest = artifact_digest(op_dir)
            op.trials = RUN_TRIALS if op.key == "run" else _campaign_trials(op_dir)
    return PassResult(wall, ops)


def artifact_digest(run_dir: Path) -> str:
    """SHA-256 over every artifact under run_dir, keyed by relative path;
    campaign.json is hashed without its `created_at` timestamp."""
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "campaign.json":
            meta = json.loads(data)
            meta.pop("created_at", None)
            data = json.dumps(meta, indent=2).encode()
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(data).digest())
    return h.hexdigest()[:16]


def _campaign_trials(campaign_dir: Path) -> int:
    meta = read_json(campaign_dir / "campaign.json")
    iterations = sum(1 for _ in campaign_dir.glob("cand_*/iter_*"))
    return iterations * int(meta["n_trials"])


def outcomes(workload: Workload, inputs_dir: Path, out_dir: Path) -> dict:
    """The paper's experiment outcomes of one ablation pass: ASR per mode
    and CR-Iter of hybrid, each a macro mean over the tasks. A run has no
    campaign of any mode; its outcomes read 0."""
    result = {f"asr.{mode}": 0.0 for mode in MODES} | {"cr_iter.hybrid": 0.0}
    if workload.kind != "ablation":
        return result
    for mode in MODES:
        payloads = [read_json(out_dir / m / task / "metrics.json")
                    for task, m in read_json(inputs_dir / "campaigns.json") if m == mode]
        if payloads:
            result[f"asr.{mode}"] = sum(p["asr"] for p in payloads) / len(payloads)
            if mode == "hybrid":
                result["cr_iter.hybrid"] = sum(p["cr_iter"] for p in payloads) / len(payloads)
    return result
