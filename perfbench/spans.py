"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces each layer function by a timing wrapper in the
module that calls it (`armloop.loop.run_trials`, `armloop.cli.select_trial`,
...), so no file of the program changes. A layer's self time is the
duration of its spans minus the time of the spans nested inside them. Count
hooks read the layers' return values; their own time is booked under
`trace.counters` so that no layer is charged for it.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import weakref
from collections import Counter, defaultdict

# Layer name -> the (module, attribute) bindings through which callers reach
# it. A dotted attribute names a method on a class.
LAYERS = {
    "cli.self": [],  # the benchmark's own call into armloop.cli.main
    "loop.self": [("armloop.cli", "run_campaign"), ("armloop.loop", "run_loop"),
                  ("armloop.cli", "load_campaign_config")],
    "loop.fuse": [("armloop.loop", "fuse")],
    "scene.load_task_spec": [("armloop.cli", "load_task_spec")],
    "sim.run_trials": [("armloop.loop", "run_trials"), ("armloop.cli", "run_trials")],
    "sim.dump_trials": [("armloop.loop", "dump_trials"), ("armloop.cli", "dump_trials")],
    "sim.load_trials": [("armloop.metrics", "load_trials")],
    "harness.select_trial": [("armloop.loop", "select_trial"), ("armloop.cli", "select_trial")],
    "harness.scores_report": [("armloop.loop", "scores_report"), ("armloop.cli", "scores_report")],
    "harness.collect_observations": [("armloop.loop", "collect_observations")],
    "instrument.insert_observations": [("armloop.loop", "insert_observations"),
                                       ("armloop.cli", "insert_observations")],
    "agents.build_synthesis_prompt": [("armloop.loop", "build_synthesis_prompt")],
    "agents.synthesize": [("armloop.agents.synthesizer", "Synthesizer.synthesize")],
    "agents.verify": [("armloop.agents.verifier", "Verifier.verify")],
    "dsl.parse": [("armloop.agents.synthesizer", "parse"), ("armloop.cli", "parse"),
                  ("armloop.metrics", "parse")],
    "dsl.validate": [("armloop.agents.synthesizer", "validate"), ("armloop.cli", "validate")],
    # metrics.py imports to_text inside a function, from the printer module.
    "dsl.to_text": [("armloop.loop", "to_text"), ("armloop.agents.prompts", "to_text"),
                    ("armloop.dsl.printer", "to_text")],
    "metrics.metrics_from_campaign": [("armloop.metrics", "metrics_from_campaign")],
    "metrics.metrics_from_artifacts": [("armloop.metrics", "metrics_from_artifacts")],
    "metrics.ast_similarity": [("armloop.metrics", "ast_similarity")],
}
COUNTERS = "trace.counters"


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.top_level_s = 0.0  # summed duration of spans with no parent
        self._open: list[list[float]] = []  # child time of each open span
        self._last_program = weakref.WeakKeyDictionary()
        self._restore: list = []

    # -- spans --------------------------------------------------------------

    def _close(self, name: str, seconds: float, child_s: float) -> None:
        self.self_s[name] += seconds - child_s
        self.calls[name] += 1
        if self._open:
            self._open[-1][0] += seconds
        else:
            self.top_level_s += seconds

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = time.perf_counter() - t0
                self._open.pop()
                self._close(name, seconds, frame[0])
            if hook is not None:
                t0 = time.perf_counter()
                hook(result, args)
                self._close(COUNTERS, time.perf_counter() - t0, 0.0)
            return result

        return traced

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.top_level_s = 0.0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "run_trials": self._count_trials,
            "dump_trials": self._count_dump,
            "select_trial": self._count_selection,
            "build_synthesis_prompt": self._count_prompt,
            "Synthesizer.synthesize": self._count_synthesis,
            "run_loop": self._count_loop,
        }
        for name, bindings in LAYERS.items():
            for module_name, attr in bindings:
                owner = importlib.import_module(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(name, original, hooks.get(attr)))
                self._restore.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, original = self._restore.pop()
            setattr(owner, leaf, original)

    # -- count hooks ----------------------------------------------------------

    def _count_trials(self, logs, args) -> None:
        c = self.counts
        c["sim.trials"] += len(logs)
        for log in logs:
            c["sim.events"] += len(log.events)
            c["sim.snapshots"] += len(log.snapshots)
            failure = log.failure_event
            if failure is not None:
                c[f"sim.failures.{failure.error_category}"] += 1

    def _count_dump(self, _result, args) -> None:
        self.counts["sim.trials_jsonl_bytes"] += os.path.getsize(args[1])

    def _count_selection(self, selection, args) -> None:
        self.counts["harness.scored_trials"] += len(selection.scores)
        self.counts["harness.divergent_trials"] += sum(1 for s in selection.scores if s.divergence > 0)

    def _count_prompt(self, prompt, args) -> None:
        self.counts["agents.prompt_bytes"] += len(prompt.encode("utf-8"))

    def _count_synthesis(self, program, args) -> None:
        synthesizer = args[0]
        previous = self._last_program.get(synthesizer)
        if previous is not None:
            self.counts["agents.repair_rounds"] += 1
            self.counts["agents.repairs_changed"] += program != previous
        self._last_program[synthesizer] = program

    def _count_loop(self, result, args) -> None:
        self.counts["loop.loops"] += 1
        self.counts["loop.iterations"] += len(result.iterations)
        self.counts["loop.converged"] += bool(result.converged)

    # -- report -----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of everything traced since the
        last reset, keyed by the names BENCHMARK.json declares."""
        from armloop.sim.model import ERROR_CATEGORIES

        s, c, calls = self.self_s, self.counts, self.calls
        sim_s = s["sim.run_trials"]
        m = {f"{name}_s": s[name] for name in [*LAYERS, COUNTERS]}
        m["sim.us_per_trial"] = sim_s / c["sim.trials"] * 1e6 if c["sim.trials"] else 0.0
        for key in ("sim.trials", "sim.events", "sim.snapshots", "sim.trials_jsonl_bytes",
                    "agents.prompt_bytes", "loop.iterations"):
            m[key] = c[key]
        for category in ERROR_CATEGORIES:
            if category != "none":
                m[f"sim.failures.{category}"] = c[f"sim.failures.{category}"]
        m["harness.divergent_trial_frac"] = _ratio(c["harness.divergent_trials"], c["harness.scored_trials"])
        m["metrics.ast_similarity_calls"] = calls["metrics.ast_similarity"]
        for name in ("agents.synthesize", "agents.verify", "agents.build_synthesis_prompt"):
            m[f"{name}_calls"] = calls[name]
        m["agents.repair_yield"] = _ratio(c["agents.repairs_changed"], c["agents.repair_rounds"])
        m["loop.converged_frac"] = _ratio(c["loop.converged"], c["loop.loops"])
        m["trace.spans"] = sum(calls.values())
        return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
