"""One workload in one fresh process: `setup` times the import and input
loading once; `measure` runs passes of the workload for a given time and
prints its raw figures as one JSON line. Run by perfbench/run.py from the
root of a checkout, with that checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from spans import Tracer  # noqa: E402


def _setup(workload, inputs: Path) -> float:
    t0 = time.perf_counter()
    wl.setup(workload, inputs)
    seconds = time.perf_counter() - t0
    import armloop

    src = (Path.cwd() / "src").resolve()
    if src not in Path(armloop.__file__).resolve().parents:
        raise SystemExit(f"armloop was imported from {armloop.__file__}, not from {src}")
    return seconds


class Passes:
    """Runs passes into numbered directories under `work`, deleting each
    after its artifacts are digested, and keeps the results."""

    def __init__(self, workload, inputs: Path, work: Path):
        from armloop import cli

        self.workload, self.inputs, self.work = workload, inputs, work
        self.main = cli.main
        self.results = []
        self.outcomes = None

    def run(self, main=None, probe: SpeedProbe | None = None) -> wl.PassResult:
        out = self.work / f"pass_{len(self.results)}"
        gc.collect()
        if probe is None:
            result = wl.run_pass(self.workload, self.inputs, out, main or self.main)
        else:
            with probe:
                result = wl.run_pass(self.workload, self.inputs, out, main or self.main)
            result.slowdown = probe.slowdown()
            for op in result.ops:
                op.slowdown = probe.slowdown(op.start, op.start + op.seconds)
        if self.outcomes is None and all(op.ok for op in result.ops):
            self.outcomes = wl.outcomes(self.workload, self.inputs, out)
        shutil.rmtree(out, ignore_errors=True)
        self.results.append(result)
        return result


def _check(results: list, reference: dict | None) -> tuple[int, int, list[str]]:
    """Attempted and failed operations over all passes. An operation fails
    on an exception, a non-zero exit, or an artifact digest that differs
    from the reference (when this seed has one) or from the first pass."""
    expected = reference or {op.key: op.digest for op in results[0].ops}
    attempted = failed = 0
    errors = []
    for i, result in enumerate(results):
        for op in result.ops:
            attempted += 1
            if not op.ok:
                failed += 1
                errors.append(f"pass {i} {op.key}: {op.error}")
            elif op.digest != expected.get(op.key):
                failed += 1
                errors.append(f"pass {i} {op.key}: artifact digest {op.digest} != {expected.get(op.key)}")
    return attempted, failed, errors


def _quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(results: list) -> dict:
    """End-to-end metrics; times are divided by the host slowdown measured
    while they ran: over the pass for pass times, over the campaign for
    campaign latencies."""
    walls = [r.wall_s / r.slowdown for r in results]
    latencies = [op.seconds / op.slowdown for r in results for op in r.ops]
    return {
        "wall_s": statistics.median(walls),
        "trials_per_s": statistics.median(r.trials / w for r, w in zip(results, walls)),
        "campaign_s_p50": _quantile(latencies, 50),
        "campaign_s_p90": _quantile(latencies, 90),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_wall_s": statistics.median(r.wall_s for r in results),
        "slowdowns": [r.slowdown for r in results],
        "campaigns": len(latencies),
    }


def measure(workload, inputs: Path, work: Path, seconds: float, trace: bool, reference: dict | None) -> dict:
    passes = Passes(workload, inputs, work)
    start = time.perf_counter()
    if not trace:
        probe = SpeedProbe()
        while not passes.results or time.perf_counter() - start < seconds:
            passes.run(probe=probe)
        report = end_to_end(passes.results)
    else:
        # Untraced and traced passes alternate, so both see the same host.
        tracer = Tracer()
        untraced, traced, layers = [], [], []
        while not traced or time.perf_counter() - start < seconds:
            untraced.append(passes.run().wall_s)
            tracer.install()
            try:
                tracer.reset()
                result = passes.run(tracer.wrap("cli.self", passes.main))
            finally:
                tracer.uninstall()
            traced.append(result.wall_s)
            layer = tracer.layer_metrics()
            layer["trace.unattributed_s"] = result.wall_s - tracer.top_level_s
            layers.append(layer)
        report = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
        report["trace.wall_s"] = statistics.median(traced)
        report["trace.untraced_wall_s"] = statistics.median(untraced)
        report["trace.overhead_s"] = report["trace.wall_s"] - report["trace.untraced_wall_s"]
        report["trace.passes"] = [{"wall_s": w, "layers": layer} for w, layer in zip(traced, layers)]
        report.update(passes.outcomes or {})
    attempted, failed, errors = _check(passes.results, reference)
    report.update(attempted=attempted, failed=failed, errors=errors[:20],
                  digests={op.key: op.digest for op in passes.results[0].ops})
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=["setup", "measure"])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--inputs", required=True, type=Path)
    p.add_argument("--work", type=Path)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", type=Path, help="JSON object of expected digests per operation")
    args = p.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    setup_s = _setup(workload, args.inputs)
    if args.mode == "setup":
        report = {"setup_s": setup_s}
    else:
        reference = json.loads(args.reference.read_text(encoding="utf-8")) if args.reference else None
        report = measure(workload, args.inputs, args.work, args.seconds, bool(args.trace), reference)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
