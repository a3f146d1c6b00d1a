"""armloop benchmark: entry point.

    python3 perfbench/run.py --workload ablation_noise0 --seed 0 --seconds 20 --trace 0

Run from the root of an armloop checkout. The workload's inputs are made
from --seed, then each measurement runs in a fresh child process
(perfbench/worker.py) with the checkout's src/ on PYTHONPATH:

- --trace 0: set-up is timed in SETUP_PROBES separate processes (median),
  then one process runs untraced passes for --seconds and reports the
  end-to-end metrics;
- --trace 1: one process alternates untraced and traced passes for
  --seconds and reports per-layer self times and counts from the traced
  ones, plus the tracing overhead.

Every pass's artifacts are digested and compared with the reference
digests recorded for this seed (perfbench/reference_digests.json), or, for
a seed without references, with the first pass. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics that
BENCHMARK.json declares for the mode, each with its unit. The exit code is 0
only when every operation succeeded and every declared metric was measured.

--record runs one pass and stores its digests as the reference for the
seed; use it only when a change is meant to alter the artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference_digests.json"
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0


def _child(mode: str, args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh interpreter and return its JSON report.
    The child is killed and reaped if it outlives the deadline."""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), mode, *args],
        env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Keys of a worker report that are raw data, not metrics.
RAW_KEYS = {"attempted", "failed", "errors", "digests", "raw_setup_s", "raw_wall_s", "slowdowns", "campaigns", "trace.passes"}


def declared(trace: bool, bench_file: Path = Path("BENCHMARK.json")) -> dict[str, str]:
    """Metric name -> unit of the metrics BENCHMARK.json declares for the mode."""
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def assemble(report: dict, units: dict[str, str]) -> tuple[dict, list[str], list[str]]:
    """The declared metrics of a report with their units, plus the names of
    declared metrics the report lacks and of measured ones not declared."""
    measured = set(report) - RAW_KEYS
    metrics = {name: {"value": report[name], "unit": unit} for name, unit in units.items() if name in measured}
    return metrics, sorted(set(units) - measured), sorted(measured - set(units))


def _load_references() -> dict:
    if REFERENCE_FILE.exists():
        return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    return {}


def _measure(workload, args, work: Path, reference: dict | None, deadline: float) -> tuple[dict, list]:
    inputs = work / "inputs"
    wl.make_inputs(workload, args.seed, inputs)
    common = ["--workload", workload.name, "--inputs", str(inputs)]
    measure_args = [*common, "--work", str(work / "out"), "--trace", str(args.trace),
                    "--seconds", str(0 if args.record else args.seconds)]
    if reference and not args.record:
        (work / "reference.json").write_text(json.dumps(reference), encoding="utf-8")
        measure_args += ["--reference", str(work / "reference.json")]
    setup = []
    if not args.trace and not args.record:
        _child("setup", common, deadline)  # warm-up: file cache, and __pycache__ if written
        setup = [_child("setup", common, deadline) for _ in range(SETUP_PROBES)]
    return _child("measure", measure_args, deadline), setup


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="armloop benchmark")
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record", action="store_true",
                   help="store this seed's artifact digests as its reference")
    args = p.parse_args(argv)

    if not Path("src/armloop/__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("error: run from the root of an armloop checkout (src/armloop and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = wl.WORKLOADS[args.workload]
    references = _load_references()
    reference = references.get(workload.name, {}).get(str(args.seed))

    with wl.work_dir(f"{workload.name}-{args.seed}") as work:
        try:
            report, setup = _measure(workload, args, work, reference, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.record:
        if report["failed"]:
            print("error: not recording a pass that failed:\n" + "\n".join(report["errors"]), file=sys.stderr)
            return 1
        references.setdefault(workload.name, {})[str(args.seed)] = report["digests"]
        REFERENCE_FILE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(report['digests'])} digests for {workload.name} seed {args.seed}", file=sys.stderr)
        return 0

    if args.trace:
        report["error_rate"] = report["failed"] / report["attempted"]
    else:
        # The set-up probes run seconds before the passes, well inside one
        # spell of host speed, so the passes' slowdown scales them too.
        report["raw_setup_s"] = statistics.median(s["setup_s"] for s in setup)
        report["setup_s"] = report["raw_setup_s"] / statistics.median(report["slowdowns"])
    metrics, missing, undeclared = assemble(report, declared(bool(args.trace)))

    for error in report["errors"]:
        print(f"FAILED {error}", file=sys.stderr)
    for name in missing:
        print(f"MISSING metric {name}", file=sys.stderr)
    for name in undeclared:
        print(f"UNDECLARED metric {name} (not printed)", file=sys.stderr)
    reference_note = "reference digests" if reference else "first-pass digests (no reference for this seed)"
    print(f"{workload.name} seed {args.seed}: {report['attempted']} operations, {report['failed']} failed, "
          f"checked against {reference_note}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    if "slowdowns" in report:
        print(f"  raw medians: set-up {report['raw_setup_s']:.4f} s, pass wall {report['raw_wall_s']:.4f} s; "
              "host slowdown per pass "
              + " ".join(f"{x:.3f}" for x in report["slowdowns"]), file=sys.stderr)

    correct = report["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
