"""Self-check of the armloop benchmark. Run from the root of a checkout:

    python3 perfbench/selfcheck.py

On tiny inputs (one task's three campaigns at noise 1, and a 20-trial run)
it runs the worker untraced and traced and checks that

1. BENCHMARK.json declares every metric with a name, a unit and a direction;
2. every metric run.py would print is declared, and every declared
   metric is printed, for both modes and both workload kinds;
3. in each traced pass, the per-layer self times plus the unattributed
   remainder add up to the traced wall time.

Exit code 0 when all checks hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# Per-layer metrics in seconds that are not self times of a layer.
NOT_SELF_TIMES = {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}


def _tiny_inputs(workload: wl.Workload, inputs: Path) -> None:
    wl.make_inputs(workload, 0, inputs)
    if workload.kind == "ablation":
        wl.write_json(inputs / "campaigns.json", [["place_shoe", mode] for mode in wl.MODES])
    else:
        run_args = wl.read_json(inputs / "run.json")
        wl.write_json(inputs / "run.json", dict(run_args, trials=20))


def check_declarations(bench: dict) -> list[str]:
    problems = []
    names = set()
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            expected = {"name", "unit", "better"} | ({"bound"} if key == "end_to_end" else set())
            if set(m) != expected:
                problems.append(f"{key} entry {m} must have exactly the keys {sorted(expected)}")
            if not m.get("unit") or m.get("better") not in ("higher", "lower"):
                problems.append(f"{key} metric {m.get('name')} needs a unit and a direction")
            if m.get("name") in names:
                problems.append(f"metric {m.get('name')} is declared twice")
            names.add(m.get("name"))
    return problems


def check_printed(report: dict, trace: bool, label: str) -> list[str]:
    if trace:
        report["error_rate"] = report["failed"] / report["attempted"]
    else:
        report["setup_s"] = 0.1  # measured by run.py in separate processes
    _, missing, undeclared = run.assemble(report, run.declared(trace))
    return ([f"{label}: declared metric {n} not printed" for n in missing]
            + [f"{label}: printed metric {n} not declared" for n in undeclared])


def check_self_times(report: dict, label: str) -> list[str]:
    units = run.declared(True)
    problems = []
    for i, traced in enumerate(report["trace.passes"]):
        layers = traced["layers"]
        self_times = {n: v for n, v in layers.items()
                      if units.get(n) == "s" and n not in NOT_SELF_TIMES}
        negative = [n for n, v in self_times.items() if v < -1e-9]
        total = sum(self_times.values())
        if negative:
            problems.append(f"{label} pass {i}: negative self time in {negative}")
        if not math.isclose(total, traced["wall_s"], rel_tol=1e-9, abs_tol=1e-6):
            problems.append(f"{label} pass {i}: self times + unattributed = {total:.9f} s, "
                            f"traced wall = {traced['wall_s']:.9f} s")
    return problems


def main() -> int:
    if not Path("src/armloop/__init__.py").is_file():
        print("run from the root of an armloop checkout", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_declarations(bench)
    with wl.work_dir("selfcheck") as work:
        for name in ("ablation_noise1", "run_n1000"):
            inputs = work / name / "inputs"
            _tiny_inputs(wl.WORKLOADS[name], inputs)
            for trace in (0, 1):
                label = f"{name} trace {trace}"
                report = run._child("measure", ["--workload", name, "--inputs", str(inputs),
                                                "--work", str(work / name / "out"), "--seconds", "0",
                                                "--trace", str(trace)], time.monotonic() + run.TIME_LIMIT_S)
                if report["failed"]:
                    problems.append(f"{label}: {report['errors']}")
                if trace:
                    problems += check_self_times(report, label)
                problems += check_printed(report, bool(trace), label)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAILED" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
