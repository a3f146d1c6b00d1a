"""Host speed probe for the end-to-end timings.

On a shared 2-core host (Intel Xeon, Python 3.11.7, NumPy 2.4) the same
pass of the same workload takes anywhere from 5 s to 10 s depending on the
minute, and the slow spells last longer than a run, so medians over a run's
passes still spread by 15-30 % between runs. To compare commits on such a
host, every untraced pass is also timed against a fixed probe that runs
every 0.1 s from a SIGALRM handler on the same thread (no second thread or
process competes for a core). The probe does the two kinds of work that
dominate armloop - arithmetic on small NumPy vectors and JSON round trips of
small records - but calls nothing of armloop, so a change to the program
cannot move it.

`slowdown()` is the geometric mean, over the two probe kinds, of the median
probe time in the pass over its reference time (about its time on that host
in a quiet spell). Dividing a pass's wall time by it gives seconds at that
reference speed. The probe costs 1-2 % of a pass.
"""

from __future__ import annotations

import json
import math
import signal
import statistics
import time

INTERVAL_S = 0.1
LOCAL_SAMPLES = 3
REFERENCE_S = {"vector": 1.0e-3, "json": 2.0e-4}
_RECORDS = [
    {"stmt_id": i, "op_name": "grasp_actor", "args": {"arm": "left", "pre_grasp_dis": 0.1 * i},
     "outcome": "success" if i % 3 else "failure", "t": i}
    for i in range(40)
]


class SpeedProbe:
    """Context manager that samples the probe while the body runs."""

    def __init__(self):
        import numpy as np  # imported here so that set-up timing includes NumPy

        self._v = np.array([0.1, 0.2, 0.3])
        self._np = np
        self.samples: dict[str, list[float]] = {kind: [] for kind in REFERENCE_S}
        self.times: list[float] = []  # perf_counter() at the start of each sample
        self._previous = None

    def _vector(self) -> None:
        np, a, v = self._np, self._v, self._v
        for _ in range(40):
            a = a * 1.0001 + v
            np.linalg.norm(a)
            np.cross(a, v)

    def _json(self) -> None:
        json.loads(json.dumps(_RECORDS))

    def sample(self, *_signal_args) -> None:
        self.times.append(time.perf_counter())
        for kind, probe in (("vector", self._vector), ("json", self._json)):
            t0 = time.perf_counter()
            probe()
            self.samples[kind].append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        for samples in self.samples.values():
            samples.clear()
        self.times.clear()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples["json"]:
            self.sample()  # a body shorter than one interval

    def slowdown(self, start: float | None = None, end: float | None = None) -> float:
        """Slowdown over the whole body, or over the samples taken between
        perf_counter() readings `start` and `end` (at least the nearest
        LOCAL_SAMPLES of them, for spans shorter than that many intervals)."""
        picked = range(len(self.times))
        if start is not None:
            picked = [i for i, t in enumerate(self.times) if start <= t <= end]
            if len(picked) < LOCAL_SAMPLES:
                middle = (start + end) / 2
                picked = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - middle))[:LOCAL_SAMPLES]
        ratios = [statistics.median(self.samples[kind][i] for i in picked) / ref
                  for kind, ref in REFERENCE_S.items()]
        return math.prod(ratios) ** (1 / len(ratios))
