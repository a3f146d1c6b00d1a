"""armloop: closed-loop synthesis, monitoring, and repair of dual-arm
tabletop manipulation programs in a deterministic seeded simulator."""

__version__ = "0.1.0"

import os

# `run` and `loop` fork, which wants one thread (Python 3.12 warns of more):
# no OpenBLAS pool, where armloop is imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .scene import TaskSpec, load_task_spec  # noqa: F401
from .dsl import parse, to_text, validate  # noqa: F401
from .sim import run_trials  # noqa: F401
