"""armloop: closed-loop synthesis, monitoring, and repair of dual-arm
tabletop manipulation programs in a deterministic seeded simulator."""

__version__ = "0.1.0"

from .scene import TaskSpec, load_task_spec  # noqa: F401
from .dsl import parse, to_text, validate  # noqa: F401
from .sim import run_trials  # noqa: F401
