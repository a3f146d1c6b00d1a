"""The traced benchmark (perfbench/spans.py) times each layer by replacing
the functions it names, (module, attribute), with timing wrappers. A
refactor that renames or drops one of them breaks the traced run; this
test shows it without running the benchmark."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    bindings = [binding for layer in _spans().LAYERS.values() for binding in layer]
    assert bindings
    missing = []
    for module_name, attr in bindings:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert not missing
