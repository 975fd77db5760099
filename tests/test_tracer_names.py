"""Every eddymh name the benchmark's tracer patches exists.

``perfbench/tracer.py`` replaces these names with timing wrappers; a name
that moved or was renamed would make the traced benchmark fail or lose
coverage, so the tables are checked against the package here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = _tracer()
    for module, attr, _ in tracer.FUNCTION_SPANS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for module, cls, attr, _ in tracer.METHOD_SPANS:
        owner = getattr(importlib.import_module(module), cls)
        assert attr in vars(owner), (module, cls, attr)
    for module, _ in tracer.SPLU_COUNTERS:
        assert callable(getattr(importlib.import_module(module), "splu", None)), module
