"""The traced benchmark run wraps functions by name; each name must resolve.

A renamed or deleted function listed in benchmarks/spans.py fails here
instead of crashing `benchmarks/run.py --trace 1`.
"""

import importlib.util
from pathlib import Path

import symbidisc  # noqa: F401  (registers every symbidisc.<layer> module spans looks up)

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = {**spans.LAYERS, "generate": spans.GENERATE}
    found = spans.targets(names)
    assert len(found) == sum(len(fns) for fns in names.values())
    assert all(callable(fn) for fn in found.values())
