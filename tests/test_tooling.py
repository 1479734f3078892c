"""The benchmark's tracer (perfbench/tracer.py) wraps library functions by
name, so a rename in the library would otherwise show only as an
AttributeError in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    missing = [
        f"{module}.{name}"
        for module, name in tracer.TRACED
        if not callable(getattr(importlib.import_module(f"addcomb.{module}"), name, None))
    ]
    assert not missing


def test_campaigns_reach_the_traced_rank(monkeypatch):
    # the benchmark's linalg.rank_int_rows metrics read 0 if the campaigns
    # stop calling it by that name
    from addcomb import linalg
    from addcomb.search import run_suite

    calls = []
    rank = linalg.rank_int_rows

    def counting(rows, ncols):
        calls.append(ncols)
        return rank(rows, ncols)

    monkeypatch.setattr(linalg, "rank_int_rows", counting)
    run_suite("dim_bound", limit=8)
    assert len(calls) > 0
    calls.clear()
    run_suite("prop23_variant", limit=12)
    assert len(calls) > 0
