"""The benchmark reads the library by name: its tracer (perfbench/tracer.py)
wraps library functions by name and its check (perfbench/workloads.py)
accepts only the engine branches it lists, so a rename in the library would
otherwise show only in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = PERFBENCH / "workloads.py"


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


def test_engine_branches_are_benchmark_branches():
    # the benchmark's check refuses a trace whose branch is outside the
    # BRANCHES tuple of perfbench/workloads.py, read here without importing it
    from addcomb.engine import BRANCHES

    assigned = {
        target.id: node.value
        for node in ast.parse(WORKLOADS.read_text()).body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    assert BRANCHES <= set(ast.literal_eval(assigned["BRANCHES"]))


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
