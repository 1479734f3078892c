"""Per-layer metrics from a traced run.

PER_LAYER is the full list, in the order BENCHMARK.json gives it; every
traced run prints every entry, with zero for a layer the workload never
calls.  Counts come from the first traced pass (each pass makes the same
calls), self times are medians over the traced passes, and the latency
percentiles come from the untraced passes.
"""

from __future__ import annotations

import statistics

from tracer import TRACED
from workloads import BRANCHES

SUITES = ("vosper", "dim_bound", "3k4", "prop23_variant")
# Latency percentiles need this many untraced prove_cover queries in the run.
MIN_QUERIES = 1000


def _spans() -> list[str]:
    out = []
    for mod, fn in TRACED:
        if (mod, fn) == ("search", "run_suite"):
            out += [f"search.run_suite.{s}" for s in SUITES]
        else:
            out.append(f"{mod}.{fn}")
    return out


SPANS = _spans()

# (name, unit, better)
PER_LAYER = (
    [(f"{s}.{field}", unit, "lower") for s in SPANS for field, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("search.classes", "count", "higher"),
        ("search.canonical_yield", "ratio", "higher"),
        ("spectral.best_half_window.peak_mb", "MiB", "lower"),
    ]
    + [
        (f"engine.branch.{b}", "count", "lower" if b in ("fallback", "diagnostic") else "higher")
        for b in BRANCHES
    ]
    + [
        ("engine.query_ms_p50", "ms", "lower"),
        ("engine.query_ms_p99", "ms", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def per_layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """plain and traced hold the reports of the untraced and traced passes."""
    spans = [p["spans"] for p in traced]
    calls, items = spans[0]["calls"], spans[0]["items"]
    values = {}
    for span in SPANS:
        values[f"{span}.calls"] = calls.get(span, 0)
        values[f"{span}.self_s"] = statistics.median(s["self_s"].get(span, 0.0) for s in spans)
    classes = items.get("search.enumerate_canonical", 0)
    tests = calls.get("residues.is_affine_canonical", 0)
    values["search.classes"] = classes
    values["search.canonical_yield"] = classes / tests if tests else 0.0
    values["spectral.best_half_window.peak_mb"] = traced[0]["best_half_window_peak_bytes"] / 2**20
    for b in BRANCHES:
        values[f"engine.branch.{b}"] = plain[0]["branches"].get(b, 0)
    latencies = [1000 * s for p in plain for kind, s, _ in p["ops"] if kind == "prove_cover"]
    enough = len(latencies) >= MIN_QUERIES
    values["engine.query_ms_p50"] = statistics.median(latencies) if enough else 0.0
    values["engine.query_ms_p99"] = (
        statistics.quantiles(latencies, n=100, method="inclusive")[98] if enough else 0.0
    )
    values["trace.overhead_s"] = statistics.median(p["seconds"] for p in traced) - statistics.median(
        p["seconds"] for p in plain
    )
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
