#!/usr/bin/env python3
"""addcomb benchmark: one workload per invocation, one JSON line of results.

    python3 perfbench/run.py --workload hunt --seed 1 --seconds 28 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  Each timed pass runs in a fresh process, as a researcher's campaign
would: it imports the library, builds the seeded inputs, runs the pass and
reports.  Passes repeat for about --seconds (a pass is never cut short, and
at least one runs).  The first pass's process then checks every output
against perfbench/oracles.py, and every later pass must return the same
results.  --trace 0 prints the end-to-end metrics; --trace 1 alternates
untraced and traced passes and prints the per-layer metrics.  The last
line of standard output is the JSON result; progress goes to standard error,
and perfbench/out/ keeps a record of each run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["hunt", "engine", "large-p", "campaigns"]


def _load_library() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "addcomb", "__init__.py")):
        sys.exit(f"error: no addcomb sources under {os.path.join(ROOT, 'src')}")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]


def _parse() -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: run one pass in this process ("plain", "check" or "traced")
    ap.add_argument("--pass", dest="one_pass", choices=["plain", "check", "traced"],
                    help=argparse.SUPPRESS)
    return ap.parse_args()


# --- one pass, in a fresh process ----------------------------------------------


def _fingerprint(op) -> str:
    """The result of an operation, less its timing and its call parameters
    (a traced hunt passes threads=1)."""
    if op.error is not None:
        return op.error
    data = op.result.to_json() if hasattr(op.result, "to_json") else op.result
    if isinstance(data, dict):
        data = {k: v for k, v in data.items() if k not in ("wall_time", "parameters")}
    return repr(data)


def _peak_rss_mib() -> float:
    """ru_maxrss (KiB on Linux) of this process plus its largest waited-for
    child, i.e. any worker pool the workload started."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def _run_one_pass(args) -> dict:
    _load_library()
    import workloads
    from addcomb import spectral
    from tracer import Tracer, peak_bytes

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    tracer = Tracer() if args.one_pass == "traced" else None
    timed_from = time.monotonic()
    if tracer:
        with tracer:
            ops = workload.run(inputs, traced=True)
    else:
        ops = workload.run(inputs, traced=False)
    seconds = time.monotonic() - timed_from
    out = {
        "timed_from": timed_from,
        "seconds": seconds,
        "peak_rss_mb": _peak_rss_mib(),
        "ops": [(op.kind, op.seconds, op.error) for op in ops],
        "digest": hashlib.sha256("\n".join(map(_fingerprint, ops)).encode()).hexdigest(),
        "branches": workloads.branch_counts(ops),
    }
    if args.one_pass == "check":
        started = time.monotonic()
        out["problems"] = workload.check(inputs, ops, args.seed)
        out["check_s"] = time.monotonic() - started
    if tracer:
        out["spans"] = {"calls": tracer.calls, "self_s": tracer.self_s, "items": tracer.items}
        # measured after the timed pass: tracemalloc slows what it watches
        largest = tracer.largest.get("spectral.best_half_window")
        out["best_half_window_peak_bytes"] = (
            peak_bytes(spectral.best_half_window, largest) if largest is not None else 0
        )
    return out


# --- the run: repeated passes, then the metrics --------------------------------


def _spawn(args, kind: str) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--pass", kind]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"error: the {kind} pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["timed_from"] - started
    return result


def _passes(args):
    """Run whole rounds (an untraced pass, then a traced one when tracing)
    until the next round would end past --seconds.  The first pass's checks
    do not count toward --seconds."""
    plain, traced = [], []
    elapsed = 0.0
    while True:
        round_started = time.monotonic()
        plain.append(_spawn(args, "plain" if plain else "check"))
        if args.trace:
            traced.append(_spawn(args, "traced"))
        round_s = time.monotonic() - round_started - plain[-1].get("check_s", 0.0)
        elapsed += round_s
        if elapsed + round_s > args.seconds:
            return plain, traced


def median_pass_s(passes: list[dict]) -> float:
    """Wall time of one pass, each operation at its median among the
    passes: CPU speed on a shared machine moves between fast and slow
    stretches that last seconds to minutes, and a call's median time is
    steadier from run to run than its fastest, which depends on whether a
    run happened to meet a fast stretch."""
    return sum(statistics.median(p["ops"][i][1] for p in passes) for i in range(len(passes[0]["ops"])))


def _write_record(args, result, plain, traced) -> None:
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump({"result": result, "passes": plain, "traced_passes": traced}, fh, sort_keys=True)
        fh.write("\n")


def main() -> int:
    args = _parse()
    if args.one_pass:
        print(json.dumps(_run_one_pass(args)))
        return 0
    _load_library()
    import layers

    plain, traced = _passes(args)
    problems = list(plain[0]["problems"])
    if any(p["digest"] != plain[0]["digest"] for p in plain + traced):
        problems.append("a later pass returned different results from the first")
    errors = [err for p in plain + traced for _, _, err in p["ops"] if err is not None]
    for line in [f"failed: {e}" for e in errors[:5]] + [f"check: {x}" for x in problems[:20]]:
        print(line, file=sys.stderr)

    if args.trace:
        metrics = layers.per_layer_metrics(plain, traced)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in plain), "unit": "s"},
            "pass_s": {"value": median_pass_s(plain), "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in plain), "unit": "MiB"},
        }
    result = {
        "correct": not problems,
        "attempted": sum(len(p["ops"]) for p in plain + traced),
        "failed": len(errors),
        "metrics": metrics,
    }
    _write_record(args, result, plain, traced)
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced passes",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
