"""The four workloads: seeded inputs, one timed pass, and the checks.

Each workload has build(seed) -> inputs, run(inputs, traced) -> list of Op
(one per top-level library call of the pass, in order) and
check(inputs, ops, seed) -> list of problems.  The library sees only the
inputs that build() made; every check compares against perfbench/oracles.py
or against a property the method must have.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from time import perf_counter

import oracles
from addcomb import covering, residues, search
from addcomb import engine as eng
from addcomb.residues import ResidueSet

# The timed calls go through module attributes (search.run_suite, not a
# name imported here), so that the tracer's wrappers see them.

EXACT_WINDOW_MAX_P = 1 << 14


@dataclass
class Op:
    kind: str
    query: object
    seconds: float
    result: object = None
    error: str | None = None


def _timed(kind: str, query, fn, *args, **kwargs) -> Op:
    started = perf_counter()
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # counted as a failed operation, never hidden
        return Op(kind, query, perf_counter() - started, error=repr(exc))
    return Op(kind, query, perf_counter() - started, result)


# --- hunt ---------------------------------------------------------------------


class Hunt:
    """hunt_conjecture([19], threads=2), the same call CALLS times a pass.
    Several short calls rather than one long one (p = 23 is a single 1-2 s
    call), so that each pass samples the machine's speed several times.
    The input is the prime; the seed picks the classes whose canonical form
    is checked by brute force."""

    P = 19
    THREADS = 2
    CALLS = 8
    SAMPLE = 40

    @staticmethod
    def build(seed: int) -> dict:
        return {"p": Hunt.P}

    @staticmethod
    def run(inputs: dict, traced: bool) -> list[Op]:
        # traced: one worker in-process, so every span is seen
        threads = 1 if traced else Hunt.THREADS
        p = inputs["p"]
        return [_timed("hunt", p, search.hunt_conjecture, [p], threads=threads) for _ in range(Hunt.CALLS)]

    @staticmethod
    def check(inputs: dict, ops: list[Op], seed: int) -> list[str]:
        p = inputs["p"]
        problems = []
        classes = [
            a
            for k in range(1, (p + 1) // 2 + 1)
            for a in search.enumerate_canonical(p, k, None if k <= 2 else oracles.hunt_cap(p, k))
        ]
        expected = oracles.hunt_class_count(p)
        for report in (op.result for op in ops):
            if not report.clean:
                problems.append(f"hunt p={p}: {len(report.counterexamples)} counterexamples")
            if not report.classes_examined == len(classes) == expected:
                problems.append(
                    f"hunt p={p}: examined {report.classes_examined}, enumerated "
                    f"{len(classes)}, Burnside count {expected}"
                )
        for a in random.Random(seed).sample(classes, min(Hunt.SAMPLE, len(classes))):
            els = a.elements()
            if oracles.canonical_form(els, p) != tuple(els):
                problems.append(f"{a.literal()} is not its own canonical form")
            if len(oracles.sumset(els, p)) > oracles.hunt_cap(p, len(els)):
                problems.append(f"{a.literal()} exceeds its sumset cap")
        for a in classes:
            verdict = covering.conjecture_verdict(a)
            if verdict.status == covering.COUNTEREXAMPLE:
                problems.append(f"{a.literal()} is a counterexample")
            if verdict.status != covering.SILENT:
                want = oracles.min_cover(a.elements(), p)
                got = (verdict.cover.length, verdict.cover.witness.step)
                if got != want:
                    problems.append(f"{a.literal()}: cover {got}, oracle {want}")
        return problems


# --- engine -------------------------------------------------------------------


def _engine_set(rng: random.Random, style: str, p: int, k: int) -> set[int]:
    start, step = rng.randrange(p), rng.randrange(1, p)
    if style == "near_ap":
        positions = rng.sample(range(min(p - 1, int(1.3 * k))), k)
    elif style == "two_segment":
        gap = rng.randrange(2 * k, max(p // 2, 2 * k + 1))
        positions = list(range(k // 2)) + [gap + j for j in range(k - k // 2)]
    else:  # ap_plus_noise: k - 2 members of a short progression, two random residues
        positions = rng.sample(range(min(p - 1, int(1.2 * k))), k - 2)
        return {(start + i * step) % p for i in positions} | set(rng.sample(range(p), 2))
    return {(start + i * step) % p for i in positions}


def _small_doubling(els: set[int], p: int) -> bool:
    """|2A| <= 2.6|A|, by rotating A's bitmask (input generation only)."""
    mask = sum(1 << x for x in els)
    full = (1 << p) - 1
    sums = 0
    for x in els:
        sums |= ((mask << x) | (mask >> (p - x))) & full
    return 10 * sums.bit_count() <= 26 * len(els)


class Engine:
    """prove_cover over a seeded corpus of small-doubling sets
    (|2A| <= 2.6|A|, 31 <= p <= 2003, 6 <= k < min(40, p/3 + 1) before the
    noise style's duplicates merge)."""

    STYLES = (("near_ap", 1400), ("two_segment", 400), ("ap_plus_noise", 200))

    @staticmethod
    def build(seed: int) -> list[ResidueSet]:
        rng = random.Random(seed)
        primes = oracles.primes_between(31, 2003)
        corpus = []
        for style, count in Engine.STYLES:
            made = 0
            while made < count:
                p = rng.choice(primes)
                els = _engine_set(rng, style, p, rng.randrange(6, min(40, p // 3 + 1)))
                if len(els) >= 3 and _small_doubling(els, p):
                    corpus.append(ResidueSet.from_elements(p, els))
                    made += 1
        return corpus

    @staticmethod
    def run(inputs: list[ResidueSet], traced: bool) -> list[Op]:
        return [_timed("prove_cover", a, eng.prove_cover, a) for a in inputs]

    @staticmethod
    def check(inputs, ops: list[Op], seed: int) -> list[str]:
        problems = []
        for op in ops:
            if op.error is None:
                problems += _check_prove_cover(op.query, op.result)
        return problems


def _check_cover(a: ResidueSet, res, label: str) -> list[str]:
    """Witness covers A, bound = |2A| - |A| + 1 by the oracle's sumset, and
    within_bound agrees with the length."""
    p, els = a.modulus, a.elements()
    w = res.witness
    problems = []
    if not set(els) <= oracles.progression(w.start, w.step, w.length, p) or w.length != res.length:
        problems.append(f"{label} {a.literal()}: witness {w} does not cover")
    bound = len(oracles.sumset(els, p)) - len(els) + 1
    if res.bound != bound or res.within_bound != (res.length <= bound):
        problems.append(f"{label} {a.literal()}: bound {res.bound}, oracle {bound}")
    return problems


def _check_min_cover(a: ResidueSet, res, label: str) -> list[str]:
    want = oracles.min_cover(a.elements(), a.modulus)
    got = (res.length, res.witness.step)
    return [] if got == want else [f"{label} {a.literal()}: ell {got}, oracle {want}"]


def _check_prove_cover(a: ResidueSet, trace) -> list[str]:
    p, els = a.modulus, a.elements()
    if trace.branch not in BRANCHES or trace.result is None:
        return [f"prove_cover {a.literal()}: branch {trace.branch}, no cover"]
    problems = _check_cover(a, trace.result, "prove_cover")
    if trace.branch == eng.BRANCH_FALLBACK:
        problems += _check_min_cover(a, trace.result, "prove_cover fallback")
    elif not trace.result.within_bound:
        problems.append(f"prove_cover {a.literal()}: {trace.branch} cover exceeds the bound")
    win = trace.window
    captured = len(win)
    if oracles.window_count(els, p, win.d, win.u) != captured:
        problems.append(f"prove_cover {a.literal()}: window ({win.d}, {win.u}) miscounted")
    if p <= EXACT_WINDOW_MAX_P:
        if captured != oracles.window_capture_max(els, p):
            problems.append(f"prove_cover {a.literal()}: window capture {captured} not maximal")
    else:
        floor = (len(els) + oracles.transform_magnitude(els, p, win.d)) / 2
        if captured != oracles.window_capture_max(els, p, [win.d]) or captured + 1e-6 < floor:
            problems.append(f"prove_cover {a.literal()}: fourier window capture {captured}")
    return problems


def branch_counts(ops: list[Op]) -> dict[str, int]:
    """prove_cover results by the branch that produced them."""
    out: dict[str, int] = {}
    for op in ops:
        if op.kind == "prove_cover" and op.error is None:
            out[op.result.branch] = out.get(op.result.branch, 0) + 1
    return out


# Branch names as the engine declares them today; a branch outside this list
# fails the check rather than going uncounted.
BRANCHES = (
    "whole_set_rectifiable",
    "case1",
    "case2_i",
    "case2_ii",
    "case2_iii",
    "fallback",
    "diagnostic",
)


# --- large-p ------------------------------------------------------------------


def _five_primes_from(base: int) -> list[int]:
    out, n = [], base
    while len(out) < 5:
        if oracles.primes_between(n, n):
            out.append(n)
        n += 1
    return out


def _near_ap(rng: random.Random, p: int, k: int) -> ResidueSet:
    """k members of a progression of length 1.25 k, with a random start and
    step."""
    length = min(p - 1, int(1.25 * k))
    start, step = rng.randrange(p), rng.randrange(1, p)
    return ResidueSet.from_elements(
        p, [(start + i * step) % p for i in rng.sample(range(length), k)]
    )


class LargeP:
    """Single-set queries at large modulus.  Each entry: (first prime to
    draw from, k or "p/4" for k = p // 4, calls)."""

    QUERIES = (
        (1009, 10, ("min_ap_cover", "prove_cover")),
        (1009, "p/4", ("min_ap_cover", "prove_cover")),
        (2003, 40, ("min_ap_cover", "prove_cover")),
        (2003, "p/4", ("min_ap_cover", "prove_cover")),
        (16339, 20, ("min_ap_cover", "prove_cover")),
        # exact window search at p ~ 8000, k = 2000: several hundred MiB
        (8009, 2000, ("prove_cover",)),
        # above 2^16: sumset("auto") takes the NTT path
        (65537, 10, ("sumset", "prove_cover")),
    )

    @staticmethod
    def build(seed: int) -> list[tuple[str, ResidueSet]]:
        rng = random.Random(seed)
        out = []
        for base, size, calls in LargeP.QUERIES:
            # the five primes from base lie within 0.6% of it, so the work
            # barely depends on the seed
            p = rng.choice(_five_primes_from(base))
            k = p // 4 if size == "p/4" else size
            a = _near_ap(rng, p, k)
            out += [(call, a) for call in calls]
        return out

    @staticmethod
    def run(inputs, traced: bool) -> list[Op]:
        fns = {"min_ap_cover": covering, "prove_cover": eng, "sumset": residues}
        return [_timed(kind, a, getattr(fns[kind], kind), a) for kind, a in inputs]

    @staticmethod
    def check(inputs, ops: list[Op], seed: int) -> list[str]:
        problems = []
        for op in ops:
            if op.error is not None:
                continue
            a = op.query
            if op.kind == "sumset":
                if set(op.result.elements()) != oracles.sumset(a.elements(), a.modulus):
                    problems.append(f"sumset n={a.modulus} |A|={len(a)} differs from the oracle")
            elif op.kind == "min_ap_cover":
                problems += _check_cover(a, op.result, "min_ap_cover")
                problems += _check_min_cover(a, op.result, "min_ap_cover")
            else:
                problems += _check_prove_cover(a, op.result)
        return problems


# --- campaigns ----------------------------------------------------------------


class Campaigns:
    """The four theorem suites and the family audit to p <= 199, as the
    scripts run them by default, except prop23_variant at limit 20 (its
    default, 24, takes about 35 s alone)."""

    SUITES = (("vosper", {}), ("dim_bound", {}), ("3k4", {}), ("prop23_variant", {"limit": 20}))
    FAMILY_MAX_P = 199

    @staticmethod
    def build(seed: int) -> list[tuple[str, str, dict]]:
        return [("suite", name, params) for name, params in Campaigns.SUITES] + [
            ("family", fam, {"max_p": Campaigns.FAMILY_MAX_P}) for fam in ("example1", "example2")
        ]

    @staticmethod
    def run(inputs, traced: bool) -> list[Op]:
        ops = []
        for kind, name, params in inputs:
            fn = search.run_suite if kind == "suite" else search.verify_family
            ops.append(_timed(kind, name, fn, name, **params))
        return ops

    @staticmethod
    def check(inputs, ops: list[Op], seed: int) -> list[str]:
        problems = []
        for (kind, name, params), op in zip(inputs, ops):
            if op.error is None:
                check = _check_family if kind == "family" else _check_suite
                problems += check(name, params, op.result)
        return problems


def _check_suite(name: str, params: dict, report) -> list[str]:
    problems = []
    if name == "vosper":
        expected = oracles.vosper_count(17)
    elif name == "dim_bound":
        expected = oracles.dim_bound_count(12, 2, 6)
    elif name == "3k4":
        expected, met = oracles.three_k_four_counts(15)
        if f"{met} met the 3k-4 hypothesis" not in report.notes[0]:
            problems.append(f"3k4: note {report.notes[0]!r}, oracle {met} met")
    else:
        limit = params["limit"]
        expected, best, violations = oracles.prop23_scan(limit)
        problems += _check_prop23_best(limit, best, report)
        if len(report.counterexamples) != violations:
            problems.append(f"prop23_variant: {len(report.counterexamples)} violations, oracle {violations}")
    if name != "prop23_variant" and report.counterexamples:
        problems.append(f"{name}: unexpected findings {report.counterexamples[:3]}")
    if report.classes_examined != expected:
        problems.append(f"{name}: examined {report.classes_examined}, oracle {expected}")
    return problems


def _check_prop23_best(limit: int, best: Fraction, report) -> list[str]:
    """The reported best set is a 1-dimensional normal-form set in
    [0, limit] with |2A| <= 3.04|A| - 3 whose ratio is the oracle's best."""
    m = re.search(r"max\(A\)/\|A\|: (\S+) at \[([\d, ]*)\]", report.notes[1])
    if not m:
        return [f"prop23_variant: unreadable note {report.notes[1]!r}"]
    ratio = Fraction(m.group(1))
    a = [int(x) for x in m.group(2).split(",")]
    g = 0
    for x in a:
        g = gcd(g, x)
    ok = (
        a == sorted(set(a))
        and a[0] == 0
        and g == 1
        and a[-1] <= limit
        and 100 * len(oracles.sumset(a)) <= 304 * len(a) - 300
        and oracles.dimensions([a])[0] == 1
        and Fraction(a[-1], len(a)) == ratio == best
    )
    return [] if ok else [f"prop23_variant: best {ratio} at {a}, oracle best {best}"]


def _check_family(name: str, params: dict, report) -> list[str]:
    max_p = params["max_p"]
    problems = []
    found = {}
    for v in report.counterexamples:
        pr = v["params"]
        key = (pr["p"], pr["k"], pr["x"]) if name == "example1" else pr["t"]
        found[key] = v
    if name == "example1":
        instances = oracles.example1_instances(max_p)
        expected = {(p, k, x) for p, k, x in instances if x == k - 3}
    else:
        instances = oracles.example2_instances(max_p)
        expected = {t for t in instances if t in (2, 3)}
    if report.classes_examined != len(instances):
        problems.append(f"{name}: {report.classes_examined} instances, oracle {len(instances)}")
    if set(found) != expected:
        problems.append(f"{name}: findings {sorted(found)}, expected {sorted(expected)}")
    for key, v in found.items():
        if name == "example1":
            p, k, x = key
            els = oracles.example1_set(p, x)
            bound = k + x
            start, step, length = oracles.example1_boundary_witness(p)
            if length != bound or not set(els) <= oracles.progression(start, step, length, p):
                problems.append(f"example1 p={p}: closed-form witness fails")
        else:
            p = 4 * key - 1
            els = oracles.example2_set(key)
            bound = 2 * key - 1
        ell = oracles.min_cover(els, p)[0]
        if v["set"] != ResidueSet.from_elements(p, els).literal() or not (
            v["cover_length"] == ell <= bound == v["bound"]
        ):
            problems.append(f"{name} {key}: reported {v['cover_length']}/{v['bound']}, oracle {ell}/{bound}")
        if name == "example1" and ell != bound:
            problems.append(f"example1 {key}: ell {ell} != bound {bound}")
    return problems


WORKLOADS = {"hunt": Hunt, "engine": Engine, "large-p": LargeP, "campaigns": Campaigns}
