"""Minimal arithmetic-progression covering in Z_p and the covering verdicts.

ell(A) is the least length of an AP containing A: p minus the longest
circular run of residues missing from m * A, over the units m = 1/step.
residues.dilation_gaps computes that run for a chunk of rows at a time
(memory bounded whatever p * |A|).  Negation keeps every run, so m and p - m
agree and only m <= (p-1)/2 is swept; the witness, smallest step
min(1/m, p - 1/m) then smallest start, is recovered for the winning step.

_longest_runs finds that run, and every m attaining it, by one of three
routes.  Each skips only multipliers that can neither beat nor tie the
answer, so all three return the same run and the same tied multipliers.

Candidate multipliers (prime p, when the plain sweep would span more than
one chunk and 4L < p for an upper bound L >= ell(A)).  If an AP of length
ell covers A at step 1/m, then m * A lies in ell consecutive residues, so
the centred residue of m * delta has absolute value at most ell - 1 for
every difference delta of two members.  Fix one such delta_1: every m
attaining the longest run has m * delta_1 = j with 0 < |j| < L, so it is
the fold to m <= p/2 of j / delta_1 for some 1 <= j < L (j and -j fold
alike, and 2L < p makes these L - 1 folds distinct).  The candidates that
also pass the same test for a few more consecutive differences are sorted
in full; every optimal m is among them, so their longest run and its tied
multipliers are the answer.  L is a guess that starts at 2|A| and doubles,
and certifies itself: if the best candidate's AP has length at most L,
then ell(A) <= L and every optimal m was a candidate.  The next guess is
also at most that AP's length, so the best multiplier found so far is
always a candidate again; a guess that did not grow could only mean a lost
candidate, and hands over to the sweeps below rather than repeat.

Sample-bounded sweep (a set of at least residues.SAMPLE_MIN_SIZE members).
A sample S of residues.SAMPLE_SIZE members is swept first, keeping S's
longest run at every m, and A itself only at the m where S's run reaches a
floor: the largest of A's run at S's best m, at the caller's unit d (the
engine passes its window's frequency), and at the best candidate of a
guess that failed.  That is exact: S lies inside A, so every residue
missing from m * A is missing from m * S, every missing run of m * A lies
inside one of m * S, and S's longest run bounds A's from above at every
m.  A's run at any one m bounds the answer from below, so an m where S's
run falls short of the floor can neither beat nor tie the answer.  On a
near-progression S's run is long only near the one step that matters, and
A is sorted at a handful of the p/2 multipliers.

Plain sweep: every unit m <= p/2, for a set of fewer than
residues.SAMPLE_MIN_SIZE members that the candidates do not settle.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import bits, residues
from .errors import (
    ConsistencyError,
    EmptySetError,
    PreconditionFailedError,
    PrimeRequiredError,
)
from .intsets import ApDescriptor
from .primes import divisors, is_prime
from .residues import ResidueSet, dilation_gaps, half_units, sumset


@dataclass(frozen=True)
class CoverResult:
    length: int
    witness: ApDescriptor
    bound: int  # |2A| - |A| + 1
    within_bound: bool

    def to_json(self) -> dict:
        w = self.witness
        witness = {"start": w.start, "step": w.step, "length": w.length, "modulus": w.ambient}
        return {**asdict(self), "witness": witness}


def _longest_runs(els: list[int], n: int, d: int | None = None) -> tuple[int, list[int]]:
    """The longest circular run of residues missing from m * els over the
    units m <= (n-1)/2 (nonempty els of distinct residues), and every m
    attaining it, ascending; by the route the module docstring sets out.
    d, a unit of Z_n or None, floors the sample sweep."""
    k = len(els)
    floor = -1
    if k > 1 and k * (n // 2) > residues.CANONICAL_STEP_ENTRIES and is_prime(n):
        bound = 2 * k
        while 4 * bound < n:
            run, ms_at_run = _runs_over(els, n, _candidates(els, n, bound))
            if n - run <= bound:
                return run, ms_at_run
            floor = max(floor, run)
            if n - floor <= bound:
                break  # a lost candidate: sweep rather than stall
            bound = min(2 * bound, n - floor)
    units = half_units(n)
    sample = residues.sweep_sample(els)
    if sample is not None:
        runs = np.concatenate([gaps for _, gaps, _ in dilation_gaps(sample, n, units)])
        floor = max(floor, _run_at(els, n, units[runs.argmax()]))
        if d is not None:
            floor = max(floor, _run_at(els, n, d))
        units = units[runs >= floor]
    return _runs_over(els, n, units)


# consecutive differences, after the first, that filter the candidates
CANDIDATE_FILTERS = 8


def _candidates(els: list[int], p: int, bound: int) -> np.ndarray:
    """The units m <= p/2, ascending, at which m * delta has centred residue
    below bound in absolute value for each of the first CANDIDATE_FILTERS + 1
    consecutive differences delta of els: the folds of j / delta_1 for
    1 <= j < bound, filtered by the rest (2 * bound < p)."""
    deltas = np.diff(np.asarray(els[: CANDIDATE_FILTERS + 2], dtype=np.int64))
    ms = np.arange(1, bound, dtype=np.int64) * pow(int(deltas[0]), -1, p) % p
    ms = np.minimum(ms, p - ms)
    for delta in deltas[1:].tolist():
        r = ms * delta % p
        ms = ms[np.minimum(r, p - r) < bound]
    return np.sort(ms)


def _run_at(els: list[int], n: int, m: int) -> int:
    """The longest circular run of residues missing from m * els."""
    return int(next(dilation_gaps(els, n, [m]))[1][0])


def _runs_over(els: list[int], n: int, units) -> tuple[int, list[int]]:
    """The longest run missing from m * els over the given m, ascending, and
    every m attaining it; (-1, []) for none."""
    run, ms_at_run = -1, []
    for ms, gaps, _ in dilation_gaps(els, n, units):
        top = int(gaps.max())
        if top > run:
            run, ms_at_run = top, []
        if top == run:
            ms_at_run += ms[gaps == run].tolist()
    return run, ms_at_run


def min_ap_length_mod(mask: int, m: int) -> int:
    """Minimal AP covering length in Z_m, any modulus, any step.

    A step with gcd(step, m) = g > 1 stays inside one residue class mod g, so
    it can only cover sets contained in such a class; those reduce to a
    unit-step problem in Z_{m/g}.  Always finite: step 1 covers with length m.
    """
    if mask == 0:
        raise EmptySetError("cannot cover the empty set")
    best = m
    els = bits.elements_of(mask)
    for g in divisors(m):
        r = els[0] % g
        if g < m and all(e % g == r for e in els):
            reduced = [(e - r) // g for e in els]
            best = min(best, m // g - _longest_runs(reduced, m // g)[0])
    return best


def min_ap_cover(a: ResidueSet) -> CoverResult:
    """Exact ell(A) with a witness AP, prime modulus.

    Witness tie-break: smallest step, then smallest start.  ell(Z_p) = p with
    the degenerate witness of step 1 starting at 0.
    """
    if not a.prime_modulus:
        raise PrimeRequiredError("min_ap_cover requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("cannot cover the empty set")
    return _min_ap_cover(a, len(sumset(a)))


def _min_ap_cover(a: ResidueSet, sumset_size: int, d: int | None = None) -> CoverResult:
    """min_ap_cover for a caller that already has |2A|, and perhaps a unit
    d whose dilate of A is short (_longest_runs)."""
    p = a.modulus
    k = len(a)
    bound = sumset_size - k + 1
    if k == p:
        witness = ApDescriptor(0, 1, p, ambient=p)
        return CoverResult(p, witness, bound, p <= bound)
    els = a.members
    run, best = _longest_runs(els, p, d)
    step = min(min(inv, p - inv) for inv in (pow(m, -1, p) for m in best))
    inv = pow(step, -1, p)
    row = sorted(x * inv % p for x in els)
    # a run longer than every gap of this row (a sweep that lied) matches
    # none: the witness is then shorter than any AP of this step covering
    # els, and the check below refuses it
    start = min(
        (e * step % p for prev, e in zip(row[-1:] + row[:-1], row) if (e - prev - 1) % p == run),
        default=0,
    )
    length = p - run
    witness = ApDescriptor(start, step, length, ambient=p)
    if not witness.covers(els):
        raise ConsistencyError("cover witness failed verification")
    return CoverResult(length, witness, bound, length <= bound)


def covered_within(rows, p: int, lengths) -> np.ndarray:
    """Which of N nonempty sets of one size k in Z_p, p prime, given as
    sorted (N, k) rows, have ell(A) <= lengths (one per row, or one for
    all): some unit dilate m * A with m <= (p-1)/2 misses a run of at
    least p - length residues (a singleton misses p - 1; all of Z_p misses
    runs of 0).  One sweep over the rows, in stacks of about
    CANONICAL_STEP_ENTRIES dilated members; a stack stops at the first
    chunk of multipliers where every row has such a run."""
    rows = np.asarray(rows)
    n, k = rows.shape
    runs = p - np.broadcast_to(lengths, n)
    ms = half_units(p)
    out = np.zeros(n, dtype=bool)
    per_stack = max(1, residues.CANONICAL_STEP_ENTRIES // (len(ms) * k))
    for lo in range(0, n, per_stack):
        hit = out[lo : lo + per_stack]
        for _, gaps, _ in dilation_gaps(rows[lo : lo + per_stack], p, ms):
            hit |= (gaps.reshape(len(hit), -1) >= runs[lo : lo + per_stack, None]).any(axis=1)
            if hit.all():
                break
    return out


def arithmetic_progressions(rows, p: int) -> np.ndarray:
    """Which sorted (N, k) rows of Z_p are arithmetic progressions: ell(A) = k."""
    return covered_within(rows, p, np.shape(rows)[1])


def is_arithmetic_progression(a: ResidueSet) -> bool:
    """ell(A) = |A| test: arithmetic_progressions on a stack of one."""
    if not a.prime_modulus:
        raise PrimeRequiredError("AP test requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("empty set")
    return bool(arithmetic_progressions([a.elements()], a.modulus)[0])


@dataclass(frozen=True)
class MainVerdict:
    """Hypothesis flags and covering outcome for the headline criterion
    |2A| <= 2.48|A| - 7 (the density side is never satisfiable here and is
    reported as a flag only)."""

    size: int
    sumset_size: int
    doubling_ok: bool
    density_ok: bool
    density_note: str
    cover: CoverResult
    conclusion_holds: bool

    def to_json(self) -> dict:
        return {**asdict(self), "cover": self.cover.to_json()}


DENSITY_DENOMINATOR = 10**10


def covering_bound_verdict(a: ResidueSet) -> MainVerdict:
    if not a.prime_modulus:
        raise PrimeRequiredError("verdict requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("verdict of the empty set")
    p = a.modulus
    k = len(a)
    two_a = sumset(a)
    doubling_ok = 100 * len(two_a) <= 248 * k - 700
    density_ok = DENSITY_DENOMINATOR * k < p
    cover = _min_ap_cover(a, len(two_a))
    return MainVerdict(
        size=k,
        sumset_size=len(two_a),
        doubling_ok=doubling_ok,
        density_ok=density_ok,
        density_note="unmet-at-scale" if not density_ok else "met",
        cover=cover,
        conclusion_holds=cover.within_bound,
    )


@dataclass(frozen=True)
class VosperVerdict:
    size: int
    sumset_size: int
    equality_holds: bool  # |2A| = 2|A| - 1
    is_ap: bool
    agree: bool

    def to_json(self) -> dict:
        return asdict(self)


def vosper_verdict(a: ResidueSet) -> VosperVerdict:
    """Both sides of Vosper's equivalence: |2A| = 2|A| - 1 iff A is an AP,
    for 2 <= |A| and |2A| <= p - 2.  Disagreement would falsify the theorem
    and raises ConsistencyError."""
    if not a.prime_modulus:
        raise PrimeRequiredError("verdict requires prime modulus")
    k = len(a)
    if k < 2:
        raise PreconditionFailedError("Vosper verdict needs |A| >= 2")
    two_a = sumset(a)
    if len(two_a) > a.modulus - 2:
        raise PreconditionFailedError(
            f"Vosper verdict needs |2A| <= p - 2, got {len(two_a)}"
        )
    eq = len(two_a) == 2 * k - 1
    ap = is_arithmetic_progression(a)
    if eq != ap:
        raise ConsistencyError(f"Vosper equivalence failed on {a.literal()}")
    return VosperVerdict(k, len(two_a), eq, ap, eq == ap)


CONSISTENT = "CONSISTENT"
COUNTEREXAMPLE = "COUNTEREXAMPLE"
SILENT = "SILENT"


@dataclass(frozen=True)
class ConjectureVerdict:
    """Outcome of the combined covering conjecture on one set.

    x = |2A| - (2|A| - 1).  Condition (i): 0 <= x <= min(|A| - 4,
    p - |2A| - 2).  Condition (ii): 0 <= x = |A| - 3 <= p - |2A| - 3.  When
    either holds the conjecture demands ell(A) <= |2A| - |A| + 1; a violation
    is reported as data (COUNTEREXAMPLE), never raised.
    """

    size: int
    sumset_size: int
    x: int
    condition_i: bool
    condition_ii: bool
    status: str
    cover: CoverResult | None

    def to_json(self) -> dict:
        return {**asdict(self), "cover": self.cover.to_json() if self.cover else None}


def conjecture_conditions(p: int, k, s):
    """(x, condition i, condition ii) of ConjectureVerdict for sets of size
    k with |2A| = s in Z_p: ints, or numpy arrays compared elementwise."""
    x = s - (2 * k - 1)
    return x, (0 <= x) & (x <= k - 4) & (x <= p - s - 2), (0 <= x) & (x == k - 3) & (x <= p - s - 3)


def conjecture_verdict(a: ResidueSet) -> ConjectureVerdict:
    if not a.prime_modulus:
        raise PrimeRequiredError("verdict requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("verdict of the empty set")
    p = a.modulus
    k = len(a)
    two_a = sumset(a)
    s = len(two_a)
    x, cond_i, cond_ii = conjecture_conditions(p, k, s)
    if not (cond_i or cond_ii):
        return ConjectureVerdict(k, s, x, cond_i, cond_ii, SILENT, None)
    cover = _min_ap_cover(a, s)
    status = CONSISTENT if cover.within_bound else COUNTEREXAMPLE
    return ConjectureVerdict(k, s, x, cond_i, cond_ii, status, cover)
