"""Exhaustive and randomized verification campaigns.

Every exhaustive walk grows uint64 masks of sorted prefixes on one numpy
frontier (_walk, _grow, _children); a set and its sumset share one word, so
residues need p <= 61 and integer sets [0, limit] need limit <= 31.
Sumset-size caps prune prefixes soundly because a prefix sumset only grows.
The hunt and the vosper suite grow (0, 1, e3 < e4 < ...), one walk a prime
over every size: each class of two or more members has a representative
containing {0, 1}.  The hunt walks at its loosest size cap and drops each
non-canonical prefix where it appears (a canonical set minus its largest
member is canonical), filters each slice by its own size's cap and reads
verdicts off the slice's sumset masks, one stacked cover test per slice.
The integer suites grow from {0} and keep the sets with gcd 1;
prop23_variant ranks only the sets that Freiman's lemma leaves open.

Reports are deterministic: two runs differ only in wall_time, and results
are independent of the worker count.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import SCHEMA_VERSION, __version__, bits, residues
from .covering import (
    COUNTEREXAMPLE,
    _min_ap_cover,
    arithmetic_progressions,
    conjecture_conditions,
    conjecture_verdict,
    covered_within,
)
from .errors import (
    ConsistencyError,
    InvalidParamsError,
    SearchRangeError,
    UnknownSuiteError,
)
from .freiman import additive_dimensions, dimension_lower_bound, dimensions_one_down
from .intsets import IntSet, cover_3k4
from .primes import is_prime, primes_upto
from .residues import ENUMERATION_MAX_P, ResidueSet, affine_canonical_rows, sumset

# an integer set in [0, limit] and its sumset in [0, 2 limit] fit one too
INTEGER_WALK_MAX_LIMIT = 31
HUNT_DEFAULT_MAX_P = 37


@dataclass
class SearchReport:
    campaign: str
    parameters: dict
    classes_examined: int
    counterexamples: list[dict]
    notes: list[str] = field(default_factory=list)
    wall_time: float = 0.0
    tool_version: str = __version__
    schema_version: int = SCHEMA_VERSION

    @property
    def clean(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return asdict(self)

    def write(self, directory: str) -> str:
        os.makedirs(directory, exist_ok=True)

        def flat(v):
            if isinstance(v, (list, tuple)):
                return "_".join(str(x) for x in v)
            return str(v)

        params = "-".join(
            f"{k}={flat(v)}" for k, v in sorted(self.parameters.items())
        )
        path = os.path.join(directory, f"{self.campaign}-{params}.json")
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
        return path


def enumerate_canonical(
    p: int, k: int, doubling_cap: int | None = None
) -> Iterator[ResidueSet]:
    """One affine-canonical representative per class of k-subsets of Z_p with
    |2A| <= doubling_cap (None = no cap), in lexicographic order."""
    for _, masks, _, _ in _canonical_slices(p, k, k, lambda size: p if doubling_cap is None else doubling_cap):
        yield from (ResidueSet(p, mask) for mask in masks.tolist())


def _canonical_slices(p, lo, hi, cap_of):
    """(size, masks, member rows, sumset masks) per slice of one walk over the
    affine-canonical sets of Z_p with lo <= size <= hi and |2A| <= cap_of(size),
    which all start 0, 1: an affine map sends any two elements there.

    The walk drops a non-canonical prefix where it appears (orderly
    generation), since A' = A minus max A is canonical if A is: were g(A') < A'
    for an affine g, their first difference t would lie in g(A') below
    max A' < max A, so g(A) would beat A at t or earlier.  The sumset cap and
    the room bound hold on every prefix of a set that meets them."""
    if not is_prime(p):
        raise SearchRangeError(f"{p} is not prime")
    if p > ENUMERATION_MAX_P:
        raise SearchRangeError(f"enumeration capped at p <= {ENUMERATION_MAX_P}")
    if not 1 <= lo <= hi <= p:
        raise SearchRangeError(f"k = {lo} out of range for Z_{p}")
    cap = max(map(cap_of, range(lo, hi + 1)))
    for size, masks, rows, sums in _walk(p, lo, hi, cap, (0, 1)[:lo], p, canonical=True):
        fit = np.bitwise_count(sums) <= cap_of(size)
        yield size, masks[fit], rows[fit], sums[fit]


def _walk(n, lo, hi, cap, root, p, *, canonical=False):
    """(size, masks, member rows, sumset masks) slices of the sets (the
    canonical ones if `canonical`) that extend `root` by larger members
    below n, with lo <= size <= hi and |2A| <= cap, sums mod p (integer sums
    if p is None), each size in lexicographic order.  One uint64 holds a set
    and its sumset: p <= ENUMERATION_MAX_P, or n - 1 <= INTEGER_WALK_MAX_LIMIT.
    Rows are int16, the canonicity test's own dtype.

    Slices hold at most CANONICAL_STEP_ENTRIES children on the pruned
    canonical walk, and that over the depth on any other walk, which then
    holds at most CANONICAL_STEP_ENTRIES at once."""
    budget = residues.CANONICAL_STEP_ENTRIES
    if not canonical:
        budget //= max(1, min(hi, n) - len(root) + 1)
    sums = bits.mask_of([a + b for a in root for b in root], p or 64)
    if sums.bit_count() <= cap:
        masks = np.array([bits.mask_of(root, n), sums], dtype=np.uint64)
        yield from _grow((n, lo, hi, cap, p, budget, canonical), masks[:1], masks[1:], np.array([root], dtype=np.int16))


def _grow(walk, masks, sums, rows):
    """The frontier every exhaustive walk shares (the hunt, the vosper suite
    and the integer suites): yields the given prefixes (sumsets `sums`,
    sorted members `rows`) if they have at least lo members, then the
    extensions of them that `_walk` describes.  Parents are expanded in
    slices of at most `budget` children, each grown to full size before the
    next, so memory stays within the depth times a slice."""
    n, lo, hi, cap, p, budget, canonical = walk
    size = rows.shape[1]
    if size >= lo:
        yield size, masks, rows, sums
    if size == hi:
        return
    # the next element e lies in (last, n - max(1, lo - size)], leaving room
    # for the members a set of size lo still needs after it
    counts = (n - max(1, lo - size) - rows[:, -1]).clip(0)
    ends = np.cumsum(counts)
    start = 0
    while start < len(masks):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - counts[start] + budget, "right")))
        children = _children(p, cap, masks[start:stop], sums[start:stop], rows[start:stop], counts[start:stop])
        if canonical:
            keep = affine_canonical_rows(children[2], p)
            children = tuple(c[keep] for c in children)
        if len(children[0]):
            yield from _grow(walk, *children)
        start = stop


def _children(p, cap, masks, sums, rows, counts):
    """The masks, sumset masks and member rows of each prefix extended by
    each of its `counts` next elements in turn, keeping the children whose
    sumset (the parent's sums plus the child's mask shifted by its new
    element, rotated mod p if p) has at most cap members."""
    parent = np.repeat(np.arange(len(masks)), counts)
    e = rows[:, -1][parent] + 1 + np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
    shift = e.astype(np.uint64)
    child = masks[parent] | np.uint64(1) << shift
    shifted = child << shift
    if p:
        shifted = (shifted | child >> (np.uint64(p) - shift)) & np.uint64(bits.full_mask(p))
    child_sums = sums[parent] | shifted
    keep = np.flatnonzero(np.bitwise_count(child_sums) <= cap)
    grown = np.empty((len(keep), rows.shape[1] + 1), np.int16)
    grown[:, :-1], grown[:, -1] = rows.take(parent[keep], axis=0), e[keep]
    return child[keep], child_sums[keep], grown


def _hunt_one_prime(p: int) -> tuple[int, int, list[dict]]:
    """p -> (p, classes_examined, counterexamples)."""
    # For 2k - 1 >= p Cauchy-Davenport forces |2A| = p, which silences both
    # conjecture conditions; only k <= (p+1)/2 can produce a verdict.  A
    # verdict also needs |2A| <= 3k - 4 (condition i) or = 3k - 4 (ii) and
    # |2A| <= p - 2, so the per-size cap below loses no checkable class, and
    # the silent {0} and {0, 1} are counted unwalked.
    hi = (p + 1) // 2
    examined, flagged, bad = min(2, hi), [], []
    for k, masks, rows, sums in _canonical_slices(p, 3, hi, lambda k: min(3 * k - 4, p - 2)) if hi > 2 else ():
        examined += len(masks)
        s = np.bitwise_count(sums).astype(np.int64)
        _, cond_i, cond_ii = conjecture_conditions(p, k, s)
        live = np.flatnonzero(cond_i | cond_ii)
        failed = live[~covered_within(rows[live], p, s[live] - k + 1)]
        flagged += (ResidueSet(p, mask) for mask in masks[failed].tolist())
    for a in sorted(flagged, key=len):  # the walk interleaves sizes, each in lex order
        verdict = conjecture_verdict(a)
        if verdict.status != COUNTEREXAMPLE:
            raise ConsistencyError(f"stacked cover test and verdict disagree on {a.literal()}")
        bad.append({"set": a.literal(), "verdict": verdict.to_json()})
    return p, examined, bad


def hunt_conjecture(
    p_list: list[int],
    threads: int = 1,
    max_p: int = HUNT_DEFAULT_MAX_P,
) -> SearchReport:
    """Exhaustive conjecture check over every canonical class of every
    cardinality for each prime in p_list.  Expected outcome: no
    counterexamples."""
    started = time.monotonic()
    if not p_list:
        raise InvalidParamsError("no primes to hunt")
    if len(set(p_list)) < len(p_list):
        raise InvalidParamsError(f"repeated prime in {list(p_list)}")
    for p in p_list:
        if not is_prime(p):
            raise SearchRangeError(f"{p} is not prime")
        if p > max_p:
            raise SearchRangeError(
                f"p = {p} above the campaign cap {max_p}; raise max_p to override"
            )
    notes = [
        "classes with 2k - 1 > p or |2A| above min(3k-4, p-2) are provably "
        "SILENT and are skipped by the enumeration cap",
    ]
    if any(p > HUNT_DEFAULT_MAX_P for p in p_list):
        notes.append(
            f"runtime warning: primes above {HUNT_DEFAULT_MAX_P} can take long"
        )
    results = _run_tasks(_hunt_one_prime, sorted(p_list), threads)
    examined = sum(r[1] for r in results)
    bad = [item for r in results for item in r[2]]
    return SearchReport(
        campaign="hunt-conjecture",
        parameters={"primes": sorted(p_list), "threads": threads},
        classes_examined=examined,
        counterexamples=bad,
        notes=notes,
        wall_time=time.monotonic() - started,
    )


def _run_tasks(fn, work, threads):
    """fn over work in order, on at most `threads` processes: never more
    than there are work items or cores, since a forked pool starts every
    worker at once."""
    workers = min(threads, len(work), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(w) for w in work]
    # imported here: a serial run never pays the pool's ~16 ms import
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, work))


@dataclass(frozen=True)
class FamilyParams:
    """Extremal family parameters.

    example1: set {0} u {x+2, ..., (p+1)/2} in Z_p, p = 2k + 2x - 1 prime,
    k >= 2 and 0 <= x <= k - 3.  example2: set {0..t} minus {t-1} plus {2t}
    in Z_p, p = 4t - 1 prime, t >= 2.

    Known deviations from the non-coverability claim (see verify_family):
    example1 at x = k - 3, where 2*A reduces to an interval of length
    (p+1)/2 = k + x, so ell(A) equals the bound; example2 at t = 2, 3.
    """

    family: str
    k: int | None = None
    x: int | None = None
    t: int | None = None

    @property
    def p(self) -> int:
        if self.family == "example1":
            return 2 * self.k + 2 * self.x - 1
        return 4 * self.t - 1

    def validate(self) -> None:
        if self.family == "example1":
            if self.k is None or self.x is None:
                raise InvalidParamsError("example1 needs k and x")
            if self.k < 2 or not 0 <= self.x <= self.k - 3:
                raise InvalidParamsError(
                    f"need k >= 2 and 0 <= x <= k - 3, got k={self.k} x={self.x}"
                )
        elif self.family == "example2":
            if self.t is None:
                raise InvalidParamsError("example2 needs t")
            if self.t < 2:
                raise InvalidParamsError("example2 needs t >= 2")
        else:
            raise InvalidParamsError(f"unknown family {self.family!r}")
        if not is_prime(self.p):
            raise InvalidParamsError(f"p = {self.p} is not prime")


def build_family(params: FamilyParams) -> tuple[ResidueSet, dict]:
    """Construct the family instance and its predicted statistics, verifying
    the predictions against direct computation (a mismatch would falsify the
    family's arithmetic and raises ConsistencyError)."""
    params.validate()
    p = params.p
    if params.family == "example1":
        k, x = params.k, params.x
        a = ResidueSet.from_elements(
            p, [0] + list(range(x + 2, (p + 1) // 2 + 1))
        )
        expected = {
            "p": p,
            "size": k,
            "sumset_size": p - x,  # = 2k - 1 + x
            "bound": k + x,
        }
    else:
        t = params.t
        a = ResidueSet.from_elements(
            p, [i for i in range(t + 1) if i != t - 1] + [2 * t]
        )
        expected = {
            "p": p,
            "size": t + 1,
            "sumset_size": 3 * t - 1,
            "bound": 2 * t - 1,
        }
    if len(a) != expected["size"]:
        raise ConsistencyError(f"family size {len(a)} != predicted {expected['size']}")
    s = len(sumset(a))
    if s != expected["sumset_size"]:
        raise ConsistencyError(
            f"family |2A| = {s} != predicted {expected['sumset_size']}"
        )
    return a, expected


def family_instances(family: str, max_p: int) -> list[FamilyParams]:
    out = []
    if family == "example1":
        for p in primes_upto(max_p):
            if p < 5:
                continue
            half = (p + 1) // 2  # = k + x
            for k in range(2, half + 1):
                x = half - k
                if 0 <= x <= k - 3:
                    out.append(FamilyParams("example1", k=k, x=x))
    elif family == "example2":
        for t in range(2, max_p // 4 + 2):
            if is_prime(4 * t - 1) and 4 * t - 1 <= max_p:
                out.append(FamilyParams("example2", t=t))
    else:
        raise InvalidParamsError(f"unknown family {family!r}")
    return out


def verify_family(family: str, max_p: int, threads: int = 1) -> SearchReport:
    """Check predicted sumset sizes and the non-coverability claim
    ell(A) > |2A| - |A| + 1 for every instance with p <= max_p.

    Known deviations, reported as violations with full data: example1 on
    the boundary x = k - 3 (ell equals the bound: p = 4k - 7 and 2*A reduces
    to {0} u [5 - 2k, 1], an interval of length (p+1)/2 = k + x, so the
    progression with start (p+1)/2 and step (p-1)/2 covers A); example2 at
    t = 2 (the set is a progression) and t = 3 (ell equals the bound).  The
    claim holds for example1 on 0 <= x <= k - 4; the smallest t for which it
    holds is 5, since t = 4 gives composite p.
    """
    if max_p > 1000:
        raise SearchRangeError("verify_family capped at max_p <= 1000")
    started = time.monotonic()
    instances = family_instances(family, max_p)
    results = _run_tasks(_verify_one_instance, instances, threads)
    violations = [r for r in results if r is not None]
    return SearchReport(
        campaign=f"family-{family}",
        parameters={"family": family, "max_p": max_p, "threads": threads},
        classes_examined=len(instances),
        counterexamples=violations,
        wall_time=time.monotonic() - started,
    )


def _verify_one_instance(params: FamilyParams) -> dict | None:
    a, expected = build_family(params)
    cover = _min_ap_cover(a, expected["sumset_size"])
    if cover.length > expected["bound"]:
        return None
    return {
        "set": a.literal(),
        "params": {
            "family": params.family,
            "k": params.k,
            "x": params.x,
            "t": params.t,
            "p": params.p,
        },
        "cover_length": cover.length,
        "bound": expected["bound"],
        "claim": "ell(A) > |2A| - |A| + 1 fails",
    }


# --- verification suites ----------------------------------------------------


def _normal_form_subsets(
    limit: int, min_size: int, max_size: int, cap: int | None = None
):
    """(sets, |2A|) stacks of all A containing 0 with gcd 1 inside [0, limit]
    with sizes in [min_size, max_size] and, given a cap, |2A| <= cap (prefix
    sumsets only grow, so the cap prunes): an (N, k) array of sorted members
    and one of sumset sizes per walk slice, each size in lexicographic
    order, in the slices _walk bounds."""
    if limit > INTEGER_WALK_MAX_LIMIT:
        raise SearchRangeError(f"integer sets capped at [0, {INTEGER_WALK_MAX_LIMIT}]")
    walk = _walk(limit + 1, max(1, min_size), max_size, 2 * limit + 1 if cap is None else cap, (0,), None)
    for _, masks, sets, sums in walk:
        keep = np.gcd.reduce(sets, axis=1) == 1
        if keep.any():  # in int64: the rank stacks' pair sums pass int16
            yield sets[keep].astype(np.int64), np.bitwise_count(sums[keep]).astype(np.int64)


def _suite_vosper(max_p: int = 17) -> tuple[int, list[dict], list[str]]:
    # Both sides of the equivalence are affine-invariant and every class of
    # size >= 2 has a representative containing {0, 1}, so sweeping those
    # representatives checks every class (some more than once).
    if max_p > ENUMERATION_MAX_P:
        raise SearchRangeError(f"vosper suite capped at max_p <= {ENUMERATION_MAX_P}")
    examined = 0
    for p in primes_upto(max_p):
        for size, masks, rows, sums in _walk(p, 2, p, p - 2, (0, 1), p):
            examined += len(masks)
            # the walk keeps 2 <= |A| and |2A| <= p - 2, Vosper's hypotheses
            eq = np.bitwise_count(sums) == 2 * size - 1
            failed = np.flatnonzero(eq != arithmetic_progressions(rows, p))
            if len(failed):
                a = ResidueSet(p, int(masks[failed[0]]))
                raise ConsistencyError(f"Vosper equivalence failed on {a.literal()}")
    return examined, [], [
        f"exhaustive over representatives containing {{0,1}}, p <= {max_p}"
    ]


def _dimension_stacks(limit: int, size: int, cap: int | None = None, lemma: bool = False):
    """(sets, sumset sizes, dimensions) of the normal-form sets of one size
    in [0, limit] (with |2A| <= cap), in enumeration order.  With `lemma`,
    sets with |2A| <= 3k - 4 get dimension 1 unranked and
    freiman.dimensions_one_down settles most of the rest (see
    _suite_prop23_variant).  The rest of each walk slice are ranked in
    stacks of at most CANONICAL_STEP_ENTRIES required-row entries: k
    integers with s >= 2k - 1 sums (s >= 3k - 3 past the lemma) have
    k(k + 1)/2 - s required rows."""
    floor = dimension_lower_bound(size, 2) if lemma else 0
    most_rows = size * (size + 1) // 2 - max(floor, 2 * size - 1)
    per_stack = max(1, residues.CANONICAL_STEP_ENTRIES // max(1, most_rows * size))
    for sets, two in _normal_form_subsets(limit, size, size, cap):
        dims = np.ones(len(sets), dtype=np.int64)
        todo = np.flatnonzero(two >= floor)
        if lemma:
            dims[todo] = dimensions_one_down(sets[todo], two[todo])
            todo = todo[dims[todo] == 0]
        for start in range(0, len(todo), per_stack):
            stack = todo[start : start + per_stack]
            dims[stack] = additive_dimensions(sets[stack])
        yield sets, two, dims


def _suite_dim_bound(
    limit: int = 12, min_size: int = 2, max_size: int = 6
) -> tuple[int, list[dict], list[str]]:
    # every set is ranked: the lemma is what this suite tests
    examined = 0
    for size in range(min_size, max_size + 1):
        for sets, two, dims in _dimension_stacks(limit, size):
            examined += len(sets)
            failed = np.flatnonzero(two < dimension_lower_bound(size, dims))
            if len(failed):
                raise ConsistencyError(
                    f"dimension lower bound failed on {tuple(sets[failed[0]].tolist())}"
                )
    return examined, [], [
        f"normal-form sets in [0, {limit}], sizes {min_size}..{max_size}"
    ]


def _suite_3k4(limit: int = 15) -> tuple[int, list[dict], list[str]]:
    examined = 0
    checked = 0
    for sets, two in _normal_form_subsets(limit, 1, limit + 1):
        k = sets.shape[1]
        examined += len(sets)
        met = two <= 3 * k - 4
        checked += int(met.sum())
        failed = np.flatnonzero(met & (sets[:, -1] > two - k))  # max of a normal-form set
        if len(failed):
            raise ConsistencyError(f"3k-4 bound failed on {tuple(sets[failed[0]].tolist())}")
        for elems in sets[met].tolist():
            cover_3k4(IntSet(tuple(elems)))  # also exercises the covering constructor
    return examined, [], [
        f"normal-form sets in [0, {limit}]; {checked} met the 3k-4 hypothesis"
    ]


def _suite_prop23_variant(limit: int = 24) -> tuple[int, list[dict], list[str]]:
    """Desk-scale analogue of the conjectured covering constant: over
    1-dimensional normal-form sets with |2A| <= 3.04|A| - 3, record whether
    max(A) <= 4|A| and the empirical maximum of max(A)/|A|.

    Findings, not assertions: the true constant is an open question.  Sizes
    with 4|A| > limit cannot violate and only matter for the ratio, so the
    scan stops once larger sizes cannot beat the running maximum.

    Sets with |2A| <= 3|A| - 4 have dimension 1 by Freiman's lemma
    (Freiman 1973; Tao-Vu, Lemma 5.13).  A set of dimension >= 2 is
    isomorphic to one spanning R^d, d >= 2; deleting a vertex v of its hull
    loses at least the sums 2v, v + u and v + w (u, w its neighbours along
    hull edges).  If the rest spans a plane or more it has >= 3|A| - 6 sums
    by induction; if it lies on a line it has >= 2|A| - 3, and v adds |A|
    more off that line.

    Most of the rest are settled one member down
    (freiman.dimensions_one_down): if B = A minus e is 1-dimensional by the
    lemma (or |B| = 2), A is 1-dimensional when some e + x, x in A, is a sum
    of B, since that relation pins e from B's values, and 2-dimensional when
    none is, since e then takes part in no relation.  At limit 20 this
    settles 7,208 of the 9,874 sets the lemma leaves; only the other 2,666
    are ranked.
    """
    examined = 0
    violations: list[dict] = []
    best_ratio = Fraction(0)
    best_set: tuple[int, ...] | None = None
    for size in range(3, limit + 2):
        if best_ratio >= Fraction(limit, size) and 4 * size > limit:
            break  # no violation possible and the ratio cannot improve
        cap = (304 * size - 300) // 100  # |2A| <= 3.04|A| - 3, exactly
        for sets, _, dims in _dimension_stacks(limit, size, cap, lemma=True):
            ones = sets[dims == 1]
            if not len(ones):
                continue
            examined += len(ones)
            top = ones[:, -1].argmax()  # the first set with the largest max
            if Fraction(int(ones[top, -1]), size) > best_ratio:
                best_ratio = Fraction(int(ones[top, -1]), size)
                best_set = tuple(ones[top].tolist())
            for elems in ones[ones[:, -1] > 4 * size].tolist():
                violations.append({"set": elems, "max": elems[-1], "size": size})
    notes = [
        f"1-dimensional normal-form sets in [0, {limit}] with |2A| <= 3.04|A| - 3",
        f"empirical max of max(A)/|A|: {best_ratio} at {list(best_set or ())}",
        "violations of max(A) <= 4|A| are findings about an open question, "
        "not errors",
    ]
    return examined, violations, notes


_SUITES = {
    "vosper": _suite_vosper,
    "dim_bound": _suite_dim_bound,
    "3k4": _suite_3k4,
    "prop23_variant": _suite_prop23_variant,
}


def run_suite(name: str, **params) -> SearchReport:
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; available: {sorted(_SUITES)}"
        )
    started = time.monotonic()
    examined, violations, notes = _SUITES[name](**params)
    return SearchReport(
        campaign=f"suite-{name}",
        parameters={"suite": name, **params},
        classes_examined=examined,
        counterexamples=violations,
        notes=notes,
        wall_time=time.monotonic() - started,
    )
