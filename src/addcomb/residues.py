"""Subsets of Z_n with bit-parallel kernels.

ResidueSet is the value type every other module consumes: immutable, backed
by a single int bitmask, with sumset / dilate / translate / negate kernels,
the per-dilation gap sweep, affine canonical forms for exhaustive search, and
coset-structure reports for composite moduli.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from . import bits, ntt
from .errors import (
    EmptySetError,
    HypothesisNotMetError,
    NonUnitDilationError,
    NotASubgroupError,
    PrimeRequiredError,
    SearchRangeError,
)
from .primes import divisors, is_prime

# Largest modulus a literal may name.  It keeps the NTT length 2n - 1 within
# the transform's 2^23 capacity, the sweep's int64 products m * a < n^2
# exact, and a set's bitmask at 512 KiB.
MAX_MODULUS = 1 << 22

# sumset_mask runs the NTT above this many members.  Shift-OR costs
# ~1.3e-10 s per |A| * n, the NTT ~3 us per point of a 2n-4n transform, so the
# crossover is on |A| alone: measured at 26k-60k for 65,537 <= n <= 2^22.
CONVOLUTION_MIN_SIZE = 1 << 15

# Entries every chunked kernel holds per step: dilated members in the
# per-dilation sweeps, pair-map images in the canonicity test, children per
# slice of the walks, row entries per rank stack.  A cache-sized step is
# faster as well as smaller than a 2^18 one: the p = 19 hunt took 0.010 s a
# call against 0.019 s, hunt_conjecture([29]) peaked at 7.8 MiB against
# 43.2 MiB under tracemalloc (3.4 MiB, 0.3 s, since the walk drops
# non-canonical prefixes), and best_half_window on 4,000 random residues
# of Z_16381 took 1.9 s against 2.2 s (2-core Xeon, numpy 2.4.6).
CANONICAL_STEP_ENTRIES = 1 << 15

# the largest prime whose masks, and sumset masks, fit one uint64 word
ENUMERATION_MAX_P = 61

# A dilation sweep over a set of at least SAMPLE_MIN_SIZE members first
# sweeps SAMPLE_SIZE of them, evenly spaced by rank, and the whole set only
# on the multipliers where the sample's bound can win (half_window_fit,
# covering._longest_runs).  On a 4,000-member near-AP of Z_65537 that took
# min_ap_cover from 1.9-2.0 s to 0.03-0.04 s; on 4,000 random residues of
# Z_16381, where nothing is skipped, both took 0.19-0.21 s (2-core Xeon,
# numpy 2.4.6).
SAMPLE_SIZE = 32
SAMPLE_MIN_SIZE = 128


@dataclass(frozen=True, order=True)
class ResidueSet:
    """A subset of Z_n.  `mask` bit i is set iff i is a member.  `members`,
    the sorted tuple unpacked on first read, is kept outside the fields:
    ==, hash, order, repr and pickle see the modulus and the mask alone."""

    modulus: int
    mask: int

    def __post_init__(self):
        if self.modulus < 2:
            raise ValueError("modulus must be at least 2")
        if self.mask < 0 or self.mask >> self.modulus:
            raise ValueError("mask has bits outside [0, modulus)")

    @classmethod
    def from_elements(cls, modulus: int, elements) -> "ResidueSet":
        return cls(modulus, bits.mask_of(elements, modulus))

    @property
    def prime_modulus(self) -> bool:
        return is_prime(self.modulus)

    @cached_property
    def members(self) -> tuple[int, ...]:
        return tuple(bits.elements_of(self.mask))

    def elements(self) -> list[int]:
        return list(self.members)

    def __getstate__(self):
        return {"modulus": self.modulus, "mask": self.mask}

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return bool(self.mask >> (x % self.modulus) & 1)

    def __iter__(self):
        return iter(self.members)

    def literal(self) -> str:
        body = ",".join(str(e) for e in self.members)
        return f"n={self.modulus}:{{{body}}}"

    def __repr__(self) -> str:
        return f"ResidueSet({self.literal()!r})"


@dataclass(frozen=True)
class CosetProfile:
    """How a set meets the cosets of the subgroup of a given order."""

    subgroup_order: int
    cosets_met: int
    ap_of_cosets_length: int
    heaviest_coset_fill: Fraction
    heaviest_coset_count: int = field(default=0)


def cross_sum_mask(m1: int, m2: int, n: int, members=None) -> int:
    """A + B mod n for bitmasks A, B: one shift of the larger set per member
    of the smaller (m1's `members`, if the caller has them unpacked), then a
    single fold of the bits past n."""
    if members is None and m1.bit_count() > m2.bit_count():
        m1, m2 = m2, m1
    out = 0
    for e in bits.elements_of(m1) if members is None else members:
        out |= m2 << e
    return (out | out >> n) & bits.full_mask(n)


def _sumset_mask_convolution(mask: int, n: int) -> int:
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    coeffs = np.unpackbits(raw, bitorder="little")[:n]
    conv = ntt.convolve(coeffs, coeffs)
    hit = conv[:n] > 0
    hit[: n - 1] |= conv[n:] > 0
    return int.from_bytes(np.packbits(hit, bitorder="little").tobytes(), "little")


def sumset_mask(mask: int, n: int, members=None) -> int:
    if mask.bit_count() > CONVOLUTION_MIN_SIZE:
        return _sumset_mask_convolution(mask, n)
    return cross_sum_mask(mask, mask, n, members)


def sumset(a: ResidueSet) -> ResidueSet:
    """A + A = {x + y mod n : x, y in A}, x = y allowed."""
    if len(a) == 0:
        raise EmptySetError("sumset of the empty set")
    return ResidueSet(a.modulus, sumset_mask(a.mask, a.modulus, a.members))


def dilate(a: ResidueSet, d: int) -> ResidueSet:
    """d * A = {d x mod n}; requires gcd(d, n) = 1 so cardinality is kept."""
    n = a.modulus
    d %= n
    if gcd(d, n) != 1:
        raise NonUnitDilationError(f"gcd({d}, {n}) != 1")
    return ResidueSet.from_elements(n, [e * d for e in a.members])


def half_units(n: int) -> np.ndarray:
    """The units 1 <= m <= n/2 of Z_n, one of each pair m, n - m.  Negation
    keeps every circular gap and maps a half window onto a half window, so
    the sweeps below need only these rows."""
    ms = np.arange(1, n // 2 + 1)
    return ms if is_prime(n) else ms[np.gcd(ms, n) == 1]


def dilation_rows(elements, n: int, multipliers):
    """Yields (ms, rows), chunk by chunk: the sorted dilates m * A mod n, one
    row per multiplier in order.  For an (N, k) stack of sets the rows run
    set by set, N * len(ms) of them a chunk.  Products m * a < n^2 are exact
    in _product_dtype(n), whose int32 rows take 40% of the int64 time."""
    members = np.asarray(elements, dtype=_product_dtype(n))
    ms = np.asarray(multipliers, dtype=members.dtype)
    k = members.shape[-1]
    per_chunk = max(1, CANONICAL_STEP_ENTRIES // members.size)
    for lo in range(0, len(ms), per_chunk):
        chunk = ms[lo : lo + per_chunk]
        yield chunk, np.sort((chunk[:, None] * members[..., None, :] % n).reshape(-1, k), axis=1)


def dilation_gaps(elements, n: int, multipliers):
    """Yields (ms, gaps, ends) chunk by chunk, so callers can stop early: for
    each multiplier m, the longest circular run of residues missing from m * A
    (n - 1 for a singleton) and the smallest member right after such a run;
    for a stack of sets, one of each per row of dilation_rows."""
    for ms, rows in dilation_rows(elements, n, multipliers):
        steps = np.empty_like(rows)  # each member less the one before it, circularly
        np.subtract(rows[:, 1:], rows[:, :-1], out=steps[:, 1:])
        np.subtract(rows[:, 0] + n, rows[:, -1], out=steps[:, 0])
        at = steps.argmax(axis=1) + np.arange(0, rows.size, rows.shape[1])
        yield ms, steps.ravel()[at] - 1, rows.ravel()[at]


def sweep_sample(members) -> np.ndarray | None:
    """SAMPLE_SIZE of the members, evenly spaced by rank, or None for a set
    of fewer than SAMPLE_MIN_SIZE.  Each row of the sample misses every run
    the set's row misses, so its longest missing run is at least the set's
    at every multiplier."""
    k = len(members)
    if k < SAMPLE_MIN_SIZE:
        return None
    return np.sort(members)[np.arange(SAMPLE_SIZE) * k // SAMPLE_SIZE]


def half_window_fit(elements, n: int, multipliers) -> tuple[int, int] | None:
    """(m, u) for the first multiplier m, in the order given, whose dilate
    m * A lies inside a window of w = (n+1)//2 consecutive residues, with u
    the least start of such a window; else None.

    m * A fits iff its longest missing run leaves a span = n - gap <= w
    residues, from the member `end` after that run.  The windows holding it
    start at end + span - w .. end, so u = end + span - w, or 0 when those
    starts wrap past 0.  Sums inside the window cannot wrap, so a fitting
    dilate embeds in Z verbatim.  The first fitting row usually lies near
    the front (row 14 of about 400 in the median on small-doubling sets), so
    the rows go in slices of 32 that double up to the sweep's chunk, and the
    pass stops at the first slice holding a fit.

    A set of SAMPLE_MIN_SIZE members or more sweeps its sweep_sample S over
    each slice first and the whole set only on the multipliers where m * S
    fits.  That is exact: m * S lies inside m * A, so its longest missing
    run is at least A's, its span at most A's, and m * A fits only if m * S
    does.  The rows skipped cannot fit, so the first fit and its least
    start are the same.
    """
    members = np.asarray(elements, dtype=_product_dtype(n))
    ms = np.asarray(multipliers)
    sample = sweep_sample(members)
    w = (n + 1) // 2
    lo, size = 0, 32
    while lo < len(ms):
        part = ms[lo : lo + size]
        if sample is not None:
            sample_rows = dilation_gaps(sample, n, part)
            part = part[np.concatenate([n - gaps <= w for _, gaps, _ in sample_rows])]
        for chunk, gaps, ends in dilation_gaps(members, n, part):
            fit = n - gaps <= w
            if fit.any():
                i = int(fit.argmax())
                return int(chunk[i]), max(0, int(ends[i]) + n - int(gaps[i]) - w)
        lo += size
        size *= 2
    return None


def translate(a: ResidueSet, u: int) -> ResidueSet:
    return ResidueSet(a.modulus, bits.rotate(a.mask, u, a.modulus))


def negate(a: ResidueSet) -> ResidueSet:
    n = a.modulus
    return ResidueSet(n, bits.mask_of((-e % n for e in a.elements()), n))


def _product_dtype(p: int):
    """The narrowest of int16, int32 and int64 in which products of residues
    mod p, and of their differences, are exact (|x * y| < p^2).  int16 rows
    halve the vosper suite's sweep memory (p <= 181)."""
    return np.int16 if p * p < 2**15 else np.int32 if p * p < 2**31 else np.int64


def _inverse_mod(d: np.ndarray, p: int) -> np.ndarray:
    """d^(p-2) mod p elementwise (Fermat): the inverse of each unit d of Z_p."""
    out = np.ones_like(d)
    e = p - 2
    while e:
        if e & 1:
            out = out * d % p
        d = d * d % p
        e >>= 1
    return out


def _pair_images(rows: np.ndarray, p: int, pairs: np.ndarray) -> np.ndarray:
    """(N, len(pairs), k): each row's sorted image under z -> (z - x)/(y - x)
    for every ordered index pair (i, j), x = row[i], y = row[j]."""
    x = rows[:, pairs[:, 0], None]
    scale = _inverse_mod((rows[:, pairs[:, 1], None] - x) % p, p)
    images = (rows[:, None, :] - x) * scale % p
    images.sort(axis=2)
    return images


@lru_cache(maxsize=ENUMERATION_MAX_P)
def _ordered_pairs(k: int) -> np.ndarray:
    """The k(k-1) ordered index pairs (i, j), i != j, those among the top
    members first: on the walk's children, whose parents are canonical, they
    reject a non-canonical row after the fewest images.  Cached read-only."""
    i, j = np.nonzero(~np.eye(k, dtype=bool))
    pairs = np.stack([i, j], axis=1)[np.lexsort((abs(i - j), -np.maximum(i, j)))]
    pairs.setflags(write=False)
    return pairs


@lru_cache(maxsize=None)
def _quotient_table(p: int) -> np.ndarray:
    """The uint64 bit of d/e mod p at (d + p) * 2p + e + p, for d, e in (-p, p)
    and p <= ENUMERATION_MAX_P; cached read-only."""
    diffs = np.arange(-p, p)
    table = np.uint64(1) << (diffs[:, None] * _inverse_mod(diffs % p, p) % p).ravel().astype(np.uint64)
    table.setflags(write=False)
    return table


def affine_canonical_rows(rows, p: int) -> np.ndarray:
    """Which of the sorted rows (N, k) of members of Z_p, p <=
    ENUMERATION_MAX_P, are affine-canonical: equal to their
    lexicographically least affine image.

    That image starts (0, 1), so only the k(k-1) maps z -> (z - x)/(y - x)
    sending an ordered pair (x, y) of members to (0, 1) can produce it.
    Rows and images compare as uint64 characteristic masks: the lex-least
    sorted tuple is the lex-largest characteristic vector, so an image I
    beats its row R iff the lowest set bit of I ^ R lies in I.  A table of
    the bit of d/e for all differences d = z - x, e = y - x in (-p, p),
    built once per p from the inverses mod p, makes an image the OR of k
    gathered words.  Rows go in chunks, and a row leaves its chunk as soon
    as one image beats it; each step holds about CANONICAL_STEP_ENTRIES
    image entries.  Every table index, below 4p^2 < 2^15, fits int16.
    """
    if p > ENUMERATION_MAX_P:
        raise SearchRangeError(f"canonicity masks capped at p <= {ENUMERATION_MAX_P}")
    rows = np.asarray(rows, dtype=np.int16)
    n, k = rows.shape
    if k == 1:  # no pair maps: {z} is canonical iff z = 0
        return rows[:, 0] == 0
    pairs = _ordered_pairs(k)
    w = 2 * p
    table = _quotient_table(p)
    masks = sum(np.uint64(1) << col.astype(np.uint64) for col in rows.T)  # distinct members: the sum is the OR
    out = np.zeros(n, dtype=bool)
    per_chunk = max(1, CANONICAL_STEP_ENTRIES // k)
    for lo in range(0, n, per_chunk):
        alive = np.arange(lo, min(n, lo + per_chunk))
        done = 0
        while done < len(pairs) and len(alive):
            block = pairs[done : done + max(1, CANONICAL_STEP_ENTRIES // (len(alive) * k))]
            done += len(block)
            cur = rows[alive]
            base = cur[:, block[:, 1]] - cur[:, block[:, 0]] * (w + 1) + p * (w + 1)
            images = np.zeros(base.shape, np.uint64)
            for z in (cur * w).T:
                images |= table.take(z[:, None] + base)
            diff = images ^ masks[alive, None]
            alive = alive[~(images & diff & (~diff + np.uint64(1))).any(axis=1)]
        out[alive] = True
    return out


def affine_canonical_form(a: ResidueSet) -> ResidueSet:
    """Lexicographically least affine image d*A + u (sorted-tuple order).

    Prime modulus only: the affine maps then form a group of order p(p-1)
    acting sharply 2-transitively, and two sets share a canonical form iff
    they are affinely equivalent.  The least image is the least of the
    k(k-1) pair images of affine_canonical_rows.
    """
    if not a.prime_modulus:
        raise PrimeRequiredError("canonical form requires prime modulus")
    p, k = a.modulus, len(a)
    if k <= 1:
        return ResidueSet(p, int(k == 1))
    row = np.array([a.elements()], dtype=_product_dtype(p))
    best = a.elements()
    pairs = _ordered_pairs(k)
    per_block = max(1, CANONICAL_STEP_ENTRIES // k)
    for lo in range(0, len(pairs), per_block):
        images = _pair_images(row, p, pairs[lo : lo + per_block])[0]
        best = min(best, images[np.lexsort(images.T[::-1])[0]].tolist())
    return ResidueSet.from_elements(p, best)


def is_affine_canonical(a: ResidueSet) -> bool:
    """True iff a equals its own canonical form (any prime modulus)."""
    return affine_canonical_form(a) == a


def coset_profile(a: ResidueSet, h_order: int) -> CosetProfile:
    """Profile of a w.r.t. the unique subgroup H of order h_order.

    H = (n/h) * Z_n, so cosets are residue classes mod m = n/h.  The
    AP-of-cosets length is the minimal arithmetic progression in the quotient
    Z_m covering every met coset.
    """
    n = a.modulus
    if h_order < 1 or h_order >= n or n % h_order != 0:
        raise NotASubgroupError(f"no proper subgroup of order {h_order} in Z_{n}")
    if len(a) == 0:
        raise EmptySetError("coset profile of the empty set")
    m = n // h_order
    counts: dict[int, int] = {}
    for x in a.elements():
        counts[x % m] = counts.get(x % m, 0) + 1
    met_mask = bits.mask_of(counts.keys(), m)
    from .covering import min_ap_length_mod  # late import; covering uses ResidueSet

    ell = min_ap_length_mod(met_mask, m)
    heaviest = max(counts.values())
    return CosetProfile(
        subgroup_order=h_order,
        cosets_met=len(counts),
        ap_of_cosets_length=ell,
        heaviest_coset_fill=Fraction(heaviest, h_order),
        heaviest_coset_count=heaviest,
    )


@dataclass(frozen=True)
class CosetCaseReport:
    """Per-subgroup outcome of the coset-progression check."""

    subgroup_order: int
    profile: CosetProfile
    case: int  # 1: single coset, 2: two or >= 4 cosets, 3: exactly three
    inequality_ok: bool
    fill_ok: bool | None  # None when vacuous (ell < 2)
    satisfied: bool


@dataclass(frozen=True)
class CosetProgressionReport:
    doubling_ok: bool
    density_note: str
    entries: tuple[CosetCaseReport, ...]
    satisfying_orders: tuple[int, ...]
    not_found: bool


# Density threshold of the covering theorem for composite moduli; never
# satisfiable at the moduli this library handles, reported as a flag only.
DENSITY_FACTOR = 10**9

# The 2/3-occupancy clause is read as "at least ceil(2|H|/3) elements".
def _fill_threshold(h: int) -> int:
    return -(-2 * h // 3)


def coset_progression_report(a: ResidueSet) -> CosetProgressionReport:
    """For sets with |2A| <= 2.04 |A|: which proper subgroups H structure A
    into a short progression of cosets, case by case.

    Case 1 (one coset met): requires |A| > |H| / 10^9.
    Case 2 (two or at least four cosets): (ell - 1) |H| <= |2A| - |A|.
    Case 3 (exactly three cosets): (min(ell, 4) - 1) |H| <= |2A| - |A|.
    Whenever ell >= 2 a coset must hold at least ceil(2|H|/3) elements of A.
    """
    if len(a) == 0:
        raise EmptySetError("coset progression report of the empty set")
    n = a.modulus
    k = len(a)
    two_a = sumset(a)
    if 100 * len(two_a) > 204 * k:
        raise HypothesisNotMetError(
            f"|2A| = {len(two_a)} exceeds 2.04|A| = {2.04 * k:.2f}"
        )
    slack = len(two_a) - k
    entries = []
    for h in divisors(n):
        if h >= n:
            continue
        prof = coset_profile(a, h)
        met, ell = prof.cosets_met, prof.ap_of_cosets_length
        if met == 1:
            case = 1
            ineq = DENSITY_FACTOR * k > h
        elif met == 3:
            case = 3
            ineq = (min(ell, 4) - 1) * h <= slack
        else:
            case = 2
            ineq = (ell - 1) * h <= slack
        fill = None
        if ell >= 2:
            fill = prof.heaviest_coset_count >= _fill_threshold(h)
        satisfied = ineq and (fill is not False)
        entries.append(
            CosetCaseReport(h, prof, case, ineq, fill, satisfied)
        )
    sat = tuple(e.subgroup_order for e in entries if e.satisfied)
    return CosetProgressionReport(
        doubling_ok=True,
        density_note=(
            f"density hypothesis |A| <= n/{DENSITY_FACTOR} not satisfiable at "
            f"this scale (n = {n}); a NotFound outcome is inconclusive"
        ),
        entries=tuple(entries),
        satisfying_orders=sat,
        not_found=not sat,
    )
