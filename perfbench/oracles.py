"""Reference computations the benchmark checks the library against.

None of this imports addcomb: plain sets, tuples and numpy only, so a fault
in a library kernel cannot hide in its own check.  perfbench/test_oracles.py
tests each oracle against brute force at small p.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

import numpy as np

# Rows of positions handled per numpy chunk; bounds the oracles' memory.
_CHUNK_ELEMENTS = 1 << 22


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi, by trial division."""
    return [
        n for n in range(max(lo, 2), hi + 1)
        if all(n % q for q in range(2, int(n ** 0.5) + 1))
    ]


def sumset(elements, n: int | None = None) -> set[int]:
    """A + A with x = y allowed, reduced mod n unless n is None."""
    els = list(elements)
    if n is None:
        return {x + y for x in els for y in els}
    return {(x + y) % n for x in els for y in els}


def _dilate_rows(elements, p: int, multipliers: np.ndarray) -> np.ndarray:
    """Row i holds the sorted residues multipliers[i] * A mod p."""
    a = np.asarray(sorted(elements), dtype=np.int64)
    return np.sort(multipliers[:, None] * a[None, :] % p, axis=1)


def _chunks(count: int, width: int):
    rows = max(1, _CHUNK_ELEMENTS // max(width, 1))
    for lo in range(0, count, rows):
        yield lo, min(count, lo + rows)


def min_cover(elements, p: int) -> tuple[int, int]:
    """(ell(A), smallest step attaining it) for A in Z_p, p prime.

    A lies in the step-d progression of length L iff d^-1 * A lies in an
    interval of length L, so L(d) = p minus the largest circular gap of the
    sorted residues d^-1 * A.  Steps d and p - d give the same cover, so the
    sweep runs over d = 1 .. max((p-1)/2, 1), in chunks of rows.
    """
    els = sorted(set(x % p for x in elements))
    k = len(els)
    if k == 0:
        raise ValueError("empty set")
    if k == p:
        return p, 1
    steps = np.arange(1, max((p - 1) // 2, 1) + 1, dtype=np.int64)
    inverses = np.array([pow(int(d), -1, p) for d in steps], dtype=np.int64)
    best_len, best_step = p + 1, None
    for lo, hi in _chunks(len(steps), k):
        rows = _dilate_rows(els, p, inverses[lo:hi])
        gaps = np.diff(rows, axis=1, append=rows[:, :1] + p) - 1
        lengths = p - gaps.max(axis=1)
        i = int(np.argmin(lengths))  # first minimum: smallest step
        if lengths[i] < best_len:
            best_len, best_step = int(lengths[i]), int(steps[lo + i])
    return best_len, best_step


def window_capture_max(elements, p: int, dilations=None) -> int:
    """max over d and u of |[u, u + (p+1)/2) ∩ d*A| (d over `dilations`,
    default every unit).

    For each d the maximum over u is attained with u at a member of d*A
    (sliding the window right to the next member loses nothing), so the
    count runs over member-anchored windows only; test_oracles.py checks
    that against every (d, u) at small p.
    """
    els = sorted(set(x % p for x in elements))
    k = len(els)
    w = (p + 1) // 2
    if dilations is None:
        dilations = np.arange(1, p, dtype=np.int64)
    dilations = np.asarray(dilations, dtype=np.int64)
    best = 0
    for lo, hi in _chunks(len(dilations), 2 * k):
        rows = _dilate_rows(els, p, dilations[lo:hi])
        ext = np.concatenate([rows, rows + p], axis=1)
        offsets = (np.arange(hi - lo, dtype=np.int64) * 4 * p)[:, None]
        flat = (ext + offsets).ravel()
        ends = np.searchsorted(flat, (rows + w + offsets).ravel())
        counts = ends.reshape(hi - lo, k) - (
            np.arange(hi - lo)[:, None] * 2 * k + np.arange(k)[None, :]
        )
        best = max(best, int(counts.max()))
    return best


def window_count(elements, p: int, d: int, u: int) -> int:
    """|[u, u + (p+1)/2) ∩ d*A|, directly."""
    w = (p + 1) // 2
    return sum(1 for x in set(elements) if (d * x - u) % p < w)


def transform_magnitude(elements, p: int, d: int) -> float:
    """|sum over a in A of e^(2 pi i a d / p)|."""
    a = np.asarray(sorted(set(elements)), dtype=np.float64)
    return float(abs(np.exp(2j * np.pi * (a * d % p) / p).sum()))


def canonical_form(elements, p: int) -> tuple[int, ...]:
    """Lexicographically least sorted tuple over all p(p-1) affine images."""
    return min(
        tuple(sorted((d * x + u) % p for x in elements))
        for d in range(1, p)
        for u in range(p)
    )


# --- class counts for the hunt ---------------------------------------------


def hunt_cap(p: int, k: int) -> int:
    """The hunt's sumset cap: none for k <= 2, else min(3k - 4, p - 2)."""
    return p if k <= 2 else min(3 * k - 4, p - 2)


def _sets_with_01(p: int, k: int, cap: int) -> int:
    """Number of k-subsets of Z_p containing {0, 1} with |2A| <= cap, by a
    depth-first walk over sorted tuples (a prefix's sumset only grows)."""
    full = (1 << p) - 1

    def twice(mask: int, x: int) -> int:  # x + A as a cyclic rotation
        return ((mask << x) | (mask >> (p - x))) & full

    def walk(mask: int, sums: int, size: int, last: int) -> int:
        if size == k:
            return 1
        total = 0
        for e in range(last + 1, p - (k - size) + 1):
            m = mask | 1 << e
            s = sums | twice(m, e)
            if bin(s).count("1") <= cap:
                total += walk(m, s, size + 1, e)
        return total

    mask = 0b11
    sums = 0b111 if p > 2 else 0b11
    if bin(sums).count("1") > cap:
        return 0
    return walk(mask, sums, 2, 1)


def _fixed_sets_of_dilation(p: int, k: int, d: int, cap: int) -> int:
    """k-subsets fixed by x -> d x (d != 1) with |2A| <= cap: unions of the
    orbits of <d> on Z_p, which are {0} and the cosets of <d> in Z_p^*."""
    cosets, seen = [], set()
    for x in range(1, p):
        if x not in seen:
            orbit, y = [], x
            while y not in orbit:
                orbit.append(y)
                y = y * d % p
            seen.update(orbit)
            cosets.append(orbit)
    order = len(cosets[0])
    total = 0
    for with_zero in (False, True):
        rest = k - with_zero
        if rest < 0 or rest % order:
            continue
        for chosen in itertools.combinations(cosets, rest // order):
            a = [0] * with_zero + [x for c in chosen for x in c]
            if len(sumset(a, p)) <= cap:
                total += 1
    return total


def class_count(p: int, k: int, cap: int) -> int:
    """Affine classes of k-subsets of Z_p with |2A| <= cap, by Burnside.

    The identity fixes N sets, and N k(k-1) = p(p-1) M, with M the sets
    containing {0, 1} (one affine map sends each ordered pair of A to
    (0, 1)).  A map x -> d x + u with d != 1 is a translate-conjugate of
    x -> d x, and |2A| is translation-invariant; maps with d = 1, u != 0
    fix only Z_p itself.
    """
    if k == 1:
        return 1 if cap >= 1 else 0
    if k == p:
        return 1 if p <= cap else 0
    total = Fraction(_sets_with_01(p, k, cap), k * (k - 1))
    for d in range(2, p):
        total += Fraction(_fixed_sets_of_dilation(p, k, d, cap), p - 1)
    if total.denominator != 1:
        raise ArithmeticError(f"Burnside count {total} is not whole")
    return int(total)


def hunt_class_count(p: int) -> int:
    """Classes the conjecture hunt examines at p: k with 2k - 1 <= p."""
    return sum(
        class_count(p, k, hunt_cap(p, k)) for k in range(1, (p + 1) // 2 + 1)
    )


# --- integer sets: dimension and the suite counts ---------------------------

_RANK_PRIME = 2147483647


def _relation_matrices(sets: np.ndarray) -> np.ndarray:
    """Row t of set b: e_i + e_j - e_i' - e_j' for the t-th and (t+1)-th
    pairs in sum order when their sums agree, else zero.  Chaining the pairs
    of each sum class spans every relation a_i + a_j = a_i' + a_j'."""
    b, s = sets.shape
    ii, jj = np.triu_indices(s)
    sums = sets[:, ii] + sets[:, jj]
    order = np.argsort(sums, axis=1, kind="stable")
    sums = np.take_along_axis(sums, order, axis=1)
    pi, pj = ii[order], jj[order]
    same = sums[:, 1:] == sums[:, :-1]
    cols = np.arange(s)
    rows = (
        (pi[:, :-1, None] == cols).astype(np.int64)
        + (pj[:, :-1, None] == cols)
        - (pi[:, 1:, None] == cols)
        - (pj[:, 1:, None] == cols)
    )
    return rows * same[:, :, None]


def _rank_mod_prime(m: np.ndarray) -> np.ndarray:
    """Rank of each matrix in the batch over GF(q), q = 2^31 - 1, by
    fraction-free elimination (scaling a row by a unit keeps the rank)."""
    m = m % _RANK_PRIME
    b, r, c = m.shape
    rank = np.zeros(b, dtype=np.int64)
    row_ids = np.arange(r)
    for col in range(c):
        cand = (m[:, :, col] != 0) & (row_ids[None, :] >= rank[:, None])
        live = np.nonzero(cand.any(axis=1))[0]
        if len(live) == 0:
            continue
        piv = np.argmax(cand[live], axis=1)
        top = rank[live]
        m[live, piv], m[live, top] = m[live, top], m[live, piv].copy()
        pivot_row = m[live, top]  # (n, c)
        lead = pivot_row[:, col][:, None, None]
        factor = m[live, :, col][:, :, None]
        below = (row_ids[None, :] > top[:, None])[:, :, None]
        updated = (m[live] * lead - factor * pivot_row[:, None, :]) % _RANK_PRIME
        m[live] = np.where(below, updated, m[live])
        rank[live] += 1
    return rank


def dimensions(sets) -> np.ndarray:
    """Additive (Freiman) dimension of each integer set of one size:
    |A| - 1 - rank of the relation system.

    Exact: rows have at most four nonzero entries of size <= 2, so by
    Hadamard every minor of order r is at most 6^(r/2) in absolute value,
    below q for r <= 23, and the rank mod q equals the rank over Q.
    """
    arr = np.asarray(sets, dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise ValueError("need a batch of sets with at least two elements")
    s = arr.shape[1]
    if s > 25:
        raise ValueError("rank bound proven only for |A| <= 25")
    out = np.empty(len(arr), dtype=np.int64)
    step = max(1, (1 << 20) // (s * s * s))
    for lo in range(0, len(arr), step):
        chunk = arr[lo : lo + step]
        out[lo : lo + len(chunk)] = s - 1 - _rank_mod_prime(_relation_matrices(chunk))
    return out


def _mask_bits(masks: np.ndarray, width: int) -> np.ndarray:
    """(len(masks), width) booleans: bit i of each mask."""
    return (masks[:, None] >> np.arange(width, dtype=np.uint64)) & np.uint64(1) == 1


def _int_sumset_sizes(masks: np.ndarray, width: int) -> np.ndarray:
    """|2A| for sets A in [0, width) given as bitmasks (2 width <= 64)."""
    out = np.zeros_like(masks)
    for i in range(width):
        has = (masks >> np.uint64(i)) & np.uint64(1)
        out |= np.where(has == 1, masks << np.uint64(i), np.uint64(0))
    return np.bitwise_count(out).astype(np.int64)


def _gcds(masks: np.ndarray, width: int) -> np.ndarray:
    g = np.zeros(len(masks), dtype=np.int64)
    for i in range(1, width):
        has = ((masks >> np.uint64(i)) & np.uint64(1)) == 1
        g = np.where(has, np.gcd(g, i), g)
    return g


def normal_form_masks(limit: int) -> np.ndarray:
    """Every A in [0, limit] with 0 in A and gcd 1, as bitmasks."""
    masks = (np.arange(1 << limit, dtype=np.uint64) << np.uint64(1)) | np.uint64(1)
    return masks[_gcds(masks, limit + 1) == 1]


def prop23_scan(limit: int) -> tuple[int, Fraction, int]:
    """(examined, best max(A)/|A|, sets with max(A) > 4|A|) of the
    prop23_variant suite: 1-dimensional
    normal-form sets in [0, limit] with |2A| <= 3.04|A| - 3, by size from 3,
    stopping at the first size where 4|A| > limit and max/|A| <= limit/|A|
    cannot beat the best ratio so far."""
    masks = normal_form_masks(limit)
    sizes = np.bitwise_count(masks).astype(np.int64)
    two = _int_sumset_sizes(masks, limit + 1)
    examined, best, violations = 0, Fraction(0), 0
    for size in range(3, limit + 2):
        if best >= Fraction(limit, size) and 4 * size > limit:
            break
        cap = (304 * size - 300) // 100
        chosen = masks[(sizes == size) & (two <= cap)]
        if len(chosen) == 0:
            continue
        bits = _mask_bits(chosen, limit + 1)
        sets = np.nonzero(bits)[1].reshape(len(chosen), size)
        one_dim = sets[dimensions(sets) == 1]
        examined += len(one_dim)
        violations += int((one_dim[:, -1] > 4 * size).sum())
        if len(one_dim):
            best = max(best, Fraction(int(one_dim[:, -1].max()), size))
    return examined, best, violations


def dim_bound_count(limit: int, min_size: int, max_size: int) -> int:
    """Normal-form sets in [0, limit] with min_size <= |A| <= max_size."""
    return sum(
        1
        for size in range(min_size, max_size + 1)
        for rest in itertools.combinations(range(1, limit + 1), size - 1)
        if _gcd_all(rest) == 1
    )


def _gcd_all(values) -> int:
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def three_k_four_counts(limit: int) -> tuple[int, int]:
    """(normal-form sets in [0, limit] of any size, those with
    |2A| <= 3|A| - 4)."""
    masks = normal_form_masks(limit)
    sizes = np.bitwise_count(masks).astype(np.int64)
    two = _int_sumset_sizes(masks, limit + 1)
    return len(masks), int((two <= 3 * sizes - 4).sum())


def vosper_count(max_p: int) -> int:
    """Sets containing {0, 1} in Z_p with |2A| <= p - 2, summed over primes
    p <= max_p (the Vosper suite's sweep)."""
    total = 0
    for p in primes_between(2, max_p):
        if p < 3:
            continue  # Z_2: {0, 1} is everything and |2A| = 2 > 0
        masks = (np.arange(1 << (p - 2), dtype=np.uint64) << np.uint64(2)) | np.uint64(3)
        full = np.uint64((1 << p) - 1)
        out = np.zeros_like(masks)
        for i in range(p):
            has = ((masks >> np.uint64(i)) & np.uint64(1)) == 1
            rot = ((masks << np.uint64(i)) | (masks >> np.uint64(p - i))) & full
            out |= np.where(has, rot, np.uint64(0))
        total += int((np.bitwise_count(out) <= p - 2).sum())
    return total


# --- extremal families ------------------------------------------------------


def example1_instances(max_p: int) -> list[tuple[int, int, int]]:
    """(p, k, x) with p = 2k + 2x - 1 prime <= max_p, k >= 2, 0 <= x <= k - 3."""
    out = []
    for p in primes_between(5, max_p):
        for k in range(2, (p + 1) // 2 + 1):
            x = (p + 1) // 2 - k
            if 0 <= x <= k - 3:
                out.append((p, k, x))
    return out


def example1_set(p: int, x: int) -> list[int]:
    return [0] + list(range(x + 2, (p + 1) // 2 + 1))


def example1_boundary_witness(p: int) -> tuple[int, int, int]:
    """(start, step, length) of the progression covering example 1 at
    x = k - 3: p = 4k - 7 and 2*A is an interval of length (p+1)/2."""
    return (p + 1) // 2, (p - 1) // 2, (p + 1) // 2


def example2_instances(max_p: int) -> list[int]:
    """t >= 2 with p = 4t - 1 prime <= max_p."""
    return [t for t in range(2, (max_p + 1) // 4 + 1) if primes_between(4 * t - 1, 4 * t - 1)]


def example2_set(t: int) -> list[int]:
    return [i for i in range(t + 1) if i != t - 1] + [2 * t]


def progression(start: int, step: int, length: int, p: int) -> set[int]:
    return {(start + i * step) % p for i in range(length)}
