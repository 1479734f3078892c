"""Shared brute-force oracles, deliberately independent of the library's
bitmask kernels: plain sets and loops only."""

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile("ci")


def naive_sumset(elements, n=None):
    out = set()
    for x in elements:
        for y in elements:
            s = x + y
            out.add(s % n if n is not None else s)
    return out


def brute_min_cover(elements, p):
    """Minimal covering AP length by walking every (start, step)."""
    target = set(elements)
    best = p
    for start in range(p):
        for step in range(1, p):
            seen = set()
            covered = set()
            length = 0
            v = start
            while v not in seen:
                seen.add(v)
                covered.add(v)
                length += 1
                if target <= covered:
                    best = min(best, length)
                    break
                v = (v + step) % p
    return best


def brute_canonical(elements, p):
    """Lexicographically least sorted tuple over all affine images."""
    best = None
    for d in range(1, p):
        for u in range(p):
            img = tuple(sorted((d * x + u) % p for x in elements))
            if best is None or img < best:
                best = img
    return best


def brute_window_max(elements, p):
    """Exhaustive best (count, d, u) for half-window capture."""
    w = (p + 1) // 2
    best = (-1, None, None)
    for d in range(1, p):
        dil = {x * d % p for x in elements}
        for u in range(p):
            window = {(u + i) % p for i in range(w)}
            c = len(dil & window)
            if c > best[0]:
                best = (c, d, u)
    return best


def window_capture_counts(a, d):
    """|[u, u + (p+1)/2) ∩ d*A| for every start u of Z_p, one dilation: the
    p-length reference for the window search's least best start.  The
    window slides one start at a time, dropping u and taking in u + w."""
    p = a.modulus
    w = (p + 1) // 2
    member = [0] * p
    for x in a.elements():
        member[x * d % p] = 1
    count = sum(member[:w])
    counts = []
    for u in range(p):
        counts.append(count)
        count += member[(u + w) % p] - member[u]
    return np.array(counts)


def brute_dft_magnitude(elements, p, d):
    """|sum_{a in A} e^{2 pi i a d / p}|, one complex exponential a member."""
    import cmath
    import math

    return abs(sum(cmath.exp(2j * math.pi * (a * d % p) / p) for a in elements))


@pytest.fixture
def rng():
    import random

    return random.Random(0x5EED)


def brute_rectifiable(elements, n):
    """The quadruple criterion: a subset of Z_n embeds sum-faithfully in Z
    iff no forbidden relation row (two pairs with different sums) lies in
    the rational span of the required ones (two pairs with equal sums).
    Every quadruple is listed; the span is an exact Fraction echelon form."""
    from fractions import Fraction

    k = len(elements)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    required, forbidden = [], []
    for x, (a, b) in enumerate(pairs):
        for c, d in pairs[x + 1 :]:
            row = [0] * k
            row[a] += 1
            row[b] += 1
            row[c] -= 1
            row[d] -= 1
            same = (elements[a] + elements[b] - elements[c] - elements[d]) % n == 0
            (required if same else forbidden).append(row)

    echelon = []  # (pivot column, row scaled to 1 at the pivot)

    def reduce(row):
        row = [Fraction(v) for v in row]
        for col, base in echelon:
            if row[col]:
                factor = row[col]
                row = [v - factor * w for v, w in zip(row, base)]
        return row

    for row in required:
        row = reduce(row)
        col = next((i for i, v in enumerate(row) if v), None)
        if col is not None:
            echelon.append((col, [v / row[col] for v in row]))
    return not any(not any(reduce(row)) for row in forbidden)


def brute_pair_classes(elements, n=None):
    """Index pairs i <= j grouped by elements[i] + elements[j] (mod n unless
    None; tuples add coordinatewise), as a set of frozensets of pairs."""
    groups = {}
    for i, x in enumerate(elements):
        for j in range(i, len(elements)):
            y = elements[j]
            s = tuple(a + b for a, b in zip(x, y)) if isinstance(x, tuple) else x + y
            if n is not None:
                s %= n
            groups.setdefault(s, []).append((i, j))
    return {frozenset(g) for g in groups.values()}


def brute_nullspace(rows, ncols):
    """(rank, pivots, basis) of an integer matrix by a plain-loop Fraction
    RREF: basis is the free-variable basis, one vector per free column in
    ascending order, with 1 at its free column."""
    from fractions import Fraction

    rref, pivots = [], []
    for row in rows:
        row = [Fraction(v) for v in row]
        for base, col in zip(rref, pivots):
            if row[col]:
                factor = row[col]
                row = [v - factor * w for v, w in zip(row, base)]
        col = next((i for i, v in enumerate(row) if v), None)
        if col is None:
            continue
        row = [v / row[col] for v in row]
        for base in rref:
            if base[col]:
                factor = base[col]
                base[:] = [v - factor * w for v, w in zip(base, row)]
        rref.append(row)
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for base, col in zip(rref, pivots):
            v[col] = -base[free]
        basis.append(v)
    return len(pivots), sorted(pivots), basis


def brute_two_lines_steps(elements):
    """Every step r for which the elements split into two nonempty parts
    lying on step-r lines P1, P2 (the shortest step-r progressions through
    each part) with |P1 u P2| <= |2A| - 2|A| + 3 and 2P1, P1 + P2, 2P2
    pairwise disjoint, all checked as plain sets.  Every r up to the span
    and every split is tried; an r whose residues split A into more than two
    classes is skipped whole, since no split puts it on two step-r lines."""
    a = sorted(elements)
    k = len(a)
    bound = len(naive_sumset(a)) - 2 * k + 3
    steps = []
    for r in range(1, a[-1] - a[0] + 1):
        if len({x % r for x in a}) > 2:
            continue
        for mask in range(1, 2 ** (k - 1)):  # the last member stays in part two
            parts = [[], []]
            for i, x in enumerate(a):
                parts[0 if mask >> i & 1 else 1].append(x)
            if any((x - part[0]) % r for part in parts for x in part):
                continue
            p1, p2 = (set(range(part[0], part[-1] + 1, r)) for part in parts)
            if len(p1 | p2) > bound:
                continue
            s11, s22 = naive_sumset(p1), naive_sumset(p2)
            s12 = {x + y for x in p1 for y in p2}
            if not (s11 & s12 or s11 & s22 or s12 & s22):
                steps.append(r)
                break
    return steps


def count_canonical_classes(p: int, k: int) -> int:
    """The library's class count, for comparison with affine_orbit_count."""
    from addcomb.search import enumerate_canonical

    return sum(1 for _ in enumerate_canonical(p, k))


def affine_orbit_count(p: int, k: int) -> int:
    """Burnside count of affine classes of k-subsets of Z_p: average over the
    group of the number of invariant k-subsets, via cycle structure."""
    total = 0
    for d in range(1, p):
        for u in range(p):
            cycles = _cycle_lengths(p, d, u)
            total += _invariant_subset_count(cycles, k)
    return total // (p * (p - 1))


def _cycle_lengths(p: int, d: int, u: int) -> list[int]:
    seen = [False] * p
    out = []
    for x0 in range(p):
        if seen[x0]:
            continue
        length = 0
        x = x0
        while not seen[x]:
            seen[x] = True
            x = (d * x + u) % p
            length += 1
        out.append(length)
    return out


def _invariant_subset_count(cycles: list[int], k: int) -> int:
    # knapsack over whole cycles
    dp = [0] * (k + 1)
    dp[0] = 1
    for c in cycles:
        if c > k:
            continue
        for s in range(k, c - 1, -1):
            dp[s] += dp[s - c]
    return dp[k]
