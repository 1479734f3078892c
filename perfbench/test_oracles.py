"""The benchmark's oracles against brute force at small p.

    python3 -m pytest -q perfbench

Brute force here means walking every progression, counting every window,
trying every affine map and eliminating over the rationals: slow, but with
nothing in common with the oracles' shortcuts.
"""

import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

import oracles

SMALL_PRIMES = [3, 5, 7, 11, 13]


def all_subsets(p, min_size=1):
    for k in range(min_size, p + 1):
        yield from itertools.combinations(range(p), k)


def walk_cover(elements, p):
    """(ell, smallest step) by walking every start and step."""
    target = set(elements)
    best = (p + 1, None)
    for step in range(1, max((p - 1) // 2, 1) + 1):
        for start in range(p):
            covered, x = set(), start
            while not target <= covered:
                covered.add(x)
                x = (x + step) % p
            if len(covered) < best[0]:
                best = (len(covered), step)
    return best


def every_window(elements, p):
    w = (p + 1) // 2
    return max(
        len({d * x % p for x in elements} & {(u + i) % p for i in range(w)})
        for d in range(1, p)
        for u in range(p)
    )


def rational_rank(rows, ncols):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def brute_dimension(a):
    """|A| - 1 - rank of every relation a_i + a_j = a_k + a_l."""
    k = len(a)
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    rows = []
    for (i, j), (u, v) in itertools.combinations(pairs, 2):
        if a[i] + a[j] == a[u] + a[v]:
            row = [0] * k
            row[i] += 1
            row[j] += 1
            row[u] -= 1
            row[v] -= 1
            rows.append(row)
    return k - 1 - rational_rank(rows, k)


def normal_form_sets(limit):
    for size in range(1, limit + 2):
        for rest in itertools.combinations(range(1, limit + 1), size - 1):
            g = 0
            for x in rest:
                g = gcd(g, x)
            if g == 1:
                yield (0,) + rest


def test_sumset():
    assert oracles.sumset([0, 1, 3], 7) == {0, 1, 2, 3, 4, 6}
    assert oracles.sumset([0, 2, 5]) == {0, 2, 4, 5, 7, 10}


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_min_cover_every_subset(p):
    for a in all_subsets(p):
        assert oracles.min_cover(a, p) == walk_cover(a, p), a


def test_min_cover_random_sets():
    rng = random.Random(7)
    for p in (17, 19, 23, 29, 31):
        for _ in range(15):
            a = rng.sample(range(p), rng.randrange(1, p))
            assert oracles.min_cover(a, p) == walk_cover(a, p), (p, a)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_window_max_every_subset(p):
    for a in all_subsets(p):
        assert oracles.window_capture_max(a, p) == every_window(a, p), a


def test_window_max_random_sets():
    rng = random.Random(11)
    for p in (13, 17, 23, 31):
        for _ in range(10):
            a = rng.sample(range(p), rng.randrange(1, p))
            assert oracles.window_capture_max(a, p) == every_window(a, p), (p, a)
            d = rng.randrange(1, p)
            assert oracles.window_capture_max(a, p, [d]) == max(
                oracles.window_count(a, p, d, u) for u in range(p)
            )


def test_canonical_form_is_an_invariant_image():
    rng = random.Random(3)
    p = 13
    for _ in range(30):
        a = rng.sample(range(p), rng.randrange(1, p))
        form = oracles.canonical_form(a, p)
        d, u = rng.randrange(1, p), rng.randrange(p)
        assert oracles.canonical_form([(d * x + u) % p for x in a], p) == form
        assert form <= tuple(sorted(a))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_class_count_against_distinct_forms(p):
    for k in range(1, p + 1):
        for cap in sorted({p, oracles.hunt_cap(p, k), 2 * k}):
            forms = {
                oracles.canonical_form(a, p)
                for a in itertools.combinations(range(p), k)
                if len(oracles.sumset(a, p)) <= cap
            }
            assert oracles.class_count(p, k, cap) == len(forms), (k, cap)


def test_dimensions_against_rational_rank():
    rng = random.Random(5)
    for size in range(2, 9):
        sets = [sorted(rng.sample(range(25), size)) for _ in range(25)]
        sets.append(list(range(size)))  # a progression: dimension 1
        got = oracles.dimensions(sets)
        assert [brute_dimension(a) for a in sets] == list(got)


def test_prop23_scan_against_brute_force():
    limit = 11
    examined, best, violations = 0, Fraction(0), 0
    by_size = {}
    for a in normal_form_sets(limit):
        by_size.setdefault(len(a), []).append(a)
    for size in range(3, limit + 2):
        if best >= Fraction(limit, size) and 4 * size > limit:
            break
        for a in by_size.get(size, []):
            if 100 * len(oracles.sumset(a)) <= 304 * size - 300 and brute_dimension(a) == 1:
                examined += 1
                best = max(best, Fraction(a[-1], size))
                violations += a[-1] > 4 * size
    assert oracles.prop23_scan(limit) == (examined, best, violations)


def test_suite_counts_against_brute_force():
    sets = list(normal_form_sets(9))
    assert oracles.dim_bound_count(9, 2, 5) == sum(1 for a in sets if 2 <= len(a) <= 5)
    met = sum(1 for a in sets if len(oracles.sumset(a)) <= 3 * len(a) - 4)
    assert oracles.three_k_four_counts(9) == (len(sets), met)
    vosper = sum(
        1
        for p in (3, 5, 7, 11)
        for r in range(p - 1)
        for rest in itertools.combinations(range(2, p), r)
        if len(oracles.sumset((0, 1) + rest, p)) <= p - 2
    )
    assert oracles.vosper_count(11) == vosper


def test_families():
    brute1 = [
        (2 * k + 2 * x - 1, k, x)
        for k in range(2, 60)
        for x in range(0, k - 2)
        if 2 * k + 2 * x - 1 <= 97 and oracles.primes_between(2 * k + 2 * x - 1, 2 * k + 2 * x - 1)
    ]
    assert sorted(oracles.example1_instances(97)) == sorted(brute1)
    for p, k, x in brute1:
        a = oracles.example1_set(p, x)
        bound = len(oracles.sumset(a, p)) - len(a) + 1
        assert bound == k + x
        if x == k - 3:
            start, step, length = oracles.example1_boundary_witness(p)
            assert set(a) <= oracles.progression(start, step, length, p)
            assert length == bound == walk_cover(a, p)[0]
    assert oracles.example2_instances(50) == [
        t for t in range(2, 14) if 4 * t - 1 <= 50 and all((4 * t - 1) % q for q in range(2, 4 * t - 1))
    ]
    for t in (2, 3, 5):
        a, p = oracles.example2_set(t), 4 * t - 1
        assert len(oracles.sumset(a, p)) == 3 * t - 1
        assert oracles.min_cover(a, p)[0] == walk_cover(a, p)[0]
