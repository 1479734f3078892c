"""The per-dilation gap kernel and the sweeps built on it: covers, the AP
test, the half-window fit, the half-window search and its memory bound,
checked against brute-force oracles and their tie-breaks."""

import itertools
import tracemalloc

import numpy as np
import pytest

from addcomb import bits, covering, residues, spectral
from addcomb.covering import (
    _longest_runs, is_arithmetic_progression, min_ap_cover, min_ap_length_mod,
)
from addcomb.errors import ConsistencyError
from addcomb.primes import primes_upto
from addcomb.residues import (
    CANONICAL_STEP_ENTRIES,
    ResidueSet,
    dilation_gaps,
    half_units,
    half_window_fit,
)
from addcomb.spectral import best_half_window
from conftest import brute_min_cover, brute_window_max


def rs(n, els):
    return ResidueSet.from_elements(n, els)


def brute_cover_witness(els, p):
    """Least (length, step, start) over every AP with step <= (p-1)/2 that
    covers els, by walking each (step, start)."""
    target = set(els)
    best = None
    for step in range(1, max((p - 1) // 2, 1) + 1):
        for start in range(p):
            covered = set()
            for length in range(1, p + 1):
                covered.add((start + (length - 1) * step) % p)
                if target <= covered:
                    break
            if best is None or (length, step, start) < best:
                best = (length, step, start)
    return best


def brute_gap(els, n, m):
    """Longest circular run missing from m*els, and the member after the
    first such run in ascending order."""
    row = sorted(x * m % n for x in els)
    gaps = [(e - prev - 1) % n for prev, e in zip(row[-1:] + row[:-1], row)]
    top = max(gaps)
    return top, row[gaps.index(top)]


def brute_first_fit(els, n, ms):
    """(m, u) for the first m whose dilate lies in some window of (n+1)//2
    consecutive residues, with u the least start of one, by trying every
    start."""
    w = (n + 1) // 2
    for m in ms:
        dil = {x * m % n for x in els}
        for u in range(n):
            if all((x - u) % n < w for x in dil):
                return m, u
    return None


def test_dilation_gaps_match_brute_rows(rng):
    for _ in range(200):
        n = rng.randrange(2, 60)
        els = rng.sample(range(n), rng.randrange(1, n + 1))
        ms = [m for m in range(1, n) if np.gcd(m, n) == 1]
        got = []
        for chunk, gaps, ends in dilation_gaps(els, n, ms):
            got += list(zip(chunk.tolist(), gaps.tolist(), ends.tolist()))
        assert got == [(m, *brute_gap(els, n, m)) for m in ms]


def test_dilation_gaps_chunking_keeps_row_order():
    # more rows than one chunk holds: every row is still seen, in order
    p = 4001
    els = list(range(0, 4000, 3))
    rows = CANONICAL_STEP_ENTRIES // len(els)
    ms = np.arange(1, 3 * rows + 2)
    seen = np.concatenate([c for c, _, _ in dilation_gaps(els, p, ms)])
    assert seen.tolist() == ms.tolist()
    chunks = list(dilation_gaps(els, p, ms))
    assert len(chunks) == 4 and all(len(c) <= rows for c, _, _ in chunks)
    last = chunks[-1]
    assert (last[1][-1], last[2][-1]) == brute_gap(els, p, int(ms[-1]))


@pytest.mark.parametrize("p, dtype, next_prime", [
    (181, np.int16, 191), (46337, np.int32, 46349), (65537, np.int64, 65539),
])
def test_dilation_gaps_match_brute_rows_at_each_row_width(monkeypatch, rng, p, dtype, next_prime):
    # the largest primes with int16 rows (p^2 < 2^15) and int32 rows
    # (p^2 < 2^31), and an int64 one; stacks of 5 sets of k members, the
    # singletons' run p - 1, in chunks of a few rows each
    assert residues._product_dtype(p) == dtype
    assert residues._product_dtype(next_prime) == (np.int32 if dtype == np.int16 else np.int64)
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 64)
    ms = sorted(rng.sample(range(1, p // 2 + 1), 40))
    for k in (1, 2, 9):
        stack = [rng.sample(range(p), k) for _ in range(5)]
        got = [[] for _ in stack]
        for chunk, gaps, ends in dilation_gaps(stack, p, ms):
            assert gaps.dtype == ends.dtype == dtype
            per_set = zip(gaps.reshape(len(stack), -1).tolist(), ends.reshape(len(stack), -1).tolist())
            for row, (set_gaps, set_ends) in zip(got, per_set):
                row += zip(chunk.tolist(), set_gaps, set_ends)
        for els, row in zip(stack, got):
            assert row == [(m, *brute_gap(els, p, m)) for m in ms]
            assert k > 1 or {gap for _, gap, _ in row} == {p - 1}


def test_sweeps_exhaustive_tiny_primes():
    for p in (2, 3, 5, 7):
        for mask in range(1, 1 << p):
            els = bits.elements_of(mask)
            a = ResidueSet(p, mask)
            res = min_ap_cover(a)
            assert res.length == brute_min_cover(els, p)
            want = brute_cover_witness(els, p)
            assert (res.length, res.witness.step, res.witness.start) == want
            assert is_arithmetic_progression(a) == (res.length == len(els))
            w = best_half_window(a)
            assert (len(w), w.d, w.u) == brute_window_max(els, p)


def test_sweeps_extreme_sizes_up_to_199(rng):
    primes = [p for p in primes_upto(100) if p >= 11]
    for p in (rng.choice(primes), 199):
        for k in (1, 2, p - 1, p):
            els = rng.sample(range(p), k)
            a = rs(p, els)
            res = min_ap_cover(a)
            assert res.length == brute_min_cover(els, p) == k
            assert res.witness.covers(els)
            assert is_arithmetic_progression(a)
            w = best_half_window(a)
            assert (len(w), w.d, w.u) == brute_window_max(els, p)


def test_cover_tie_breaks_smallest_step_then_start(rng):
    for _ in range(150):
        p = rng.choice([11, 13, 17])
        els = rng.sample(range(p), rng.randrange(1, p + 1))
        res = min_ap_cover(rs(p, els))
        want = brute_cover_witness(els, p)
        assert (res.length, res.witness.step, res.witness.start) == want


def test_cover_step_whose_inverse_lies_above_half():
    # the step-2 progression {0, 2, 4, 6}: the sweep meets it on the row
    # m = (p-1)/2 = -1/2, the mirror of 1/2 = (p+1)/2 > p/2
    res = min_ap_cover(rs(11, [0, 2, 4, 6]))
    assert (res.length, res.witness.step, res.witness.start) == (4, 2, 0)
    # two longest gaps of equal length in the winning row: smallest start
    res = min_ap_cover(rs(13, [1, 2, 7, 8]))
    assert (res.length, res.witness.step, res.witness.start) == (
        brute_cover_witness([1, 2, 7, 8], 13)
    )


def test_window_tie_break_smallest_d_then_u(rng):
    for _ in range(40):
        p = rng.choice([17, 19, 23])
        els = rng.sample(range(p), rng.randrange(1, p + 1))
        w = best_half_window(rs(p, els))
        assert (len(w), w.d, w.u) == brute_window_max(els, p)
        assert w.d <= (p - 1) // 2


def test_window_tie_across_chunks(rng):
    # A is a union of cosets of {1, h, -1, -h} (h^2 = -1), so d and d*h
    # capture alike and the maximising d fall in different chunks of rows
    p = 4001
    h = next(x for x in range(2, p) if x * x % p == p - 1)
    seeds = rng.sample(range(1, p), 400)
    els = np.array(sorted({s * g % p for s in seeds for g in (1, h, p - 1, p - h)}))
    w = (p + 1) // 2
    best = []
    for d in range(1, p):
        ind = np.zeros(p, dtype=np.int64)
        ind[els * d % p] = 1
        cs = np.concatenate([[0], np.cumsum(np.concatenate([ind, ind[: w - 1]]))])
        counts = cs[w:] - cs[:p]
        best.append((-int(counts.max()), d, int(counts.argmax())))
    top, d, u = min(best)
    rows = CANONICAL_STEP_ENTRIES // len(els)
    assert any(c == top and rows < e <= p // 2 for c, e, _ in best)
    win = best_half_window(rs(p, els.tolist()))
    assert (len(win), win.d, win.u) == (-top, d, u)


def test_is_arithmetic_progression_random_aps(rng):
    for _ in range(100):
        p = rng.choice(primes_upto(400)[2:])
        k = rng.randrange(2, p - 1)
        start, step = rng.randrange(p), rng.randrange(1, p)
        ap = [(start + i * step) % p for i in range(k)]
        assert is_arithmetic_progression(rs(p, ap))
        # move one end point off the progression
        broken = ap[:-1] + [(start + (k + rng.randrange(1, p - k)) * step) % p]
        assert is_arithmetic_progression(rs(p, broken)) == (
            min_ap_cover(rs(p, broken)).length == k
        )


def test_half_interval_dilation_composite(rng):
    for _ in range(100):
        n = rng.randrange(2, 40)
        els = rng.sample(range(n), rng.randrange(1, n + 1))
        units = [d for d in range(1, n) if np.gcd(d, n) == 1]
        assert half_window_fit(els, n, half_units(n)) == brute_first_fit(els, n, units)


def test_best_half_window_memory_is_bounded():
    p = 4001
    a = rs(p, range(0, 4000, 2))
    tracemalloc.start()
    try:
        best_half_window(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def check_window(p, els):
    w = best_half_window(rs(p, els))
    assert (len(w), w.d, w.u) == brute_window_max(els, p)
    return w


def scaled(p, els, m):
    return sorted({x * m % p for x in els})


def no_member_sweep(*args):
    raise AssertionError("member sweep reached although a dilate fits")


def test_window_first_fit_in_a_later_chunk(monkeypatch):
    # seven elements a chunk: one row each, so d = 1 and d = 2 (which do not
    # fit) are swept in chunks before the fitting row d = 3
    p = 31
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 7)
    monkeypatch.setattr(spectral, "_member_window_counts", no_member_sweep)
    els = scaled(p, [0, 1, 2, 3, 5, 8, 15], pow(3, -1, p))
    fits = [m for m in range(1, p // 2 + 1) if half_window_fit(els, p, [m])]
    assert fits[0] == 3
    assert half_window_fit(els, p, half_units(p)) == half_window_fit(els, p, [3])
    assert check_window(p, els).d == 3


def test_window_smallest_of_several_fitting_dilations(monkeypatch, rng):
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 1)  # one row a chunk
    monkeypatch.setattr(spectral, "_member_window_counts", no_member_sweep)
    for _ in range(40):
        p = rng.choice([17, 19, 23, 29])
        # an AP of step s fits its window after dilation by 1/s and by the
        # multiples 2/s, 3/s, ... while the image stays short enough
        k = rng.randrange(2, p // 6 + 2)
        step = rng.randrange(1, p)
        els = sorted({(rng.randrange(p) + i * step) % p for i in range(k)})
        fits = [m for m in range(1, p // 2 + 1) if half_window_fit(els, p, [m])]
        assert len(fits) >= 2
        assert check_window(p, els).d == fits[0]


def test_window_span_at_and_just_past_half(monkeypatch, rng):
    for p in (11, 13, 29, 101):
        w = (p + 1) // 2
        for _ in range(10):
            m = rng.randrange(1, p)
            inner = rng.sample(range(1, w - 1), rng.randrange(0, w - 2))
            exact = scaled(p, [0, w - 1, *inner], m)  # span exactly w
            with monkeypatch.context() as patched:
                patched.setattr(spectral, "_member_window_counts", no_member_sweep)
                win = check_window(p, exact)
            assert len(win) == len(exact)
            over = scaled(p, [0, w, *inner], m)  # span w + 1
            check_window(p, over)


def test_window_no_dilate_fits(monkeypatch, rng):
    calls = []
    sweep = spectral._member_window_counts

    def counting(*args):
        calls.append(1)
        return sweep(*args)

    monkeypatch.setattr(spectral, "_member_window_counts", counting)
    below_half = 0
    for _ in range(60):
        p = rng.choice([17, 19, 23])
        els = rng.sample(range(p), rng.randrange(3, p + 1))
        if half_window_fit(els, p, half_units(p)) is not None:
            continue
        below_half += len(els) <= (p + 1) // 2
        before = len(calls)
        w = check_window(p, els)
        assert len(w) < len(els) and len(calls) > before
    assert below_half >= 5


def test_fit_start_is_least_every_subset_up_to_11():
    for p in (2, 3, 5, 7, 11):
        ms = half_units(p).tolist()
        for mask in range(1, 1 << p):
            els = bits.elements_of(mask)
            assert half_window_fit(els, p, ms) == brute_first_fit(els, p, ms)


def test_fit_start_wrap_singleton_and_exact_half(rng):
    for _ in range(60):
        p = rng.choice([13, 29, 31, 53, 61])
        w = (p + 1) // 2
        m = rng.randrange(1, p)
        inner = rng.sample(range(1, w - 1), rng.randrange(0, w - 2))
        cases = [
            [rng.randrange(p)],  # k = 1
            [0, w - 1, *inner],  # span exactly (p+1)/2: one start holds it
            rng.sample(range(1, w - 1), 4),  # starts -1 and 0 both hold it: u = 0
        ]
        for base in cases:
            els = scaled(p, base, pow(m, -1, p))
            for ms in (half_units(p).tolist(), [m]):
                assert half_window_fit(els, p, ms) == brute_first_fit(els, p, ms)
        assert half_window_fit(cases[2], p, [1]) == (1, 0)


def test_fit_stops_in_the_first_slice(monkeypatch, rng):
    # the first fitting row is m = 3 among 1,001: the pass sorts no more
    # rows than its first slice of 32
    p = 2003
    base = [0, 1000, *rng.sample(range(1, 1000), 38)]
    els = scaled(p, base, pow(3, -1, p))
    assert [m for m in (1, 2, 3) if half_window_fit(els, p, [m])] == [3]
    sorted_rows = []
    rows = residues.dilation_rows

    def counting(elements, n, multipliers):
        for ms, chunk in rows(elements, n, multipliers):
            sorted_rows.append(len(ms))
            yield ms, chunk

    monkeypatch.setattr(residues, "dilation_rows", counting)
    assert half_window_fit(els, p, half_units(p)) == brute_first_fit(els, p, [3])
    assert 3 <= sum(sorted_rows) <= 32


def test_fit_in_a_later_slice_is_the_smallest(monkeypatch, rng):
    # one row a chunk, and first fits past the first slice (32 rows) and
    # past the second (32 + 64): every earlier row is still tried, in order
    p = 401
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 7)
    ms = half_units(p).tolist()
    for target in (33, 97, 150):
        base = [0, 200, *rng.sample(range(1, 200), 18)]
        els = scaled(p, base, pow(target, -1, p))
        want = brute_first_fit(els, p, ms)
        assert want[0] == target
        assert half_window_fit(els, p, ms) == want


# --- sample-bounded sweeps: sets of residues.SAMPLE_MIN_SIZE members or more


def brute_units(n):
    return [m for m in range(1, n // 2 + 1) if np.gcd(m, n) == 1]


def brute_runs(els, n):
    """The longest run missing from m * els over the half units, and every
    m attaining it."""
    gaps = {m: brute_gap(els, n, m)[0] for m in brute_units(n)}
    run = max(gaps.values())
    return run, [m for m, g in gaps.items() if g == run]


def progression(rng, n, k, length, start=None):
    """k members of the progression step * [start, start + length) in Z_n,
    for a random unit step."""
    step = rng.choice(brute_units(n))
    start = rng.randrange(n) if start is None else start
    return sorted({(start + i) * step % n for i in rng.sample(range(length), k)})


def large_sets(rng, n):
    """Sets of 128 or more members of Z_n: random ones (no dilate fits a
    half window), near-progressions, one that wraps past 0 at its fitting
    multiplier, and a short progression several multipliers fit."""
    k = rng.randrange(128, max(n // 3, 129))
    return [
        rng.sample(range(n), rng.randrange(128, n - 1)),
        progression(rng, n, k, int(1.25 * k)),
        progression(rng, n, k, int(1.25 * k), start=-(k // 2)),
        progression(rng, n, 128, 130),
    ]


def check_pruned_sweeps(els, n):
    assert len(els) >= residues.SAMPLE_MIN_SIZE
    assert _longest_runs(els, n) == brute_runs(els, n)
    ms = half_units(n)
    assert half_window_fit(els, n, ms) == brute_first_fit(els, n, ms.tolist())


def test_pruned_sweeps_match_brute_prime(monkeypatch, rng):
    for p in (257, 401, 1009):
        for els in large_sets(rng, p):
            check_pruned_sweeps(els, p)
            a = rs(p, els)
            got = (min_ap_cover(a), best_half_window(a))
            with monkeypatch.context() as whole:
                whole.setattr(residues, "SAMPLE_MIN_SIZE", p + 1)  # every row whole
                assert got == (min_ap_cover(a), best_half_window(a))


def test_pruned_cover_keeps_every_tied_multiplier(rng):
    # A is a union of cosets of {1, h, -1, -h} (h^2 = -1): m and m * h
    # miss the same runs, so the longest run is attained twice or more
    for p in (401, 1009):
        h = next(x for x in range(2, p) if x * x % p == p - 1)
        seeds = rng.sample(range(1, p), 48)
        els = sorted({s * g % p for s in seeds for g in (1, h, p - 1, p - h)})
        check_pruned_sweeps(els, p)
        assert len(brute_runs(els, p)[1]) >= 2


def test_pruned_sweeps_composite_moduli(rng):
    for n in (510, 777, 924, 1000):
        # g > 1: the set lies in one coset of g, and its reduction to
        # Z_{n/g} has 128 or more members too
        g = next(g for g in (4, 3, 2) if n % g == 0 and n // g >= 250)
        r = rng.randrange(g)
        inside = [r + g * x for x in progression(rng, n // g, 128, 160)]
        for els in [*large_sets(rng, n), inside]:
            check_pruned_sweeps(els, n)
            want = n
            for d in range(1, n):
                if n % d == 0 and len({x % d for x in els}) == 1:
                    reduced = [(x - els[0] % d) // d for x in els]
                    want = min(want, n // d - brute_runs(reduced, n // d)[0])
            assert min_ap_length_mod(bits.mask_of(els, n), n) == want
        check_pruned_sweeps([(x - r) // g for x in inside], n // g)


def test_pruned_sweeps_sort_few_full_rows(monkeypatch, rng):
    # a 400-member near-AP of Z_2003: the sample rules out all but a few of
    # the 1,001 multipliers, for the cover and for the fit
    p = 2003
    els = progression(rng, p, 400, 500)
    full_rows = []
    rows = residues.dilation_rows

    def counting(elements, n, multipliers):
        for ms, chunk in rows(elements, n, multipliers):
            if chunk.shape[1] == len(els):
                full_rows.append(len(ms))
            yield ms, chunk

    monkeypatch.setattr(residues, "dilation_rows", counting)
    res = min_ap_cover(rs(p, els))
    assert res.witness.covers(els) and 0 < sum(full_rows) <= 64
    full_rows.clear()
    fit = half_window_fit(els, p, half_units(p))
    assert fit is not None and 0 < sum(full_rows) <= 64
    assert fit == brute_first_fit(els, p, [fit[0]])


def test_sweep_sample_is_evenly_spaced_by_rank():
    assert residues.sweep_sample(np.arange(127)) is None
    members = np.arange(1000)[::-1] * 3
    sample = residues.sweep_sample(members)
    assert sample.tolist() == [3 * (i * 1000 // 32) for i in range(32)]


def test_sweeps_exhaustive_tiny_primes_pruned(monkeypatch):
    # sample size 2 from 4 members up: every set of four or more members
    # takes the sample-bounded path
    monkeypatch.setattr(residues, "SAMPLE_SIZE", 2)
    monkeypatch.setattr(residues, "SAMPLE_MIN_SIZE", 4)
    test_sweeps_exhaustive_tiny_primes()
    test_fit_start_is_least_every_subset_up_to_11()


def test_lying_sweeps_raise_consistency_error(monkeypatch, rng):
    p = 1009
    a = rs(p, progression(rng, p, 200, 250))
    run, ms = _longest_runs(a.elements(), p)
    wrong = next(m for m in range(1, p // 2 + 1) if m not in ms)
    for lie in ((run + 1, ms), (run, [wrong])):
        with monkeypatch.context() as patched:
            patched.setattr(covering, "_longest_runs", lambda els, n, d=None: lie)
            with pytest.raises(ConsistencyError, match="witness"):
                min_ap_cover(a)
    d, u = half_window_fit(a.elements(), p, half_units(p))
    unfit = next(m for m in range(1, p) if half_window_fit(a.elements(), p, [m]) is None)
    for lie in ((unfit, u), (d, (u + p // 2) % p)):
        with monkeypatch.context() as patched:
            patched.setattr(spectral, "half_window_fit", lambda *args: lie)
            with pytest.raises(ConsistencyError, match="captures"):
                best_half_window(a)


# --- candidate multipliers: sets whose plain sweep spans several chunks


def count_candidate_calls(monkeypatch):
    """Patch covering._candidates to record the bound of each call."""
    bounds = []
    candidates = covering._candidates

    def counting(els, p, bound):
        bounds.append(bound)
        return candidates(els, p, bound)

    monkeypatch.setattr(covering, "_candidates", counting)
    return bounds


def no_candidates(*args):
    raise AssertionError("candidate route taken")


def test_candidate_route_matches_brute(monkeypatch, rng):
    bounds = count_candidate_calls(monkeypatch)
    for p in (4001, 8011, 16411):
        k = rng.randrange(20, 40)
        near = progression(rng, p, k, int(1.25 * k))
        # the doubling bound: 2k covers a near-AP at once; a progression
        # of length 3k needs 4k, and one of length 6k needs 8k
        for els, tries in ((near, 1), (progression(rng, p, k, 3 * k), 2),
                           (progression(rng, p, k, 6 * k), 3)):
            want = brute_runs(els, p)
            bounds.clear()
            assert _longest_runs(els, p) == want
            assert 0 < len(bounds) <= tries and 4 * bounds[-1] < p
            assert p - want[0] <= bounds[-1]
            # the engine's d floors only the sample sweep: the route tries
            # the same guesses with it or without it
            tried = bounds[:]
            for d in (want[1][0], rng.randrange(1, p)):
                bounds.clear()
                assert _longest_runs(els, p, d) == want and bounds == tried


def test_candidate_route_keeps_every_tied_multiplier(monkeypatch):
    # the box {i + h j : 0 <= i, j < 5} of Z_p, p = h^2 + 1: h maps it to
    # {h i - j}, so m = 1 and m = h sort it alike, and neither is the
    # first candidate the doubling bound tries
    bounds = count_candidate_calls(monkeypatch)
    for h in (66, 126):
        p = h * h + 1
        els = sorted((i + h * j) % p for i in range(5) for j in range(5))
        want = brute_runs(els, p)
        assert {1, h} <= set(want[1])
        bounds.clear()
        assert _longest_runs(els, p) == want and len(bounds) > 1
        assert _longest_runs(els, p, h) == want


def test_floored_sample_sweep_and_plain_sweep_match_brute(monkeypatch, rng):
    # a set too long for the route: ell >= p/4 for every guess, so the
    # sample sweep (128 members or more) or the plain sweep runs, floored
    # at A's run at d
    bounds = count_candidate_calls(monkeypatch)
    for p in (2003, 4001):
        for els in (progression(rng, p, 200, p // 3), rng.sample(range(p), 150),
                    progression(rng, p, 60, p // 3), rng.sample(range(p), 40)):
            want = brute_runs(els, p)
            for d in (None, want[1][0], rng.randrange(1, p)):
                bounds.clear()
                assert _longest_runs(els, p, d) == want
                assert all(4 * b < p for b in bounds)


def test_floor_at_d_skips_multipliers_the_sample_admits(monkeypatch, rng):
    # 150 random residues: A's run at the sample's best multiplier is a
    # lower floor than A's run at the best one, so it admits more rows
    p = 2003
    els = sorted(rng.sample(range(p), 150))
    want = brute_runs(els, p)
    monkeypatch.setattr(covering, "_candidates", no_candidates)
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 200 * p)  # no route
    sorted_rows = {}
    rows = residues.dilation_rows

    def counting(elements, n, multipliers):
        for ms, chunk in rows(elements, n, multipliers):
            if chunk.shape[1] == len(els):
                sorted_rows[key] = sorted_rows.get(key, 0) + len(ms)
            yield ms, chunk

    monkeypatch.setattr(residues, "dilation_rows", counting)
    for key, d in (("sample", None), ("floored", want[1][0])):
        assert _longest_runs(els, p, d) == want
    assert sorted_rows["floored"] < sorted_rows["sample"]


def test_sweeps_exhaustive_candidate_route(monkeypatch):
    # one row a chunk: every set of two or more members is eligible, and
    # takes the route when 4L < p for its first guess L = 2|A|
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 1)
    test_sweeps_exhaustive_tiny_primes()
    bounds = count_candidate_calls(monkeypatch)
    # every set of 2 or 3 members of Z_29 and of Z_37
    for p, sizes in ((29, (2, 3)), (37, (2, 3))):
        for k in sizes:
            for els in itertools.combinations(range(p), k):
                assert _longest_runs(list(els), p) == brute_runs(els, p)
    assert len(bounds) >= 4060 + 8436  # every one of them took the route
    # the sample sweep floored at d: every set of Z_11 at every d, sampled
    # from 4 members up
    monkeypatch.setattr(residues, "SAMPLE_SIZE", 2)
    monkeypatch.setattr(residues, "SAMPLE_MIN_SIZE", 4)
    for mask in range(1, 1 << 11):
        els = bits.elements_of(mask)
        want = brute_runs(els, 11)
        for d in half_units(11).tolist():
            assert _longest_runs(els, 11, d) == want


def test_candidate_route_leaves_a_stalled_guess_for_the_sweep(monkeypatch):
    # 19 consecutive residues and one at 50: ell = 51 at m = 1, past the
    # first guess 40, so the second guess is 51.  A candidate list that
    # then loses m = 1 cannot raise the guess; the plain sweep answers.
    p = 16411
    els = list(range(19)) + [50]
    want = brute_runs(els, p)
    assert want == (p - 51, [1])
    candidates = covering._candidates
    bounds = []

    def losing(els, p, bound):
        bounds.append(bound)
        assert len(bounds) < 10, "the guess stalled"
        ms = candidates(els, p, bound)
        return ms if len(bounds) == 1 else ms[ms != 1]

    monkeypatch.setattr(covering, "_candidates", losing)
    assert _longest_runs(els, p) == want
    assert bounds == [40, 51]


def test_candidate_route_sorts_few_rows(monkeypatch, rng):
    # a 20-member near-AP of Z_16411: A is sorted at no more than 64 of the
    # 8,205 multipliers
    p = 16411
    els = progression(rng, p, 20, 25)
    full_rows = []
    rows = residues.dilation_rows

    def counting(elements, n, multipliers):
        for ms, chunk in rows(elements, n, multipliers):
            if chunk.shape[1] == len(els):
                full_rows.append(len(ms))
            yield ms, chunk

    monkeypatch.setattr(residues, "dilation_rows", counting)
    res = min_ap_cover(rs(p, els))
    assert res.length == p - brute_runs(els, p)[0]
    assert res.witness.covers(els) and 0 < sum(full_rows) <= 64


def test_one_chunk_sweeps_and_composite_moduli_skip_the_route(monkeypatch, rng):
    monkeypatch.setattr(covering, "_candidates", no_candidates)
    # 30 members times 1,001 multipliers fit one chunk of 2^15 entries
    p = 2003
    els = progression(rng, p, 30, 37)
    assert 30 * (p // 2) <= CANONICAL_STEP_ENTRIES
    assert _longest_runs(els, p) == _longest_runs(els, p, 1) == brute_runs(els, p)
    assert min_ap_cover(rs(p, els)).witness.covers(els)
    # a composite modulus sweeps every unit, whatever its size
    n = 16400
    els = sorted({(7 + 3 * i) % n for i in rng.sample(range(25), 20)})
    assert _longest_runs(els, n) == brute_runs(els, n)
    assert min_ap_length_mod(bits.mask_of(els, n), n) == n - brute_runs(els, n)[0]
