import itertools
import pickle
from dataclasses import fields
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import bits, residues
from addcomb.errors import (
    EmptySetError,
    HypothesisNotMetError,
    LiteralError,
    NonUnitDilationError,
    NotASubgroupError,
    PrimeRequiredError,
    SearchRangeError,
)
from addcomb.literals import parse_residue_set
from addcomb.residues import (
    ResidueSet,
    _sumset_mask_convolution,
    affine_canonical_form,
    affine_canonical_rows,
    coset_profile,
    coset_progression_report,
    cross_sum_mask,
    dilate,
    is_affine_canonical,
    negate,
    sumset,
    sumset_mask,
    translate,
)
from conftest import brute_canonical, naive_sumset

PRIMES = [5, 7, 11, 13, 17, 101]


def rs(n, els):
    return ResidueSet.from_elements(n, els)


# --- bit iterator -------------------------------------------------------------

def test_elements_of_and_dilate_against_loops(rng):
    for n in (1, 7, 8, 64, 65, 2003, 16381):
        for size in {0, 1, n // 3, n}:
            els = sorted(rng.sample(range(n), size))
            mask = bits.mask_of(els, n)
            assert bits.elements_of(mask) == [i for i in range(n) if mask >> i & 1] == els
            d = rng.randrange(1, n + 1)
            if n == 1:
                continue
            if gcd(d, n) != 1:
                with pytest.raises(NonUnitDilationError):
                    dilate(ResidueSet(n, mask), d)
                continue
            dilated = {e * d % n for e in els}
            assert dilate(ResidueSet(n, mask), d).mask == sum(1 << x for x in dilated)


def test_cached_members_are_invisible(rng):
    # the members kept after the first read are a tuple outside the fields:
    # a caller's list cannot change the set, and a read set is the same
    # value as a fresh one to ==, hash, order, repr and pickle
    for n in (2, 101, 65537):
        els = sorted(rng.sample(range(n), min(n, 20)))
        read, fresh, other = rs(n, els), rs(n, els), rs(n, [1])
        listed = read.elements()
        listed[0] = -1
        listed.append(n)
        assert read.elements() == els and read.members == tuple(els)
        assert read.mask == fresh.mask and len(read) == len(els)
        assert [f.name for f in fields(read)] == ["modulus", "mask"]
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert not read < fresh and not fresh < read
        assert sorted([other, read]) == sorted([other, fresh]) == sorted([fresh, other])
        assert (read < other) == (fresh < other)
        assert pickle.dumps(read) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(read))
        assert back == fresh and "members" not in vars(back) and back.elements() == els


def packbits_mask(els, n):
    on = np.zeros(max(n, 1), dtype=bool)
    on[[e % n for e in els]] = True
    return int.from_bytes(np.packbits(on, bitorder="little").tobytes(), "little")


def test_mask_of_and_elements_of_both_sides_of_the_sparse_rule(rng):
    # elements_of unpacks only the nonzero words of a mask longer than
    # SPARSE_MIN_BITS with fewer members than 64-bit words
    edges = (bits.SPARSE_MIN_BITS, bits.SPARSE_MIN_BITS + 1)
    for n in (1, 7, 64, 65, 1009, *edges, 65537, 1 << 22):
        words = (n + 63) // 64
        sizes = {0, 1, 16, words - 1, words, words + 1, n // 3, n}
        for size in sorted(x for x in sizes if 0 <= x <= min(n, 70_000)):
            els = sorted(rng.sample(range(n), size))
            mask = bits.mask_of(els, n)
            assert mask == packbits_mask(els, n)
            assert bits.elements_of(mask) == els
            # negative values, values past n and past int64 reduce mod n
            shifted = [e - n * rng.randrange(-3, 4) for e in els] + [n * 10**30 + e for e in els[:3]]
            assert bits.mask_of(shifted, n) == mask
        for lone in {0, n - 1, n // 2}:
            assert bits.elements_of(1 << lone) == [lone]
            assert bits.mask_of([lone - n] * 16, n) == 1 << lone
        full = bits.full_mask(n)
        assert bits.elements_of(full) == list(range(n))
        assert bits.mask_of(range(n), n) == full
    assert bits.elements_of(0) == [] and bits.mask_of([], 5) == 0
    # a sparse mask whose members share words and bytes, either side of
    # the length rule
    for n in (bits.SPARSE_MIN_BITS, bits.SPARSE_MIN_BITS + 2, 1 << 22):
        els = [0, 1, 7, 8, 63, 64, 65, 1000, 1007, n - 2, n - 1]
        assert bits.elements_of(bits.mask_of(els, n)) == els
    big = 10**30
    for n in (1009, 1 << 22):
        want = 1 << big % n | 1 << n - 1
        assert bits.mask_of([big, -1], n) == bits.mask_of([big, -1] * 16, n) == want


# --- literals ---------------------------------------------------------------

def test_literal_round_trip():
    a = parse_residue_set("n=11:{0, 3,4 ,5,6}")
    assert a.elements() == [0, 3, 4, 5, 6]
    assert a.literal() == "n=11:{0,3,4,5,6}"


def test_residue_set_value_methods():
    a = parse_residue_set("n=11:{0,3,4,5,6}")
    assert 3 in a and 14 in a and -8 in a  # membership reads the residue
    assert 1 not in a and 12 not in a
    assert list(a) == [0, 3, 4, 5, 6]
    assert repr(a) == "ResidueSet('n=11:{0,3,4,5,6}')"


def test_literal_reduces_mod_n():
    assert parse_residue_set("n=7:{-1,8}").elements() == [1, 6]


def test_literal_rejects_duplicates():
    with pytest.raises(LiteralError):
        parse_residue_set("n=7:{0,7}")  # 7 reduces to 0
    with pytest.raises(LiteralError):
        parse_residue_set("n=7:{3,3}")


def test_literal_rejects_bad_modulus():
    with pytest.raises(LiteralError):
        parse_residue_set("n=1:{0}")
    with pytest.raises(LiteralError):
        parse_residue_set("{0,1}")


# --- sumset -----------------------------------------------------------------

def test_sumset_example1_instance():
    # k=5, x=1 family member: 2A is everything except one residue
    a = rs(11, [0, 3, 4, 5, 6])
    assert sumset(a).elements() == [0, 1, 3, 4, 5, 6, 7, 8, 9, 10]
    assert len(sumset(a)) == 10


def test_sumset_singleton():
    assert sumset(rs(7, [0])).elements() == [0]


def test_sumset_example2_instance():
    a = rs(11, [0, 1, 3, 6])
    assert sumset(a).elements() == [0, 1, 2, 3, 4, 6, 7, 9]


def test_sumset_empty_raises():
    with pytest.raises(EmptySetError):
        sumset(ResidueSet(5, 0))


@settings(max_examples=150)
@given(st.data())
def test_sumset_matches_naive(data):
    n = data.draw(st.integers(2, 200))
    els = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 24)))
    a = rs(n, els)
    assert set(sumset(a).elements()) == naive_sumset(els, n)


@settings(max_examples=100)
@given(st.data())
def test_cauchy_davenport(data):
    p = data.draw(st.sampled_from(PRIMES))
    els = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    a = rs(p, els)
    assert len(sumset(a)) >= min(p, 2 * len(a) - 1)


def test_sumset_convolution_agrees_with_shift_or(rng):
    for _ in range(60):
        n = rng.randrange(2, 600)
        k = rng.randrange(1, min(n, 40) + 1)
        els = rng.sample(range(n), k)
        mask = bits.mask_of(els, n)
        assert cross_sum_mask(mask, mask, n) == _sumset_mask_convolution(mask, n)


def test_sumset_convolution_large_modulus(rng):
    n = (1 << 16) + 7
    els = rng.sample(range(n), 50)
    mask = bits.mask_of(els, n)
    conv = _sumset_mask_convolution(mask, n)
    assert conv == sumset_mask(mask, n) == cross_sum_mask(mask, mask, n)
    assert set(bits.elements_of(conv)) == naive_sumset(els, n)


def test_sumset_auto_dispatches_on_size(rng, monkeypatch):
    from addcomb import ntt, residues

    calls = []
    real = ntt.convolve
    monkeypatch.setattr(ntt, "convolve", lambda f, g: calls.append(1) or real(f, g))
    n = (1 << 16) + 1
    small = bits.mask_of(rng.sample(range(n), 1000), n)
    sumset_mask(small, n)
    assert calls == []  # a large modulus alone no longer picks the NTT
    big = bits.mask_of(rng.sample(range(n), residues.CONVOLUTION_MIN_SIZE + 1), n)
    assert sumset_mask(big, n) == cross_sum_mask(big, big, n)
    assert calls == [1]


# --- dilate / translate / negate ---------------------------------------------

def test_dilate_examples():
    assert dilate(rs(11, [0, 3, 4, 5, 6]), 4).elements() == [0, 1, 2, 5, 9]
    assert dilate(rs(11, [0, 1, 3, 6]), 4).elements() == [0, 1, 2, 4]


def test_dilate_identity():
    a = rs(11, [0, 3, 4])
    assert dilate(a, 1) == a


def test_dilate_requires_unit():
    with pytest.raises(NonUnitDilationError):
        dilate(rs(12, [0, 1]), 4)


def test_translate_negate_trivia():
    assert translate(rs(7, [0, 1]), 3).elements() == [3, 4]
    assert negate(rs(7, [1, 2])).elements() == [5, 6]
    assert negate(rs(7, [0])).elements() == [0]


@settings(max_examples=100)
@given(st.data())
def test_affine_commutation_laws(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    els = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p - 1))
    d = data.draw(st.integers(1, p - 1))
    u = data.draw(st.integers(0, p - 1))
    a = rs(p, els)
    assert sumset(dilate(a, d)) == dilate(sumset(a), d)
    assert sumset(translate(a, u)) == translate(sumset(a), 2 * u)
    assert translate(translate(a, u), p - u) == a


# --- canonical form -----------------------------------------------------------

def test_canonical_form_examples():
    assert affine_canonical_form(rs(7, [3, 4, 5])).elements() == [0, 1, 2]
    assert affine_canonical_form(rs(7, [0, 1, 3])).elements() == [0, 1, 3]
    for pair in ([0, 1], [2, 4], [1, 3]):
        assert affine_canonical_form(rs(5, pair)).elements() == [0, 1]


def test_canonical_form_requires_prime():
    with pytest.raises(PrimeRequiredError):
        affine_canonical_form(rs(12, [0, 1]))


def test_canonical_form_idempotent(rng):
    for _ in range(50):
        p = rng.choice([5, 7, 11, 13])
        k = rng.randrange(1, p)
        a = rs(p, rng.sample(range(p), k))
        c = affine_canonical_form(a)
        assert affine_canonical_form(c) == c
        assert is_affine_canonical(c)


def test_canonical_form_constant_on_orbits(rng):
    for _ in range(1000):
        p = rng.choice([5, 7, 11, 13, 17])
        k = rng.randrange(1, p)
        els = rng.sample(range(p), k)
        a = rs(p, els)
        d = rng.randrange(1, p)
        u = rng.randrange(p)
        b = translate(dilate(a, d), u)
        assert affine_canonical_form(a) == affine_canonical_form(b)


def test_canonical_form_matches_brute_oracle(rng):
    for _ in range(60):
        p = rng.choice([5, 7, 11])
        k = rng.randrange(1, p)
        els = rng.sample(range(p), k)
        got = affine_canonical_form(rs(p, els)).elements()
        assert tuple(got) == brute_canonical(els, p)


def test_canonical_kernel_every_subset_matches_brute_oracle():
    # every subset of Z_p, p <= 11, singletons too (they have no pair maps):
    # the batched pair-map test, the single-set test and the canonical form
    # all agree with the p(p-1)-map oracle
    for p in (2, 3, 5, 7, 11):
        for k in range(p + 1):
            subsets = list(itertools.combinations(range(p), k))
            flags = affine_canonical_rows(subsets, p) if k else None
            for i, els in enumerate(subsets):
                want = brute_canonical(els, p) if k else ()
                a = rs(p, els)
                assert tuple(affine_canonical_form(a).elements()) == want, (p, els)
                assert is_affine_canonical(a) == (els == want), (p, els)
                if flags is not None:
                    assert flags[i] == (els == want), (p, els)


def test_canonical_kernel_random_sets_match_brute_oracle(rng):
    for _ in range(200):
        p = rng.choice([13, 17, 19, 23, 29])
        k = rng.randrange(1, p + 1)
        els = tuple(sorted(rng.sample(range(p), k)))
        want = brute_canonical(els, p)
        a = rs(p, els)
        assert tuple(affine_canonical_form(a).elements()) == want
        assert is_affine_canonical(a) == (els == want)
        assert is_affine_canonical(rs(p, want))


def test_canonical_kernel_small_chunks(monkeypatch, rng):
    # rows and pair blocks split at every size give the same verdicts
    p, k = 13, 5
    rows = [sorted(rng.sample(range(p), k)) for _ in range(40)]
    rows += [list(brute_canonical(r, p)) for r in rows[:10]]
    want = affine_canonical_rows(rows, p)
    assert want.any() and not want.all()
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 7)
    assert (affine_canonical_rows(rows, p) == want).all()
    for r in rows:
        assert tuple(affine_canonical_form(rs(p, r)).elements()) == brute_canonical(r, p)


def test_canonical_form_large_prime():
    # the pair maps work at any prime: {0, 1} u {x} has the (0, 1)-images
    # {0, 1, x}, {0, 1, 1 - x}, and their inverses under the other pairs
    p = 1_000_003
    a = rs(p, [5, 6, 5 + 500_000])
    want = min(
        sorted({0, 1, 500_000}),
        sorted({0, 1, (1 - 500_000) % p}),
        sorted({0, 1, pow(500_000, -1, p)}),
        sorted({0, 1, (1 - pow(500_000, -1, p)) % p}),
        sorted({0, 1, pow(1 - 500_000, -1, p)}),
        sorted({0, 1, (1 - pow(1 - 500_000, -1, p)) % p}),
    )
    assert affine_canonical_form(a).elements() == want
    assert is_affine_canonical(rs(p, want))
    assert not is_affine_canonical(a)


def test_canonical_masks_refuse_primes_past_one_word():
    # uint64 shifts wrap past bit 63, so the mask test stops at p = 61; the
    # single-set test goes through the canonical form at any prime
    assert affine_canonical_rows([[0, 1, 3]], 61).tolist() == [True]
    with pytest.raises(SearchRangeError, match="p <= 61"):
        affine_canonical_rows([[0, 1, 3]], 67)
    assert is_affine_canonical(rs(67, [0, 1, 3]))
    assert not is_affine_canonical(rs(67, [0, 1, 65]))  # 1 - 65 = 3


# --- coset profiles -----------------------------------------------------------

def test_coset_profile_examples():
    prof = coset_profile(rs(12, [0, 1, 4, 5]), 3)
    assert (prof.cosets_met, prof.ap_of_cosets_length) == (2, 2)

    prof = coset_profile(rs(12, [0, 4, 8]), 3)
    assert (prof.cosets_met, prof.ap_of_cosets_length) == (1, 1)
    assert prof.heaviest_coset_fill == 1

    prof = coset_profile(rs(12, [0, 1, 2]), 4)
    assert (prof.cosets_met, prof.ap_of_cosets_length) == (3, 3)


def test_coset_profile_invariants(rng):
    for _ in range(100):
        n = rng.choice([4, 6, 8, 9, 12, 15, 16, 18, 24])
        k = rng.randrange(1, n + 1)
        a = rs(n, rng.sample(range(n), k))
        for h in [d for d in range(1, n) if n % d == 0]:
            prof = coset_profile(a, h)
            assert prof.cosets_met <= min(n // h, len(a))
            assert prof.ap_of_cosets_length >= prof.cosets_met


def test_coset_profile_rejects_non_divisor():
    with pytest.raises(NotASubgroupError):
        coset_profile(rs(12, [0, 1]), 5)
    with pytest.raises(NotASubgroupError):
        coset_profile(rs(12, [0, 1]), 12)


# --- coset progression report --------------------------------------------------

def test_progression_report_subgroup_case():
    rep = coset_progression_report(rs(12, [0, 4, 8]))
    assert 3 in rep.satisfying_orders
    entry = next(e for e in rep.entries if e.subgroup_order == 3)
    assert entry.case == 1 and entry.satisfied
    assert entry.fill_ok is None  # single coset, fill clause vacuous


def test_progression_report_interval_case():
    rep = coset_progression_report(rs(15, [0, 1, 2, 3]))
    entry = next(e for e in rep.entries if e.subgroup_order == 1)
    assert entry.case == 2
    assert entry.profile.ap_of_cosets_length == 4
    assert entry.inequality_ok and entry.satisfied  # (4-1)*1 <= 7-4


def test_progression_report_requires_small_doubling():
    with pytest.raises(HypothesisNotMetError):
        coset_progression_report(rs(17, [0, 1, 3, 7]))  # |2A| = 10 > 2.04*4
