import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.errors import HypothesisNotMetError, LiteralError, SearchRangeError
from addcomb.freiman import is_freiman_isomorphic
from addcomb.intsets import (
    ApDescriptor,
    IntSet,
    cover_3k4,
    min_cover_ap,
    min_interval_cover,
    normal_form,
    sumset,
)
from addcomb.literals import format_int_set, parse_int_set
from conftest import naive_sumset

int_sets = st.sets(st.integers(-50, 120), min_size=1, max_size=14).map(
    IntSet.from_iterable
)


def test_literal_parse_and_format():
    a = parse_int_set("{6, 10, 14}")
    assert a.elements == (6, 10, 14)
    assert format_int_set(a) == "{6,10,14}"
    with pytest.raises(LiteralError):
        parse_int_set("{1,1}")
    with pytest.raises(LiteralError):
        parse_int_set("{}")


def test_int_set_value_methods():
    a = IntSet.of(14, 6, 10)
    assert 10 in a and 6 in a
    assert 7 not in a and -6 not in a
    assert list(a) == [6, 10, 14]
    assert repr(a) == "IntSet([6, 10, 14])"


def test_normal_form_examples():
    assert normal_form(IntSet.of(6, 10, 14)) == IntSet.of(0, 1, 2)
    assert normal_form(IntSet.of(0, 1, 2)) == IntSet.of(0, 1, 2)
    assert normal_form(IntSet.of(7, 9, 19)) == IntSet.of(0, 1, 6)
    assert normal_form(IntSet.of(42)) == IntSet.of(0)


@given(int_sets)
def test_normal_form_properties(a):
    nf = normal_form(a)
    assert nf.min() == 0
    assert len(nf) == len(a)
    assert normal_form(nf) == nf
    assert len(sumset(nf)) == len(sumset(a))


@settings(max_examples=40)
@given(st.sets(st.integers(-30, 60), min_size=1, max_size=8).map(IntSet.from_iterable))
def test_normal_form_is_freiman_isomorphic(a):
    assert is_freiman_isomorphic(a, normal_form(a))


def test_sumset_examples():
    assert sumset(IntSet.of(0, 2, 3, 4)).elements == (0, 2, 3, 4, 5, 6, 7, 8)
    assert sumset(IntSet.of(0)).elements == (0,)
    assert sumset(IntSet.of(0, 1)).elements == (0, 1, 2)


@given(int_sets)
def test_sumset_matches_naive(a):
    assert set(sumset(a).elements) == naive_sumset(a.elements)


@given(int_sets, st.integers(-20, 20), st.integers(1, 9))
def test_sumset_size_affine_invariant(a, shift, scale):
    b = IntSet.from_iterable(scale * x + shift for x in a.elements)
    assert len(sumset(b)) == len(sumset(a))


def test_cover_3k4_tight_example():
    a = IntSet.of(0, 2, 3, 4)  # |2A| = 8 = 3*4 - 4
    ap = cover_3k4(a)
    assert (ap.start, ap.step, ap.length) == (0, 1, 5)
    assert ap.covers(a.elements)
    assert ap.length <= len(sumset(a)) - len(a) + 1


def test_cover_3k4_ap_covers_itself():
    assert cover_3k4(IntSet.of(0, 1, 2)).length == 3


def test_cover_3k4_hypothesis_not_met():
    with pytest.raises(HypothesisNotMetError):
        cover_3k4(IntSet.of(0, 1, 5))  # |2A| = 6 > 5
    # the hypothesis is applied literally: tiny sets are rejected
    with pytest.raises(HypothesisNotMetError):
        cover_3k4(IntSet.of(3))
    with pytest.raises(HypothesisNotMetError):
        cover_3k4(IntSet.of(0, 1))


def test_cover_3k4_inverts_normalization():
    a = IntSet.of(10, 16, 19, 22)  # affine image of {0,2,3,4}
    ap = cover_3k4(a)
    assert (ap.start, ap.step) == (10, 3)
    assert ap.covers(a.elements)


def test_min_interval_cover_examples():
    assert min_interval_cover(IntSet.of(0, 4, 8)) == 3
    assert min_interval_cover(IntSet.of(0, 1, 6)) == 7
    assert min_interval_cover(IntSet.of(5)) == 1


@given(int_sets)
def test_min_interval_cover_properties(a):
    length = min_interval_cover(a)
    assert length >= len(a)
    ap = min_cover_ap(a)
    assert ap.length == length
    assert ap.covers(a.elements)
    # equality iff a is itself an AP
    diffs = {y - x for x, y in zip(a.elements, a.elements[1:])}
    assert (length == len(a)) == (len(diffs) <= 1)


def test_freiman_3k4_exhaustive_small():
    # every normal-form set in [0, 10]: hypothesis implies the covering bound
    from addcomb.search import _normal_form_subsets

    for sets, _ in _normal_form_subsets(10, 1, 11):
        for elems in sets.tolist():
            a = IntSet(tuple(elems))
            two = sumset(a)
            if len(two) <= 3 * len(a) - 4:
                assert a.max() <= len(two) - len(a)


def test_ap_descriptor_validation():
    with pytest.raises(ValueError):
        ApDescriptor(0, 1, 0)
    with pytest.raises(ValueError):
        ApDescriptor(0, 0, 3)
    with pytest.raises(ValueError):
        ApDescriptor(0, 1, 8, ambient=7)


def test_ap_descriptor_step_must_be_a_unit_mod_n():
    with pytest.raises(ValueError, match="unit"):
        ApDescriptor(0, 3, 2, ambient=9)
    with pytest.raises(ValueError, match="unit"):
        ApDescriptor(1, 4, 3, ambient=10)
    assert ApDescriptor(0, 2, 4, ambient=9).values() == [0, 2, 4, 6]


def test_covers_matches_value_set(rng):
    # members just outside either end (index -1 and index length) and
    # random residues or integers around the progression
    for _ in range(400):
        n = rng.choice([None, 7, 11, 101, 16411])
        length = rng.randrange(1, 30 if n is None else min(n, 30) + 1)
        if n is None:
            start, step = rng.randrange(-40, 40), rng.randrange(1, 9)
            pool = range(start - 3 * step, start + (length + 3) * step)
        else:
            start, step = rng.randrange(n), rng.randrange(1, n // 2 + 1)
            pool = range(n)
        ap = ApDescriptor(start, step, length, ambient=n)
        values = set(ap.values())
        wrap = (lambda x: x) if n is None else (lambda x: x % n)
        outside = [wrap(start - step), wrap(start + length * step)]
        for x in outside + rng.sample(pool, min(len(pool), 6)):
            assert ap.covers([x]) == (x in values)
        members = rng.sample(sorted(values), rng.randrange(0, len(values) + 1))
        assert ap.covers(members)
        assert ap.covers(members + outside[:1]) == (outside[0] in values)


def test_cover_3k4_matches_oracle(rng):
    met = 0
    for _ in range(300):
        k, step = rng.randrange(1, 12), rng.randrange(1, 5)
        span = rng.choice([k, k + k // 2, 80])  # dense ones meet the hypothesis
        a = IntSet.from_iterable(step * i - 20 for i in rng.sample(range(span), k))
        k, size = len(a), len(naive_sumset(a.elements))
        if size > 3 * k - 4:
            with pytest.raises(HypothesisNotMetError) as err:
                cover_3k4(a)
            assert str(err.value) == f"|2A| = {size} > 3|A| - 4 = {3 * k - 4}"
            continue
        met += 1
        ap = cover_3k4(a)
        assert ap.length <= size - k + 1
        assert (ap.start, ap.length) == (a.min(), min_interval_cover(a))
        assert ap.covers(a.elements)
    assert 50 <= met <= 250


def test_sumset_span_cap_boundary():
    from addcomb.residues import MAX_MODULUS

    top = MAX_MODULUS - 1
    assert sumset(IntSet.of(-5, top - 5)).elements == (-10, top - 10, 2 * top - 10)
    with pytest.raises(SearchRangeError, match="reaches the cap"):
        sumset(IntSet.of(-5, top - 4))
