import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import freiman, linalg, residues
from addcomb.errors import (
    ConsistencyError,
    NotFreimanIsomorphismError,
    NotFullDimensionalError,
    NotRectifiableError,
    PreconditionFailedError,
    SearchRangeError,
    UndefinedDimensionError,
)
from addcomb.freiman import (
    REQUIRED_ROW_ENTRY_BUDGET,
    _pair_classes,
    _spanning_rows,
    additive_dimension,
    additive_dimension_value,
    additive_dimensions,
    affine_extension,
    dimension_and_lines,
    dimension_lower_bound,
    dimensions_one_down,
    is_freiman_isomorphic,
    is_rectifiable,
    projected_dimension_witness,
    rectify,
    rectify_map,
    required_spanning_rows,
    two_lines_cover,
)
from addcomb.intsets import ApDescriptor, IntSet, normal_form, sumset
from addcomb.residues import ResidueSet
from addcomb.search import _dimension_stacks, _normal_form_subsets, run_suite, verify_family
from conftest import brute_nullspace, brute_pair_classes, brute_rectifiable, brute_two_lines_steps, naive_sumset

small_int_sets = st.sets(st.integers(0, 40), min_size=2, max_size=8).map(
    IntSet.from_iterable
)


def rs(n, els):
    return ResidueSet.from_elements(n, els)


# --- relation systems ---------------------------------------------------------

# every subset of Z_n up to this n, then seeded random sets up to n = 23
ORACLE_ALL_SUBSETS_MAX_N = 9
ORACLE_RANDOM_SETS = 300


def _rectify_oracle_corpus():
    for n in range(2, ORACLE_ALL_SUBSETS_MAX_N + 1):
        for k in range(2, n + 1):
            for els in combinations(range(n), k):
                yield n, list(els)
    rng = random.Random(0xFA17)
    for _ in range(ORACLE_RANDOM_SETS):
        n = rng.randrange(ORACLE_ALL_SUBSETS_MAX_N + 1, 24)
        yield n, sorted(rng.sample(range(n), rng.randrange(2, 8)))


def test_rectifiable_matches_quadruple_oracle():
    rectifiable = 0
    for n, els in _rectify_oracle_corpus():
        a = rs(n, els)
        verdict = is_rectifiable(a)
        assert verdict == brute_rectifiable(els, n), a.literal()
        if not verdict:
            continue
        rectifiable += 1
        f = rectify_map(a)
        pairs = list(combinations_with_replacement(els, 2))
        for (x, y), (u, v) in combinations(pairs, 2):
            equal_mod_n = (x + y - u - v) % n == 0
            assert equal_mod_n == (f[x] + f[y] == f[u] + f[v]), a.literal()
    assert 0 < rectifiable


def _kernel_partition(elems, modulus=None):
    first, second, same = _pair_classes(elems, modulus)
    pairs = list(zip(first.tolist(), second.tolist()))
    cuts = [0, *(np.flatnonzero(~same) + 1).tolist(), len(pairs)]
    classes = [pairs[s:e] for s, e in zip(cuts, cuts[1:])]
    # classes come in increasing sum order (lexicographic for points)
    def pair_sum(i, j):
        x, y = elems[i], elems[j]
        s = tuple(a + b for a, b in zip(x, y)) if isinstance(x, tuple) else x + y
        return s % modulus if modulus is not None else s

    sums = [pair_sum(*group[0]) for group in classes]
    assert sums == sorted(sums) and len(set(sums)) == len(sums)
    return {frozenset(group) for group in classes}


def _kernel_oracle_corpus():
    rng = random.Random(0x5A17)
    for _ in range(150):  # integer sets, negatives included
        k = rng.randrange(1, 16)
        yield sorted(rng.sample(range(-60, 60), k)), None
    for _ in range(150):  # residue sets, composite moduli included
        n = rng.randrange(2, 41)
        yield rs(n, rng.sample(range(n), rng.randrange(1, min(n, 12) + 1))).elements(), n
    for _ in range(100):  # points of Z^2
        pts = list({(rng.randrange(-3, 4), rng.randrange(-3, 4)) for _ in range(rng.randrange(1, 12))})
        yield pts, None
    big = 1 << 70
    yield [0, 1, big, big + 1], None  # sums past int64
    yield [-(1 << 64), -3, 0, 5, 1 << 63, (1 << 63) + 5], None
    yield [(0, big), (1, 0), (1, big), (2, -big)], None
    yield [0, (1 << 62) - 1, (1 << 62) - 2, -(1 << 62) + 1], None  # int64 edge
    yield [1 << 62, (1 << 62) + 1, (1 << 62) + 2], None  # just past it
    yield [-(1 << 62), 0, 1 << 62], None  # 2^63 and -2^63 would wrap to one sum


def test_pair_kernel_matches_brute_grouping():
    for elems, n in _kernel_oracle_corpus():
        assert _kernel_partition(elems, n) == brute_pair_classes(elems, n), (elems, n)


def test_dimension_past_int64(capsys):
    from addcomb.cli import run

    big = 1 << 70
    a = IntSet.of(0, 1, big, big + 1)
    assert additive_dimension_value(a) == 2 == additive_dimension(a).dim
    assert run(["dim", f"{{0,1,{big},{big + 1}}}", "--json"]) == 0
    assert '"dim": 2' in capsys.readouterr().out


def test_required_nullspace_contains_constant_and_identity():
    a = IntSet.of(0, 2, 3, 7, 9)
    rows = required_spanning_rows(a)
    for row in rows:
        assert sum(row) == 0  # constant vector
        assert sum(r * e for r, e in zip(row, a.elements)) == 0  # identity


# --- additive dimension ---------------------------------------------------------

def test_dimension_examples():
    assert additive_dimension(IntSet.of(0, 1, 2, 3)).dim == 1
    assert additive_dimension(IntSet.of(0, 1, 10, 11)).dim == 2
    assert additive_dimension(IntSet.of(0, 1, 3, 7)).dim == 3


def test_dimension_nullspace_rank():
    a = IntSet.of(0, 1, 10, 11)
    res = additive_dimension(a)
    assert len(res.nullspace_basis) == res.dim + 1
    # every basis vector kills every required row
    rows = required_spanning_rows(a).tolist()
    for v in res.nullspace_basis:
        for row in rows:
            assert sum(Fraction(c) * x for c, x in zip(row, v)) == 0


def test_dimension_undefined_for_singleton():
    with pytest.raises(UndefinedDimensionError):
        additive_dimension(IntSet.of(5))


def test_dimension_of_aps_and_sidon_exhaustive():
    # dim(AP) = 1 and dim(Sidon) = |A| - 1, all sets in [0, 12] of size <= 5
    for k in range(2, 6):
        for elems in combinations(range(13), k):
            a = IntSet(elems)
            diffs = {b - c for b, c in zip(elems[1:], elems)}
            sums = [x + y for x, y in combinations(elems, 2)] + [2 * x for x in elems]
            sidon = len(set(sums)) == len(sums)
            d = additive_dimension_value(a)
            if len(diffs) == 1:
                assert d == 1
            if sidon:
                assert d == k - 1


def test_stacked_rows_are_each_sets_rows():
    rng = random.Random(0x57AC)
    for k in (1, 2, 5, 9):
        sets = [sorted(rng.sample(range(-20, 3 * k), k)) for _ in range(8)]
        stack = _spanning_rows(*_pair_classes(np.array(sets), None), k)
        for rows, elems in zip(stack, sets):
            own = required_spanning_rows(IntSet.from_iterable(elems))
            assert rows[: len(own)].tolist() == own.tolist() and not rows[len(own) :].any()


def test_stacked_dimensions_match_one_set_at_a_time(monkeypatch):
    # every normal-form set in [0, 12] of sizes 2..8, with and without
    # prop23_variant's cap: one stack a size, and the suites' stacks, with
    # Freiman's lemma standing in for the rank where |2A| <= 3k - 4 and
    # without it; then again with stacks and walk slices of a few entries,
    # so that a slice holds several stacks
    def slices(size, cap, lemma):
        return list(_dimension_stacks(12, size, cap, lemma))

    cases = [(size, cap) for size in range(2, 9) for cap in (None, (304 * size - 300) // 100)]
    want = {}
    for size, cap in cases:
        sets = np.concatenate([s for s, _ in _normal_form_subsets(12, size, size, cap)])
        dims = [additive_dimension_value(IntSet(tuple(elems))) for elems in sets.tolist()]
        assert additive_dimensions(sets).tolist() == dims
        want[size, cap] = sets.tolist(), dims
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 7)
        for (size, cap), (sets, dims) in want.items():
            for lemma in (False, True):
                got = slices(size, cap, lemma)
                assert [x for s, _, _ in got for x in s.tolist()] == sets
                assert np.concatenate([d for _, _, d in got]).tolist() == dims
    assert additive_dimensions([[0, 1, 1 << 70, (1 << 70) + 1]]).tolist() == [2]


def test_one_removal_certificate_against_the_rank():
    # every normal-form set in [0, 16] of sizes 3..12 under prop23_variant's
    # cap: a dimension the certificate gives is the rank's (additive_dimensions
    # is additive_dimension_value over a stack), and it settles at least 60 %
    # of the sets Freiman's lemma leaves open (3,532 of 5,853)
    left = settled = 0
    for size in range(3, 13):
        cap = (304 * size - 300) // 100
        for sets, two in _normal_form_subsets(16, size, size, cap):
            dims = dimensions_one_down(sets, two)
            done = dims > 0
            assert dims[done].tolist() == additive_dimensions(sets[done]).tolist()
            lemma_leaves = two >= dimension_lower_bound(size, 2)
            left += int(lemma_leaves.sum())
            settled += int((lemma_leaves & done).sum())
    assert settled >= 0.6 * left > 0


def test_one_removal_certificate_against_brute_nullspace(monkeypatch):
    # seeded sets, spread out or packed, in chunks of a few sets with
    # different maxima; the oracle ranks every quadruple relation by a
    # plain Fraction RREF
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 60)
    rng = random.Random(0xCE27)
    outcomes = set()
    for k in range(2, 9):
        sets = [sorted(rng.sample(range(rng.choice((2 * k, 3 * k, 60))), k)) for _ in range(100)]
        sizes = np.array([len(naive_sumset(a)) for a in sets])
        dims = dimensions_one_down(np.array(sets), sizes).tolist()
        for a, d in zip(sets, dims):
            if not d:
                continue
            rows = [
                [(t == i) + (t == j) - (t == x) - (t == y) for t in range(k)]
                for i, j in combinations_with_replacement(range(k), 2)
                for x, y in combinations_with_replacement(range(k), 2)
                if a[i] + a[j] == a[x] + a[y]
            ]
            assert d == k - 1 - brute_nullspace(rows, k)[0], a
            outcomes.add(d)
    assert outcomes == {1, 2}


@settings(max_examples=60)
@given(small_int_sets, st.integers(1, 6), st.integers(-30, 30))
def test_dimension_affine_invariant(a, scale, shift):
    b = IntSet.from_iterable(scale * x + shift for x in a.elements)
    assert additive_dimension_value(a) == additive_dimension_value(b)


def test_dimension_lower_bound_tight_cases():
    # |2A| >= (d+1)|A| - C(d+1, 2) with d the exact dimension, with equality
    for elems, bound in (((0, 1, 3, 7), 10), ((0, 1, 2), 5), ((0, 1, 10, 11), 9)):
        a = IntSet(elems)
        assert len(sumset(a)) >= dimension_lower_bound(len(a), additive_dimension_value(a)) == bound
    assert len(sumset(IntSet.of(0, 1, 3, 7))) == 10
    assert len(sumset(IntSet.of(0, 1, 10, 11))) == 9


# --- Freiman isomorphism ---------------------------------------------------------

def test_iso_affine_images():
    assert is_freiman_isomorphic(IntSet.of(0, 1, 2), IntSet.of(5, 9, 13))


def test_iso_distinguishes_relation_patterns():
    assert not is_freiman_isomorphic(IntSet.of(0, 1, 2), IntSet.of(0, 1, 3))


def test_iso_across_ambients():
    # the relation 0 + 1 = 3 + 3 (mod 5) matches 0 + 2 = 1 + 1 in Z
    assert is_freiman_isomorphic(rs(5, [0, 1, 3]), IntSet.of(0, 1, 2))
    # a progression of Z_4 folds (1+1 = 0+2 and 2+3 = 0+1): no integer match
    assert not is_freiman_isomorphic(rs(4, [0, 1, 2, 3]), IntSet.of(0, 1, 2, 3))
    assert is_freiman_isomorphic(rs(11, [0, 1, 2]), IntSet.of(0, 1, 2))


def test_iso_size_mismatch():
    assert not is_freiman_isomorphic(IntSet.of(0, 1), IntSet.of(0, 1, 2))


def test_iso_tuples_ambient():
    square = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert is_freiman_isomorphic(square, IntSet.of(0, 1, 10, 11))
    assert not is_freiman_isomorphic(square, IntSet.of(0, 1, 2, 3))


def test_iso_candidate_budget_boundary(monkeypatch):
    # the verdicts take 445, 423 and 17 tried images: each stands at exactly
    # its count and gives way to SearchRangeError one below it; the last
    # takes 19 unless a candidate whose B-side class is already matched to
    # another class is refused at once
    for a, b, verdict, tried in (
        ((0, 6, 12, 13, 15, 16), (2, 3, 10, 12, 17, 20), False, 445),
        ((4, 9, 15, 20, 22, 24), (0, 7, 14, 16, 22, 24), True, 423),
        ((0, 1, 4, 7, 8, 10, 14, 15, 16), (-17, -16, -15, -11, -9, -8, -5, -2, -1), True, 17),
    ):
        a, b = IntSet(a), IntSet(b)
        monkeypatch.setattr(freiman, "ISO_CANDIDATE_BUDGET", tried)
        assert is_freiman_isomorphic(a, b) == verdict
        monkeypatch.setattr(freiman, "ISO_CANDIDATE_BUDGET", tried - 1)
        with pytest.raises(SearchRangeError, match="candidate images"):
            is_freiman_isomorphic(a, b)


# --- rectification ---------------------------------------------------------------

def test_rectifiable_examples():
    assert is_rectifiable(rs(11, [0, 1, 2, 3]))
    assert not is_rectifiable(rs(4, [0, 1, 2, 3]))
    assert is_rectifiable(rs(5, [0, 1, 3]))


def test_rectifiable_needs_no_prime():
    assert not is_rectifiable(rs(4, [0, 2]))  # 0+0 = 2+2 forces a collapse
    assert is_rectifiable(rs(6, [0, 1]))


def test_rectify_postcondition():
    a = rs(5, [0, 1, 3])
    out = rectify(a)
    assert is_freiman_isomorphic(a, out)
    fmap = rectify_map(a)
    assert fmap[0] + fmap[1] == 2 * fmap[3]  # the one relation carries over


def test_rectify_map_refuses_a_map_that_merges_sum_classes(monkeypatch):
    # no dilate of {0, 1, 2, 3, 7} fits a half window of Z_11, so the moment
    # curve runs; a fake nullspace point f = (0, 1, 1, 1, 1) separates the two
    # listed classes, but sends 0 + 1 and 0 + 2, distinct mod 11, to one sum
    a = rs(11, [0, 1, 2, 3, 7])
    assert residues.half_window_fit(a.elements(), 11, residues.half_units(11)) is None
    fake = ([[0, 1, 1, 1, 1]], [(0, 0), (0, 1)])
    monkeypatch.setattr(freiman, "_separating_nullspace", lambda elems, modulus: fake)
    with pytest.raises(ConsistencyError, match="non-isomorphic"):
        rectify_map(a)


@pytest.mark.parametrize(
    "n, els, image",
    [
        # Sidon sets past the old coefficient search: fit routes, m = 1 and 8
        (10007, [0, 1, 3, 7, 12, 20], [0, 1, 3, 7, 12, 20]),
        (39, [0, 8, 15, 33, 34, 37], [16, 2, 19, 7, 15, 0]),
    ],
)
def test_rectify_map_takes_the_first_fitting_dilate(n, els, image):
    a = rs(n, els)
    assert rectify_map(a) == dict(zip(els, image))
    assert is_freiman_isomorphic(a, rectify(a))


def test_rectify_map_moment_curve_on_a_set_no_dilate_fits():
    # 28 seeded residues of Z_10007: no dilate fits, so the image is the
    # least separating point b_0 + t b_1 + ... of the nullspace's moment curve
    els = random.Random(28).sample(range(10007), 28)
    a = rs(10007, els)
    assert residues.half_window_fit(a.elements(), 10007, residues.half_units(10007)) is None
    assert is_rectifiable(a)
    f = rectify_map(a)
    sums = {}
    for x, y in combinations_with_replacement(sorted(els), 2):
        sums.setdefault((x + y) % 10007, set()).add(f[x] + f[y])
    assert all(len(v) == 1 for v in sums.values())
    assert len(set.union(*sums.values())) == len(sums)


def test_rectify_whole_interval():
    a = rs(11, [0, 1, 2])
    out = rectify(a)
    assert is_freiman_isomorphic(a, out)


def test_rectify_not_rectifiable():
    with pytest.raises(NotRectifiableError):
        rectify(rs(4, [0, 1, 2, 3]))


def test_rectify_random_corpus(rng):
    for _ in range(40):
        p = rng.choice([7, 11, 13, 17])
        k = rng.randrange(1, min(p, 8))
        a = rs(p, rng.sample(range(p), k))
        if is_rectifiable(a):
            out = rectify(a)  # internally postcondition-checked
            assert len(out) == len(a)


# --- required-row budget -----------------------------------------------------------


def test_row_budget_boundary(monkeypatch):
    # {0, 1, 2, 3, 5}: 15 pairs and 10 sums, so 5 required rows of 5 entries;
    # in Z_11, {0, 1, 2, 4, 7} fits no half window and has 5 rows as well
    ints = IntSet.from_iterable([0, 1, 2, 3, 5])
    residues = rs(101, [0, 1, 2, 3, 5])
    unfit = rs(11, [0, 1, 2, 4, 7])
    assert required_spanning_rows(ints).shape == required_spanning_rows(unfit).shape
    assert required_spanning_rows(ints).shape == (5, 5)
    # a stack holds each set to the budget: {0, 1, 3, 7, 12} has no relation
    stack = np.array([[0, 1, 3, 7, 12], ints.elements])
    monkeypatch.setattr(freiman, "REQUIRED_ROW_ENTRY_BUDGET", 25)
    assert additive_dimension(ints).dim == 1
    assert additive_dimensions(stack).tolist() == [4, 1]
    assert not is_rectifiable(unfit)
    assert len(rectify(residues)) == 5
    monkeypatch.setattr(freiman, "REQUIRED_ROW_ENTRY_BUDGET", 24)
    for call, arg in (
        (additive_dimension, ints),
        (additive_dimension_value, ints),
        (required_spanning_rows, ints),
        (rectify_map, unfit),
        (is_rectifiable, unfit),
        (additive_dimensions, stack),
    ):
        with pytest.raises(SearchRangeError, match="5 required rows of 5 entries"):
            call(arg)
    # the half-window fit builds no rows
    assert is_rectifiable(residues) and len(rectify(residues)) == 5
    with pytest.raises(PreconditionFailedError) as err:  # size, with no rows
        two_lines_cover(ints)
    assert str(err.value) == "|A| = 5 < 11; 3|2A| = 30 > 10|A| - 21 = 29"


def test_pair_budget_boundary(monkeypatch):
    # five elements make 15 index pairs, six make 21
    five, six = IntSet.of(0, 1, 2, 3, 5), IntSet.of(0, 1, 2, 3, 5, 8)
    monkeypatch.setattr(freiman, "PAIR_BUDGET", 15)
    assert additive_dimension(five).dim == 1
    assert is_freiman_isomorphic(five, five)
    for call, args in (
        (additive_dimension, (six,)),
        (additive_dimension_value, (six,)),
        (required_spanning_rows, (six,)),
        (is_freiman_isomorphic, (six, six)),
        (rectify_map, (rs(13, [0, 1, 2, 4, 7, 9]),)),
        (is_rectifiable, (rs(13, [0, 1, 2, 4, 7, 9]),)),
    ):
        with pytest.raises(SearchRangeError, match="6 elements make 21 index pairs"):
            call(*args)
    # a fitting dilate lists no pairs
    assert sorted(rectify_map(rs(101, six.elements)).values()) == list(six.elements)


def test_campaigns_stay_within_row_budget(monkeypatch):
    # a tripped budget raises out of the campaign, so a campaign that
    # returns a report returns the one it would give with no budget at all;
    # the suites build rows for stacks of sets, each set held to the budget
    entries = []
    build = freiman._spanning_rows

    def recording(first, second, same, k):
        entries.append(int(same.sum(axis=-1).max()) * k)
        return build(first, second, same, k)

    monkeypatch.setattr(freiman, "_spanning_rows", recording)
    for name in ("vosper", "dim_bound", "3k4"):
        run_suite(name)
    run_suite("prop23_variant", limit=16)
    for family in ("example1", "example2"):
        verify_family(family, 199)
    assert entries and 100 * max(entries) < REQUIRED_ROW_ENTRY_BUDGET


# --- two-lines cover ---------------------------------------------------------------

def _two_interval_set(gap=100, n1=6, n2=6, scale=1, shift=0):
    base = list(range(n1)) + [gap + i for i in range(n2)]
    return IntSet.from_iterable(scale * x + shift for x in base)


def test_two_lines_canonical_example():
    a = _two_interval_set()
    res = two_lines_cover(a)
    assert res.p1.length + res.p2.length <= len(sumset(a)) - 2 * len(a) + 3
    assert res.p1.step == res.p2.step
    v1, v2 = set(res.p1.values()), set(res.p2.values())
    assert set(a.elements) <= v1 | v2
    assert len(sumset(a)) == 33 and res.p1.length + res.p2.length == 12


def test_two_lines_dilated_keeps_structure():
    res = two_lines_cover(_two_interval_set(scale=7))
    assert res.p1.step == res.p2.step == 7


def test_two_lines_postconditions_verified_directly():
    for params in [dict(), dict(gap=57, n1=7, n2=5), dict(scale=3, shift=11)]:
        a = _two_interval_set(**params)
        res = two_lines_cover(a)
        v1, v2 = set(res.p1.values()), set(res.p2.values())
        s11 = {x + y for x in v1 for y in v1}
        s12 = {x + y for x in v1 for y in v2}
        s22 = {x + y for x in v2 for y in v2}
        assert not (s11 & s12) and not (s22 & s12) and not (s11 & s22)


def test_two_lines_preconditions():
    # every failed size precondition is named, with no dimension computed;
    # past them a set without a cover is 1-dimensional
    for els, message in (
        (range(11), "dim = 1 != 2"),
        (range(48), "dim = 1 != 2"),
        ([0, 4, 8, 12, 24, 32, 36, 40, 44, 48, 68], "3|2A| = 93 > 10|A| - 21 = 89"),
        ([0, 1, 10, 11], "|A| = 4 < 11; 3|2A| = 27 > 10|A| - 21 = 19"),
        ([0, 1, 3, 7, 12, 20, 30, 44, 60, 80, 100], "3|2A| = 183 > 10|A| - 21 = 89"),
    ):
        with pytest.raises(PreconditionFailedError) as err:
            two_lines_cover(IntSet.from_iterable(els))
        assert str(err.value) == message


def _small_two_lines_candidate(rng):
    """At most 13 members with a small span: two progressions with one step,
    apart or interleaved, whole or less one member; or a subset of a short
    interval."""
    k = rng.randrange(11, 14)
    style = rng.randrange(4)
    if style < 2:
        r, n1 = rng.randrange(1, 4), rng.randrange(2, k - 1)
        s2 = r * rng.randrange(2 * n1 + k) + rng.randrange(r)
        pool = {*range(0, r * (n1 + style), r), *range(s2, s2 + r * (k - n1), r)}
    else:
        pool = range(rng.randrange(k, k + 6) if style == 2 else rng.randrange(k, 30))
    return sorted(rng.sample(sorted(pool), min(k, len(pool))))


def test_two_lines_cover_matches_brute_oracle():
    # the step search answers iff some step and split meet the
    # postconditions, and with the least such step
    rng = random.Random(0x7A0)
    answered = refused = 0
    while answered + refused < 120:
        a = _small_two_lines_candidate(rng)
        if len(a) < 11 or 3 * len(naive_sumset(a)) > 10 * len(a) - 21:
            continue
        steps = brute_two_lines_steps(a)
        try:
            res = two_lines_cover(IntSet.from_iterable(a))
        except PreconditionFailedError:
            assert not steps, a
            refused += 1
            continue
        assert res.p1.step == res.p2.step == min(steps), a
        answered += 1
    assert answered >= 20 and refused >= 20


def test_two_lines_at_the_touching_gap():
    # [0, 6) u [s, s + 6): 2P1 = [0, 10] and P1 + P2 = [s, s + 10] may touch
    # but not overlap, so the cover appears at s = 11; below it |2A| < 3|A| - 3
    # and the set is 1-dimensional
    for s in range(6, 16):
        a = [*range(6), *range(s, s + 6)]
        assert brute_two_lines_steps(a) == ([1] if s >= 11 else [])
        if s < 11:
            with pytest.raises(PreconditionFailedError, match="dim = 1 != 2"):
                two_lines_cover(IntSet.from_iterable(a))
            continue
        res = two_lines_cover(IntSet.from_iterable(a))
        assert (res.p1, res.p2) == (ApDescriptor(0, 1, 6), ApDescriptor(s, 1, 6))


def test_two_lines_interleaved():
    # residues 0 and 1 mod 3 keep 2P1, P1 + P2 and 2P2 apart however the
    # lines overlap; the least three members differ by 1, 3 and 2, so only
    # the difference e2 - e0 = 3 holds the step
    a = IntSet.from_iterable([*range(0, 21, 3), *range(1, 19, 3)])
    res = two_lines_cover(a)
    assert (res.p1, res.p2) == (ApDescriptor(0, 3, 7), ApDescriptor(1, 3, 6))


def _two_lines_corpus(rng, count):
    """Two-interval sets like C10's, and subsets of two progressions with one
    step, with a stray member now and then."""
    for t in range(count):
        if t % 2:
            n1, n2 = rng.randrange(2, 12), rng.randrange(2, 14)
            gap = rng.randrange(4 * (n1 + n2), 12 * (n1 + n2))
            scale, shift = rng.randrange(1, 7), rng.randrange(-50, 50)
            els = [scale * x + shift for x in [*range(n1), *range(gap, gap + n2)]]
        else:
            r, n1, n2 = rng.randrange(1, 8), rng.randrange(2, 40), rng.randrange(2, 40)
            s2 = r * rng.randrange(4 * (n1 + n2)) + rng.randrange(r)
            keep = rng.uniform(0.8, 1.0)
            lines = [*range(0, r * n1, r), *range(s2, s2 + r * n2, r)]
            els = [x for x in lines if rng.random() < keep]
            if rng.random() < 0.25:
                els.append(rng.randrange(-50, s2 + r * n2 + 50))
        yield IntSet.from_iterable(els)


def test_two_lines_cover_certifies_dimension_two(monkeypatch):
    # a found cover proves dim = 2 on its own: no rank is taken, and the
    # rank taken afterwards agrees
    ranks = []
    stack = linalg.echelon_stack
    monkeypatch.setattr(linalg, "echelon_stack", lambda rows: ranks.append(1) or stack(rows))
    answered = 0
    for a in _two_lines_corpus(random.Random(0xD12), 300):
        ranks.clear()
        try:
            res = two_lines_cover(a)
        except PreconditionFailedError:
            continue
        assert not ranks, a
        assert res.p1.start < res.p2.start and res.p1.step == res.p2.step
        assert res.p1.length + res.p2.length <= len(sumset(a)) - 2 * len(a) + 3
        assert additive_dimension_value(a) == 2 and ranks, a
        answered += 1
    assert answered >= 100


def test_two_lines_cover_past_the_row_budget():
    # 1,100 members need more required rows than the budget allows, but the
    # step search needs none
    a = IntSet.from_iterable(3 * x + 11 for x in [*range(600), *range(9000, 9500)])
    with pytest.raises(SearchRangeError):
        additive_dimension_value(a)
    res = two_lines_cover(a)
    assert (res.p1.start, res.p1.step, res.p1.length) == (11, 3, 600)
    assert (res.p2.start, res.p2.step, res.p2.length) == (27011, 3, 500)
    assert res.p1.length + res.p2.length == 1100 == len(sumset(a)) - 2 * len(a) + 3


def test_two_lines_refuses_on_size_without_a_rank(monkeypatch):
    # the stray member 5000 breaks the doubling precondition; the refusal
    # says so at once and builds no rows, so the row budget that the 1,101
    # members exceed cannot turn it into a SearchRangeError
    built = []
    monkeypatch.setattr(freiman, "_spanning_rows", lambda *args: built.append(1))
    a = IntSet.from_iterable([*(3 * x + 11 for x in [*range(600), *range(9000, 9500)]), 5000])
    with pytest.raises(PreconditionFailedError) as err:
        two_lines_cover(a)
    assert str(err.value) == "3|2A| = 13194 > 10|A| - 21 = 10989" and not built


def test_dimension_and_lines_in_order_of_cost(monkeypatch):
    # Freiman's lemma and a found cover settle the dimension with no rank;
    # the rank runs only when the step search finds nothing, and must give 1
    ranks = []
    stack = linalg.echelon_stack
    monkeypatch.setattr(linalg, "echelon_stack", lambda rows: ranks.append(1) or stack(rows))
    assert dimension_and_lines(IntSet.from_iterable(range(12)), 23) == (1, None)
    two = _two_interval_set()
    assert dimension_and_lines(two, 33) == (2, two_lines_cover(two))
    assert not ranks
    flat = IntSet.of(0, 2, 4, 6, 8, 9, 10, 12, 13, 14, 18, 22)
    assert len(sumset(flat)) == 33 == 3 * len(flat) - 3
    assert dimension_and_lines(flat, 33) == (1, None) and ranks
    # outside |2A| <= 3|A| - 4, or |A| >= 11 and 3|2A| <= 10|A| - 21, a rank
    # above 1 would prove nothing, so the domain is refused
    for a, size in ((IntSet.of(0, 1, 10, 11), 9), (flat, 34)):
        with pytest.raises(PreconditionFailedError, match="neither"):
            dimension_and_lines(a, size)
    monkeypatch.setattr(freiman, "additive_dimension_value", lambda a: 3)
    with pytest.raises(ConsistencyError, match="dim = 3 .* Freiman's lemma"):
        dimension_and_lines(flat, 33)


def test_two_lines_without_cover_is_a_consistency_error(monkeypatch):
    # a 2-dimensional set the search cannot cover would contradict the
    # structure theorem; with every step refused it is reported as such
    monkeypatch.setattr(freiman, "_step_lines", lambda elems, r: None)
    with pytest.raises(ConsistencyError, match="structure theorem"):
        two_lines_cover(_two_interval_set())


# --- affine extension ---------------------------------------------------------------

def test_affine_extension_recovers_affine_map():
    pts = [(0, 0), (1, 0), (0, 1), (2, 3)]
    phi = {p: p[0] + 10 * p[1] + 5 for p in pts}
    L = affine_extension(pts, phi)
    assert L.coeffs == (Fraction(1), Fraction(10)) and L.offset == 5


def test_affine_extension_basis_fit():
    pts = [(0, 0), (1, 0), (0, 1)]
    phi = {(0, 0): 0, (1, 0): 1, (0, 1): 100}
    L = affine_extension(pts, phi)
    assert L.coeffs == (Fraction(1), Fraction(100)) and L.offset == 0


def test_affine_extension_detects_bad_map():
    pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    phi = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 5}
    with pytest.raises(NotFreimanIsomorphismError):
        affine_extension(pts, phi)


def test_affine_extension_degenerate_points():
    pts = [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(NotFullDimensionalError):
        affine_extension(pts, {p: 0 for p in pts})


# --- projection witness ---------------------------------------------------------------

def test_projection_witness_examples():
    w = projected_dimension_witness(IntSet.of(0, 1, 4), 4)
    assert w.applicable and w.dim == 2
    assert is_freiman_isomorphic(IntSet.of(0, 1, 4), list(w.witness))

    w = projected_dimension_witness(IntSet.of(0, 1, 2), 2)
    assert not w.applicable
    assert additive_dimension_value(IntSet.of(0, 1, 2)) == 1

    w = projected_dimension_witness(IntSet.of(0, 2, 3), 3)
    assert w.applicable and w.dim == 2


def test_projection_witness_preconditions():
    with pytest.raises(PreconditionFailedError):
        projected_dimension_witness(IntSet.of(1, 2, 5), 5)  # not normal form
    with pytest.raises(PreconditionFailedError):
        projected_dimension_witness(IntSet.of(0, 1, 4), 3)  # 3 does not divide 4
    with pytest.raises(PreconditionFailedError):
        projected_dimension_witness(IntSet.of(0, 4), 2)


# --- cross-module properties ---------------------------------------------------------

@settings(max_examples=40)
@given(small_int_sets)
def test_dimension_invariant_under_isomorphic_normal_form(a):
    nf = normal_form(a)
    assert is_freiman_isomorphic(a, nf)
    assert additive_dimension_value(a) == additive_dimension_value(nf)


def test_dimension_lower_bound_exhaustive_prefix():
    # small prefix of the exhaustive acceptance family
    from addcomb.search import _normal_form_subsets

    for sets, _ in _normal_form_subsets(8, 2, 5):
        for elems in sets.tolist():
            a = IntSet(tuple(elems))
            assert len(sumset(a)) >= dimension_lower_bound(len(a), additive_dimension_value(a))
