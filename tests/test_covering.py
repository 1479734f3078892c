import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import bits, residues
from addcomb.covering import (
    CONSISTENT,
    SILENT,
    conjecture_verdict,
    covering_bound_verdict,
    is_arithmetic_progression,
    min_ap_cover,
    min_ap_length_mod,
    vosper_verdict,
)
from addcomb.errors import (
    EmptySetError,
    PreconditionFailedError,
    PrimeRequiredError,
)
from addcomb.residues import ResidueSet, dilate, translate
from conftest import brute_min_cover


def rs(n, els):
    return ResidueSet.from_elements(n, els)


def test_min_ap_cover_examples():
    res = min_ap_cover(rs(11, [0, 3, 4, 5, 6]))
    assert (res.length, res.bound, res.within_bound) == (7, 6, False)

    res = min_ap_cover(rs(11, [0, 1, 3, 6]))
    assert (res.length, res.bound, res.within_bound) == (5, 5, True)
    assert (res.witness.start, res.witness.step) == (0, 3)
    assert set(res.witness.values()) == {0, 3, 6, 9, 1}

    res = min_ap_cover(rs(13, [0, 1, 2, 3, 4]))
    assert res.length == 5  # a set is an AP iff ell = |A|


def test_min_ap_cover_degenerate_cases():
    res = min_ap_cover(rs(5, range(5)))
    assert res.length == 5
    assert (res.witness.start, res.witness.step) == (0, 1)
    res = min_ap_cover(rs(7, [4]))
    assert res.length == 1
    with pytest.raises(EmptySetError):
        min_ap_cover(ResidueSet(7, 0))
    with pytest.raises(PrimeRequiredError):
        min_ap_cover(rs(12, [0, 1]))


def test_min_ap_cover_witness_step_stays_low():
    for els in ([0, 3, 4, 5, 6], [0, 1, 3, 6], [1, 2, 8], [0, 5, 6]):
        res = min_ap_cover(rs(11, els))
        assert 1 <= res.witness.step <= 5  # steps beyond (p-1)/2 are reversals


def test_min_ap_cover_exhaustive_small_primes():
    for p in (2, 3, 5, 7):
        for mask in range(1, 1 << p):
            els = bits.elements_of(mask)
            res = min_ap_cover(ResidueSet(p, mask))
            assert res.length == brute_min_cover(els, p)
            assert res.witness.covers(els)


def test_min_ap_cover_random_against_oracle(rng):
    for _ in range(40):
        p = rng.choice([11, 13, 17, 19, 23])
        k = rng.randrange(1, p + 1)
        els = rng.sample(range(p), k)
        res = min_ap_cover(rs(p, els))
        assert res.length == brute_min_cover(els, p)


@settings(max_examples=150)
@given(st.data())
def test_cover_length_affine_invariant(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13]))
    els = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    d = data.draw(st.integers(1, p - 1))
    u = data.draw(st.integers(0, p - 1))
    a = rs(p, els)
    b = translate(dilate(a, d), u)
    assert min_ap_cover(a).length == min_ap_cover(b).length


def test_cover_length_affine_invariant_bulk(rng):
    for _ in range(1000):
        p = rng.choice([5, 7, 11, 13, 17, 19])
        k = rng.randrange(1, p + 1)
        a = rs(p, rng.sample(range(p), k))
        b = translate(dilate(a, rng.randrange(1, p)), rng.randrange(p))
        assert min_ap_cover(a).length == min_ap_cover(b).length


def test_general_modulus_min_ap():
    # {0,4,8} in Z_12: one subgroup coset, step-4 progression of length 3
    assert min_ap_length_mod(bits.mask_of([0, 4, 8], 12), 12) == 3
    assert min_ap_length_mod(bits.mask_of([0, 1], 4), 4) == 2
    assert min_ap_length_mod(bits.mask_of([0], 9), 9) == 1
    assert min_ap_length_mod(bits.mask_of(range(12), 12), 12) == 12
    # {0,1,5} in Z_10: reversed step gives {5, 0, 1} hmm -> exact value from brute force
    assert min_ap_length_mod(bits.mask_of([0, 1, 5], 10), 10) == _brute_mod(
        [0, 1, 5], 10
    )
    with pytest.raises(EmptySetError):
        min_ap_length_mod(0, 12)


def _brute_mod(els, m):
    target = set(els)
    best = m
    for start in range(m):
        for step in range(1, m):
            covered = set()
            v = start
            for length in range(1, m + 1):
                if v in covered:
                    break
                covered.add(v)
                if target <= covered:
                    best = min(best, length)
                    break
                v = (v + step) % m
    return best


def test_general_modulus_matches_brute(rng):
    for _ in range(60):
        m = rng.choice([4, 6, 8, 9, 10, 12, 15])
        k = rng.randrange(1, m + 1)
        els = rng.sample(range(m), k)
        assert min_ap_length_mod(bits.mask_of(els, m), m) == _brute_mod(els, m)


def test_general_modulus_exhaustive_small():
    for m in (4, 6, 8, 9, 10):
        for mask in range(1, 1 << m):
            assert min_ap_length_mod(mask, m) == _brute_mod(bits.elements_of(mask), m)


def test_general_modulus_exhaustive_small_pruned(monkeypatch):
    # sample size 2 from 4 members up: every set of four or more members,
    # and every reduction to a coset with as many, takes the sample-bounded
    # sweep, including the composite moduli whose non-units it skips
    monkeypatch.setattr(residues, "SAMPLE_SIZE", 2)
    monkeypatch.setattr(residues, "SAMPLE_MIN_SIZE", 4)
    test_general_modulus_exhaustive_small()


# --- verdicts ----------------------------------------------------------------

def test_main_verdict_positive_instance():
    rep = covering_bound_verdict(rs(101, list(range(21)) + [24]))
    assert rep.sumset_size == 46
    assert rep.doubling_ok  # 46 <= 2.48*22 - 7
    assert not rep.density_ok and rep.density_note == "unmet-at-scale"
    assert rep.cover.length == 25 == rep.cover.bound
    assert rep.conclusion_holds


def test_main_verdict_negative_instance():
    rep = covering_bound_verdict(rs(11, [0, 3, 4, 5, 6]))
    assert not rep.doubling_ok
    assert not rep.conclusion_holds
    assert rep.cover.length == 7


def test_main_verdict_singleton_vacuous():
    rep = covering_bound_verdict(rs(7, [0]))
    assert not rep.doubling_ok  # 1 > 2.48 - 7


def test_vosper_verdict_examples():
    rep = vosper_verdict(rs(7, [0, 1, 2]))
    assert rep.equality_holds and rep.is_ap and rep.agree

    # sums of {0,1,3} are {0,1,2,3,4,6}: six values, not a progression
    rep = vosper_verdict(rs(11, [0, 1, 3]))
    assert rep.sumset_size == 6
    assert not rep.equality_holds and not rep.is_ap and rep.agree

    with pytest.raises(PreconditionFailedError):
        vosper_verdict(rs(7, [0, 1, 2, 3, 4]))  # |2A| = 7 > p - 2
    with pytest.raises(PreconditionFailedError):
        vosper_verdict(rs(7, [0, 1, 3]))  # |2A| = 6 > p - 2
    with pytest.raises(PreconditionFailedError):
        vosper_verdict(rs(7, [0]))


def test_conjecture_verdict_examples():
    rep = conjecture_verdict(rs(13, [0, 1, 2, 3, 4]))
    assert rep.x == 0 and rep.condition_i and rep.status == CONSISTENT

    rep = conjecture_verdict(rs(11, [0, 3, 4, 5, 6]))
    assert rep.x == 1
    assert not rep.condition_i and not rep.condition_ii
    assert rep.status == SILENT

    rep = conjecture_verdict(rs(11, [0, 1, 3, 6]))
    assert rep.x == 1  # = |A| - 3, but the (ii) density side fails
    assert not rep.condition_ii and rep.status == SILENT


def test_is_arithmetic_progression():
    assert is_arithmetic_progression(rs(13, [0, 1, 2, 3, 4]))
    assert is_arithmetic_progression(rs(11, [0, 4, 8, 1]))  # step 4 wraps
    assert not is_arithmetic_progression(rs(11, [0, 3, 4, 5, 6]))
    assert is_arithmetic_progression(rs(5, [3, 0, 2]))
