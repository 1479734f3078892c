import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb.errors import PrimeRequiredError
from addcomb.residues import ResidueSet, dilate
from addcomb.spectral import (
    EXACT_SEARCH_MAX_P,
    best_half_window,
    energy_identity_residual,
    largest_coefficient,
    spectrum,
    transform_magnitude,
    window_capture_counts,
)
from conftest import brute_window_max


def rs(n, els):
    return ResidueSet.from_elements(n, els)


def direct_transform(els, p, d):
    return sum(cmath.exp(2j * math.pi * a * d / p) for a in els)


def test_spectrum_full_group():
    mags = spectrum(rs(5, range(5))).magnitudes
    assert mags[0] == 5
    assert np.all(mags[1:] < 1e-9)


def test_spectrum_singleton():
    mags = spectrum(rs(5, [0])).magnitudes
    assert np.allclose(mags, 1.0, atol=1e-12)


def test_spectrum_pair_closed_form():
    mags = spectrum(rs(5, [0, 1])).magnitudes
    assert mags[1] == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-12)


def test_spectrum_requires_prime():
    with pytest.raises(PrimeRequiredError):
        spectrum(rs(12, [0, 1]))


def test_transform_magnitude_matches_spectrum_at_every_frequency(rng):
    # sparse sets sum their members, dense ones (k > p/2) their complement
    for _ in range(40):
        p = rng.choice([7, 11, 13, 31, 101])
        k = rng.randrange(1, p + 1)
        els = rng.sample(range(p), k)
        a = rs(p, els)
        mags = spectrum(a).magnitudes
        assert transform_magnitude(a, 0) == k
        for d in range(p):
            got = transform_magnitude(a, d)
            assert got == pytest.approx(mags[d], abs=1e-9)
            assert got == pytest.approx(abs(direct_transform(els, p, d)), abs=1e-9)


def test_transform_magnitude_of_the_full_group_is_exact():
    for p in (3, 5, 7, 11):
        a = rs(p, range(p))
        assert transform_magnitude(a, 0) == p
        assert all(transform_magnitude(a, d) == 0.0 for d in range(1, 2 * p) if d % p)


def test_spectrum_matches_direct_summation(rng):
    for _ in range(20):
        p = rng.choice([7, 11, 13, 31])
        k = rng.randrange(1, p)
        els = rng.sample(range(p), k)
        mags = spectrum(rs(p, els)).magnitudes
        for d in range(p):
            assert mags[d] == pytest.approx(abs(direct_transform(els, p, d)), abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_spectrum_invariants(data):
    p = data.draw(st.sampled_from([5, 7, 11, 13, 101]))
    els = data.draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p))
    spec = spectrum(rs(p, els))
    mags = spec.magnitudes
    assert mags[0] == len(els)  # exact by construction
    for d in range(1, p):
        assert mags[d] == mags[p - d]  # mirrored, so exactly symmetric
    parseval = float(np.sum(mags**2))
    assert parseval == pytest.approx(len(els) * p, rel=1e-9)


def test_largest_coefficient_examples():
    lc = largest_coefficient(rs(5, [0, 1]))
    assert lc.d == 1
    assert lc.magnitude == pytest.approx(2 * math.cos(math.pi / 5), abs=1e-9)
    assert lc.bound == pytest.approx(math.sqrt(4 / 9) * 2, abs=1e-9)
    assert lc.magnitude >= lc.bound

    lc = largest_coefficient(rs(7, [0, 1, 2]))
    assert lc.bound == pytest.approx(math.sqrt((7 / 5 - 1) / (7 / 3 - 1)) * 3, abs=1e-9)
    assert lc.magnitude >= lc.bound

    lc = largest_coefficient(rs(5, [0]))  # all magnitudes tie at 1
    assert lc.d == 1


def test_energy_identity_examples():
    assert energy_identity_residual(rs(5, [0, 1])) < 1e-9
    assert energy_identity_residual(rs(7, [0])) < 1e-9
    assert energy_identity_residual(rs(11, [0, 3, 4, 5, 6])) < 1e-9


def test_energy_identity_moderate_prime(rng):
    els = rng.sample(range(1009), 120)
    assert energy_identity_residual(rs(1009, els)) < 1e-9


def test_best_half_window_examples():
    w = best_half_window(rs(5, [0, 1]))
    assert (w.d, w.u, w.window_size, w.mode) == (1, 0, 3, "exact")
    assert w.captured.elements() == [0, 1]
    assert len(w) >= (2 + 2 * math.cos(math.pi / 5)) / 2 - 1e-6

    # a set already inside one window is captured whole at d = 1
    w = best_half_window(rs(11, [0, 2, 5]))
    assert (w.d, len(w)) == (1, 3)
    assert w.captured.elements() == [0, 2, 5]

    w = best_half_window(rs(11, [0, 1, 5, 6, 10]))
    assert len(w) >= 4


def test_best_half_window_matches_brute(rng):
    for _ in range(25):
        p = rng.choice([5, 7, 11, 13])
        k = rng.randrange(1, p + 1)
        els = rng.sample(range(p), k)
        w = best_half_window(rs(p, els))
        count, d, u = brute_window_max(els, p)
        assert len(w) == count
        assert (w.d, w.u) == (d, u)  # same smallest-(d, u) tie break


def test_best_half_window_smallest_prime():
    w = best_half_window(rs(2, [1]))
    assert (w.window_size, len(w)) == (1, 1)
    assert w.captured.elements() == [1]


def test_window_capture_equivariance(rng):
    for _ in range(20):
        p = rng.choice([11, 13, 17])
        k = rng.randrange(1, p)
        a = rs(p, rng.sample(range(p), k))
        c = rng.randrange(1, p)
        assert len(best_half_window(a)) == len(best_half_window(dilate(a, c)))


def test_capture_bound_holds_for_every_frequency(rng):
    # the guarantee is per-d, not only at the maximizer
    p = 101
    for _ in range(10):
        k = rng.randrange(2, 60)
        a = rs(p, rng.sample(range(p), k))
        mags = spectrum(a).magnitudes
        for d in range(1, p):
            best_u = int(window_capture_counts(a, d).max())
            assert best_u >= (k + mags[d]) / 2 - 1e-6


def test_fourier_mode_above_cutoff(rng):
    p = 16411  # first prime above the exact-search cutoff
    assert p > EXACT_SEARCH_MAX_P
    els = rng.sample(range(200), 40)  # clustered, strong coefficient
    w = best_half_window(rs(p, els))
    assert w.mode == "fourier"
    mags = spectrum(rs(p, els)).magnitudes
    assert len(w) >= (40 + mags[w.d]) / 2 - 1e-6
