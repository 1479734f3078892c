import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from addcomb import spectral
from addcomb.errors import EmptySetError, PreconditionFailedError, PrimeRequiredError
from addcomb.residues import ResidueSet, dilate, half_units, half_window_fit
from addcomb.spectral import (
    EXACT_SEARCH_MAX_P,
    SPARSE_MAX_MEMBERS,
    best_half_window,
    energy_identity_residual,
    largest_coefficient,
    spectrum,
    transform_magnitude,
)
from conftest import brute_dft_magnitude, brute_window_max, window_capture_counts


def rs(n, els):
    return ResidueSet.from_elements(n, els)


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
            assert got == pytest.approx(brute_dft_magnitude(els, p, d), abs=1e-9)


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
            assert mags[d] == pytest.approx(brute_dft_magnitude(els, p, d), abs=1e-9)


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


def fft_top(a):
    """The smallest d >= 1 within 1e-9 of the top magnitude, over the whole
    FFT spectrum."""
    tail = spectrum(a).magnitudes[1:]
    top = float(tail.max())
    return 1 + int(np.nonzero(tail >= top - 1e-9 * max(1.0, top))[0][0])


def test_fourier_mode_above_cutoff(rng):
    p = 16411  # first prime above the exact-search cutoff
    assert p > EXACT_SEARCH_MAX_P
    for k in (40, 2 * SPARSE_MAX_MEMBERS):  # direct sums, then the FFT
        els = rng.sample(range(5 * k), k)  # clustered, strong coefficient
        a = rs(p, els)
        w = best_half_window(a)
        assert w.mode == "fourier"
        counts = window_capture_counts(a, w.d)
        assert (w.d, w.u, len(w)) == (fft_top(a), counts.argmax(), counts.max())
        assert len(w) >= (k + spectrum(a).magnitudes[w.d]) / 2 - 1e-6


def test_top_frequency_by_direct_sums_matches_the_fft(rng):
    # both sides of the member cutoff, sparse sets and dense ones (whose
    # complement is summed), against the FFT and a brute DFT; one member on
    # the smaller side makes every magnitude 1, a tie that d = 1 takes (at
    # p = 2, d = 1 = p//2)
    cut = SPARSE_MAX_MEMBERS
    for p in (2, 3, 5, 101, 16411, 65537):
        for m in (1, 2, cut - 1, cut, cut + 1):
            for k in sorted({min(m, p - 1), max(1, p - m)}):
                els = rng.sample(range(p), k)
                a = rs(p, els)
                d, magnitude = spectral._top_frequency(a)
                mags = spectrum(a).magnitudes
                assert d == fft_top(a) <= p // 2
                if min(k, p - k) == 1:
                    assert d == 1 and magnitude == pytest.approx(1.0, abs=1e-9)
                assert magnitude == pytest.approx(mags[d], abs=1e-9)
                direct = None
                if min(k, p - k) <= cut:
                    direct = spectral._direct_magnitudes(spectral._smaller_side(a), p)
                    assert len(direct) == p // 2 + 1
                    assert np.abs(direct[1:] - mags[1 : p // 2 + 1]).max() <= 1e-9
                freqs = range(1, p // 2 + 1) if p <= 101 else {1, d, p // 2, *rng.sample(range(1, p // 2), 3)}
                for f in freqs:
                    brute = brute_dft_magnitude(els, p, f)
                    assert mags[f] == pytest.approx(brute, abs=1e-9)
                    if direct is not None:
                        assert direct[f] == pytest.approx(brute, abs=1e-9)


def test_best_start_is_the_least_maximising_start(rng):
    # every d against the p-length count: wrapping windows, |A| = 1,
    # |A| = p - 1, the full group, and exact-mode sets that no dilate fits
    wrapped = no_fit = 0
    for p in (2, 3, 5, 7, 11, 13, 31):
        w = (p + 1) // 2
        for k in sorted({1, 2, p // 3, p // 2 + 1, p - 2, p - 1, p} - {0}):
            els = rng.sample(range(p), k)
            a = rs(p, els)
            for d in range(1, p):
                counts = window_capture_counts(a, d)
                count, u = spectral._best_start(a, d)
                assert (count, u) == (counts.max(), counts.argmax())
                wrapped += u + w > p
            if half_window_fit(els, p, half_units(p)) is None:
                no_fit += 1
                win = best_half_window(a)
                counts = window_capture_counts(a, win.d)
                assert (len(win), win.u) == (counts.max(), counts.argmax())
                assert (len(win), win.d, win.u) == brute_window_max(els, p)
    assert wrapped and no_fit


@pytest.mark.parametrize(
    "call, n, els, error",
    [
        (largest_coefficient, 12, [0, 1], PrimeRequiredError),
        (largest_coefficient, 16413, [0, 1], PrimeRequiredError),  # 3 * 5471
        (best_half_window, 16413, [0, 1], PrimeRequiredError),
        (largest_coefficient, 101, [], EmptySetError),
        (best_half_window, 16411, [], EmptySetError),
        (largest_coefficient, 5, range(5), PreconditionFailedError),
        (largest_coefficient, 16411, range(16411), PreconditionFailedError),
        (best_half_window, 16411, range(16411), PreconditionFailedError),
    ],
    ids=[
        "coefficient-composite", "coefficient-composite-large", "window-composite-large",
        "coefficient-empty", "window-empty", "coefficient-full", "coefficient-full-large",
        "window-full-large",
    ],
)
def test_fourier_error_contract(call, n, els, error):
    # the direct-sum route skips spectrum(), so it makes these checks itself
    with pytest.raises(error):
        call(rs(n, els))


def test_fft_only_above_the_member_cutoff(monkeypatch):
    calls = []
    transform = spectral.spectrum

    def counting(a):
        calls.append(len(a))
        return transform(a)

    monkeypatch.setattr(spectral, "spectrum", counting)
    p, cut = 16411, SPARSE_MAX_MEMBERS
    for k, by_fft in (
        (1, False), (cut, False), (cut + 1, True), (p - cut - 1, True), (p - cut, False), (p - 1, False)
    ):
        calls.clear()
        assert best_half_window(rs(p, range(0, 2 * k, 2) if 2 * k < p else range(k))).mode == "fourier"
        assert calls == ([k] if by_fft else [])


def test_direct_sums_memory_is_bounded():
    # the products go in blocks, so the p/2 + 1 magnitudes are the one large
    # array; the whole product at once would add three times their size
    p = 1048583
    a = rs(p, range(0, 3 * SPARSE_MAX_MEMBERS, 3))
    tracemalloc.start()
    try:
        spectral._top_frequency(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 8 * (p // 2 + 1)
