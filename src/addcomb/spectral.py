"""Discrete Fourier analysis of indicator functions on Z_p.

Conventions: the transform of the indicator of A at frequency d is
sum_{a in A} e^{2 pi i a d / p}.  numpy's FFT uses the conjugate kernel;
magnitudes are unaffected and the one identity that needs phases conjugates
explicitly.  Magnitudes are computed for d <= p/2 and mirrored, so conjugate
symmetry holds exactly.  transform_magnitude reads one frequency without a
transform: an O(min(|A|, p - |A|)) sum whose angles come from residues
reduced in exact integers; the engine's capture bound reads |T_A(d)| there in
both window modes.  Inequality assertions on magnitudes use a 1e-6
absolute tolerance; any verdict that compares cardinalities is re-ranked in
exact integers, so floating error never flips it.

The exact half-window search (p <= 2^14) reads the covering sweep's chunked
rows (residues.dilation_rows), so its memory is bounded whatever p * |A|.
Negation maps a half window onto a half window, so d and p - d capture alike
and only d <= (p-1)/2 is searched, in two passes.  The gap kernel alone
settles a dilate that fits a half window whole (p - gap <= (p+1)/2, capture
|A|), and gives the least start of its window with it; only when none fits
are the member-anchored windows counted.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import sqrt

import numpy as np

from . import bits
from .errors import (
    ConsistencyError,
    EmptySetError,
    PreconditionFailedError,
    PrimeRequiredError,
)
from .residues import ResidueSet, dilate, dilation_rows, half_units, half_window_fit, sumset

MAG_TOL = 1e-6
EXACT_SEARCH_MAX_P = 1 << 14


@dataclass(frozen=True)
class Spectrum:
    modulus: int
    magnitudes: np.ndarray  # |transform| at d = 0 .. p-1


def _indicator(a: ResidueSet) -> np.ndarray:
    x = np.zeros(a.modulus)
    x[a.elements()] = 1.0
    return x


def spectrum(a: ResidueSet) -> Spectrum:
    if not a.prime_modulus:
        raise PrimeRequiredError("spectrum requires prime modulus")
    p = a.modulus
    half = np.abs(np.fft.rfft(_indicator(a)))
    half[0] = float(len(a))  # the d = 0 value is |A| by definition
    mags = np.concatenate([half, half[(p - 1) // 2 : 0 : -1]])
    if len(mags) != p:
        raise ConsistencyError(f"spectrum of length {len(mags)}, not p = {p}")
    return Spectrum(p, mags)


def transform_magnitude(a: ResidueSet, d: int) -> float:
    """|T_A(d)|, one sum of unit vectors.  x * d is reduced mod p in int64
    (exact for p < 3 * 10^9), so only the angles 2 pi r / p and the sums
    round.  For d != 0 mod p, T_{Z_p}(d) = 0 gives |T_A(d)| = |T_{Z_p minus
    A}(d)|, so a set denser than half sums its complement: Z_p reads 0."""
    p = a.modulus
    if d % p == 0:
        return float(len(a))
    mask = a.mask if 2 * len(a) <= p else a.mask ^ bits.full_mask(p)
    theta = 2 * np.pi * (np.array(bits.elements_of(mask), dtype=np.int64) * (d % p) % p) / p
    return float(np.hypot(np.cos(theta).sum(), np.sin(theta).sum()))


@dataclass(frozen=True)
class LargeCoefficient:
    d: int
    magnitude: float
    bound: float  # sqrt((p/|2A| - 1) / (p/|A| - 1)) * |A|


def large_coefficient_bound(p: int, size: int, sumset_size: int) -> float:
    num = p / sumset_size - 1.0
    den = p / size - 1.0
    return sqrt(max(num, 0.0) / den) * size


def largest_coefficient(a: ResidueSet) -> LargeCoefficient:
    """The smallest nonzero frequency of maximal magnitude, with the lower
    bound that small doubling forces on it.

    Requires a proper nonempty (the bound degenerates at A = Z_p).  Violation
    of the bound would falsify the guarantee and raises ConsistencyError.
    """
    p = a.modulus
    k = len(a)
    if k == 0:
        raise EmptySetError("largest coefficient of the empty set")
    d, magnitude = _top_frequency(a)
    bound = large_coefficient_bound(p, k, len(sumset(a)))
    if magnitude < bound - MAG_TOL:
        raise ConsistencyError(
            f"max |transform| {magnitude:.9f} below guaranteed bound {bound:.9f}"
        )
    return LargeCoefficient(d, magnitude, bound)


def _top_frequency(a: ResidueSet) -> tuple[int, float]:
    """The smallest nonzero frequency of maximal magnitude, and the magnitude
    (a proper subset; float-level ties grouped)."""
    if len(a) >= a.modulus:
        raise PreconditionFailedError("A must be a proper subset of Z_p")
    mags = spectrum(a).magnitudes
    tail = mags[1:]
    top = float(tail.max())
    # group float-level ties and take the smallest frequency
    d = 1 + int(np.nonzero(tail >= top - 1e-9 * max(1.0, top))[0][0])
    return d, float(mags[d])


def energy_identity_residual(a: ResidueSet) -> float:
    """Relative residual of sum_d T_A(d)^2 conj(T_2A(d)) = |A|^2 p.

    The identity is exact in exact arithmetic; in doubles the residual stays
    far below 1e-9 for p up to 1e5.
    """
    if not a.prime_modulus:
        raise PrimeRequiredError("identity requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("identity of the empty set")
    # numpy's FFT is the conjugate of the transform used here
    fa = np.fft.fft(_indicator(a))
    f2 = np.fft.fft(_indicator(sumset(a)))
    total = np.sum(np.conj(fa) ** 2 * f2)
    target = len(a) ** 2 * a.modulus
    return float(abs(total - target) / target)


@dataclass(frozen=True)
class RectWindow:
    """A half-length window [u, u + (p+1)/2) and the part of a dilate of A it
    captures.  `captured` lives in the dilated coordinates d * A; a caller
    reads |T_A(d)| with transform_magnitude."""

    d: int
    u: int
    captured: ResidueSet
    window_size: int
    mode: str  # "exact" or "fourier"

    def __len__(self) -> int:
        return len(self.captured)

    def to_json(self) -> dict:
        return {**asdict(self), "captured": self.captured.literal()}


def window_capture_counts(a: ResidueSet, d: int) -> np.ndarray:
    """|[u, u + (p+1)/2) ∩ d*A| for every u (one dilation, all starts)."""
    p = a.modulus
    w = (p + 1) // 2
    ind = np.zeros(p)
    ind[[x * d % p for x in a.elements()]] = 1.0
    ext = np.concatenate([ind, ind[: w - 1]])
    cs = np.concatenate([[0.0], np.cumsum(ext)])
    return (cs[w:] - cs[:p]).astype(np.int64)


def _member_window_counts(rows: np.ndarray, p: int, w: int) -> np.ndarray:
    """For sorted rows of dilated members, the capture of the window
    [x, x + w) anchored at each member x."""
    n_rows, k = rows.shape
    off = (np.arange(n_rows) * 2 * p)[:, None]
    flat = (np.concatenate([rows, rows + p], axis=1) + off).ravel()
    ends = np.searchsorted(flat, (rows + w + off).ravel()).reshape(n_rows, k)
    return ends - off // p * k - np.arange(k)


def best_half_window(a: ResidueSet) -> RectWindow:
    """The (d, u) whose half window captures the most of d * A.

    Exact search over every (d, u) for p <= 2^14, smallest d then smallest u
    on ties.  The first pass takes the smallest d <= (p-1)/2 whose dilate
    fits a half window whole, with the least start u of such a window: no d
    captures more than |A|, and d and p - d fit alike.  Only if none fits
    does the second pass count every member-anchored window, keeping the
    first row at the maximum, and u is then the first start attaining the
    maximum for that d.  Above 2^14, the d attaining the maximal Fourier
    magnitude is used with its best u; that capture is guaranteed at least
    (|A| + |T_A(d)|)/2 and the mode is "fourier".  The closing check
    recounts the capture at (d, u): at count = |A| it proves the fit's
    window holds all of d * A, hence the maximum.
    """
    p = a.modulus
    if not a.prime_modulus:
        raise PrimeRequiredError("window search requires prime modulus")
    if len(a) == 0:
        raise EmptySetError("window of the empty set")
    w = (p + 1) // 2
    if p <= EXACT_SEARCH_MAX_P:
        mode = "exact"
        fit = half_window_fit(a.elements(), p, half_units(p))
        if fit is not None:
            (d, u), count = fit, len(a)
        else:
            # sliding a start right to the next member never loses a capture
            count, d = -1, None
            for ms, rows in dilation_rows(a.elements(), p, half_units(p)):
                per_d = _member_window_counts(rows, p, w).max(axis=1)
                i = int(per_d.argmax())  # first row: smallest dilation
                if per_d[i] > count:
                    count, d = int(per_d[i]), int(ms[i])
            u = int(np.argmax(window_capture_counts(a, d)))  # first index: smallest start
    else:
        mode = "fourier"
        d, magnitude = _top_frequency(a)
        counts = window_capture_counts(a, d)
        count, u = int(counts.max()), int(np.argmax(counts))
        if count < (len(a) + magnitude) / 2 - MAG_TOL:
            raise ConsistencyError(
                "window capture below the guaranteed half-plus-coefficient bound"
            )
    window_mask = bits.rotate((1 << w) - 1, u, p)
    captured = ResidueSet(p, dilate(a, d).mask & window_mask)
    if len(captured) != count:
        raise ConsistencyError(
            f"window at (d, u) = ({d}, {u}) captures {len(captured)}, not {count}"
        )
    return RectWindow(d, u, captured, w, mode)
