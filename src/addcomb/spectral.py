"""Discrete Fourier analysis of indicator functions on Z_p.

Conventions: the transform of the indicator of A at frequency d is
sum_{a in A} e^{2 pi i a d / p}.  numpy's FFT uses the conjugate kernel;
magnitudes are unaffected and the one identity that needs phases conjugates
explicitly.  Magnitudes are computed for d <= p/2 and mirrored, so conjugate
symmetry holds exactly.  For d != 0 mod p, T_{Z_p}(d) = 0 gives |T_A(d)| =
|T_{Z_p minus A}(d)|, so a direct sum runs over the m = min(|A|, p - |A|)
members of the smaller of A and its complement, with angles from residues
reduced in exact integers.  transform_magnitude reads one frequency that
way; the engine's capture bound reads |T_A(d)| there in both window modes.
The top frequency of a set with m <= SPARSE_MAX_MEMBERS comes from the same
sums at every d <= p/2, built in blocks as complex matrix products, with no
prime-length FFT; denser sets, and spectrum(), keep the FFT.  Inequality
assertions on magnitudes use a 1e-6 absolute tolerance; any verdict that
compares cardinalities is re-ranked in exact integers, so floating error
never flips it.

The exact half-window search (p <= 2^14) reads the covering sweep's chunked
rows (residues.dilation_rows), so its memory is bounded whatever p * |A|.
Negation maps a half window onto a half window, so d and p - d capture alike
and only d <= (p-1)/2 is searched, in two passes.  The gap kernel alone
settles a dilate that fits a half window whole (p - gap <= (p+1)/2, capture
|A|), and gives the least start of its window with it; only when none fits
are the member-anchored windows counted.  In both modes the least start of
the best window at the chosen d is found among the starts where its capture
can rise (0 and r - (p+1)/2 + 1 for members r of d * A), so no search walks
all p starts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import isqrt, sqrt

import numpy as np

from . import bits
from .errors import (
    ConsistencyError,
    EmptySetError,
    PreconditionFailedError,
    PrimeRequiredError,
)
from .residues import (
    CANONICAL_STEP_ENTRIES,
    ResidueSet,
    dilate,
    dilation_rows,
    half_units,
    half_window_fit,
    sumset,
)

MAG_TOL = 1e-6
EXACT_SEARCH_MAX_P = 1 << 14
# the top frequency of a set with min(|A|, p - |A|) <= this many members is
# found by direct sums, not an FFT: at 128 members they took 1.2 ms against
# the FFT's 2.9 ms at p = 16,411, and at 256 the two were level (README,
# "Performance notes")
SPARSE_MAX_MEMBERS = 128


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


def _smaller_side(a: ResidueSet) -> np.ndarray:
    """The members of A, or of Z_p minus A for a set denser than half: both
    have the same |T(d)| at every d != 0 mod p, so Z_p reads 0."""
    p = a.modulus
    mask = a.mask if 2 * len(a) <= p else a.mask ^ bits.full_mask(p)
    return np.array(bits.elements_of(mask), dtype=np.int64)


def transform_magnitude(a: ResidueSet, d: int) -> float:
    """|T_A(d)|, one sum of unit vectors over the smaller side.  x * d is
    reduced mod p in int64 (exact for p < 3 * 10^9), so only the angles
    2 pi r / p and the sums round."""
    p = a.modulus
    if d % p == 0:
        return float(len(a))
    theta = 2 * np.pi * (_smaller_side(a) * (d % p) % p) / p
    return float(np.hypot(np.cos(theta).sum(), np.sin(theta).sum()))


def _direct_magnitudes(members: np.ndarray, p: int) -> np.ndarray:
    """|sum_x e(x d / p)| over the members x, for d = 0 .. p//2.

    Each d is d0 + j with d0 a multiple of b = ceil(sqrt(p//2 + 1)) and
    0 <= j < b, so e(x d / p) = e(x d0 / p) e(x j / p): about 2b exponentials
    a member, and the sums over the members for a block of d0 are one complex
    matrix product of at most CANONICAL_STEP_ENTRIES entries.  Every x * d is
    reduced mod p in int64, as in transform_magnitude.
    """
    n = p // 2 + 1
    b = isqrt(n - 1) + 1
    blocks = -(-n // b)  # d0 = 0, b, ..., (blocks - 1) b
    x = members[:, None]

    def unit(ds: np.ndarray) -> np.ndarray:  # e(x d / p), one column per d
        return np.exp(2j * np.pi * (x * ds % p) / p)

    fine = unit(np.arange(b))
    out = np.empty(blocks * b)
    rows = max(1, CANONICAL_STEP_ENTRIES // b)
    for lo in range(0, blocks, rows):
        hi = min(blocks, lo + rows)
        out[lo * b : hi * b] = np.abs(unit(np.arange(lo, hi) * b).T @ fine).ravel()
    return out[:n]


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
    (a proper subset; float-level ties grouped).  Magnitudes mirror, so only
    d <= p/2 is read: by direct sums when the smaller side has at most
    SPARSE_MAX_MEMBERS members, else from the FFT."""
    p, k = a.modulus, len(a)
    if k >= p:
        raise PreconditionFailedError("A must be a proper subset of Z_p")
    if not a.prime_modulus:
        raise PrimeRequiredError("Fourier search requires prime modulus")
    if min(k, p - k) <= SPARSE_MAX_MEMBERS:
        tail = _direct_magnitudes(_smaller_side(a), p)[1:]
    else:
        tail = spectrum(a).magnitudes[1 : p // 2 + 1]
    top = float(tail.max())
    # group float-level ties and take the smallest frequency
    i = int(np.nonzero(tail >= top - 1e-9 * max(1.0, top))[0][0])
    return 1 + i, float(tail[i])


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


def _best_start(a: ResidueSet, d: int) -> tuple[int, int]:
    """The most of d * A one half window holds, and the least start u of such
    a window.  Moving the start from u - 1 to u drops u - 1 and takes in
    u - 1 + w, so a start u > 0 that captures more than u - 1 has a member
    r = u - 1 + w: the least maximising start is 0 or r - w + 1 (mod p)."""
    p = a.modulus
    w = (p + 1) // 2
    dilated = np.sort(np.array(a.elements(), dtype=np.int64) * d % p)
    ext = np.concatenate([dilated, dilated + p])
    starts = np.concatenate([[0], (dilated - w + 1) % p])
    counts = np.searchsorted(ext, starts + w) - np.searchsorted(ext, starts)
    count = int(counts.max())
    return count, int(starts[counts == count].min())


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
    first row at the maximum.  Above 2^14, the d attaining the maximal
    Fourier magnitude is used (see _top_frequency); that capture is
    guaranteed at least (|A| + |T_A(d)|)/2 and the mode is "fourier".  Unless
    a dilate fits, u is the least start attaining the maximum for that d,
    taken from the members of d * A (_best_start).  The closing check
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
            u = _best_start(a, d)[1]
    else:
        mode = "fourier"
        d, magnitude = _top_frequency(a)
        count, u = _best_start(a, d)
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
