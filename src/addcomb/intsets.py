"""Finite sets of integers: normal form, sumsets, and covering in Z.

The integer side is the terminal step of every covering pipeline: residue
sets get rectified into Z, covered here, and mapped back.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from . import bits
from .errors import ConsistencyError, HypothesisNotMetError, SearchRangeError
from .residues import MAX_MODULUS


@dataclass(frozen=True)
class IntSet:
    """Strictly increasing tuple of integers, nonempty."""

    elements: tuple[int, ...]

    def __post_init__(self):
        if not self.elements:
            raise ValueError("IntSet must be nonempty")
        if any(a >= b for a, b in zip(self.elements, self.elements[1:])):
            raise ValueError("elements must be strictly increasing")

    @classmethod
    def of(cls, *elements: int) -> "IntSet":
        return cls(tuple(sorted(set(elements))))

    @classmethod
    def from_iterable(cls, it) -> "IntSet":
        return cls(tuple(sorted(set(it))))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x: int) -> bool:
        return x in self.elements

    def min(self) -> int:
        return self.elements[0]

    def max(self) -> int:
        return self.elements[-1]

    def __repr__(self) -> str:
        return f"IntSet({list(self.elements)})"


@dataclass(frozen=True)
class ApDescriptor:
    """Arithmetic progression {start + i*step : 0 <= i < length}.

    ambient is None for Z, or the modulus n for Z_n.  In Z_n the step is a
    unit normalized to step <= n/2 (a longer-step progression equals the
    reversed progression with step n - step), and length <= n so elements
    never repeat.  Membership goes by index: x is a value iff
    (x - start) / step is an integer in [0, length), in Z_n by the step's
    inverse.
    """

    start: int
    step: int
    length: int
    ambient: int | None = None

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if self.step < 1:
            raise ValueError("step must be positive")
        if self.ambient is not None:
            if self.length > self.ambient:
                raise ValueError("progression longer than the ambient group")
            if gcd(self.step, self.ambient) != 1:
                raise ValueError("step must be a unit of the ambient group")

    def values(self) -> list[int]:
        if self.ambient is None:
            return [self.start + i * self.step for i in range(self.length)]
        n = self.ambient
        return [(self.start + i * self.step) % n for i in range(self.length)]

    def covers(self, elements) -> bool:
        start, step, n = self.start, self.step, self.ambient
        if n is None:
            span = step * self.length
            return all((x - start) % step == 0 and 0 <= x - start < span for x in elements)
        inv = pow(step, -1, n)
        return all(0 <= x < n and (x - start) * inv % n < self.length for x in elements)


def normalization(a: IntSet) -> tuple[int, int]:
    """(shift, scale) with normal_form(a) = (a - shift) / scale."""
    shift = a.min()
    scale = 0
    for e in a.elements:
        scale = gcd(scale, e - shift)
    return shift, max(scale, 1)  # singleton {x}: gcd is 0, define scale 1


def normal_form(a: IntSet) -> IntSet:
    """Translate to start at 0 and divide by the gcd of the differences.

    The result contains 0 and has gcd 1; sum-equality structure is unchanged
    (the map is affine), so every additive statistic of a survives.
    """
    shift, scale = normalization(a)
    return IntSet(tuple((e - shift) // scale for e in a.elements))


def _sumset_mask(a: IntSet) -> int:
    """A + A - 2 min(A) as a bitmask, by one shift-OR pass on A translated to
    start at 0, for spans below the residue literals' cap MAX_MODULUS
    (SearchRangeError past it)."""
    shift = a.min()
    if a.max() - shift >= MAX_MODULUS:
        raise SearchRangeError(
            f"span {a.max() - shift} of the integer set reaches the cap {MAX_MODULUS}"
        )
    mask = bits.mask_of((e - shift for e in a.elements), a.max() - shift + 1)
    out = 0
    for e in a.elements:
        out |= mask << (e - shift)
    return out


def sumset(a: IntSet) -> IntSet:
    """A + A over Z (see _sumset_mask for the span cap)."""
    return IntSet(tuple(2 * a.min() + i for i in bits.elements_of(_sumset_mask(a))))


def min_interval_cover(a: IntSet) -> int:
    """Exact minimal length of an arithmetic progression in Z covering a.

    The optimum uses the largest admissible step, the gcd g of consecutive
    differences: length (max - min)/g + 1.  Equals |a| iff a is itself an AP.
    """
    _, scale = normalization(a)
    return (a.max() - a.min()) // scale + 1


def min_cover_ap(a: IntSet) -> ApDescriptor:
    shift, scale = normalization(a)
    return ApDescriptor(start=shift, step=scale, length=min_interval_cover(a))


def cover_3k4(a: IntSet) -> ApDescriptor:
    """Freiman 3k-4 covering: for |2A| <= 3|A| - 4, an AP containing A of
    length at most |2A| - |A| + 1.

    Equivalently the normal form satisfies max <= |2A| - |A|; a violation
    would falsify the theorem and raises ConsistencyError.  The hypothesis is
    applied literally, so singletons and pairs are rejected even though they
    are trivially coverable — min_interval_cover serves the general question.
    """
    two_a = _sumset_mask(a).bit_count()
    k = len(a)
    if two_a > 3 * k - 4:
        raise HypothesisNotMetError(f"|2A| = {two_a} > 3|A| - 4 = {3 * k - 4}")
    shift, scale = normalization(a)
    nf_max = (a.max() - shift) // scale
    if nf_max > two_a - k:
        raise ConsistencyError("3k-4 covering bound violated")
    return ApDescriptor(start=shift, step=scale, length=nf_max + 1)
