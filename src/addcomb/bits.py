"""Bitmask kernels for subsets of Z_n.

A subset of Z_n is an int whose bit i is set iff i is a member.  Python's
arbitrary-precision ints make these the fastest exact representation at the
moduli this library targets.
"""

import numpy as np


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements, n: int) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e % n)
    return m


def elements_of(mask: int) -> list[int]:
    """Set bits in ascending order, in one pass over the mask's bytes."""
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0].tolist()


def rotate(mask: int, r: int, n: int) -> int:
    """Cyclic left rotation: element x becomes x + r (mod n)."""
    r %= n
    if r == 0:
        return mask
    return ((mask << r) | (mask >> (n - r))) & full_mask(n)


def dilate_mask(mask: int, d: int, n: int) -> int:
    return mask_of((e * d for e in elements_of(mask)), n)
