"""Bitmask kernels for subsets of Z_n.

A subset of Z_n is an int whose bit i is set iff i is a member.  Python's
arbitrary-precision ints make these the fastest exact representation at the
moduli this library targets.

On a large sparse set the two conversions do Python work per member, not
per bit:
- mask_of writes one byte of an n/8-byte buffer per member, then converts
  the buffer once, O(|A| + n/8); ORing an n-bit int per member would cost
  |A| * n / 64 words.
- elements_of unpacks every byte of the mask, unless the mask spans more
  than SPARSE_MIN_BITS bits and has fewer members than 64-bit words; then
  it unpacks only the nonzero bytes of its nonzero words.  On such masks
  (CPython 3.11, numpy 2.4, 2-core x86-64) the full unpack is the faster
  up to 2,048 bits (7 us against 9-10 us) and the slower from 4,096 bits
  (12 us against 10 us; 150 us against 20 us at 65,537 bits).
"""

import numpy as np

SPARSE_MIN_BITS = 1 << 12


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements, n: int) -> int:
    """The mask of the residues mod n of any ints."""
    raw = bytearray((n + 7) // 8)
    for e in elements:
        e %= n
        raw[e >> 3] |= 1 << (e & 7)
    return int.from_bytes(raw, "little")


def elements_of(mask: int) -> list[int]:
    """Set bits in ascending order: one pass over the mask's bytes, or over
    the nonzero words of a long mask with fewer members than words."""
    if mask.bit_length() > SPARSE_MIN_BITS and mask.bit_count() * 64 < mask.bit_length():
        words = np.frombuffer(mask.to_bytes((mask.bit_length() + 63) // 64 * 8, "little"), "<u8")
        at = words.nonzero()[0]
        raw = words[at].view(np.uint8)
        nz = raw.nonzero()[0]
        byte, bit = np.unpackbits(raw[nz], bitorder="little").reshape(-1, 8).nonzero()
        return ((at[nz >> 3] * 64 + (nz & 7) * 8)[byte] + bit).tolist()
    raw = np.frombuffer(mask.to_bytes((mask.bit_length() + 7) // 8, "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little").nonzero()[0].tolist()


def rotate(mask: int, r: int, n: int) -> int:
    """Cyclic left rotation: element x becomes x + r (mod n)."""
    r %= n
    if r == 0:
        return mask
    return ((mask << r) | (mask >> (n - r))) & full_mask(n)
