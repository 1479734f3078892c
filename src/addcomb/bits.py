"""Bitmask kernels for subsets of Z_n.

A subset of Z_n is an int whose bit i is set iff i is a member.  Python's
arbitrary-precision ints make these the fastest exact representation at the
moduli this library targets.
"""


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_of(elements, n: int) -> int:
    m = 0
    for e in elements:
        m |= 1 << (e % n)
    return m


def elements_of(mask: int) -> list[int]:
    """Set bits in ascending order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def rotate(mask: int, r: int, n: int) -> int:
    """Cyclic left rotation: element x becomes x + r (mod n)."""
    r %= n
    if r == 0:
        return mask
    return ((mask << r) | (mask >> (n - r))) & full_mask(n)


def dilate_mask(mask: int, d: int, n: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << ((low.bit_length() - 1) * d % n)
        mask ^= low
    return out

