"""Number-theoretic transform used by the large-modulus sumset path.

Works over the prime 998244353 = 119 * 2^23 + 1 with primitive root 3, so any
transform length up to 2^23 is available.  Convolution coefficients here are
indicator counts bounded by the modulus of the ambient group, which this
library caps far below the NTT prime, so a single modulus suffices for exact
results.
"""

import numpy as np

MOD = 998244353
_ROOT = 3
_MAX_LOG = 23


def _powers(w: int, count: int) -> np.ndarray:
    """w^0 .. w^(count-1) mod MOD, doubling the table each step."""
    ws = np.ones(1, dtype=np.int64)
    while len(ws) < count:
        ws = np.concatenate([ws, ws * pow(w, len(ws), MOD) % MOD])
    return ws[:count]


def _ntt(a: np.ndarray, invert: bool) -> np.ndarray:
    n = len(a)
    log = n.bit_length() - 1
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(log):
        rev |= ((idx >> b) & 1) << (log - 1 - b)
    a = a[rev]  # bit-reversal permutation (a copy)
    length = 2
    while length <= n:
        w = pow(_ROOT, (MOD - 1) // length, MOD)
        if invert:
            w = pow(w, MOD - 2, MOD)
        half = length // 2
        blocks = a.reshape(n // length, length)
        lo = blocks[:, :half].copy()  # blocks is a view into a; keep the old halves
        hi = blocks[:, half:] * _powers(w, half) % MOD
        blocks[:, :half] = (lo + hi) % MOD
        blocks[:, half:] = (lo - hi) % MOD
        length <<= 1
    if invert:
        n_inv = pow(n, MOD - 2, MOD)
        a = a * n_inv % MOD
    return a


def convolve(f, g) -> np.ndarray:
    """Exact integer convolution of two coefficient sequences, valid while
    coefficients stay below MOD."""
    need = len(f) + len(g) - 1
    size = 1
    while size < need:
        size <<= 1
    if size > 1 << _MAX_LOG:
        raise ValueError(f"convolution size {size} exceeds NTT capacity")
    fa = np.zeros(size, dtype=np.int64)
    fb = np.zeros(size, dtype=np.int64)
    fa[: len(f)] = f
    fb[: len(g)] = g
    fa = _ntt(fa, invert=False)
    fb = _ntt(fb, invert=False)
    fa = fa * fb % MOD
    return _ntt(fa, invert=True)[:need]
