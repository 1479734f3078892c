"""Exact linear algebra over Z: one fraction-free Gauss–Jordan kernel.

Verdicts in the structure module must be exact, so `echelon` eliminates
without fractions (Bareiss 1968, carried through as Gauss–Jordan): at each
pivot every other row becomes (piv * row - row[col] * pivot_row) / D with D
the previous pivot, an exact division, so every entry is an integer minor of
the input and every pivot row ends with the same pivot D.  Ranks,
nullspaces and square solves all read that one reduced form.

The elimination runs over a stack of matrices of one shape at once, which
is how the theorem suites rank thousands of small sets: each matrix keeps
its own rank, pivots and D, and takes as its pivot the first nonzero entry
at or below its rank in the column, so a matrix comes out the same alone
or in any stack.  A single matrix is a stack of one.

It runs in int64 while it provably cannot overflow.  A step forms
a * piv - b * c from minors of order at most s, which Hadamard's inequality
bounds by H_s, the largest row norm to the power s; so the first s steps are
exact while 2 * H_s^2 < 2^63, and their results stay below 2^31.  Rows of
squared norm at most 8 (the required relations) give 20 such steps.  After
them each pivot checks that every entry is below 2^31, which keeps the
products exact, and switches the whole stack to Python ints if one is not.
"""

from __future__ import annotations

import numpy as np

_ENTRY_LIMIT = 1 << 31


def exact_array(values) -> np.ndarray:
    """values as int64 while every entry is below 2^62 in size, so that a
    sum of two entries stays exact, and as Python ints past that."""
    try:
        v = np.array(values, dtype=np.int64)
        if np.abs(v).view(np.uint64).max(initial=0) >> 62:
            raise OverflowError
    except OverflowError:
        v = np.array(values, dtype=object)
    return v


def _hadamard_steps(m: np.ndarray) -> int:
    """Pivot steps int64 provably survives: s with maxsq^s < 2^62, maxsq
    the largest squared row norm in the stack (0 unless every entry is below
    2^16, so that the squared norms fit)."""
    if m.dtype == object or not m.size or np.abs(m).max() >> 16:
        return 0
    maxsq = int((m * m).sum(axis=-1).max())
    steps, bound = 0, maxsq
    while steps < m.shape[-1] and bound < 1 << 62:
        steps += 1
        bound *= maxsq
    return steps


def _too_wide(m: np.ndarray) -> bool:
    return m.dtype != object and max(m.max(initial=0), -m.min(initial=0)) >= _ENTRY_LIMIT


def _divide_exactly(num: np.ndarray, div: np.ndarray) -> np.ndarray:
    """num[n] / div[n], in place, for a stack that each nonzero div[n]
    divides.

    numpy divides by one scalar several times faster than elementwise, so
    one divisor for the stack takes that path.  Mixed int64 divisors take no
    integer division at all: shift out each divisor's factors of two, then
    multiply by the inverse of its odd part mod 2^64 (Newton's iteration,
    each step doubling the correct low bits from the 3 that odd * odd = 1
    mod 8 gives).  int64 arithmetic wraps mod 2^64, and the quotient fits in
    int64, so the product is the quotient."""
    if (div == div[0]).all():
        num //= div[0]
    elif num.dtype == object:
        num //= div[:, None, None]
    else:
        twos = np.bitwise_count((div & -div) - 1).astype(np.int64)
        odd = div >> twos
        inverse = odd.copy()
        for _ in range(5):  # 3 -> 96 >= 64 bits
            inverse *= 2 - odd * inverse
        num >>= twos[:, None, None]
        num *= inverse[:, None, None]
    return num


def echelon_stack(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(pivots, reduced, D) of an (N, R, k) stack of integer matrices:
    pivots[n, col] says column col holds a pivot of matrix n, reduced[n] is
    its reduced rows (one per pivot, in order, then zero rows) and D[n] its
    last pivot, 1 when it has none; reduced[n] / D[n] is the reduced row
    echelon form.  The rows are int64 with entries below 2^31, or Python
    ints, for the whole stack."""
    m = exact_array(rows)
    n, r, k = m.shape
    safe = _hadamard_steps(m)
    rank = np.zeros(n, dtype=np.intp)
    d = np.ones(n, dtype=m.dtype)
    pivots = np.zeros((n, k), dtype=bool)
    free = np.ones((n, r), dtype=bool)  # the rows at or below each rank
    for col in range(k if r else 0):
        live = free & (m[:, :, col] != 0)
        h = np.flatnonzero(live.any(axis=1))
        if not len(h):
            continue
        whole = len(h) == n
        sub = m if whole else m[h]
        i, top, src = np.arange(len(h)), rank[h], live[h].argmax(axis=1)
        sub[i, top], sub[i, src] = sub[i, src], sub[i, top]
        if top.max() >= safe and _too_wide(sub):
            m, sub, d = m.astype(object), sub.astype(object), d.astype(object)
        pivot_row = sub[i, top]
        piv = pivot_row[:, col]
        num = piv[:, None, None] * sub
        num -= sub[:, :, col, None] * pivot_row[:, None, :]
        sub = _divide_exactly(num, d[h])
        sub[i, top] = pivot_row
        if whole:
            m = sub
        else:
            m[h] = sub
        d[h] = piv
        rank[h] += 1
        pivots[h, col] = True
        free[h, top] = False
        if rank.min() == r:
            break
    if rank.max(initial=0) > safe and _too_wide(m):
        m = m.astype(object)
    return pivots, m, d


def echelon(rows, ncols: int) -> tuple[list[int], np.ndarray, int]:
    """(pivots, reduced, D): the pivot columns of an integer matrix, its
    reduced rows (one per pivot, D at their own pivot, 0 at the others) and
    D; reduced / D is the reduced row echelon form.  D is 1 when there is
    no pivot.  The rows are int64 with entries below 2^31, or Python ints."""
    pivots, m, d = echelon_stack(exact_array(rows).reshape(1, len(rows), ncols))
    found = np.flatnonzero(pivots[0]).tolist()
    return found, m[0, : len(found)], d[0]


def rank_int_rows(rows, ncols: int) -> int | np.ndarray:
    """Exact rank of an integer matrix with ncols columns, or the N ranks of
    an (N, R, ncols) stack, all from one elimination."""
    if np.ndim(rows) == 3:
        return echelon_stack(rows)[0].sum(axis=1)
    return len(echelon(rows, ncols)[0])


def nullspace(rows, ncols: int) -> np.ndarray:
    """Integer basis of {v : rows v = 0}, one row per free column, ascending:
    the free-variable basis of the reduced row echelon form, divided by its
    gcd and signed so its free entry is positive."""
    pivots, reduced, d = echelon(rows, ncols)
    is_free = np.ones(ncols, dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((len(free), ncols), dtype=reduced.dtype)
    basis[np.arange(len(free)), free] = d
    basis[:, pivots] = -reduced[:, free].T
    return basis // np.gcd.reduce(basis, axis=1, keepdims=True) * (1 if d > 0 else -1)
