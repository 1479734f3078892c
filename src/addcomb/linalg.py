"""Exact linear algebra over Z: one fraction-free Gauss–Jordan kernel.

Verdicts in the structure module must be exact, so `echelon` eliminates
without fractions (Bareiss 1968, carried through as Gauss–Jordan): at each
pivot every other row becomes (piv * row - row[col] * pivot_row) / D with D
the previous pivot, an exact division, so every entry is an integer minor of
the input and every pivot row ends with the same pivot D.  Ranks,
nullspaces and square solves all read that one reduced form.

It runs in int64 while it provably cannot overflow.  A step forms
a * piv - b * c from minors of order at most s, which Hadamard's inequality
bounds by H_s, the largest row norm to the power s; so the first s steps are
exact while 2 * H_s^2 < 2^63, and their results stay below 2^31.  Rows of
squared norm at most 8 (the required relations) give 20 such steps.  After
them each pivot checks that every entry is below 2^31, which keeps the
products exact, and switches the matrix to Python ints if one is not.
"""

from __future__ import annotations

import numpy as np

_ENTRY_LIMIT = 1 << 31


def _hadamard_steps(m: np.ndarray) -> int:
    """Pivot steps int64 provably survives: s with maxsq^s < 2^62, maxsq
    the largest squared row norm (0 unless every entry is below 2^16, so
    that the squared norms fit)."""
    if m.dtype == object or not m.size or np.abs(m).max() >> 16:
        return 0
    maxsq = int((m * m).sum(axis=1).max())
    steps, bound = 0, maxsq
    while steps < m.shape[1] and bound < 1 << 62:
        steps += 1
        bound *= maxsq
    return steps


def echelon(rows, ncols: int) -> tuple[list[int], np.ndarray, int]:
    """(pivots, reduced, D): the pivot columns of an integer matrix, its
    reduced rows (one per pivot, D at their own pivot, 0 at the others) and
    D; reduced / D is the reduced row echelon form.  D is 1 when there is
    no pivot.  The rows are int64 with entries below 2^31, or Python ints."""
    try:
        m = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
    except OverflowError:
        m = np.array(rows, dtype=object).reshape(len(rows), ncols)
    safe = _hadamard_steps(m)
    pivots: list[int] = []
    d = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(m):
            break
        nonzero = m[rank:, col].nonzero()[0]
        if not len(nonzero):
            continue
        if nonzero[0]:
            m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        if rank >= safe and m.dtype != object and max(m.max(), -m.min()) >= _ENTRY_LIMIT:
            m = m.astype(object)
        pivot_row = m[rank]
        piv = pivot_row[col]
        m = (piv * m - m[:, col, None] * pivot_row) // d
        m[rank] = pivot_row
        d = piv
        pivots.append(col)
    m = m[: len(pivots)]
    if len(pivots) > safe and m.dtype != object and max(m.max(), -m.min()) >= _ENTRY_LIMIT:
        m = m.astype(object)
    return pivots, m, d


def rank_int_rows(rows, ncols: int) -> int:
    """Exact rank of an integer matrix with ncols columns."""
    return len(echelon(rows, ncols)[0])


def nullspace(rows, ncols: int) -> np.ndarray:
    """Integer basis of {v : rows v = 0}, one row per free column, ascending:
    the free-variable basis of the reduced row echelon form, divided by its
    gcd and signed so its free entry is positive."""
    pivots, reduced, d = echelon(rows, ncols)
    free = np.setdiff1d(np.arange(ncols), pivots)
    basis = np.zeros((len(free), ncols), dtype=reduced.dtype)
    basis[np.arange(len(free)), free] = d
    basis[:, pivots] = -reduced[:, free].T
    return basis // np.gcd.reduce(basis, axis=1, keepdims=True) * (1 if d > 0 else -1)
