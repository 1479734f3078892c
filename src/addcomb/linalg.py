"""Exact linear algebra over Z and Q for relation systems.

Verdicts in the structure module must be exact, so everything here is
integer or Fraction arithmetic.  The rank path uses fraction-free (Bareiss)
elimination; with rows of entries in {-2..2} and at most 45 columns every
intermediate value is a minor bounded by Hadamard's inequality at ~3.5e15,
comfortably inside int64, which lets numpy do the bulk updates.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_BAREISS_MAX_COLS = 45


def rank_int_rows(rows: np.ndarray, ncols: int) -> int:
    """Exact rank of an (R, ncols) integer array with entries in -2..2 and
    at most 45 columns, the bounds that keep Bareiss exact in int64."""
    m = np.array(rows, dtype=np.int64)
    if not len(m):
        return 0
    if ncols > _BAREISS_MAX_COLS or np.abs(m).max() > 2:
        raise ValueError(
            f"rank_int_rows needs at most {_BAREISS_MAX_COLS} columns and "
            "entries in -2..2"
        )
    nrows = m.shape[0]
    rank = 0
    prev = 1
    for col in range(ncols):
        pivots = np.nonzero(m[rank:, col])[0]
        if len(pivots) == 0:
            continue
        pr = rank + pivots[0]
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
        piv = m[rank, col]
        below = m[rank + 1 :]
        if below.size:
            m[rank + 1 :] = (below * piv - below[:, col, None] * m[rank]) // prev
        prev = piv
        rank += 1
        if rank == nrows:
            break
    assert np.abs(m).max(initial=0) < (1 << 62), "Bareiss overflow guard"
    return rank


_RANK_PRIME = 2147483647  # elimination entries stay below 2^62 in int64


def rank_mod_prime(rows: np.ndarray, ncols: int) -> tuple[int, list[int]]:
    """Row rank over GF(q) of an (R, ncols) integer array plus the indices
    of an independent row subset.

    Rows independent mod q are independent over Q, so this is a certified
    lower bound on the rational rank (and the subset is a certified
    independent set)."""
    q = _RANK_PRIME
    m = np.asarray(rows, dtype=np.int64) % q
    nrows = m.shape[0]
    order = np.arange(nrows)
    rank = 0
    chosen: list[int] = []
    for col in range(ncols):
        pivots = np.nonzero(m[rank:, col])[0]
        if len(pivots) == 0:
            continue
        pr = rank + int(pivots[0])
        if pr != rank:
            m[[rank, pr]] = m[[pr, rank]]
            order[[rank, pr]] = order[[pr, rank]]
        chosen.append(int(order[rank]))
        inv = pow(int(m[rank, col]), q - 2, q)
        below = m[rank + 1 :]
        if below.size:
            factors = below[:, col] * inv % q
            m[rank + 1 :] = (below - factors[:, None] * m[rank]) % q
        rank += 1
        if rank == nrows:
            break
    return rank, chosen


def _pivot(row: list[int]) -> int:
    for i, v in enumerate(row):
        if v:
            return i
    return -1


def _primitive(row: list[int]) -> list[int]:
    from math import gcd

    g = 0
    for v in row:
        g = gcd(g, v)
    if g > 1:
        row = [v // g for v in row]
    p = _pivot(row)
    if p >= 0 and row[p] < 0:
        row = [-v for v in row]
    return row


def _reduce_against(row: list[int], basis: list[list[int]]) -> list[int]:
    # basis rows are sorted by pivot and zero before their pivot, so one
    # ascending pass fully eliminates; cross-multiplication keeps it integral
    # (scale does not matter for membership / rank).
    r = list(row)
    for b in basis:
        p = _pivot(b)
        if r[p] == 0:
            continue
        rp, bp = r[p], b[p]
        r = [x * bp - y * rp for x, y in zip(r, b)]
    return r


def _insert_sorted(basis: list[list[int]], row: list[int]) -> None:
    # after reduction the new pivot column is distinct from all existing ones
    p = _pivot(row)
    i = 0
    while i < len(basis) and _pivot(basis[i]) < p:
        i += 1
    assert i == len(basis) or _pivot(basis[i]) != p
    basis.insert(i, row)


def nullspace_basis(rows: list[list[int]], ncols: int) -> list[tuple[Fraction, ...]]:
    """Rational basis of {v : R v = 0}, via reduced row echelon form.

    Deterministic: the standard free-variable basis of the RREF, free columns
    ascending.
    """
    rref: list[list[Fraction]] = []
    pivots: list[int] = []
    for row in rows:
        r = [Fraction(v) for v in row]
        for pr, pc in zip(rref, pivots):
            if r[pc]:
                f = r[pc]
                r = [x - f * y for x, y in zip(r, pr)]
        pc = next((i for i, v in enumerate(r) if v), None)
        if pc is None:
            continue
        r = [x / r[pc] for x in r]
        for pr, c in zip(rref, pivots):
            if pr[pc]:
                f = pr[pc]
                pr[:] = [x - f * y for x, y in zip(pr, r)]
        rref.append(r)
        pivots.append(pc)
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    rref = [rref[i] for i in order]
    pivots = [pivots[i] for i in order]
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pr, pc in zip(rref, pivots):
            v[pc] = -pr[fc]
        basis.append(tuple(v))
    return basis


def clear_denominators(vec) -> tuple[int, ...]:
    from math import lcm

    denom = 1
    for v in vec:
        denom = lcm(denom, Fraction(v).denominator)
    return tuple(int(Fraction(v) * denom) for v in vec)


def solve_linear(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction] | None:
    """Solve a square rational system exactly; None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = aug[col][col]
        aug[col] = [x / f for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                g = aug[r][col]
                aug[r] = [x - g * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]
