"""The fraction-free Gauss–Jordan kernel against the plain Fraction RREF of
tests/conftest.py: ranks, pivots, nullspaces and square solves."""

import random
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from addcomb import linalg
from addcomb.freiman import (
    additive_dimension,
    additive_dimension_value,
    affine_extension,
    required_spanning_rows,
)
from addcomb.intsets import IntSet
from conftest import brute_nullspace


def _cleared(v):
    """The oracle's vector (1 at its free column) times the lcm of its
    denominators: primitive, with a positive free entry."""
    denom = lcm(*(x.denominator for x in v))
    return [int(x * denom) for x in v]


def _check_against_oracle(rows, ncols):
    rank, pivots, basis = brute_nullspace(rows, ncols)
    got_pivots, reduced, d = linalg.echelon(rows, ncols)
    assert got_pivots == pivots
    assert linalg.rank_int_rows(rows, ncols) == rank
    assert reduced.shape == (rank, ncols)
    assert reduced.dtype == object or np.abs(reduced).max(initial=0) < 1 << 31
    for i, col in enumerate(pivots):  # the pivots all equal D
        assert reduced[i, col] == d and not any(reduced[j, col] for j in range(rank) if j != i)
    kernel = linalg.nullspace(rows, ncols).tolist()
    assert kernel == [_cleared(v) for v in basis]
    return reduced


def _matrix(rng, nrows, ncols, size, rank=None):
    """Seeded integer matrix with entries below size in magnitude, of the
    given rank when rank < min(nrows, ncols): rows are integer combinations
    of rank random rows."""
    base = [[rng.randrange(-size + 1, size) for _ in range(ncols)] for _ in range(rank or nrows)]
    if rank is None:
        return base
    return [
        [sum(c * b[j] for c, b in zip(coeffs, base)) for j in range(ncols)]
        for coeffs in ([rng.randrange(-2, 3) for _ in base] for _ in range(nrows))
    ]


def test_empty_and_zero_matrices():
    for ncols in range(4):
        _check_against_oracle([], ncols)
        _check_against_oracle([[0] * ncols] * 3, ncols)
    pivots, reduced, d = linalg.echelon(np.zeros((0, 5), dtype=np.int64), 5)
    assert (pivots, reduced.shape, d) == ([], (0, 5), 1)
    assert linalg.nullspace([], 3).tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_full_rank_and_rank_deficient_matrices():
    rng = random.Random(0x11A1)
    signs = set()
    for _ in range(300):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        rank = rng.randrange(0, min(nrows, ncols) + 1) if rng.random() < 0.5 else None
        rows = _matrix(rng, nrows, ncols, rng.choice([2, 4, 50]), rank)
        _check_against_oracle(rows, ncols)
        signs.add(linalg.echelon(rows, ncols)[2] > 0)
    assert signs == {True, False}  # both signs of D occur


def test_required_rows_past_45_columns():
    rng = random.Random(46)
    for k in (46, 53, 60):
        a = IntSet.from_iterable(rng.sample(range(100 * k), k))
        rows = required_spanning_rows(a)
        assert len(rows) > 45
        _check_against_oracle(rows.tolist(), k)


@pytest.mark.parametrize("size", [1 << 15, 1 << 20, 1 << 33, 1 << 70])
def test_entries_that_force_python_ints(size):
    # 2^15: the Hadamard prefix covers one step, then the per-step check;
    # 2^20 and 2^33: checked from the first step; 2^70: Python ints at once
    rng = random.Random(size)
    switched = 0
    for _ in range(12):
        n = rng.randrange(4, 8)
        rows = _matrix(rng, n + rng.randrange(0, 3), n, size, rng.choice([None, n - 1]))
        reduced = _check_against_oracle(rows, n)
        switched += reduced.dtype == object
    assert switched


def _oracle_solve(matrix, rhs):
    n = len(matrix)
    _, pivots, basis = brute_nullspace([row + [b] for row, b in zip(matrix, rhs)], n + 1)
    assert pivots == list(range(n)) and len(basis) == 1
    return [-x for x in basis[0][:n]]


def test_square_solves():
    rng = random.Random(0x501E)
    solved = 0
    for _ in range(200):
        n = rng.randrange(1, 7)
        size = rng.choice([3, 100, 1 << 40])
        matrix = _matrix(rng, n, n, size)
        if brute_nullspace(matrix, n)[0] < n:
            continue
        rhs = [rng.randrange(-size, size) for _ in range(n)]
        pivots, reduced, d = linalg.echelon([r + [b] for r, b in zip(matrix, rhs)], n + 1)
        assert pivots == list(range(n))
        assert [Fraction(int(x), int(d)) for x in reduced[:, n]] == _oracle_solve(matrix, rhs)
        solved += 1
    assert solved > 100


def test_affine_extension_solves_exactly():
    rng = random.Random(0xAFF)
    for _ in range(100):
        d = rng.randrange(1, 4)
        pts = list({tuple(rng.randrange(-6, 7) for _ in range(d)) for _ in range(8)})
        if brute_nullspace([[x - b for x, b in zip(p, pts[0])] for p in pts], d)[0] < d:
            continue
        coeffs = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(d)]
        offset = rng.randrange(-(1 << 70), 1 << 70)
        phi = {p: offset + sum(c * x for c, x in zip(coeffs, p)) for p in pts}
        m = affine_extension(pts, phi)
        assert (list(m.coeffs), m.offset) == (coeffs, offset)


def test_dimension_past_45_elements():
    a = IntSet.from_iterable(list(range(40)) + list(range(200, 230)))
    assert additive_dimension_value(a) == 2 == additive_dimension(a).dim
    a = IntSet.from_iterable(random.Random(3).sample(range(12000), 60))
    rows = required_spanning_rows(a).tolist()
    rank, _, basis = brute_nullspace(rows, 60)
    res = additive_dimension(a)
    assert additive_dimension_value(a) == 59 - rank == res.dim == 2
    assert [list(v) for v in res.nullspace_basis] == basis
    assert all(gcd(*v) == 1 for v in linalg.nullspace(rows, 60).tolist())


def _check_stack(stack, ncols):
    """Each matrix of the stack comes out of the stacked elimination as it
    does alone, and as the oracle says."""
    pivots, reduced, d = linalg.echelon_stack(stack)
    ranks = linalg.rank_int_rows(stack, ncols)
    assert reduced.shape == np.shape(stack) and pivots.shape == (len(stack), ncols)
    for n, rows in enumerate(np.asarray(stack).tolist()):
        rank, want, _ = brute_nullspace(rows, ncols)
        alone, alone_reduced, alone_d = linalg.echelon(rows, ncols)
        assert np.flatnonzero(pivots[n]).tolist() == want == alone
        assert ranks[n] == rank
        assert reduced[n, :rank].tolist() == alone_reduced.tolist() and d[n] == alone_d
        assert not reduced[n, rank:].any()
    return reduced


def test_stacks_match_each_matrix_alone():
    rng = random.Random(0x57AC)
    for _ in range(40):
        nrows, ncols = rng.randrange(1, 9), rng.randrange(1, 9)
        stack = [
            _matrix(rng, nrows, ncols, rng.choice([2, 4, 50]), rng.randrange(0, min(nrows, ncols) + 1))
            for _ in range(rng.randrange(1, 12))
        ]
        stack[rng.randrange(len(stack))] = [[0] * ncols] * nrows  # an all-zero matrix
        _check_stack(stack, ncols)
    pivots, reduced, d = linalg.echelon_stack(np.zeros((3, 0, 4), dtype=np.int64))
    assert (pivots.any(), reduced.shape, d.tolist()) == (False, (3, 0, 4), [1, 1, 1])
    assert linalg.rank_int_rows(np.zeros((3, 0, 4), dtype=np.int64), 4).tolist() == [0, 0, 0]


def test_required_row_stacks_match_each_set_alone():
    rng = random.Random(0x5E75)
    for k in (3, 7, 12, 20):
        sets = [IntSet.from_iterable(rng.sample(range(3 * k), k)) for _ in range(6)]
        rows = [required_spanning_rows(a).tolist() for a in sets]
        most = max(map(len, rows))
        stack = np.array([r + [[0] * k] * (most - len(r)) for r in rows], dtype=np.int64)
        _check_stack(stack.reshape(len(sets), most, k), k)


def test_one_wide_matrix_switches_the_whole_stack():
    # entries near 2^40 force Python ints, which then carry every matrix
    rng = random.Random(0xB16)
    stack = [_matrix(rng, 6, 5, 3, 4) for _ in range(5)] + [_matrix(rng, 6, 5, 1 << 40, 4)]
    assert _check_stack(stack, 5).dtype == object
    assert linalg.echelon_stack(stack[:5])[1].dtype == np.int64


def test_mixed_divisors_divide_exactly():
    # the stacked step divides each matrix by its own D with a modular
    # inverse: odd, even and negative divisors, quotients up to int64's edge
    rng = random.Random(0xD1F)
    for _ in range(50):
        div = [rng.choice([1, -1]) * (rng.randrange(1, 1 << 31) << rng.randrange(4)) for _ in range(6)]
        quot = [[[rng.randrange(-(1 << 62), 1 << 62) // abs(d) for _ in range(3)] for _ in range(2)] for d in div]
        num = np.array([[[q * d for q in row] for row in m] for m, d in zip(quot, div)], dtype=np.int64)
        got = linalg._divide_exactly(num, np.array(div, dtype=np.int64))
        assert got.tolist() == quot
    assert linalg._divide_exactly(np.full((2, 1, 1), -12), np.array([4, 4])).tolist() == [[[-3]], [[-3]]]
