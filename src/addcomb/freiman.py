"""Freiman isomorphism, additive dimension, rectification and the
two-progressions structure of 2-dimensional sets.

Everything rests on the sum classes of a set: its index pairs grouped by
pair sum in the ambient group.  Two pairs in one class give a *required*
relation a + b = c + e any sum-preserving map must keep; pairs in different
classes give a *forbidden* one no such map may create.  Chaining each class
yields O(k^2) integer rows spanning every required relation; their exact
rational nullspace holds all the sum-preserving images, so every verdict
here is exact linear algebra on those rows.

One numpy kernel, _pair_classes, computes the classes for integer sets,
residue sets and points of Z^d alike; the rows, the rectification's class
representatives and the isomorphism test's class tables all read it.  For
stacks of small nonnegative sets, dimensions_one_down settles most
dimensions with no rows from one table of pair-sum counts, by taking one
member out.

The two-progressions cover of a 2-dimensional set is the exception: a step
search in Z with progression arithmetic for its postconditions.  A cover it
finds is itself a certificate of dimension 2, so it builds no rows.  For a
set of small doubling, dimension_and_lines decides the dimension in order of
cost: Freiman's lemma, then that search, and the rank only when both leave
it open, where the structure theorem says it must give 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import linalg, residues
from .errors import (
    ConsistencyError,
    NotFreimanIsomorphismError,
    NotFullDimensionalError,
    NotRectifiableError,
    PreconditionFailedError,
    SearchRangeError,
    UndefinedDimensionError,
)
from .intsets import ApDescriptor, IntSet, normal_form, sumset as int_sumset
from .primes import divisors
from .residues import ResidueSet, half_units, half_window_fit

def _ground(obj) -> tuple[list, int | None]:
    """Element list plus modulus (None means torsion-free: Z or Z^d)."""
    if isinstance(obj, ResidueSet):
        return obj.elements(), obj.modulus
    if isinstance(obj, IntSet):
        return list(obj.elements), None
    elems = list(obj)
    if len(set(elems)) != len(elems):
        raise ValueError("ground set has repeated elements")
    return elems, None


# Index pairs a set may list.  The pairs, their sums and the sort take about
# 47 bytes a pair: 98 MiB at the cap, 2^21 pairs (k = 2,047).
PAIR_BUDGET = 1 << 21


def _pair_classes(elems, modulus: int | None):
    """The pair-sum kernel: index pairs i <= j sorted by elems[i] + elems[j]
    (reduced mod modulus unless it is None), as arrays (first, second, same)
    where same[t] says pairs t and t + 1 share their sum.

    elems is one set, a list of ints or of equal-length int tuples (points
    of Z^d, added coordinatewise, sums compared lexicographically), or a
    stack of N integer sets of one size as an (N, k) numpy array; a stack
    gets one such row of pairs per set, along the last axis.  Sums are
    exact (see linalg.exact_array).  Past PAIR_BUDGET pairs a set it raises
    SearchRangeError before building any.
    """
    stacked = isinstance(elems, np.ndarray)
    k = elems.shape[-1] if stacked else len(elems)
    pairs = k * (k + 1) // 2
    if pairs > PAIR_BUDGET:
        raise SearchRangeError(
            f"{k} elements make {pairs} index pairs, past the budget "
            f"of {PAIR_BUDGET}"
        )
    v = linalg.exact_array(elems)
    i, j = np.triu_indices(k)
    sums = v[..., i] + v[..., j] if stacked else v[i] + v[j]
    if modulus is not None:
        sums %= modulus
    if sums.ndim > 1 and not stacked:
        sums = np.fromiter(map(tuple, sums.tolist()), dtype=object, count=len(sums))
    order = np.argsort(sums, axis=-1, kind="stable")
    sums = np.take_along_axis(sums, order, axis=-1)
    return i[order], j[order], sums[..., 1:] == sums[..., :-1]


# Required-row entries R * k a set may build: 16 MiB of int64 rows.  The rank
# work grows like R * k^2; 200 integers from [0, 2000) need 3.3M entries (7 s,
# 101 MiB peak), 1,000 from [0, 10^4) about 3.8 GB.  Campaigns need < 5,000.
REQUIRED_ROW_ENTRY_BUDGET = 1 << 21


def _spanning_rows(first, second, same, k: int) -> np.ndarray:
    """Consecutive pairs of each sum class, as (R, k) int64 rows
    e_i + e_j - e_i' - e_j'; for a stack from _pair_classes, an (N, R, k)
    array with R the most rows of any set and zero rows after each set's
    own.  Two pairs with one sum share no index, so the entries stay in
    -2..2; every quadruple row of a class is a difference of its chained
    rows, so the chain spans the class.  Past REQUIRED_ROW_ENTRY_BUDGET
    entries for one set it raises SearchRangeError."""
    one = same.ndim == 1
    first, second, same = np.atleast_2d(first, second, same)
    n, t = np.nonzero(same)
    counts = np.bincount(n, minlength=len(same))
    most = int(counts.max(initial=0))
    if most * k > REQUIRED_ROW_ENTRY_BUDGET:
        raise SearchRangeError(
            f"{most} required rows of {k} entries exceed the budget of "
            f"{REQUIRED_ROW_ENTRY_BUDGET} row entries"
        )
    # each set's rows in the order of its classes
    r = np.arange(len(t)) - np.repeat(np.cumsum(counts) - counts, counts)
    rows = np.zeros((len(same), most, k), dtype=np.int64)
    rows[n, r, first[n, t]] = 1
    rows[n, r, second[n, t]] += 1
    rows[n, r, first[n, t + 1]] = -1
    rows[n, r, second[n, t + 1]] -= 1
    return rows[0] if one else rows


def required_spanning_rows(obj) -> np.ndarray:
    """Rows spanning the required-relation row space, O(k^2) of them."""
    elems, mod = _ground(obj)
    return _spanning_rows(*_pair_classes(elems, mod), len(elems))


def _certified_nullspace(rows: np.ndarray, k: int) -> np.ndarray:
    """Integer basis of the nullspace of required-relation rows, one vector
    per free column: the free-variable basis of the row space's RREF (unique,
    so any spanning rows give it), each vector divided by its gcd with its
    free entry, the last nonzero one, positive."""
    basis = linalg.nullspace(rows, k)
    if (rows @ basis.T).any():
        raise ConsistencyError("nullspace check failed")
    return basis


@dataclass(frozen=True)
class DimensionResult:
    """dim is the largest s with a sum-faithful embedding into Z^s touching
    no hyperplane; it equals the required-nullspace rank minus one (the
    constant vector is always a solution)."""

    dim: int
    ground_size: int
    nullspace_basis: tuple[tuple[Fraction, ...], ...]


def _rational(v: list[int]) -> tuple[Fraction, ...]:
    """The RREF's basis vector: v over its free entry, its last nonzero one."""
    free = next(x for x in reversed(v) if x)
    return tuple(Fraction(x, free) for x in v)


def additive_dimension(a: IntSet) -> DimensionResult:
    if len(a) < 2:
        raise UndefinedDimensionError("dimension needs at least two elements")
    basis = _certified_nullspace(required_spanning_rows(a), len(a)).tolist()
    return DimensionResult(len(basis) - 1, len(a), tuple(map(_rational, basis)))


def additive_dimensions(sets) -> np.ndarray:
    """Additive dimensions of N integer sets of one size k >= 2, given as an
    (N, k) array: k - 1 minus the rank of each set's required rows, with
    the N sets ranked in one stacked elimination.  The row budget holds
    for each set."""
    sets = linalg.exact_array(sets)
    k = sets.shape[-1]
    if k < 2:
        raise UndefinedDimensionError("dimension needs at least two elements")
    rows = _spanning_rows(*_pair_classes(sets, None), k)
    if not rows.shape[1]:  # no relations: no rank to take
        return np.full(len(rows), k - 1)
    return k - 1 - linalg.rank_int_rows(rows, k)


def additive_dimension_value(a: IntSet) -> int:
    """Dimension from the rank alone (engine hot path)."""
    return int(additive_dimensions([a.elements])[0])


def dimension_lower_bound(k, d):
    """(d + 1)k - C(d + 1, 2): the fewest sums a k-element set of dimension
    d can have (elementwise on arrays)."""
    return (d + 1) * k - (d + 1) * d // 2


def dimensions_one_down(sets, sizes) -> np.ndarray:
    """Dimensions of N sets of one size k, given as an (N, k) array of
    nonnegative integers with their sumset sizes, where one member settles
    it, and 0 where none does.

    Let B = A minus e and t_e = |A| - |2A| + |2B|.  The sums of 2A outside
    2B are the e + x outside it, one for each such x in A, so t_e counts the
    x in A with e + x in 2B.  Relations of A that do not use e are those of
    B; one that does reads e + x = y + z with x in A and y, z in B.  If
    t_e >= 1, a solution f of A's relations vanishing on B vanishes at e
    (f(e) + f(x) = f(y) + f(z) = 0, and f(x) = 0 or x = e), so f -> f|B is
    injective and dim A <= dim B.  If t_e = 0, A's solutions are B's with
    f(e) free, so dim A = dim B + 1.  Where dim B = 1, by Freiman's lemma
    (|2B| <= 3|B| - 4) or because |B| = 2, dim A is 1 if t_e >= 1 and 2 if
    t_e = 0.

    Every t_e reads one table of ordered pair-sum counts: e + x lies in 2B
    iff it has a representation besides (e, x) and (x, e), i.e. at least
    three (2e has (e, e) and an odd count).  Sets go in chunks of about
    residues.CANONICAL_STEP_ENTRIES sums.
    """
    sets = np.asarray(sets)
    n, k = sets.shape
    dims = np.zeros(n, dtype=np.int64)
    per_chunk = max(1, residues.CANONICAL_STEP_ENTRIES // (k * k))
    for lo in range(0, n, per_chunk):
        chunk = sets[lo : lo + per_chunk]
        width = 2 * int(chunk.max(initial=0)) + 1
        sums = chunk[:, :, None] + chunk[:, None, :]
        sums += (np.arange(len(chunk)) * width)[:, None, None]
        counts = np.bincount(sums.ravel(), minlength=len(chunk) * width)
        t = (counts[sums] >= 3).sum(axis=2)
        # |2B| for each e; dim B = 1 where it is below the lemma's floor
        settles = sizes[lo : lo + per_chunk, None] - k + t < dimension_lower_bound(k - 1, 2)
        settles |= k == 3
        e = settles.argmax(axis=1)
        t_e = t[np.arange(len(chunk)), e]
        dims[lo : lo + per_chunk] = np.where(settles.any(axis=1), np.where(t_e > 0, 1, 2), 0)
    return dims


def _class_table(elems: list, modulus: int | None):
    """(table, profiles): table[i, j] is the sum class of elems[i] + elems[j],
    classes numbered in sum order, and profiles[i] the sorted sizes (pairs
    i <= j) of the classes in row i as one big-endian byte string, so that
    profiles compare bytewise as the size rows do lexicographically."""
    first, second, same = _pair_classes(elems, modulus)
    ids = np.concatenate(([0], np.cumsum(~same)))
    table = np.empty((len(elems), len(elems)), dtype=np.intp)
    table[first, second] = ids
    table[second, first] = ids
    sizes = np.sort(np.bincount(ids)[table], axis=1).astype(">u4")  # <= PAIR_BUDGET
    return table, sizes.view(f"V{sizes.itemsize * len(elems)}").ravel()


# Candidate images is_freiman_isomorphic may try before it gives up; each
# costs one class check per assigned element.
ISO_CANDIDATE_BUDGET = 1 << 16


def is_freiman_isomorphic(a, b) -> bool:
    """Is there a bijection preserving pair-sum equality both ways?

    Backtracking over candidate images, pruned by per-element relation
    profiles (the sorted sizes of the classes an element's pair sums fall
    in) and an incrementally maintained bijection between the realized sum
    classes of the two sides, held as two class-indexed arrays.  Past
    ISO_CANDIDATE_BUDGET tried images it gives up with SearchRangeError.
    """
    ea, ma = _ground(a)
    eb, mb = _ground(b)
    if len(ea) != len(eb):
        return False
    k = len(ea)
    if k == 0:
        return True

    (ta, pa), (tb, pb) = _class_table(ea, ma), _class_table(eb, mb)
    # profiles as their ranks among both sides' profiles, which compare in
    # O(1) and sort the same
    ranks = np.unique(np.concatenate((pa, pb)), return_inverse=True)[1]
    pa, pb = ranks[:k].tolist(), ranks[k:].tolist()
    if sorted(pa) != sorted(pb):
        return False

    order = sorted(range(k), key=lambda i: (pa[i], i))
    in_order = np.array(order)
    placed = np.empty(k, dtype=np.intp)  # placed[d]: the image of order[d]
    # the bijection between realized classes, -1 where a class is unmatched
    class_ab = np.full(int(ta.max()) + 1, -1)
    class_ba = np.full(int(tb.max()) + 1, -1)
    used = [False] * k
    # per depth: the next candidate to try there; per assigned depth: the
    # class pairs its current image added
    nexts: list[int] = [0]
    added: list[tuple[np.ndarray, np.ndarray]] = []
    tried = 0
    while nexts:
        depth = len(nexts) - 1
        if depth == k:
            return True
        i = order[depth]
        if len(added) > depth:  # back from a failed subtree: undo
            used[placed[depth]] = False
            ca, cb = added.pop()
            class_ab[ca] = class_ba[cb] = -1
        j = next(
            (j for j in range(nexts[-1], k) if not used[j] and pa[i] == pb[j]), None
        )
        if j is None:
            nexts.pop()
            continue
        nexts[-1] = j + 1
        tried += 1
        if tried > ISO_CANDIDATE_BUDGET:
            raise SearchRangeError(
                f"the isomorphism test takes more than {ISO_CANDIDATE_BUDGET} "
                "candidate images"
            )
        # the classes of i's sums with the assigned elements and of j's with
        # their images; each side's are distinct, since its elements are
        placed[depth] = j
        ca, cb = ta[i, in_order[: depth + 1]], tb[j, placed[: depth + 1]]
        have = class_ab[ca]
        fresh = have < 0
        if (have[~fresh] == cb[~fresh]).all() and (class_ba[cb[fresh]] < 0).all():
            ca, cb = ca[fresh], cb[fresh]
            class_ab[ca], class_ba[cb] = cb, ca
            used[j] = True
            added.append((ca, cb))
            nexts.append(0)
    return False


def _separating_nullspace(elems: list, modulus: int | None):
    """(basis, reps): the certified integer nullspace of the required rows
    and one index pair per sum class, or None if the set is not rectifiable.

    The pairs of one class agree on every nullspace point, so a point is
    sum-faithful iff it takes pairwise distinct values on reps, and such a
    point exists iff the classes' value vectors over the basis are pairwise
    distinct.
    """
    first, second, same = _pair_classes(elems, modulus)
    basis = _certified_nullspace(_spanning_rows(first, second, same, len(elems)), len(elems))
    new = np.concatenate(([True], ~same))
    reps = list(zip(first[new].tolist(), second[new].tolist()))
    values = (basis[:, first[new]] + basis[:, second[new]]).tolist()
    return (basis.tolist(), reps) if len(set(zip(*values))) == len(reps) else None


def _integer_image(a: ResidueSet) -> list[int] | None:
    """A sum-faithful image of a in Z, one integer per member of
    a.elements(), or None if there is none.

    Fit route: if half_window_fit finds a unit m whose dilate fits a half
    window, least start u, the image is x -> (m*x - u) mod n.  Its values
    lie in [0, (n+1)/2), so no sum of two wraps past n, and m is a unit, so
    x + y = z + e (mod n) iff the image sums agree.  It lists no pairs.

    Moment-curve route: else, over the basis b_0 .. b_d and class
    representatives of _separating_nullspace, f = b_0 + t*b_1 + ... +
    t^d*b_d for the least t >= 1 whose class sums are pairwise distinct.
    Let spread be the largest max - min of one b_i's class values.  Two
    classes' value vectors differ by some w != 0 with every |w_i| <=
    spread; at t = spread + 1 and w_j the last nonzero entry, |w_j| t^j >=
    t^j > (t - 1)(1 + ... + t^(j-1)) >= |w_0 + ... + w_(j-1) t^(j-1)|, so
    their sums differ and the loop stops by t = spread + 1.  The image is
    checked on its own: the pair-sum class tables of a (mod n) and of f,
    index pair by index pair, must be in bijection (else ConsistencyError).
    """
    elems, n = a.elements(), a.modulus
    if not elems:
        return []
    fit = half_window_fit(elems, n, half_units(n))
    if fit is not None:
        m, u = fit
        return [(m * x - u) % n for x in elems]
    space = _separating_nullspace(elems, n)
    if space is None:
        return None
    basis, reps = space
    for t in itertools.count(1):
        f = [0] * len(elems)
        for b in reversed(basis):
            f = [t * x + y for x, y in zip(f, b)]
        if len({f[i] + f[j] for i, j in reps}) == len(reps):
            break
    ta, tb = _class_table(elems, n)[0], _class_table(f, None)[0]
    classes = ta.max() + 1
    pairs = np.sort((ta * classes + tb).ravel())
    if tb.max() + 1 != classes or np.count_nonzero(pairs[1:] != pairs[:-1]) + 1 != classes:
        raise ConsistencyError("rectify produced a non-isomorphic image")
    return f


def is_rectifiable(a: ResidueSet) -> bool:
    """Can a be mapped sum-faithfully into Z?  (see _integer_image)"""
    return _integer_image(a) is not None


def rectify_map(a: ResidueSet) -> dict[int, int]:
    """A sum-faithful embedding of a into Z, residue -> integer: a's first
    fitting dilate shifted into [0, (n+1)/2), else the least separating
    point of its nullspace's moment curve (see _integer_image)."""
    image = _integer_image(a)
    if image is None:
        raise NotRectifiableError(f"{a.literal()} admits no integer embedding")
    return dict(zip(a.elements(), image))


def rectify(a: ResidueSet) -> IntSet:
    if len(a) == 0:
        raise NotRectifiableError("empty set has no integer image")
    return IntSet.from_iterable(rectify_map(a).values())


@dataclass(frozen=True)
class AffineMap:
    """x -> offset + sum_i coeffs[i] * x[i], exact rational coefficients."""

    coeffs: tuple[Fraction, ...]
    offset: Fraction

    def __call__(self, point) -> Fraction:
        return self.offset + sum(c * x for c, x in zip(self.coeffs, point))


def affine_extension(points, phi) -> AffineMap:
    """Extend a sum-faithful pointwise map on a full-dimensional set in Z^d
    to an affine map, by solving on an affine basis and verifying the rest.

    Verification failure means phi was not sum-faithful in the first place;
    the raised error carries a witnessing quadruple.
    """
    pts = [tuple(p) for p in points]
    if not pts:
        raise NotFullDimensionalError("empty point set")
    d = len(pts[0])
    base = pts[0]
    # the first d differences independent of the earlier ones
    diffs = [[x - b for x, b in zip(p, base)] for p in pts[1:]]
    chosen, _, _ = linalg.echelon(np.array(diffs, dtype=object).T, len(diffs))
    if len(chosen) < d:
        raise NotFullDimensionalError(
            f"points span only {len(chosen)} of {d} dimensions"
        )
    system = [diffs[i] + [phi[pts[i + 1]] - phi[base]] for i in chosen]
    pivots, reduced, det = linalg.echelon(system, d + 1)
    if pivots != list(range(d)):
        raise ConsistencyError("independent differences, singular system")
    coeffs = [Fraction(int(x), int(det)) for x in reduced[:, d]]
    offset = Fraction(phi[base]) - sum(c * x for c, x in zip(coeffs, base))
    candidate = AffineMap(tuple(coeffs), offset)
    for p in pts:
        if candidate(p) != phi[p]:
            _raise_with_quadruple(pts, phi)
            raise ConsistencyError(
                "pointwise check failed yet every quadruple is preserved"
            )
    return candidate


def _raise_with_quadruple(pts, phi) -> None:
    for (p, q), (r, s) in itertools.combinations(
        itertools.combinations_with_replacement(pts, 2), 2
    ):
        lhs = tuple(a + b for a, b in zip(p, q))
        rhs = tuple(a + b for a, b in zip(r, s))
        if lhs == rhs and phi[p] + phi[q] != phi[r] + phi[s]:
            raise NotFreimanIsomorphismError(
                f"{p} + {q} = {r} + {s} but "
                f"{phi[p]} + {phi[q]} != {phi[r]} + {phi[s]}"
            )


@dataclass(frozen=True)
class TwoLinesCover:
    """P1 and P2 share their step, P1 starts below P2 and the two are
    disjoint."""

    p1: ApDescriptor
    p2: ApDescriptor


def _step_lines(elems: list[int], r: int) -> tuple[ApDescriptor, ApDescriptor] | None:
    """The two step-r lines that can carry a cover of the sorted elems, or
    None past two residue classes mod r.  Two classes are the two lines.  In
    one class, 2P1 misses P1 + P2 only if the gap between the lines is wider
    than P1, and P1 + P2 misses 2P2 only if it is wider than P2, so the cut
    is at the widest gap, then the only one that wide (ties take the last).
    Each line is the shortest step-r progression through its part."""
    classes: dict[int, list[int]] = {}
    for e in elems:
        classes.setdefault(e % r, []).append(e)
    if len(classes) > 2:
        return None
    if len(classes) == 2:
        parts = sorted(classes.values())
    else:
        cut = max((y - x, i) for i, (x, y) in enumerate(zip(elems, elems[1:])))[1] + 1
        parts = [elems[:cut], elems[cut:]]
    p1, p2 = (ApDescriptor(g[0], r, (g[-1] - g[0]) // r + 1) for g in parts)
    return p1, p2


def _disjoint(x: int, m: int, y: int, n: int, r: int) -> bool:
    """Are x + r*[0, m) and y + r*[0, n) disjoint?"""
    t, off = divmod(y - x, r)
    return off != 0 or t >= m or t + n <= 0


def _two_lines_postconditions_ok(p1: ApDescriptor, p2: ApDescriptor, bound: int) -> bool:
    """2P1, P1 + P2 and 2P2 pairwise disjoint and |P1 u P2| <= bound, by
    progression arithmetic: each sum is a start plus r*[0, n).  Disjoint
    sums make P1 and P2 disjoint (x in both puts 2x in 2P1 and P1 + P2), so
    then |P1 u P2| = n1 + n2."""
    s1, s2, r, n1, n2 = p1.start, p2.start, p1.step, p1.length, p2.length
    sums = ((2 * s1, 2 * n1 - 1), (s1 + s2, n1 + n2 - 1), (2 * s2, 2 * n2 - 1))
    return n1 + n2 <= bound and all(
        _disjoint(*x, *y, r) for x, y in itertools.combinations(sums, 2)
    )


def dimension_and_lines(a: IntSet, size_2a: int) -> tuple[int, TwoLinesCover | None]:
    """(dim(a), its two-lines cover or None) for a set with |2a| = size_2a
    <= 3|a| - 4, or |a| >= 11 and |2a| <= (10/3)|a| - 7; outside that domain
    it raises PreconditionFailedError.

    Freiman's lemma (dim >= 2 forces |2a| >= 3|a| - 3) settles the first
    case: (1, None).  Otherwise a step search looks for the cover by two
    progressions with one step: union |P1 u P2| <= |2a| - 2|a| + 3, and
    2P1, P1 + P2, 2P2 pairwise disjoint.  The first step r, in ascending
    order, whose lines (see _step_lines) meet these postconditions gives it.
    Of the three least members e0 < e1 < e2 two lie on one line, so r
    divides e1 - e0, e2 - e0 or e2 - e1; the divisors of those three numbers
    hold every step that can pass.

    A found cover certifies dim(a) = 2, so it needs no rank.  With P1 =
    s1 + r*[0, n1) and P2 = s2 + r*[0, n2), L(u, v) = s1 + r*u + (s2 - s1)*v
    maps a set S in Z x {0, 1} onto a.  Every sum of two members lies in
    exactly one of 2P1, P1 + P2 and 2P2, which fixes v + v'; then
    r*(u + u') fixes u + u'.  So L is a Freiman isomorphism from S onto a,
    and S is not collinear: both lines meet a and one holds two members.
    Hence dim(a) >= 2, and Freiman's lemma (|2a| >= 4|a| - 6 at dim >= 3,
    above (10/3)|a| - 7) caps it at 2.

    Only when no step passes is the rank taken (SearchRangeError past the
    pair or row budget), and it must give 1: a 2 would falsify the
    structure theorem behind the postconditions (Freiman's (10/3)k - 5
    theorem for planar sets; Freiman 1973, Stanchescu, Acta Arith. 83,
    1998), a 3 or more Freiman's lemma.  Either raises ConsistencyError.
    """
    k = len(a)
    if size_2a <= 3 * k - 4:
        return 1, None
    if k < 11 or 3 * size_2a > 10 * k - 21:
        raise PreconditionFailedError(
            f"|A| = {k} and |2A| = {size_2a}: neither |2A| <= 3|A| - 4 nor "
            "|A| >= 11 and 3|2A| <= 10|A| - 21"
        )
    elems = list(a.elements)
    e0, e1, e2 = elems[:3]
    for r in sorted({*divisors(e1 - e0), *divisors(e2 - e0), *divisors(e2 - e1)}):
        lines = _step_lines(elems, r)
        if lines and _two_lines_postconditions_ok(*lines, size_2a - 2 * k + 3):
            return 2, TwoLinesCover(*lines)
    dim = additive_dimension_value(a)
    if dim != 1:
        raise ConsistencyError(
            f"dim = {dim} and no two-progression cover satisfied the "
            "postconditions; this would falsify Freiman's lemma or the "
            "structure theorem for 2-dimensional sets"
        )
    return 1, None


def two_lines_cover(a: IntSet) -> TwoLinesCover:
    """The two-lines cover of dimension_and_lines for a set with |a| >= 11
    and |2a| <= (10/3)|a| - 7.  PreconditionFailedError names each failed
    size precondition, with no rank taken, or says that a is 1-dimensional.
    """
    k = len(a)
    size_2a = len(int_sumset(a))
    failures = []
    if k < 11:
        failures.append(f"|A| = {k} < 11")
    if 3 * size_2a > 10 * k - 21:
        failures.append(f"3|2A| = {3 * size_2a} > 10|A| - 21 = {10 * k - 21}")
    if failures:
        raise PreconditionFailedError("; ".join(failures))
    lines = dimension_and_lines(a, size_2a)[1]
    if lines is None:
        raise PreconditionFailedError("dim = 1 != 2")
    return lines


@dataclass(frozen=True)
class ProjectionWitness:
    applicable: bool
    dim: int | None
    witness: tuple[tuple[int, int], ...] | None


def projected_dimension_witness(a: IntSet, m: int) -> ProjectionWitness:
    """If the projection of a normal-form set into Z_m (m | max a) is
    rectifiable, the graph {(x, f(x mod m))} realizes dim(a) >= 2; returns
    the witness, or NotApplicable when the projection is not rectifiable."""
    if normal_form(a) != a:
        raise PreconditionFailedError("input must be in normal form")
    if len(a) < 3:
        raise PreconditionFailedError("need at least three elements")
    if m <= 1 or a.max() % m != 0:
        raise PreconditionFailedError("m must exceed 1 and divide max(a)")
    proj = ResidueSet.from_elements(m, (x % m for x in a.elements))
    image = _integer_image(proj)
    if image is None:
        return ProjectionWitness(False, None, None)
    f = dict(zip(proj.elements(), image))
    witness = tuple((x, f[x % m]) for x in a.elements)
    dim = additive_dimension_value(a)
    if dim < 2:
        raise ConsistencyError(
            f"rectifiable projection mod {m} but dim = {dim}; this would "
            "falsify the dimension lift"
        )
    return ProjectionWitness(True, dim, witness)
