"""Freiman isomorphism, additive dimension, rectification and the
two-progressions structure of 2-dimensional sets.

Everything rests on the sum classes of a set: its index pairs grouped by
pair sum in the ambient group.  Two pairs in one class give a *required*
relation a + b = c + e any sum-preserving map must keep; pairs in different
classes give a *forbidden* one no such map may create.  Chaining each class
yields O(k^2) integer rows spanning every required relation; their exact
rational nullspace holds all the sum-preserving images, so every verdict
here is exact linear algebra on those rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from operator import mul

from . import linalg
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
from .residues import ResidueSet, dilation_gaps, half_units

Pair = tuple[int, int]


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


def _add(x, y, modulus):
    if isinstance(x, tuple):
        return tuple(a + b for a, b in zip(x, y))
    s = x + y
    return s % modulus if modulus is not None else s


def _pairs(k: int) -> list[Pair]:
    return [(i, j) for i in range(k) for j in range(i, k)]


def _pair_row(p: Pair, q: Pair, k: int) -> list[int]:
    row = [0] * k
    row[p[0]] += 1
    row[p[1]] += 1
    row[q[0]] -= 1
    row[q[1]] -= 1
    return row


def _sum_classes(elems: list, modulus: int | None) -> list[list[Pair]]:
    """Index pairs i <= j grouped by the sum elems[i] + elems[j], in order of
    first appearance."""
    by_sum: dict = {}
    for p in _pairs(len(elems)):
        by_sum.setdefault(_add(elems[p[0]], elems[p[1]], modulus), []).append(p)
    return list(by_sum.values())


def _chain_rows(classes: list[list[Pair]], k: int) -> list[list[int]]:
    return [
        _pair_row(p, q, k) for group in classes for p, q in zip(group, group[1:])
    ]


def required_spanning_rows(obj) -> list[list[int]]:
    """Rows spanning the required-relation row space in O(k^2) time.

    Pairs sharing a sum value are chained by consecutive differences; within
    a sum class every quadruple row is a difference of two chained rows, so
    the chain spans the class.
    """
    elems, mod = _ground(obj)
    return _chain_rows(_sum_classes(elems, mod), len(elems))


def _certified_nullspace(rows: list[list[int]], k: int) -> list[tuple[int, ...]]:
    """Exact integer basis of the nullspace of required-relation rows: the
    standard free-variable basis of the row space's RREF, denominators
    cleared.  The RREF of a row space is unique, so any spanning rows give
    the same basis.

    A mod-q elimination picks candidate independent rows (independence mod q
    certifies independence over Q); their rational nullspace is computed
    exactly and every remaining row is checked to be orthogonal to it, which
    certifies it spans the full row space.  Any violator joins the selection
    and the loop repeats (rare).
    """
    if not rows:
        return [
            tuple(1 if i == j else 0 for i in range(k)) for j in range(k)
        ]
    _, selected = linalg.rank_mod_prime(rows, k)
    while True:
        chosen_rows = [rows[i] for i in selected]
        basis = [
            linalg.clear_denominators(v)
            for v in linalg.nullspace_basis(chosen_rows, k)
        ]
        in_selected = set(selected)
        grew = False
        for i, row in enumerate(rows):
            if i in in_selected:
                continue
            if any(sum(r * b for r, b in zip(row, bv)) for bv in basis):
                selected.append(i)
                grew = True
                break
        if not grew:
            return basis


def _relation_rank(rows: list[list[int]], k: int) -> int:
    """Exact rank of required-relation rows.

    The constant and identity vectors always lie in the nullspace, so
    rank <= k - 2 and a mod-q rank (a certified lower bound) hitting that
    ceiling is already exact; otherwise fall through to the certified
    nullspace."""
    if not rows:
        return 0
    if k <= 45:
        return linalg.rank_int_rows(rows, k)
    r_q, _ = linalg.rank_mod_prime(rows, k)
    if r_q >= k - 2:
        return k - 2
    return k - len(_certified_nullspace(rows, k))


@dataclass(frozen=True)
class DimensionResult:
    """dim is the largest s with a sum-faithful embedding into Z^s touching
    no hyperplane; it equals the required-nullspace rank minus one (the
    constant vector is always a solution)."""

    dim: int
    ground_size: int
    _rows: tuple[tuple[int, ...], ...]

    @cached_property
    def nullspace_basis(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(
            linalg.nullspace_basis([list(r) for r in self._rows], self.ground_size)
        )


def additive_dimension(a: IntSet) -> DimensionResult:
    if len(a) < 2:
        raise UndefinedDimensionError("dimension needs at least two elements")
    rows = required_spanning_rows(a)
    rank = _relation_rank(rows, len(a))
    dim = len(a) - 1 - rank
    return DimensionResult(dim, len(a), tuple(tuple(r) for r in rows))


def _dim1_by_propagation(elems: list) -> bool:
    """Cheap sufficient test for dimension 1.

    Anchor two images and propagate values forced by the required relations
    (all pairs in a sum class share one image-sum).  If every image gets
    pinned, the solution space is exactly the affine maps, i.e. dim = 1.
    A stall is inconclusive, never wrong.
    """
    k = len(elems)
    if k == 2:
        return True
    classes = _sum_classes(elems, None)
    f: list = [None] * k
    f[0], f[1] = 0, 1
    known = 2
    progress = True
    while progress and known < k:
        progress = False
        for grp in classes:
            value = None
            for i, j in grp:
                if f[i] is not None and f[j] is not None:
                    value = f[i] + f[j]
                    break
            if value is None:
                continue
            for i, j in grp:
                if f[i] is None and f[j] is not None:
                    f[i] = value - f[j]
                    known += 1
                    progress = True
                elif f[j] is None and f[i] is not None:
                    f[j] = value - f[i]
                    known += 1
                    progress = True
    return known == k


def additive_dimension_value(a: IntSet) -> int:
    """Dimension without materializing the nullspace (engine hot path)."""
    if len(a) < 2:
        raise UndefinedDimensionError("dimension needs at least two elements")
    if len(a) > 45 and _dim1_by_propagation(list(a.elements)):
        return 1
    return len(a) - 1 - _relation_rank(required_spanning_rows(a), len(a))


def dimension_lower_bound_check(a: IntSet) -> bool:
    """|2A| >= (d+1)|A| - C(d+1, 2) with d the exact dimension.  Always true;
    exercised exhaustively by the verification suites."""
    d = additive_dimension_value(a)
    return len(int_sumset(a)) >= (d + 1) * len(a) - (d + 1) * d // 2


def is_freiman_isomorphic(a, b) -> bool:
    """Is there a bijection preserving pair-sum equality both ways?

    Backtracking over candidate images, pruned by per-element relation
    profiles and an incrementally maintained bijection between realized pair
    sums of the two sides.
    """
    ea, ma = _ground(a)
    eb, mb = _ground(b)
    if len(ea) != len(eb):
        return False
    k = len(ea)
    if k == 0:
        return True

    def profiles(elems, mod):
        pairs = _pairs(len(elems))
        count: dict = {}
        for p in pairs:
            s = _add(elems[p[0]], elems[p[1]], mod)
            count[s] = count.get(s, 0) + 1
        prof = []
        for i in range(len(elems)):
            multi = sorted(
                count[_add(elems[i], elems[j], mod)] for j in range(len(elems))
            )
            prof.append(tuple(multi))
        return prof

    pa, pb = profiles(ea, ma), profiles(eb, mb)
    if sorted(pa) != sorted(pb):
        return False

    order = sorted(range(k), key=lambda i: (pa[i], i))
    sum_ab: dict = {}
    sum_ba: dict = {}
    image = [None] * k
    used = [False] * k

    def assign(depth: int) -> bool:
        if depth == k:
            return True
        i = order[depth]
        for j in range(k):
            if used[j] or pa[i] != pb[j]:
                continue
            added = []
            ok = True
            for t in order[: depth + 1]:
                if image[t] is None and t != i:
                    continue
                jt = j if t == i else image[t]
                sa = _add(ea[i], ea[t], ma)
                sb = _add(eb[j], eb[jt], mb)
                if sa in sum_ab:
                    if sum_ab[sa] != sb:
                        ok = False
                        break
                elif sb in sum_ba:
                    ok = False
                    break
                else:
                    sum_ab[sa] = sb
                    sum_ba[sb] = sa
                    added.append((sa, sb))
            if ok:
                image[i] = j
                used[j] = True
                if assign(depth + 1):
                    return True
                image[i] = None
                used[j] = False
            for sa, sb in added:
                del sum_ab[sa]
                del sum_ba[sb]
        return False

    return assign(0)


def _half_interval_dilation(a: ResidueSet) -> tuple[int, int] | None:
    """(d, u) with d*A inside [u, u + ceil(n/2)) if one exists, else None.

    Sums inside a window of (n+1)//2 consecutive residues cannot wrap, so a
    set fitting such a window after a unit dilation embeds in Z verbatim.
    """
    n = a.modulus
    # d and n - d fit alike, so the smallest fitting unit is at most n/2
    for ms, gaps, ends in dilation_gaps(a.elements(), n, half_units(n)):
        fit = n - gaps <= (n + 1) // 2
        if fit.any():
            i = int(fit.argmax())
            return int(ms[i]), int(ends[i])
    return None


def _separating_nullspace(elems: list, modulus: int | None):
    """(basis, reps): the certified integer nullspace of the required rows
    and one index pair per sum class, or None if the set is not rectifiable.

    The pairs of one class agree on every nullspace point, so a point is
    sum-faithful iff it takes pairwise distinct values on reps, and such a
    point exists iff the classes' value vectors over the basis are pairwise
    distinct.
    """
    classes = _sum_classes(elems, modulus)
    basis = _certified_nullspace(_chain_rows(classes, len(elems)), len(elems))
    reps = [group[0] for group in classes]
    vectors = {tuple(b[i] + b[j] for b in basis) for i, j in reps}
    return (basis, reps) if len(vectors) == len(reps) else None


def is_rectifiable(a: ResidueSet) -> bool:
    """Can a be mapped sum-faithfully into Z?

    Fast path: a unit dilate inside a half interval rectifies immediately.
    In general a is rectifiable iff no two sum classes take the same value
    on every point of the required nullspace.
    """
    if len(a) <= 1:
        return True
    if _half_interval_dilation(a) is not None:
        return True
    return _separating_nullspace(a.elements(), a.modulus) is not None


# Coefficient vectors rectify_map may enumerate before it gives up.  The
# search grows like (2R + 1)^(dim + 1) in the radius R it needs; 2^18
# vectors take about 1.5 s at |A| = 6 on CPython 3.11 (2-core x86-64).
RECTIFY_CANDIDATE_BUDGET = 1 << 18


def rectify_map(a: ResidueSet, verify: bool = True) -> dict[int, int]:
    """A sum-faithful embedding of a into Z, as residue -> integer.

    Deterministic: integer coefficient vectors over the required-nullspace
    basis are enumerated in increasing max-norm (then lexicographically)
    until one separates the sum classes, which exists when a is rectifiable
    because each pair of distinct class vectors agrees only on a proper
    subspace.  Past RECTIFY_CANDIDATE_BUDGET vectors the search gives up.
    """
    elems = a.elements()
    k = len(elems)
    if k == 0:
        return {}
    if k == 1:
        return {elems[0]: 0}
    space = _separating_nullspace(elems, a.modulus)
    if space is None:
        raise NotRectifiableError(f"{a.literal()} admits no integer embedding")
    basis, reps = space
    columns = list(zip(*basis))
    enumerated = 0
    for radius in itertools.count(1):
        for coeffs in itertools.product(range(-radius, radius + 1), repeat=len(basis)):
            enumerated += 1
            if enumerated > RECTIFY_CANDIDATE_BUDGET:
                raise SearchRangeError(
                    f"rectifying {a.literal()} takes more than "
                    f"{RECTIFY_CANDIDATE_BUDGET} coefficient vectors"
                )
            if max(map(abs, coeffs)) != radius:
                continue
            f = [sum(map(mul, coeffs, col)) for col in columns]
            if len({f[i] + f[j] for i, j in reps}) < len(reps):
                continue
            image = dict(zip(elems, f))
            if verify and not is_freiman_isomorphic(
                a, IntSet.from_iterable(image.values())
            ):
                raise ConsistencyError("rectify produced a non-isomorphic image")
            return image


def rectify(a: ResidueSet, verify: bool = True) -> IntSet:
    if len(a) == 0:
        raise NotRectifiableError("empty set has no integer image")
    return IntSet.from_iterable(rectify_map(a, verify=verify).values())


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
    diffs = [[p[i] - base[i] for i in range(d)] for p in pts[1:]]
    chosen: list[int] = []
    echelon: list[list[int]] = []
    for idx, row in enumerate(diffs):
        reduced = linalg._reduce_against(row, echelon)
        if any(reduced):
            linalg._insert_sorted(echelon, linalg._primitive(reduced))
            chosen.append(idx + 1)
        if len(chosen) == d:
            break
    if len(chosen) < d:
        raise NotFullDimensionalError(
            f"points span only {len(chosen)} of {d} dimensions"
        )
    matrix = [
        [Fraction(pts[i][c] - base[c]) for c in range(d)] for i in chosen
    ]
    rhs = [Fraction(phi[pts[i]] - phi[base]) for i in chosen]
    coeffs = linalg.solve_linear(matrix, rhs)
    if coeffs is None:
        raise ConsistencyError("affine basis matrix unexpectedly singular")
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
    p1: ApDescriptor
    p2: ApDescriptor
    route: str  # "embedding" or "direct"

    @property
    def union_size(self) -> int:
        return len(self.p1.value_set() | self.p2.value_set())


def _two_lines_postconditions_ok(a: IntSet, p1: ApDescriptor, p2: ApDescriptor) -> bool:
    v1, v2 = p1.value_set(), p2.value_set()
    if not set(a.elements) <= (v1 | v2):
        return False
    bound = len(int_sumset(a)) - 2 * len(a) + 3
    if len(v1 | v2) > bound:
        return False
    s11 = {x + y for x in v1 for y in v1}
    s12 = {x + y for x in v1 for y in v2}
    s22 = {x + y for x in v2 for y in v2}
    return not (s11 & s12) and not (s11 & s22) and not (s12 & s22)


def _embedding_candidates(a: IntSet):
    """Two-parallel-lines structures of the universal planar embedding,
    cheapest total length first."""
    k = len(a)
    rows = required_spanning_rows(a)
    basis = _certified_nullspace(rows, k)
    # project out the constant direction, keep the first two independent
    # vectors: w is independent of u iff a 2x2 minor on a pivot of u is nonzero
    picked: list[tuple[int, ...]] = []
    for v in basis:
        w = tuple(x - v[0] for x in v)
        if not picked and any(w):
            picked.append(w)
        elif picked:
            u = picked[0]
            i = next(i for i, x in enumerate(u) if x)
            if any(u[i] * y - x * w[i] for x, y in zip(u, w)):
                picked.append(w)
                break
    if len(picked) < 2:
        raise ConsistencyError("2-dimensional set without a planar embedding")
    vx, vy = picked
    pts = [(vx[i], vy[i]) for i in range(k)]
    dirs = set()
    for (x1, y1), (x2, y2) in itertools.combinations(pts, 2):
        dx, dy = x2 - x1, y2 - y1
        g = gcd(dx, dy)
        dx, dy = dx // g, dy // g
        if dx < 0 or (dx == 0 and dy < 0):
            dx, dy = -dx, -dy
        dirs.add((dx, dy))
    candidates = []
    for dx, dy in sorted(dirs):
        cross = [x * dy - y * dx for x, y in pts]
        levels = sorted(set(cross))
        if len(levels) != 2:
            continue
        groups = [
            [i for i in range(k) if cross[i] == lv] for lv in levels
        ]
        ts = []
        for grp in groups:
            bx, by = pts[grp[0]]
            tvals = []
            for i in grp:
                t = (pts[i][0] - bx) // dx if dx else (pts[i][1] - by) // dy
                tvals.append((t, i))
            tvals.sort()
            ts.append(tvals)
        g = 0
        for tvals in ts:
            for (t1, _), (t2, _) in zip(tvals, tvals[1:]):
                g = gcd(g, t2 - t1)
        g = max(g, 1)
        lengths = [
            (tvals[-1][0] - tvals[0][0]) // g + 1 for tvals in ts
        ]
        candidates.append((sum(lengths), (dx, dy), ts, g, lengths))
    candidates.sort(key=lambda c: (c[0], c[1]))
    return pts, candidates


def two_lines_cover(a: IntSet) -> TwoLinesCover:
    """Cover a 2-dimensional set by two progressions with one common step.

    Requires dim(a) = 2, |2a| <= (10/3)|a| - 7 and |a| >= 11.  Postconditions
    (union covers a, |P1 u P2| <= |2a| - 2|a| + 3, and 2P1, P1+P2, 2P2
    pairwise disjoint) are checked on every candidate; the embedding route is
    tried first, then a direct step search in Z.
    """
    k = len(a)
    two_a = int_sumset(a)
    failures = []
    if k < 11:
        failures.append(f"|A| = {k} < 11")
    if 3 * len(two_a) > 10 * k - 21:
        failures.append(f"3|2A| = {3 * len(two_a)} > 10|A| - 21 = {10 * k - 21}")
    dim = additive_dimension_value(a) if k >= 2 else 0
    if dim != 2:
        failures.append(f"dim = {dim} != 2")
    if failures:
        raise PreconditionFailedError("; ".join(failures))

    pts, candidates = _embedding_candidates(a)
    elems = list(a.elements)
    phi = {pts[i]: elems[i] for i in range(k)}
    ell = affine_extension(pts, phi) if candidates else None
    for _total, (dx, dy), ts, g, lengths in candidates:
        aps = []
        ok = True
        for tvals, length in zip(ts, lengths):
            i0 = tvals[0][1]
            start = elems[i0]
            step_q = g * (ell.coeffs[0] * dx + ell.coeffs[1] * dy)
            if step_q.denominator != 1:
                ok = False
                break
            step = int(step_q)
            if step == 0:
                if length != 1:
                    ok = False
                    break
                aps.append((start, 1, 1))
                continue
            if step < 0:
                start = start + (length - 1) * step
                step = -step
            aps.append((start, step, length))
        if not ok or len(aps) != 2:
            continue
        step_common = max(aps[0][1], aps[1][1])
        aps = [
            (s, step_common if ln == 1 else st, ln) for (s, st, ln) in aps
        ]
        aps.sort()
        p1 = ApDescriptor(*aps[0])
        p2 = ApDescriptor(*aps[1])
        if _two_lines_postconditions_ok(a, p1, p2):
            return TwoLinesCover(p1, p2, "embedding")

    direct = _direct_two_lines(a, two_a)
    if direct is not None:
        return direct
    raise ConsistencyError(
        "no two-progression cover satisfied the postconditions; this would "
        "falsify the structure theorem for 2-dimensional sets"
    )


def _direct_two_lines(a: IntSet, two_a: IntSet) -> TwoLinesCover | None:
    """Step search in Z: a valid pair with common step r forces a into at
    most two residue classes mod r; split within a class at the widest gap."""
    elems = list(a.elements)
    steps = set()
    for x, y in itertools.combinations(elems, 2):
        dlt = abs(x - y)
        i = 1
        while i * i <= dlt:
            if dlt % i == 0:
                steps.add(i)
                steps.add(dlt // i)
            i += 1
    for r in sorted(steps):
        classes: dict[int, list[int]] = {}
        for e in elems:
            classes.setdefault(e % r, []).append(e)
        if len(classes) > 2:
            continue
        if len(classes) == 2:
            g1, g2 = sorted(classes.values())
            pair = _aps_for_groups([sorted(g1), sorted(g2)], r)
        else:
            (g1,) = classes.values()
            g1 = sorted(g1)
            gaps = [
                (g1[i + 1] - g1[i], i) for i in range(len(g1) - 1)
            ]
            if not gaps:
                continue
            _, cut = max(gaps)
            pair = _aps_for_groups([g1[: cut + 1], g1[cut + 1 :]], r)
        if pair is None:
            continue
        p1, p2 = pair
        if _two_lines_postconditions_ok(a, p1, p2):
            return TwoLinesCover(p1, p2, "direct")
    return None


def _aps_for_groups(groups, r) -> tuple[ApDescriptor, ApDescriptor] | None:
    aps = []
    for grp in groups:
        if not grp:
            return None
        length = (grp[-1] - grp[0]) // r + 1
        aps.append(ApDescriptor(grp[0], r, length))
    return aps[0], aps[1]


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
    if not is_rectifiable(proj):
        return ProjectionWitness(False, None, None)
    f = rectify_map(proj)
    witness = tuple((x, f[x % m]) for x in a.elements)
    dim = additive_dimension_value(a)
    if dim < 2:
        raise ConsistencyError(
            f"rectifiable projection mod {m} but dim = {dim}; this would "
            "falsify the dimension lift"
        )
    return ProjectionWitness(True, dim, witness)
