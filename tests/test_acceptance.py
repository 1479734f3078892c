"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.

Criterion 1 checks the first extremal family's non-coverability claim
ell(A) > |2A| - |A| + 1 on its interior 0 <= x <= k - 4 and pins the
boundary x = k - 3, where the claim is false, as coverable at exactly the
bound: there 2*A reduces to an interval of length (p+1)/2 = k + x, so the
progression with start (p+1)/2, step (p-1)/2 and length (p+1)/2 covers A
(smallest instance: p = 5, A = {0,2,3} = {3,0,2}).  Criterion 2 pins the
second family's deviation at t = 3 the same way.
"""

import random
import time

import numpy as np

from addcomb import bits
from addcomb.covering import min_ap_cover
from addcomb.engine import BRANCH_CASE1, BRANCH_WHOLE, BRANCHES, prove_cover
from addcomb.freiman import (
    is_freiman_isomorphic,
    is_rectifiable,
    rectify,
    two_lines_cover,
)
from addcomb.intsets import ApDescriptor, IntSet, sumset as int_sumset
from addcomb.residues import ResidueSet, cross_sum_mask, sumset
from addcomb.search import (
    build_family,
    family_instances,
    hunt_conjecture,
    run_suite,
    verify_family,
)
from addcomb.spectral import (
    energy_identity_residual,
    largest_coefficient,
    spectrum,
)
from addcomb.primes import primes_upto
from conftest import affine_orbit_count, count_canonical_classes, window_capture_counts


def _criterion(num: int, name: str, ok: bool, detail: str) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE C{num:02d} {name}: {state} — {detail}")


def test_c01_example1_family():
    started = time.monotonic()
    report = verify_family("example1", 199)  # arithmetic mismatches raise
    instances = family_instances("example1", 199)
    interior = [q for q in instances if q.x <= q.k - 4]
    boundary = [q for q in instances if q.x == q.k - 3]
    assert len(interior) + len(boundary) == report.classes_examined == len(instances)
    # x = k - 3 means p = 4k - 7: one boundary instance per prime p = 1 mod 4
    assert {(q.k, q.x) for q in boundary} == {
        ((p + 7) // 4, (p + 7) // 4 - 3) for p in primes_upto(199) if p % 4 == 1
    }

    # the report lists every instance with ell(A) <= bound: no interior
    # instance may appear, and every boundary instance must
    violated = {(v["params"]["k"], v["params"]["x"]): v for v in report.counterexamples}
    assert set(violated) == {(q.k, q.x) for q in boundary}

    # the boundary is coverable at exactly the bound: 2*A reduces to the
    # interval [2 - k - x, 1] of length (p+1)/2 = k + x, and the progression
    # with start (p+1)/2 = 1/2 and step (p-1)/2 = -1/2 (mod p) runs through
    # the halves of that interval, so it covers A
    brute_checked = 0
    for q in boundary:
        a, expected = build_family(q)
        p, half = q.p, (q.p + 1) // 2
        assert expected["bound"] == half
        assert violated[(q.k, q.x)]["cover_length"] == half
        assert ApDescriptor(half, (p - 1) // 2, half, ambient=p).covers(a.elements())
        if p <= 53:
            assert _brute_cover_by_walking(a.mask, p) == half, q
            brute_checked += 1

    _criterion(
        1,
        "example1 family, p <= 199",
        True,
        f"{len(interior)} interior instances (x <= k - 4) non-coverable; "
        f"{len(boundary)} boundary instances (x = k - 3) coverable at exactly "
        f"the bound ({brute_checked} with p <= 53 brute-checked), "
        f"{time.monotonic() - started:.1f}s",
    )


def test_c02_example2_family():
    started = time.monotonic()
    checked = 0
    for params in family_instances("example2", 199):
        a, expected = build_family(params)  # |2A| = 3t - 1 verified inside
        cover = min_ap_cover(a)
        if 19 <= params.p <= 199:
            assert cover.length > expected["bound"], (params, cover.length)
            checked += 1
        if params.t == 3:
            # documented deviation: the t = 3 instance is coverable
            assert cover.length == 5 == expected["bound"]
    assert checked >= 20
    _criterion(
        2,
        "example2 family, 19 <= p <= 199",
        True,
        f"{checked} instances non-coverable; t=3 coverable at the bound "
        f"(documented deviation), {time.monotonic() - started:.1f}s",
    )


def test_c03_conjecture_hunt():
    started = time.monotonic()
    report = hunt_conjecture([5, 7, 11, 13, 17, 19, 23])
    ok = report.clean
    _criterion(
        3,
        "conjecture hunt, p in {5..23}",
        ok,
        f"{report.classes_examined} canonical classes, "
        f"{len(report.counterexamples)} counterexamples, "
        f"{time.monotonic() - started:.1f}s",
    )
    assert ok, report.counterexamples


def test_c04_vosper_suite():
    started = time.monotonic()
    report = run_suite("vosper", max_p=17)  # equivalence failure raises
    _criterion(
        4,
        "Vosper equivalence, p <= 17",
        report.clean,
        f"{report.classes_examined} admissible sets, zero violations, "
        f"{time.monotonic() - started:.1f}s",
    )
    assert report.clean


def test_c05_dimension_bound_suite():
    started = time.monotonic()
    report = run_suite("dim_bound")  # violation raises
    _criterion(
        5,
        "dimension lower bound, [0,12] sizes 2..6",
        report.clean,
        f"{report.classes_examined} normal-form sets, zero violations, "
        f"{time.monotonic() - started:.1f}s",
    )
    assert report.clean


def test_c06_integer_3k4_suite():
    started = time.monotonic()
    report = run_suite("3k4")  # violation raises
    _criterion(
        6,
        "integer 3k-4 covering, [0,15]",
        report.clean,
        f"{report.classes_examined} normal-form sets, zero violations, "
        f"{time.monotonic() - started:.1f}s",
    )
    assert report.clean


def test_c07_spectral_identities():
    started = time.monotonic()
    rng = random.Random(0xF0F0)
    primes = [p for p in primes_upto(10**4) if p >= 5]
    worst_parseval = 0.0
    worst_energy = 0.0
    for _ in range(1000):
        p = rng.choice(primes)
        k = rng.randrange(1, min(p, 400))
        a = ResidueSet.from_elements(p, rng.sample(range(p), k))
        mags = spectrum(a).magnitudes
        parseval = abs(float(np.sum(mags**2)) - k * p) / (k * p)
        energy = energy_identity_residual(a)
        worst_parseval = max(worst_parseval, parseval)
        worst_energy = max(worst_energy, energy)
    assert worst_parseval < 1e-9 and worst_energy < 1e-9

    # capture bound for every frequency, and the coefficient lower bound
    p = 101
    for _ in range(200):
        k = rng.randrange(2, p - 1)
        a = ResidueSet.from_elements(p, rng.sample(range(p), k))
        mags = spectrum(a).magnitudes
        for d in range(1, p):
            assert int(window_capture_counts(a, d).max()) >= (
                (k + mags[d]) / 2 - 1e-6
            )
        lc = largest_coefficient(a)  # would raise below its bound
        assert lc.magnitude >= lc.bound - 1e-6
    _criterion(
        7,
        "spectral identities",
        True,
        f"worst Parseval {worst_parseval:.2e}, worst energy {worst_energy:.2e}"
        f" (both < 1e-9); capture bound held for all d at p=101 on 200 sets, "
        f"{time.monotonic() - started:.1f}s",
    )


def _brute_cover_by_walking(mask: int, p: int) -> int:
    """Independent oracle: walk every (start, step) progression until it
    covers the set, no dilation or gap shortcuts."""
    best = p
    for start in range(p):
        for step in range(1, p):
            covered = 0
            v = start
            for length in range(1, best):
                covered |= 1 << v
                if mask & ~covered == 0:
                    best = length
                    break
                v = (v + step) % p
    return best


def test_c08_oracle_equivalences():
    started = time.monotonic()
    rng = random.Random(0xABCD)

    # bit-parallel sumset vs naive double loop
    for _ in range(1000):
        n = rng.randrange(2, 513)
        k = rng.randrange(1, min(n, 48) + 1)
        els = rng.sample(range(n), k)
        naive = {(x + y) % n for x in els for y in els}
        mask = bits.mask_of(els, n)
        fast = cross_sum_mask(mask, mask, n)
        assert set(bits.elements_of(fast)) == naive

    # minimal cover vs progression-walking oracle: exhaustive then random
    for p in (2, 3, 5, 7, 11, 13):
        for mask in range(1, 1 << p):
            res = min_ap_cover(ResidueSet(p, mask))
            assert res.length == _brute_cover_by_walking(mask, p)
    small_primes = [p for p in primes_upto(101) if p >= 5]
    for _ in range(200):
        p = rng.choice(small_primes)
        k = rng.randrange(1, p + 1)
        mask = bits.mask_of(rng.sample(range(p), k), p)
        assert min_ap_cover(ResidueSet(p, mask)).length == _brute_cover_by_walking(mask, p)

    # canonical class counts vs Burnside orbit counts
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            assert count_canonical_classes(p, k) == affine_orbit_count(p, k)

    _criterion(
        8,
        "oracle equivalences",
        True,
        f"sumset (1000), cover (exhaustive p<=13 + 200 random p<=101), "
        f"Burnside (p<=13), {time.monotonic() - started:.1f}s",
    )


def _engine_corpus(rng, count):
    primes = [p for p in primes_upto(2003) if p >= 31]
    made = 0
    while made < count:
        p = rng.choice(primes)
        style = rng.random()
        k = rng.randrange(6, 40)
        if style < 0.7:
            length = min(p - 1, rng.randrange(k, int(1.3 * k) + 1))
            step = rng.randrange(1, p)
            start = rng.randrange(p)
            pool = rng.sample(range(length), min(k, length))
            els = [(start + i * step) % p for i in pool]
        elif style < 0.9:
            n1 = k // 2
            gap = rng.randrange(2 * k, max(p // 2, 2 * k + 1))
            step = rng.randrange(1, p)
            start = rng.randrange(p)
            els = [
                (start + i * step) % p
                for i in list(range(n1)) + [gap + j for j in range(k - n1)]
            ]
        else:
            length = min(p - 1, rng.randrange(k, int(1.2 * k) + 1))
            step = rng.randrange(1, p)
            start = rng.randrange(p)
            els = [(start + i * step) % p for i in rng.sample(range(length), min(k - 2, length))]
            els += rng.sample(range(p), 2)
        a = ResidueSet.from_elements(p, els)
        if len(a) < 3:
            continue
        if 10 * len(sumset(a)) <= 26 * len(a):
            made += 1
            yield a


def test_c09_engine_soundness():
    started = time.monotonic()
    rng = random.Random(0xE1211)
    branches = {}
    for a in _engine_corpus(rng, 10**4):
        t = prove_cover(a)
        assert t.branch in BRANCHES
        branches[t.branch] = branches.get(t.branch, 0) + 1
        assert t.result is not None  # every exit leaves a verified result
        assert t.result.witness.covers(a.elements())
        bound = len(sumset(a)) - len(a) + 1
        assert t.result.bound == bound
        assert t.result.within_bound == (t.result.length <= bound)
        if t.branch != "fallback":
            assert t.result.within_bound
    fourier_case1 = _fourier_case1_corpus()
    fourier_case2 = _fourier_case2_corpus()
    _criterion(
        9,
        "engine soundness, 10^4 sets p <= 2003 and 42 Fourier-mode sets",
        True,
        f"branches {branches}, every cover re-verified; Fourier mode "
        f"{fourier_case1} case1 of 30, case 2 branches {fourier_case2} of 12, "
        f"{time.monotonic() - started:.1f}s",
    )


def _fourier_case1_corpus() -> int:
    """A = [0, L) u {(p+1)/2 + j : j < r} above the exact-search range: the
    interval fills the window and the far block stays out of it, so the
    queries that keep it out reach case 1 and its re-dilation by 2."""
    rng = random.Random(9)
    case1 = 0
    for _ in range(30):
        p = rng.choice([16411, 16417, 16421, 32771, 65537])
        length = rng.randrange(50, p // 6)
        r = rng.choice([2, 5, 20])
        a = ResidueSet.from_elements(
            p, list(range(length)) + [(p + 1) // 2 + j for j in range(r)]
        )
        t = prove_cover(a)
        assert t.window.mode == "fourier"
        assert t.branch in (BRANCH_CASE1, BRANCH_WHOLE), t.branch
        assert t.result.witness.covers(a.elements())
        assert t.result.length <= t.result.bound == len(sumset(a)) - len(a) + 1
        case1 += t.branch == BRANCH_CASE1
    assert case1 >= 20
    return case1


def _fourier_case2_corpus() -> dict:
    """A = [0, L1) u (p/3 + o + [0, L2)) above the exact-search range, with
    L2 sized so that the dilate by 3 runs a little past the half window:
    the top frequency d = 3 captures a 2-dimensional A1, and the query
    reaches case 2 past the pair budget its rank would need."""
    rng = random.Random(14)
    branches: dict[str, int] = {}
    for _ in range(12):
        p = rng.choice([16411, 16417, 16421, 16433])
        l1, o = rng.randrange(p // 10, p // 8), rng.randrange(700)
        l2 = (p + 1) // 6 - o + rng.randrange(10, 200)
        a = ResidueSet.from_elements(
            p, [*range(l1), *range(p // 3 + o, p // 3 + o + l2)]
        )
        t = prove_cover(a)
        assert t.window.mode == "fourier"
        assert t.result.witness.covers(a.elements())
        assert t.result.bound == len(sumset(a)) - len(a) + 1
        assert t.result.within_bound == (t.result.length <= t.result.bound)
        if len(t.window) < len(a):
            assert t.dim_a1 == 2 and t.c is not None, a.literal()
        if t.branch != "fallback":
            assert t.result.within_bound
        branches[t.branch] = branches.get(t.branch, 0) + 1
    assert branches.get("case2_ii", 0) >= 2
    return branches


def test_c10_structure_postconditions():
    started = time.monotonic()
    rng = random.Random(0xC0DE)

    calls = 0
    while calls < 500:
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        k = rng.randrange(1, min(p, 9))
        a = ResidueSet.from_elements(p, rng.sample(range(p), k))
        if not is_rectifiable(a):
            continue
        image = rectify(a)
        assert is_freiman_isomorphic(a, image), a.literal()
        calls += 1

    built = 0
    while built < 50:
        n1 = rng.randrange(2, 12)
        n2 = rng.randrange(max(2, 12 - n1), 14)
        gap = rng.randrange(4 * (n1 + n2), 12 * (n1 + n2))
        scale = rng.randrange(1, 7)
        shift = rng.randrange(-50, 50)
        a = IntSet.from_iterable(
            scale * x + shift
            for x in list(range(n1)) + [gap + j for j in range(n2)]
        )
        two_a = int_sumset(a)
        if 3 * len(two_a) > 10 * len(a) - 21:
            continue
        res = two_lines_cover(a)
        v1, v2 = set(res.p1.values()), set(res.p2.values())
        assert set(a.elements) <= v1 | v2
        assert len(v1 | v2) <= len(two_a) - 2 * len(a) + 3
        s11 = {x + y for x in v1 for y in v1}
        s12 = {x + y for x in v1 for y in v2}
        s22 = {x + y for x in v2 for y in v2}
        assert not (s11 & s12) and not (s11 & s22) and not (s12 & s22)
        assert res.p1.step == res.p2.step
        built += 1

    _criterion(
        10,
        "structure postconditions",
        True,
        f"500 rectifications isomorphism-checked, 50 two-line covers "
        f"verified, {time.monotonic() - started:.1f}s",
    )
