import concurrent.futures
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations
from math import gcd

import numpy as np
import pytest

from addcomb import linalg, residues, search
from addcomb.covering import (
    COUNTEREXAMPLE, SILENT, _min_ap_cover, arithmetic_progressions, covered_within, min_ap_cover,
)
from addcomb.errors import (
    ConsistencyError,
    InvalidParamsError,
    SearchRangeError,
    UnknownSuiteError,
)
from addcomb.intsets import IntSet, sumset as int_sumset
from addcomb.residues import ResidueSet, affine_canonical_form, affine_canonical_rows, sumset
from addcomb.search import (
    FamilyParams,
    build_family,
    enumerate_canonical,
    family_instances,
    _normal_form_subsets,
    hunt_conjecture,
    run_suite,
    verify_family,
)
from addcomb.primes import primes_upto
from conftest import (
    affine_orbit_count, brute_canonical, brute_min_cover, count_canonical_classes, naive_sumset,
)


def test_enumeration_examples():
    classes = [a.elements() for a in enumerate_canonical(7, 3)]
    assert classes == [[0, 1, 2], [0, 1, 3]]
    assert [a.elements() for a in enumerate_canonical(5, 2)] == [[0, 1]]
    # the Sidon class has |2A| = 6, so a cap of 5 leaves only the progression
    assert [a.elements() for a in enumerate_canonical(7, 3, 5)] == [[0, 1, 2]]


def test_enumeration_edge_cardinalities():
    assert [a.elements() for a in enumerate_canonical(5, 1)] == [[0]]
    assert [a.elements() for a in enumerate_canonical(5, 5)] == [[0, 1, 2, 3, 4]]


def test_enumeration_validation():
    with pytest.raises(SearchRangeError):
        list(enumerate_canonical(9, 2))
    with pytest.raises(SearchRangeError):
        list(enumerate_canonical(67, 2))
    with pytest.raises(SearchRangeError):
        list(enumerate_canonical(7, 9))


def test_enumeration_yields_canonical_representatives():
    for a in enumerate_canonical(11, 4):
        assert affine_canonical_form(a) == a


def test_enumeration_matches_burnside_counts():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, p + 1):
            assert count_canonical_classes(p, k) == affine_orbit_count(p, k), (p, k)


def test_enumeration_matches_burnside_counts_uncapped_17_19():
    for p in (17, 19):
        for k in range(1, p + 1):
            assert count_canonical_classes(p, k) == affine_orbit_count(p, k), (p, k)
    # the largest enumerable prime: masks and sumsets use bits up to 60
    for k in (2, 3, 4, 59, 60, 61):
        assert count_canonical_classes(61, k) == affine_orbit_count(61, k), k


def test_enumeration_small_chunks_same_classes_same_order(monkeypatch):
    # frontier slices of 7 children and canonicity steps of 7 images
    # change nothing
    cases = [(13, k, None) for k in range(1, 14)]
    cases += [(17, k, min(3 * k - 4, 15)) for k in range(3, 10)]
    want = {c: [a.mask for a in enumerate_canonical(*c)] for c in cases}
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", 7)
    for c in cases:
        assert [a.mask for a in enumerate_canonical(*c)] == want[c], c


def test_enumeration_lexicographic_and_canonical():
    for p, k, cap in ((17, 6, 14), (19, 5, None), (23, 8, 20)):
        classes = [tuple(a.elements()) for a in enumerate_canonical(p, k, cap)]
        assert classes == sorted(classes) and len(set(classes)) == len(classes)
        for els in classes:
            assert brute_canonical(els, p) == els


def test_hunt_p29_clean():
    report = hunt_conjecture([29])
    assert report.clean
    assert report.classes_examined == 9631


def test_hunt_p31_clean():
    report = hunt_conjecture([31])
    assert report.clean
    assert report.classes_examined == 34364


def test_enumeration_completeness_against_naive():
    # every k-subset canonicalizes to some enumerated representative
    import itertools

    p, k = 11, 3
    enumerated = {tuple(a.elements()) for a in enumerate_canonical(p, k)}
    for subset in itertools.combinations(range(p), k):
        canon = affine_canonical_form(ResidueSet.from_elements(p, subset))
        assert tuple(canon.elements()) in enumerated


def test_enumeration_cap_prunes_exactly():
    # capped enumeration equals filtering the uncapped one
    p, k, cap = 13, 4, 8
    capped = [a.mask for a in enumerate_canonical(p, k, cap)]
    filtered = [
        a.mask for a in enumerate_canonical(p, k) if len(sumset(a)) <= cap
    ]
    assert capped == filtered


def test_hunt_small_primes():
    report = hunt_conjecture([3, 5, 7])
    assert report.clean
    # {0} and {0, 1} at each prime, and {0, 1, 2} in Z_7
    assert report.classes_examined == 7


def test_hunt_rejects_large_primes_without_override():
    # beyond p = 37 the class count explodes (576,635 classes at p = 37);
    # the budget cap guards against that
    with pytest.raises(SearchRangeError):
        hunt_conjecture([41])


def test_hunt_deterministic_and_parallel_equivalent():
    a = hunt_conjecture([5, 7, 11], threads=1)
    b = hunt_conjecture([5, 7, 11], threads=2)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time"), jb.pop("wall_time")
    ja["parameters"].pop("threads"), jb["parameters"].pop("threads")
    assert ja == jb


def test_hunt_refuses_a_repeated_prime():
    with pytest.raises(InvalidParamsError, match=r"^repeated prime in \[5, 7, 5\]$"):
        hunt_conjecture([5, 7, 5])


def test_hunt_refuses_an_empty_prime_list():
    with pytest.raises(InvalidParamsError, match=r"^no primes to hunt$"):
        hunt_conjecture([])


# sha256 of each report less wall_time and parameters.threads, as written
# when every class took its own conjecture_verdict ([5, 7, 11] at threads=2),
# for p = 2, 3 when every size took its own walk, and for p = 29, 31 when
# the walk tested canonicity on its leaves alone
HUNT_DIGESTS = {
    (2,): "b79f4586eb51ccfbbf59ff0d575337481a9b6090fcb93221f7fe520330972b8c",
    (3,): "e2ef74623e26d5809abf8caa2c4f0812792fa4ad254e73b5ba40760dd42a7098",
    (5,): "3040cba5be7dca2f69f42229092c1491386bff9f6a3c2a74ab645c9e2f9554ac",
    (7,): "02bf5c19061c26d1a204b878307929d29676059b72951d7d5956722f3d73d5a9",
    (11,): "046650aede9dcfcf7d998fddbee2105c355a6236bf192e87d8a00bdaf097c842",
    (13,): "31cff07d17989d065cc1c37d2d2c5ffe2eac31865303746c8628b5319cfee604",
    (17,): "33f74348bf429a4829dc1c0c6836124a2b5d6baf083632993bbdcf9392a8f138",
    (19,): "776211ccdc49652d0976f3fe330b927fe4757d35590ea1dd530011b755ea83b4",
    (23,): "1b390496c3650cf0f0eade10b486fbaa06a4b540d8c69989057e6f40daebc286",
    (29,): "521318f1ef2945ecc79e6f53a7553e651cd2b372efbb2b1ef1cc1d1d555a5fd5",
    (31,): "3e6b34d3d8514c47245fd75e3e5164322fed447098e07820d8e56b5adc0184f9",
    (5, 7, 11): "5331a427413df98751cee63b078f28ccf1b886cbdcfadae76d0bb2bc2d5ef894",
}


@pytest.mark.parametrize("primes", sorted(HUNT_DIGESTS))
def test_hunt_reports_are_pinned(primes):
    body = _body(hunt_conjecture(list(primes), threads=2 if len(primes) > 1 else 1))
    body["parameters"].pop("threads")
    digest = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert digest == HUNT_DIGESTS[primes]


def _flag_every_row(rows, p, lengths):
    return np.zeros(len(rows), dtype=bool)


def test_hunt_refuses_a_flag_its_verdict_denies(monkeypatch):
    # a row the stacked cover test fails must be a counterexample by its own
    # verdict; the first live row is {0, 1, 2} in Z_11 (p = 5, 7 have none)
    monkeypatch.setattr(search, "covered_within", _flag_every_row)
    with pytest.raises(ConsistencyError, match=r"disagree on n=11:\{0,1,2\}$"):
        hunt_conjecture([5, 7, 11])


def test_hunt_reports_flagged_rows_in_enumeration_order(monkeypatch):
    # every live row flagged, every non-silent verdict a counterexample: the
    # hunt lists what one verdict per enumerated class lists, in its order
    verdict = search.conjecture_verdict

    def condemn(a):
        v = verdict(a)
        return v if v.status == SILENT else dataclasses.replace(v, status=COUNTEREXAMPLE)

    monkeypatch.setattr(search, "covered_within", _flag_every_row)
    monkeypatch.setattr(search, "conjecture_verdict", condemn)
    for p in (11, 13, 17):
        want = [
            {"set": a.literal(), "verdict": condemn(a).to_json()}
            for k in range(1, (p + 1) // 2 + 1)
            for a in enumerate_canonical(p, k, None if k <= 2 else min(3 * k - 4, p - 2))
            if condemn(a).status == COUNTEREXAMPLE
        ]
        assert want and hunt_conjecture([p]).counterexamples == want


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps inline."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, work):
        return map(fn, work)


def test_worker_pool_is_bounded_by_work_and_cores(monkeypatch):
    # _run_tasks imports the pool class from concurrent.futures when it forks
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    report = hunt_conjecture([5, 7], threads=64)
    assert _RecordingPool.sizes == [2]
    assert report.parameters["threads"] == 64  # the request, as given
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    verify_family("example1", 40, threads=64)
    assert _RecordingPool.sizes == [2, 3]
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)
    hunt_conjecture([5, 7], threads=64)  # unknown core count: serial
    assert _RecordingPool.sizes == [2, 3]


def test_cli_import_leaves_the_process_pool_unloaded():
    # a run that never forks should not pay for concurrent.futures.process
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, addcomb.cli; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_campaign_guards():
    with pytest.raises(SearchRangeError, match="not prime"):
        hunt_conjecture([9])
    with pytest.raises(SearchRangeError, match="1000"):
        verify_family("example1", max_p=1001)
    for params, match in [
        (FamilyParams("example1", k=5), "needs k and x"),
        (FamilyParams("example1", x=1), "needs k and x"),
        (FamilyParams("example2"), "needs t"),
        (FamilyParams("example3", t=5), "unknown family"),
    ]:
        with pytest.raises(InvalidParamsError, match=match):
            build_family(params)
    with pytest.raises(InvalidParamsError, match="unknown family"):
        family_instances("nope", 11)


def test_hunt_notes_primes_above_the_default_cap(monkeypatch):
    monkeypatch.setattr(search, "HUNT_DEFAULT_MAX_P", 5)
    report = hunt_conjecture([7], max_p=7)
    assert report.notes[-1] == "runtime warning: primes above 5 can take long"
    assert len(hunt_conjecture([5], max_p=7).notes) == 1


def test_build_family_examples():
    a, expected = build_family(FamilyParams("example1", k=5, x=1))
    assert a.literal() == "n=11:{0,3,4,5,6}"
    assert expected["sumset_size"] == 10 == expected["p"] - 1

    a, expected = build_family(FamilyParams("example2", t=5))
    assert a.literal() == "n=19:{0,1,2,3,5,10}"
    assert expected["sumset_size"] == 14
    assert min_ap_cover(a).length == 11 > expected["bound"] == 9

    with pytest.raises(InvalidParamsError):
        build_family(FamilyParams("example2", t=4))  # p = 15 composite
    with pytest.raises(InvalidParamsError):
        build_family(FamilyParams("example1", k=5, x=3))  # x > k - 3
    with pytest.raises(InvalidParamsError):
        build_family(FamilyParams("example1", k=4, x=1))  # p = 9 composite


def test_family_instances_p11():
    params = family_instances("example1", 11)
    got = {(q.k, q.x) for q in params}
    # both p = 11 parameter points, plus the smaller-prime instances
    assert {(5, 1), (6, 0)} <= got
    assert got == {(3, 0), (4, 0), (5, 1), (6, 0)}


def test_verify_family_example1_boundary():
    # the x = k - 3 boundary is coverable at exactly the bound; interior
    # instances never are (documented deviation from the family's claim)
    report = verify_family("example1", 60)
    assert {v["params"]["x"] == v["params"]["k"] - 3 for v in report.counterexamples} == {True}
    assert all(v["cover_length"] == v["bound"] for v in report.counterexamples)


def test_verify_family_example2_small_t():
    report = verify_family("example2", 60)
    bad_t = sorted(v["params"]["t"] for v in report.counterexamples)
    assert bad_t == [2, 3]  # the progression case and the tight case


def test_report_roundtrip(tmp_path):
    report = hunt_conjecture([5])
    path = report.write(str(tmp_path))
    data = json.loads(open(path).read())
    assert data["campaign"] == "hunt-conjecture"
    assert data["classes_examined"] == report.classes_examined
    assert data["schema_version"] == 1


def test_suites_run_clean():
    rep = run_suite("vosper", max_p=13)
    assert rep.clean and rep.classes_examined > 0
    rep = run_suite("dim_bound", limit=9, min_size=2, max_size=5)
    assert rep.clean
    rep = run_suite("3k4", limit=11)
    assert rep.clean
    with pytest.raises(UnknownSuiteError):
        run_suite("nонsense")


def test_prop23_variant_small_range():
    rep = run_suite("prop23_variant", limit=14)
    assert rep.clean  # no ratio above 4 in this range
    assert any("empirical max" in n for n in rep.notes)


def test_dimension_suite_reports_are_pinned():
    # the reports the suites gave when each set was ranked on its own
    def body(report):
        out = report.to_json()
        out.pop("wall_time")
        return out

    prop23 = body(run_suite("prop23_variant", limit=16))
    assert prop23 == {
        "schema_version": 1,
        "tool_version": "0.1.0",
        "campaign": "suite-prop23_variant",
        "parameters": {"suite": "prop23_variant", "limit": 16},
        "classes_examined": 2227,
        "counterexamples": [],
        "notes": [
            "1-dimensional normal-form sets in [0, 16] with |2A| <= 3.04|A| - 3",
            "empirical max of max(A)/|A|: 16/9 at [0, 1, 2, 3, 4, 5, 6, 8, 16]",
            "violations of max(A) <= 4|A| are findings about an open question, "
            "not errors",
        ],
    }
    assert body(run_suite("dim_bound")) == {
        "schema_version": 1,
        "tool_version": "0.1.0",
        "campaign": "suite-dim_bound",
        "parameters": {"suite": "dim_bound"},
        "classes_examined": 1507,
        "counterexamples": [],
        "notes": ["normal-form sets in [0, 12], sizes 2..6"],
    }


def test_normal_form_subsets_against_brute():
    # the walk yields exactly the brute list; it interleaves sizes, but
    # within each size it keeps lexicographic order, so each size matches
    # its slice of the sorted list; limit 31 puts sums at bit 62, the last
    # a uint64 walk has
    for limit, lo, hi, cap in [(9, 1, 10, None), (10, 2, 5, None), (12, 4, 4, 9),
                               (12, 3, 6, 11), (11, 5, 5, 12), (8, 2, 3, 0),
                               (31, 1, 3, None), (31, 4, 4, 10)]:
        want = sorted(
            (0, *rest)
            for size in range(lo, hi + 1)
            for rest in combinations(range(1, limit + 1), size - 1)
            if gcd(0, *rest) == 1
            and (cap is None or len(naive_sumset((0, *rest))) <= cap)
        )
        got = list(_normal_form_subsets(limit, lo, hi, cap))
        assert sorted(tuple(x) for s, _ in got for x in s.tolist()) == want
        for size in range(lo, hi + 1):
            sets = [tuple(x) for s, _ in got if s.shape[1] == size for x in s.tolist()]
            assert sets == [a for a in want if len(a) == size], (limit, size)
        # the yielded |2A| is the integer sumset's size
        for sets, two in got:
            assert [len(int_sumset(IntSet(tuple(a)))) for a in sets.tolist()] == two.tolist()


def _body(report):
    out = report.to_json()
    out.pop("wall_time")
    return out


def test_campaign_reports_are_pinned():
    # the reports of the Python walks the frontier replaced
    assert _body(run_suite("vosper")) == {
        "schema_version": 1,
        "tool_version": "0.1.0",
        "campaign": "suite-vosper",
        "parameters": {"suite": "vosper"},
        "classes_examined": 2604,
        "counterexamples": [],
        "notes": ["exhaustive over representatives containing {0,1}, p <= 17"],
    }
    assert _body(run_suite("3k4")) == {
        "schema_version": 1,
        "tool_version": "0.1.0",
        "campaign": "suite-3k4",
        "parameters": {"suite": "3k4"},
        "classes_examined": 32603,
        "counterexamples": [],
        "notes": ["normal-form sets in [0, 15]; 6354 met the 3k-4 hypothesis"],
    }
    assert _body(run_suite("prop23_variant", limit=20)) == {
        "schema_version": 1,
        "tool_version": "0.1.0",
        "campaign": "suite-prop23_variant",
        "parameters": {"suite": "prop23_variant", "limit": 20},
        "classes_examined": 15349,
        "counterexamples": [],
        "notes": [
            "1-dimensional normal-form sets in [0, 20] with |2A| <= 3.04|A| - 3",
            "empirical max of max(A)/|A|: 20/11 at [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 20]",
            "violations of max(A) <= 4|A| are findings about an open question, "
            "not errors",
        ],
    }


def test_stacked_ap_test_against_brute_cover(monkeypatch):
    # every set the vosper suite walks for p <= 13, a walk slice a stack,
    # then again in stacks of a few rows, and in stacks of one row with a
    # few multipliers a chunk, so that a row's sweep stops at its first hit
    for entries in (residues.CANONICAL_STEP_ENTRIES, 200, 12):
        monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", entries)
        seen = set()
        for p in primes_upto(13):
            for size, _, rows, _ in search._walk(p, 2, p, p - 2, (0, 1), p):
                want = [brute_min_cover(r, p) == size for r in rows.tolist()]
                assert arithmetic_progressions(rows, p).tolist() == want
                seen.update(want)
        assert seen == {False, True}


@pytest.mark.parametrize("entries", [residues.CANONICAL_STEP_ENTRIES, 200, 12])
def test_covered_within_against_min_ap_cover(monkeypatch, entries):
    # every canonical class for p <= 13, with the length one short of
    # ell(A), at it and one past it; stacks of a few rows and chunks of a
    # few multipliers at the smaller step sizes
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", entries)
    for p in primes_upto(13):
        for k in range(1, p + 1):
            sets = list(enumerate_canonical(p, k))
            rows = np.array([a.elements() for a in sets])
            ell = np.array([_min_ap_cover(a, len(sumset(a))).length for a in sets])
            for shift in (-1, 0, 1):
                assert covered_within(rows, p, ell + shift).tolist() == [shift >= 0] * len(sets)
            assert (arithmetic_progressions(rows, p) == (ell == k)).all()


@pytest.mark.parametrize("entries", [residues.CANONICAL_STEP_ENTRIES, 200, 12])
def test_hunt_walk_slices_join_into_each_size_enumeration(monkeypatch, entries):
    # the hunt's one walk over sizes 3..(p+1)/2, its slices split mid-size
    # and interleaved, holds each size's classes under that size's cap in
    # the order of the size's own enumeration; the last prime's slices
    # interleave sizes: p = 29 at 2^15 entries a slice (the pruned p = 23
    # walk no longer does), p = 23 at 200 and 12
    cases = {}
    for p in primes_upto(29 if entries == residues.CANONICAL_STEP_ENTRIES else 23)[2:]:
        cap_of = lambda k, p=p: min(3 * k - 4, p - 2)
        sizes = range(3, (p + 1) // 2 + 1)
        cases[p] = cap_of, {k: [a.mask for a in enumerate_canonical(p, k, cap_of(k))] for k in sizes}
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", entries)
    for p, (cap_of, want) in cases.items():
        got = {k: [] for k in want}
        order = []
        for k, masks, rows, sums in search._canonical_slices(p, 3, max(want), cap_of):
            sets = [ResidueSet(p, m) for m in masks.tolist()]
            assert rows.tolist() == [a.elements() for a in sets]
            assert sums.tolist() == [sumset(a).mask for a in sets]
            got[k] += masks.tolist()
            order.append(k)
        assert got == want, p
    assert order != sorted(order)  # the last prime's slices interleave sizes


def test_hunt_walks_once_a_prime(monkeypatch):
    # one walk over every size, dropping each non-canonical prefix where it
    # appears: at p = 23 it offers _children 11,318 children and tests 5,746
    # rows for canonicity, where testing the leaves alone offered 195,454
    # and tested 38,696, and one walk a size offered 496,426
    walks, offered, tested = [], [], []
    walk, children, canonical = search._walk, search._children, search.affine_canonical_rows
    monkeypatch.setattr(search, "_walk", lambda *a, **kw: walks.append(a[0]) or walk(*a, **kw))
    monkeypatch.setattr(search, "_children", lambda *a: offered.append(int(a[-1].sum())) or children(*a))
    monkeypatch.setattr(search, "affine_canonical_rows", lambda rows, p: tested.append(len(rows)) or canonical(rows, p))
    hunt_conjecture([2, 3, 5, 7])
    assert walks == [5, 7]
    offered.clear()
    tested.clear()
    hunt_conjecture([23])
    assert walks == [5, 7, 23] and sum(offered) == 11_318 and sum(tested) == 5_746


def _canonical_leaves(p, k, cap):
    """enumerate_canonical's masks as the unpruned walk and a canonicity
    test on its leaves alone find them."""
    out = []
    for _, masks, rows, _ in search._walk(p, k, k, p if cap is None else cap, (0, 1)[:k], p):
        out += masks[affine_canonical_rows(rows, p)].tolist()
    return out


@pytest.mark.parametrize("entries, max_p", [(residues.CANONICAL_STEP_ENTRIES, 23), (200, 17), (12, 13)])
def test_pruned_walk_keeps_every_canonical_leaf(monkeypatch, entries, max_p):
    # dropping non-canonical prefixes loses no canonical set and keeps the
    # lexicographic order, for every k and the caps None, 2k and 3k - 4, in
    # slices of 2^15, 200 and 12 children; the smaller slices stop at a
    # smaller prime, since at 12 entries the canonicity test takes one image
    # a step and p = 19 alone would take about 2 minutes
    cases = [(p, k, cap) for p in primes_upto(max_p) for k in range(1, p + 1) for cap in (None, 2 * k, 3 * k - 4)]
    want = {case: _canonical_leaves(*case) for case in cases}
    monkeypatch.setattr(residues, "CANONICAL_STEP_ENTRIES", entries)
    for case in cases:
        assert [a.mask for a in enumerate_canonical(*case)] == want[case], case


def test_vosper_suite_names_the_first_disagreement(monkeypatch):
    # with every AP test denied, the first set in enumeration order whose
    # |2A| = 2|A| - 1 is {0, 1} in Z_5 (Z_2 and Z_3 hold none under p - 2),
    # and the suite raises what vosper_verdict raises on it
    monkeypatch.setattr(search, "arithmetic_progressions", lambda rows, p: np.zeros(len(rows), bool))
    with pytest.raises(ConsistencyError, match=r"^Vosper equivalence failed on n=5:\{0,1\}$"):
        run_suite("vosper")


class _WalkStarted(Exception):
    pass


@pytest.mark.parametrize(
    "name, param, boundary",
    [("prop23_variant", "limit", 31), ("3k4", "limit", 31), ("dim_bound", "limit", 31),
     ("vosper", "max_p", 61)],
)
def test_suites_refuse_what_one_word_cannot_hold(monkeypatch, name, param, boundary):
    # at the boundary the suite starts its walk; one past it, it raises
    # before any (the vosper suite once looped over 2^(p - 2) masks)
    def started(*args):
        raise _WalkStarted

    monkeypatch.setattr(search, "_grow", started)
    with pytest.raises(_WalkStarted):
        run_suite(name, **{param: boundary})
    with pytest.raises(SearchRangeError):
        run_suite(name, **{param: boundary + 1})


def test_dim_bound_ranks_every_set(monkeypatch):
    # it tests Freiman's lemma, so the lemma must not stand in for a rank;
    # of its sets only {0, 1} has no relation to rank
    ranked = []
    rank = linalg.rank_int_rows

    def counting(rows, ncols):
        ranked.append(len(rows))
        return rank(rows, ncols)

    monkeypatch.setattr(linalg, "rank_int_rows", counting)
    for params in ({}, {"limit": 10, "min_size": 2, "max_size": 8}):
        ranked.clear()
        report = run_suite("dim_bound", **params)
        assert sum(ranked) == report.classes_examined - 1 > 0


def test_walk_memory_stays_near_the_python_walks():
    # tracemalloc peaks: 2.1 MiB for prop23_variant at limit 20 (1.58 MiB
    # when it walked in Python; 5.0 MiB with walk slices of 2^15 children),
    # 0.36 MiB for vosper (0.18 MiB with one verdict a set, 0.61 MiB with
    # the stacked AP sweep in int32)
    import tracemalloc

    peaks = []
    for name, params in (("prop23_variant", {"limit": 20}), ("vosper", {})):
        tracemalloc.start()
        try:
            run_suite(name, **params)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < 3 * 2**20
    assert peaks[1] < 2**19
