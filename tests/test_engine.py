import pytest

from addcomb import freiman, linalg
from addcomb.covering import min_ap_cover
from addcomb.engine import (
    BRANCH_CASE1,
    BRANCH_CASE2_II,
    BRANCH_CASE2_III,
    BRANCH_FALLBACK,
    BRANCH_WHOLE,
    BRANCHES,
    AffineResidueMap,
    prove_cover,
)
from addcomb.errors import PreconditionFailedError, PrimeRequiredError
from addcomb.intsets import ApDescriptor
from addcomb.residues import ResidueSet, sumset


def rs(n, els):
    return ResidueSet.from_elements(n, els)


def small_doubling_set(rng, p):
    """Random subset of a random progression: |2A| <= 2L - 1 <= 2.6|A|."""
    k = rng.randrange(6, 26)
    length = min(p - 1, rng.randrange(k, int(1.3 * k) + 1))
    step = rng.randrange(1, p)
    start = rng.randrange(p)
    positions = rng.sample(range(length), min(k, length))
    return rs(p, [(start + i * step) % p for i in positions])


def test_whole_set_branch_interval_with_bump():
    t = prove_cover(rs(101, list(range(21)) + [24]))
    assert t.branch == BRANCH_WHOLE
    assert t.result.length == 25 == t.result.bound
    assert t.result.within_bound
    w = t.result.witness
    assert (w.start, w.step) == (0, 1)


def test_whole_set_branch_is_dilation_equivariant():
    base = list(range(21)) + [24]
    t = prove_cover(rs(101, [7 * x % 101 for x in base]))
    assert t.branch == BRANCH_WHOLE
    assert t.result.length == 25
    assert t.result.witness.step in (7, 101 - 7)


def test_fallback_on_large_doubling():
    t = prove_cover(rs(11, [0, 3, 4, 5, 6]))
    assert t.branch == BRANCH_FALLBACK
    assert t.a1_doubling_ok is False
    assert (t.result.length, t.result.within_bound) == (7, False)


def test_engine_preconditions():
    with pytest.raises(PrimeRequiredError):
        prove_cover(rs(12, [0, 1, 2]))
    with pytest.raises(PreconditionFailedError):
        prove_cover(rs(11, [0, 1]))


def test_engine_tiny_primes():
    t = prove_cover(rs(3, [0, 1, 2]))  # the whole group at the smallest p
    assert t.branch in BRANCHES
    assert t.result.length == 3 and not t.result.within_bound
    t = prove_cover(rs(5, [0, 1, 2]))
    assert t.branch == BRANCH_WHOLE
    assert t.result.length == 3 and t.result.within_bound


def test_trace_records_window_guarantee():
    t = prove_cover(rs(101, list(range(21)) + [24]))
    assert t.annotations["window_capture"] >= t.annotations["window_capture_lower_bound"]


def test_engine_soundness_random(rng):
    primes = [53, 101, 211, 401, 601]
    for _ in range(120):
        p = rng.choice(primes)
        a = small_doubling_set(rng, p)
        if len(a) < 3:
            continue
        t = prove_cover(a)
        assert t.branch in BRANCHES
        assert t.result is not None  # every exit leaves a verified result
        assert t.result.witness.covers(a.elements())
        bound = len(sumset(a)) - len(a) + 1
        assert t.result.within_bound == (t.result.length <= bound)
        # agreement: the pipeline certifies the bound, not minimality
        assert t.result.length >= min_ap_cover(a).length


def test_engine_total_on_arbitrary_inputs(rng):
    # no doubling filter at all: dense and structureless sets must still end
    # in a valid branch with a verified result
    from addcomb.primes import primes_upto

    primes = [p for p in primes_upto(199) if p >= 5]
    for _ in range(80):
        p = rng.choice(primes)
        k = rng.randrange(3, p + 1)
        a = rs(p, rng.sample(range(p), k))
        t = prove_cover(a)
        assert t.branch in BRANCHES
        assert t.result is not None
        assert t.result.witness.covers(a.elements())


def test_two_segment_partition_and_tests():
    # The two-progression stage is exercised directly: reaching it end to end
    # needs a partial capture whose doubling still passes the 3.04 gate, and
    # at this scale window maximality forces such captures to be the whole
    # set (verified exhaustively for two-block structures at p = 2003).
    from addcomb import bits
    from addcomb.engine import two_segment_analysis

    p = 2003
    blocks = list(range(50)) + list(range(600, 650))
    a1 = bits.mask_of(blocks, p)

    # remainder far from every firing zone
    rest = [1003, 1100, 1251]
    res = two_segment_analysis(p, a1 | bits.mask_of(rest, p), a1, 600, 50, 50)
    assert res.near == bits.mask_of(range(50), p)
    assert res.far == bits.mask_of(range(600, 650), p)
    assert res.remainder == bits.mask_of(rest, p)
    assert res.near & res.far == 0 and (res.near | res.far) & res.remainder == 0
    assert not (res.test_i or res.test_ii or res.test_iii)

    # far + remainder folding onto 2*near across the modulus: subcase iii
    rest = [1403, 1450]  # 600 + r wraps into [0, 98]
    res = two_segment_analysis(p, a1 | bits.mask_of(rest, p), a1, 600, 50, 50)
    assert res.test_iii and not res.test_i and not res.test_ii

    # remainder adjacent to the far segment: subcase i (excluded classically)
    rest = [660]
    res = two_segment_analysis(p, a1 | bits.mask_of(rest, p), a1, 600, 50, 50)
    assert res.test_i

    # remainder next to the near segment: near + far is hit: subcase ii
    rest = [55]
    res = two_segment_analysis(p, a1 | bits.mask_of(rest, p), a1, 600, 50, 50)
    assert res.test_ii


def test_fourier_mode_case1():
    # p above the exact-search range: the top Fourier frequency puts the
    # interval in the window, the five far elements stay out, and case 1's
    # re-dilation by 2 brings them next to it
    p = 16411
    a = rs(p, list(range(1000)) + list(range(8206, 8211)))
    t = prove_cover(a)
    assert t.window.mode == "fourier"
    assert len(t.window) == 1000 < len(a)
    assert t.branch == BRANCH_CASE1
    assert t.dim_a1 == 1 and t.dilation_used == 2
    assert t.result.length == 1999 == t.result.bound
    assert t.result.witness.covers(a.elements())


def test_one_transform_per_query(monkeypatch):
    # only Fourier mode's window search takes a transform; both modes read
    # |T_A(d)| off the one-frequency sum
    from addcomb import spectral
    from addcomb.spectral import transform_magnitude

    calls = []
    transform = spectral.spectrum

    def counting(a):
        calls.append(a.modulus)
        return transform(a)

    monkeypatch.setattr(spectral, "spectrum", counting)
    for p, els, expected in ((16411, range(1000), [16411]), (101, [*range(21), 24], [])):
        calls.clear()
        a = rs(p, els)
        t = prove_cover(a)
        assert calls == expected
        bound = t.annotations["window_capture_lower_bound"]
        by_fft = (len(a) + float(transform(a).magnitudes[t.window.d])) / 2
        assert bound == (len(a) + transform_magnitude(a, t.window.d)) / 2
        assert abs(bound - by_fft) <= 1e-12 * len(a)


def test_capture_bound_gate_runs_in_exact_mode(monkeypatch):
    # an impossible |T_A(d)| (above |A|) must trip the guarantee's check
    from addcomb import engine
    from addcomb.errors import ConsistencyError

    monkeypatch.setattr(engine, "transform_magnitude", lambda a, d: 3.0 * len(a))
    with pytest.raises(ConsistencyError, match="guaranteed bound"):
        prove_cover(rs(101, [*range(21), 24]))


@pytest.mark.parametrize("change, message", [
    (lambda ap: ApDescriptor(ap.start + ap.step, ap.step, ap.length - 1), "does not cover"),
    (lambda ap: ApDescriptor(ap.start, ap.step, ap.length + 10), "claims the bound but exceeds it"),
], ids=["misses a member", "past the bound"])
def test_verify_rechecks_the_rectified_cover(monkeypatch, change, message):
    # _verify is the one re-check of a whole-set cover: a progression that
    # misses the least member, or one past the bound (25 + 10 > 28), must trip it
    from addcomb import engine
    from addcomb.errors import ConsistencyError

    cover = engine.cover_3k4
    monkeypatch.setattr(engine, "cover_3k4", lambda ints: change(cover(ints)))
    with pytest.raises(ConsistencyError, match=message):
        prove_cover(rs(101, [*range(21), 24]))


def test_full_group_capture_bound_is_exactly_half():
    # T_{Z_p}(d) = 0 for d != 0: the complement sum gives exactly 0, not
    # the rounding residue of p unit vectors
    for p in (3, 5, 7, 11):
        t = prove_cover(rs(p, range(p)))
        assert t.annotations["window_capture_lower_bound"] == p / 2


def test_exact_mode_finishes_only_on_the_whole_set(rng):
    # In exact mode the window search maximizes capture over every unit
    # dilation, so a capture below |A| means no map s*x + t fits A in a
    # half window: case 1, 2(ii) and 2(iii) all fail their window fit.
    reached_case1 = 0
    for _ in range(800):
        p = rng.choice([101, 127, 199, 251, 401])
        length = rng.randrange(20, p // 4)
        step = rng.randrange(1, p)
        els = {i * step % p for i in range(length)}
        els |= {rng.randrange(p) for _ in range(rng.randrange(1, 3))}
        t = prove_cover(rs(p, els))
        assert t.window.mode == "exact"
        if len(t.window) == len(els):
            continue
        assert t.branch not in (BRANCH_CASE1, BRANCH_CASE2_II, BRANCH_CASE2_III)
        if t.dim_a1 == 1:
            assert t.annotations["case1_window_fit"] is False
            reached_case1 += 1
    assert reached_case1 >= 20


# The window (1, 0) captures A1 = ([0, 102) minus {1}) u {201}, 102 members
# with |2A1| = 303 = 3|A1| - 3: Freiman's lemma leaves the dimension open
# and A1 has no two-lines cover, so it needs the rank.
ONE_DIMENSIONAL_601 = [0, *range(2, 102), 201, 450]


def test_dimension_past_row_budget_falls_back(monkeypatch):
    p = 601
    a = rs(p, ONE_DIMENSIONAL_601)
    monkeypatch.setattr(freiman, "REQUIRED_ROW_ENTRY_BUDGET", 1000)
    t = prove_cover(a)
    assert (t.window.d, t.window.u, len(t.window)) == (1, 0, 102)
    assert t.annotations["a1_sumset_size"] == 303
    assert t.a1_doubling_ok and t.dim_a1 is None
    assert t.branch == BRANCH_FALLBACK
    assert t.annotations["fallback_reason"] == (
        "dimension of the captured part: 4950 required rows of 102 entries "
        "exceed the budget of 1000 row entries"
    )
    assert t.result.witness.covers(a.elements())


def test_dimension_two_trace_is_pinned():
    # the captured part [0, 60) u [200, 250) is 2-dimensional; its two-lines
    # cover gives c = 200 and widths 60, 50, no subcase test fires, and the
    # sweep finishes with [0, 302)
    p = 601
    near, far = list(range(60)), list(range(200, 250))
    a = rs(p, near + far + [301])
    assert prove_cover(a).to_json() == {
        "schema_version": 1,
        "input": a.literal(),
        "window": {
            "d": 1,
            "u": 0,
            "captured": rs(p, near + far).literal(),
            "window_size": 301,
            "mode": "exact",
        },
        "branch": BRANCH_FALLBACK,
        "a1_doubling_ok": True,
        "dim_a1": 2,
        "c": 200,
        "parts": {
            "a1_near": rs(p, near).literal(),
            "a1_far": rs(p, far).literal(),
            "remainder": rs(p, [301]).literal(),
        },
        "dilation_used": 1,
        "result": {
            "length": 302,
            "witness": {"start": 0, "step": 1, "length": 302, "modulus": p},
            "bound": 319,
            "within_bound": True,
        },
        "diagnostic": None,
        "annotations": {
            "window_capture": 110,
            "window_capture_lower_bound": pytest.approx(84.01724329901678),
            "capture_above_0.8175": True,
            "a1_size": 110,
            "a1_sumset_size": 327,
            "segments_overlap": False,
            "near_segment_share_ok": True,
            "segment_widths": [60, 50],
            "case_tests": {"i": False, "ii": False, "iii": False},
            "c_near_half_p": True,
            "c_near_third_p": True,
            "fallback_reason": "no subcase intersection fired",
        },
    }


def test_pair_budget_falls_back(monkeypatch):
    a = rs(601, ONE_DIMENSIONAL_601)
    monkeypatch.setattr(freiman, "PAIR_BUDGET", 1000)
    t = prove_cover(a)
    assert t.branch == BRANCH_FALLBACK and t.dim_a1 is None
    assert t.annotations["fallback_reason"] == (
        "dimension of the captured part: 102 elements make 5253 index pairs, "
        "past the budget of 1000"
    )
    assert t.result.witness.covers(a.elements())


def test_dimension_two_needs_no_pairs_or_rows(monkeypatch):
    # the two-lines cover certifies dim(A1) = 2 by itself: with both budgets
    # far below A1's 110 members the query gives the pinned trace of
    # test_dimension_two_trace_is_pinned, and ranks nothing
    a = rs(601, list(range(60)) + list(range(200, 250)) + [301])
    expected = prove_cover(a).to_json()
    ranks = []
    stack = linalg.echelon_stack
    monkeypatch.setattr(linalg, "echelon_stack", lambda rows: ranks.append(1) or stack(rows))
    monkeypatch.setattr(freiman, "REQUIRED_ROW_ENTRY_BUDGET", 1000)
    monkeypatch.setattr(freiman, "PAIR_BUDGET", 1000)
    assert prove_cover(a).to_json() == expected
    assert expected["dim_a1"] == 2 and not ranks


def test_fourier_mode_case2_ii():
    # at p = 16,411 the top frequency d = 3 captures 4,010 of 4,047 members,
    # a 2-dimensional A1 with 8,042,055 index pairs, past the pair budget;
    # its two lines give c = 10,614, subcase (ii) fires, and the dilation
    # by 2 covers A at exactly the bound
    p = 16411
    a = rs(p, [*range(1601), *range(5797, 8243)])
    t = prove_cover(a)
    assert t.window.mode == "fourier"
    assert (t.window.d, len(t.window), len(a)) == (3, 4010, 4047)
    assert (t.branch, t.dim_a1, t.c, t.dilation_used) == (BRANCH_CASE2_II, 2, 10614, 2)
    assert t.annotations["case_tests"] == {"i": False, "ii": True, "iii": False}
    assert t.result.length == 8018 == t.result.bound
    assert t.result.witness.covers(a.elements())


def test_case2_i_falls_back_with_its_witness():
    # (far + remainder) meets 2*far, the configuration the argument's
    # density hypotheses exclude; the query keeps the sweep's cover and
    # names the witness
    p = 16411
    a = rs(p, [*range(2836), *range(5604, 9044)])
    t = prove_cover(a)
    assert t.window.mode == "fourier" and t.annotations["a1_size"] == 5438
    assert (t.branch, t.dim_a1, t.c) == (BRANCH_FALLBACK, 2, 5504)
    assert t.annotations["case_tests"] == {"i": True, "ii": True, "iii": True}
    assert t.annotations["fallback_reason"] == (
        "case 2(i): (far + remainder) meets 2*far at 13710"
    )
    assert t.result.to_json() == {
        "length": 9044,
        "witness": {"start": 0, "step": 1, "length": 9044, "modulus": p},
        "bound": 10136,
        "within_bound": True,
    }
    assert t.to_json()["diagnostic"] is None


def pinned_corpus():
    """300 seeded small-doubling queries (|2A| <= 2.6|A|) in the three
    styles of the engine benchmark (a subset of a short progression, two
    segments, a progression plus two random residues), 31 <= p <= 2003, and
    two Fourier-mode sets."""
    import random

    from addcomb.primes import primes_upto

    rng = random.Random(20261019)
    primes = [p for p in primes_upto(2003) if p >= 31]
    corpus = []
    styles = ("near_ap", "two_segment", "ap_plus_noise")
    while len(corpus) < 300:
        style = styles[len(corpus) % 3]
        p = rng.choice(primes)
        k = rng.randrange(6, min(40, p // 3 + 1))
        start, step = rng.randrange(p), rng.randrange(1, p)
        if style == "near_ap":
            positions = rng.sample(range(min(p - 1, int(1.3 * k))), k)
        elif style == "two_segment":
            gap = rng.randrange(2 * k, max(p // 2, 2 * k + 1))
            positions = [*range(k // 2), *range(gap, gap + k - k // 2)]
        else:
            positions = rng.sample(range(min(p - 1, int(1.2 * k))), k - 2)
            positions += [(x - start) * pow(step, -1, p) % p for x in rng.sample(range(p), 2)]
        a = rs(p, [(start + i * step) % p for i in positions])
        if 10 * len(sumset(a)) <= 26 * len(a):
            corpus.append(a)
    p = 16411
    corpus.append(rs(p, [*range(1000), *range(8206, 8211)]))  # case 1
    corpus.append(rs(p, [(5 + 37 * i) % p for i in (0, 1, 2, 3, 5, 6, 8, 9, 10, 12, 13)]))
    return corpus


def test_trace_json_is_pinned():
    # every field of every trace, timing-free by schema, must stay byte for
    # byte what it was when the pin was recorded
    import hashlib
    import json

    traces = [prove_cover(a).to_json() for a in pinned_corpus()]
    branches = {t["branch"] for t in traces}
    assert {BRANCH_WHOLE, BRANCH_CASE1, BRANCH_FALLBACK} <= branches
    assert [t["window"]["mode"] for t in traces].count("fourier") == 2
    digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
    assert digest == "f7c46dad3aacd4e5a3fa25b32bb64a90e62ac38f362369deeec2a536578cd5e2"
    # the pin of every byte but the float the one-frequency sum rounds
    # differently from an FFT, recorded when |T_A(d)| came from the FFT
    for t in traces:
        del t["annotations"]["window_capture_lower_bound"]
    digest = hashlib.sha256(json.dumps(traces).encode()).hexdigest()
    assert digest == "f5a7e9805d248f69bae47c5c6be213f7dc09bd49a8aee5fec9eb858dd9f5c3f6"


def test_trace_json_schema():
    t = prove_cover(rs(101, list(range(21)) + [24]))
    payload = t.to_json()
    assert payload["schema_version"] == 1
    assert payload["branch"] == BRANCH_WHOLE
    assert payload["result"]["length"] == 25
    assert payload["window"]["mode"] == "exact"


def test_affine_residue_map_roundtrip(rng):
    p = 101
    for _ in range(20):
        m = AffineResidueMap(p, rng.randrange(1, p), rng.randrange(p))
        ap = m.pull_back_ap(rng.randrange(p), rng.randrange(1, p), rng.randrange(1, 20))
        assert 1 <= ap.step <= p // 2
