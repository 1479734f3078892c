"""Covering pipeline for small-doubling sets in Z_p, with a full trace.

The pipeline rectifies the largest half-window capture, branches on the
additive dimension of the captured part, re-dilates (by 2 or 3) to pull the
whole set into one window, and finishes with the integer 3k-4 covering.  The
constants driving the original argument are density statements far out of
reach at this scale, so every gate here uses the measured quantity (actual
capture, actual cover lengths) and the trace records both the measurement
and the classical interval test it replaces.  Any branch whose concrete
precondition fails falls back to the exact sweep, so every exit returns a
cover that _verify has re-checked; ConsistencyError means that a proven
guarantee failed.

freiman.dimension_and_lines decides the captured part's dimension and hands
case 2 its two lines; a found cover certifies dimension 2 with no rank, so
case 2 runs past the rank's budgets.  Case 2(i), excluded by the argument's
density hypotheses but met at this scale, falls back naming its witness.

In exact mode (p <= 2^14) a query can finish with a cover of its own only on
the whole-set branch.  The exact window search maximizes the capture over
every unit dilation (negation maps a half window onto a half window, so the
dilations d <= (p-1)/2 stand for all of them).  Every map that case 1, 2(ii)
or 2(iii) tries has the form x -> s*x + t with s a unit, and its image fits
a half window only if s*A has full capture.  So when the best capture is
below |A|, each of them fails its window-fit test and the query ends in the
fallback.  The captured-part branches, case 2's among them, can finish only
in Fourier mode (p > 2^14), where the window is the top frequency's, not the
best.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from . import bits
from .errors import ConsistencyError, HypothesisNotMetError, PreconditionFailedError, PrimeRequiredError, SearchRangeError
from .covering import CoverResult, _min_ap_cover
from .freiman import dimension_and_lines
from .intsets import ApDescriptor, IntSet, cover_3k4, min_cover_ap, sumset as int_sumset
from .residues import ResidueSet, cross_sum_mask, dilate, half_window_fit, sumset
from .spectral import RectWindow, best_half_window, transform_magnitude

BRANCH_WHOLE = "whole_set_rectifiable"
BRANCH_CASE1 = "case1"
BRANCH_CASE2_II = "case2_ii"
BRANCH_CASE2_III = "case2_iii"
BRANCH_FALLBACK = "fallback"

BRANCHES = {
    BRANCH_WHOLE,
    BRANCH_CASE1,
    BRANCH_CASE2_II,
    BRANCH_CASE2_III,
    BRANCH_FALLBACK,
}


@dataclass(frozen=True)
class AffineResidueMap:
    """x -> scale * x + shift on Z_p, scale a unit; composable and invertible."""

    p: int
    scale: int
    shift: int

    def __call__(self, x: int) -> int:
        return (self.scale * x + self.shift) % self.p

    def apply_set(self, a: ResidueSet) -> ResidueSet:
        return ResidueSet.from_elements(self.p, (self(x) for x in a.members))

    def then(self, scale: int, shift: int = 0) -> "AffineResidueMap":
        return AffineResidueMap(
            self.p, scale * self.scale % self.p, (scale * self.shift + shift) % self.p
        )

    def pull_back_ap(self, start: int, step: int, length: int) -> ApDescriptor:
        """Preimage of the progression {start + i step} under this map."""
        p = self.p
        inv = pow(self.scale, -1, p)
        s = inv * (start - self.shift) % p
        d = inv * step % p
        if d == 0:
            raise ValueError("progression step collapses under pull-back")
        if d > p // 2:  # normalize by reversal
            s = (s + (length - 1) * d) % p
            d = p - d
        return ApDescriptor(s, d, length, ambient=p)


@dataclass
class EngineTrace:
    input: ResidueSet
    window: RectWindow
    branch: str = BRANCH_FALLBACK
    a1_doubling_ok: bool | None = None
    dim_a1: int | None = None
    c: int | None = None
    parts: dict[str, ResidueSet] | None = None  # original coordinates
    dilation_used: int = 1
    result: CoverResult | None = None  # set, and verified, on every exit
    annotations: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        from . import SCHEMA_VERSION

        return {
            "schema_version": SCHEMA_VERSION,
            "input": self.input.literal(),
            "window": self.window.to_json(),
            "branch": self.branch,
            "a1_doubling_ok": self.a1_doubling_ok,
            "dim_a1": self.dim_a1,
            "c": self.c,
            "parts": (
                {k: v.literal() for k, v in self.parts.items()} if self.parts else None
            ),
            "dilation_used": self.dilation_used,
            "result": self.result.to_json(),
            "diagnostic": None,  # schema 1 keeps the key; no exit sets it
            "annotations": self.annotations,
        }


def _rectified_ints(image: ResidueSet, start: int) -> IntSet:
    """Integer representatives of a set lying in [start, start + (p+1)/2)."""
    return IntSet.from_iterable((x - start) % image.modulus for x in image.members)


def _finish_by_rectifying(
    trace: EngineTrace,
    a: ResidueSet,
    to_norm: AffineResidueMap,
    sumset_size: int,
    branch: str,
    dilation: int,
) -> bool:
    """Map A through to_norm and require it to sit in a half window, then
    cover it there (_cover_in_window).  Returns False (leaving the trace
    untouched except annotations) if any measured hypothesis fails."""
    image = to_norm.apply_set(a)
    fit = half_window_fit(image.members, a.modulus, [1])
    trace.annotations[f"{branch}_window_fit"] = fit is not None
    return fit is not None and _cover_in_window(
        trace, a, to_norm, _rectified_ints(image, fit[1]), fit[1], sumset_size, branch, dilation
    )


def _cover_in_window(
    trace: EngineTrace, a: ResidueSet, to_norm: AffineResidueMap, ints: IntSet, v: int,
    sumset_size: int, branch: str, dilation: int,
) -> bool:
    """Run the 3k-4 covering on ints, the image of A under to_norm, which
    lies in [v, v + (p+1)/2), moved to [0, (p+1)/2); then pull the
    progression back.  Returns False (noting it in the annotations) if the
    3k-4 hypothesis fails.  The image is A under an affine bijection, and no
    sum of two of ints reaches p, so their sumset has |2A| = sumset_size
    members."""
    p = a.modulus
    try:
        ap = cover_3k4(ints, sumset_size)
    except HypothesisNotMetError:
        trace.annotations[f"{branch}_3k4_hypothesis"] = False
        return False
    # progression in normalized coordinates, then back through the map
    norm_start = (ap.start + v) % p
    witness = to_norm.pull_back_ap(norm_start, ap.step % p, ap.length)
    trace.branch = branch
    trace.dilation_used = dilation
    trace.result = CoverResult(ap.length, witness, sumset_size - len(a) + 1, True)
    return True


def prove_cover(a: ResidueSet) -> EngineTrace:
    """Run the covering pipeline on a, returning the full trace.

    Every exit carries a verified cover: branches whose concrete hypotheses
    fail at this scale, case 2(i) among them, route to the exact-sweep
    fallback.  ConsistencyError only when a proven guarantee fails.
    """
    if not a.prime_modulus:
        raise PrimeRequiredError("engine requires prime modulus")
    if len(a) < 3:
        raise PreconditionFailedError("engine needs |A| >= 3")
    k = len(a)
    two_a = sumset(a)

    window = best_half_window(a)
    trace = EngineTrace(input=a, window=window)
    capture_bound = (k + transform_magnitude(a, window.d)) / 2
    trace.annotations["window_capture"] = len(window)
    trace.annotations["window_capture_lower_bound"] = capture_bound
    if len(window) + 1e-6 < capture_bound:
        raise ConsistencyError("window capture below the guaranteed bound")
    # informational only: holds under the density hypothesis, never gated on
    trace.annotations["capture_above_0.8175"] = len(window) > 0.8175 * k

    reason = _route(trace, a, len(two_a))
    if reason is not None:
        trace.branch = BRANCH_FALLBACK
        trace.annotations["fallback_reason"] = reason
        trace.result = _min_ap_cover(a, len(two_a), window.d)
    _verify(trace, a, two_a)
    return trace


def _route(trace: EngineTrace, a: ResidueSet, sumset_size: int) -> str | None:
    """Take the branch the window calls for: finish the trace with that
    branch's cover and return None, or return why the query falls back."""
    p, k, window = a.modulus, len(a), trace.window
    base_map = AffineResidueMap(p, window.d, -window.u % p)

    if len(window) == k:
        # base_map sends A onto the capture moved to start at 0: it lies in
        # [0, (p+1)/2) by construction
        trace.annotations[f"{BRANCH_WHOLE}_window_fit"] = True
        ints = IntSet.from_iterable(map(base_map, a.members))
        if _cover_in_window(trace, a, base_map, ints, 0, sumset_size, BRANCH_WHOLE, 1):
            return None
        return "whole-set 3k-4 hypothesis failed"

    a1_ints = _rectified_ints(window.captured, window.u)
    two_a1 = int_sumset(a1_ints)
    k1 = len(a1_ints)
    trace.a1_doubling_ok = 100 * len(two_a1) <= 304 * k1 - 700
    trace.annotations["a1_size"] = k1
    trace.annotations["a1_sumset_size"] = len(two_a1)
    if not trace.a1_doubling_ok:
        return "captured part fails |2A1| <= 3.04|A1| - 7"

    # the gate puts A1 in the domain: |2A1| >= 3|A1| - 3 forces |A1| >= 100
    try:
        trace.dim_a1, tl = dimension_and_lines(a1_ints, len(two_a1))
    except SearchRangeError as e:
        return f"dimension of the captured part: {e}"
    if tl is None:
        ap1 = min_cover_ap(a1_ints)
        trace.annotations["a1_cover_step"] = ap1.step
        trace.annotations["a1_cover_length"] = ap1.length
        # normalize A1's progression to step 1 at 0, then dilate by 2 to
        # bring the far half next to the near half
        g_inv = pow(ap1.step % p, -1, p)
        norm = base_map.then(g_inv, -g_inv * ap1.start % p)
        if _finish_by_rectifying(trace, a, norm.then(2), sumset_size, BRANCH_CASE1, 2):
            return None
        return "case-1 re-dilation did not rectify"

    r = tl.p1.step
    # orientation: first segment is the progression holding more of A1
    n1 = sum(tl.p1.covers([x]) for x in a1_ints.elements)
    first, second = (tl.p1, tl.p2) if n1 * 2 >= k1 else (tl.p2, tl.p1)
    r_inv = pow(r % p, -1, p)
    norm = base_map.then(r_inv, -r_inv * first.start % p)
    c = r_inv * (second.start - first.start) % p
    trace.c = c
    w1, w2 = first.length, second.length
    # segment membership is decided for A1 (the captured part); A1 lies in
    # the two segments, so the remainder R is A minus A1, nonempty below
    # full capture
    a1_orig = dilate(window.captured, pow(window.d, -1, p))
    analysis = two_segment_analysis(
        p, norm.apply_set(a).mask, norm.apply_set(a1_orig).mask, c, w1, w2
    )
    trace.annotations["segments_overlap"] = analysis.segments_overlap
    inv_scale = pow(norm.scale, -1, p)
    inv_map = AffineResidueMap(p, inv_scale, -inv_scale * norm.shift % p)
    trace.parts = {
        "a1_near": inv_map.apply_set(ResidueSet(p, analysis.near)),
        "a1_far": inv_map.apply_set(ResidueSet(p, analysis.far)),
        "remainder": inv_map.apply_set(ResidueSet(p, analysis.remainder)),
    }
    trace.annotations["near_segment_share_ok"] = (
        analysis.near.bit_count() * 2 >= k1
    )
    trace.annotations["segment_widths"] = [w1, w2]
    trace.annotations["case_tests"] = {
        "i": bool(analysis.test_i),
        "ii": bool(analysis.test_ii),
        "iii": bool(analysis.test_iii),
    }
    # classical position tests these intersections encode, for the record
    trace.annotations["c_near_half_p"] = abs(c - p / 2) <= 4.5 * k
    trace.annotations["c_near_third_p"] = abs(c - p / 3) <= 3 * k

    if analysis.test_i:
        # excluded by the argument's density hypotheses, not at this scale
        witness = bits.elements_of(analysis.test_i)[0]
        return f"case 2(i): (far + remainder) meets 2*far at {witness}"
    for fired, dil, branch in (
        (analysis.test_ii, 2, BRANCH_CASE2_II),
        (analysis.test_iii, 3, BRANCH_CASE2_III),
    ):
        if fired:
            if _finish_by_rectifying(trace, a, norm.then(dil), sumset_size, branch, dil):
                return None
            return f"dilation by {dil} did not pull A into one window"
    return "no subcase intersection fired"


@dataclass(frozen=True)
class SegmentAnalysis:
    """Partition of a normalized set by the two covering segments, plus the
    sumset-intersection tests that pick the re-dilation subcase.

    near/far/remainder partition the full set; test_i fires when
    (far + remainder) meets 2*far (a configuration the argument excludes),
    test_ii when it meets near + far (re-dilation by 2 applies), test_iii
    when it meets 2*near (re-dilation by 3 applies)."""

    near: int
    far: int
    remainder: int
    segments_overlap: bool
    test_i: int
    test_ii: int
    test_iii: int


def two_segment_analysis(
    p: int, a_mask: int, a1_mask: int, c: int, w1: int, w2: int
) -> SegmentAnalysis:
    """Pure kernel of the two-progression case: segments [0, w1) and
    [c, c + w2) in normalized coordinates, a1_mask the captured part."""
    seg1 = bits.mask_of(range(w1), p)
    seg2 = bits.mask_of(((c + i) % p for i in range(w2)), p)
    near = a1_mask & seg1
    far = a1_mask & seg2 & ~seg1  # overlapping residues stay in the near part
    remainder = a_mask & ~(near | far)
    far_rest = cross_sum_mask(far, remainder, p)
    return SegmentAnalysis(
        near=near,
        far=far,
        remainder=remainder,
        segments_overlap=bool(seg1 & seg2),
        test_i=far_rest & cross_sum_mask(far, far, p),
        test_ii=far_rest & cross_sum_mask(near, far, p),
        test_iii=far_rest & cross_sum_mask(near, near, p),
    )


def _verify(trace: EngineTrace, a: ResidueSet, two_a: ResidueSet) -> None:
    """Independent re-check of every returned cover (soundness gate)."""
    res = trace.result
    if not res.witness.covers(a.members):
        raise ConsistencyError("engine witness does not cover the input")
    bound = len(two_a) - len(a) + 1
    if res.within_bound and res.length > bound:
        raise ConsistencyError("engine cover claims the bound but exceeds it")
    if not res.within_bound and trace.branch != BRANCH_FALLBACK:
        raise ConsistencyError("non-fallback branches must meet the bound")
