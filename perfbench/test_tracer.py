"""The tracer wraps every binding of a traced function and restores them."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from addcomb import covering, engine, residues, search  # noqa: E402
from addcomb.residues import ResidueSet  # noqa: E402

from tracer import Tracer  # noqa: E402


def test_spans_counts_and_restore():
    originals = (residues.sumset, covering.sumset, engine.sumset, search.enumerate_canonical)
    a = ResidueSet.from_elements(31, [0, 1, 2, 3, 5, 8])
    with Tracer() as tracer:
        assert covering.sumset is not originals[1]
        covering.min_ap_cover(a)  # calls sumset through covering's binding
        classes = list(search.enumerate_canonical(11, 4, 8))
    assert (residues.sumset, covering.sumset, engine.sumset, search.enumerate_canonical) == originals
    assert tracer.calls["covering.min_ap_cover"] == 1
    assert tracer.calls["residues.sumset"] == 1
    assert tracer.calls["search.enumerate_canonical"] == 1
    assert tracer.items["search.enumerate_canonical"] == len(classes) > 0
    assert tracer.calls["residues.is_affine_canonical"] >= len(classes)
    assert all(t >= 0 for t in tracer.self_s.values())
