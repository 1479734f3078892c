"""Spans around calls into the library's public functions, from outside.

A Tracer replaces every binding of each traced function in the addcomb
modules (a function imported by name into another module is a second
binding) with a wrapper that counts calls and times them.  A span's self
time is its duration minus the durations of the traced spans it encloses.
Generator functions get one span per resumption, so the time a consumer
spends between items is not charged to the generator.  bits.* stays
unwrapped: it is called millions of times, and its time shows in its
callers' self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from time import perf_counter

# (module, function) pairs; the metric prefix is "<module>.<function>".
TRACED = [
    ("search", "enumerate_canonical"),
    ("search", "run_suite"),
    ("search", "verify_family"),
    ("residues", "is_affine_canonical"),
    ("residues", "sumset"),
    ("residues", "sumset_mask"),
    ("ntt", "convolve"),
    ("covering", "min_ap_cover"),
    ("covering", "is_arithmetic_progression"),
    ("covering", "conjecture_verdict"),
    ("spectral", "best_half_window"),
    ("spectral", "spectrum"),
    ("spectral", "largest_coefficient"),
    ("freiman", "additive_dimension_value"),
    ("freiman", "required_spanning_rows"),
    ("linalg", "rank_int_rows"),
    ("intsets", "cover_3k4"),
    ("intsets", "sumset"),
    ("engine", "prove_cover"),
]

# Spans split by their first argument (the suite name).
_SPLIT_BY_FIRST_ARG = {"search.run_suite"}
# Spans whose largest argument (largest modulus times size) is kept, so
# that its memory can be measured after the timed passes.
_KEEP_LARGEST = {"spectral.best_half_window"}


class Tracer:
    """Counts and self times per span name, for one traced stretch."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.items: dict[str, int] = {}  # values yielded by generator spans
        self.largest: dict[str, object] = {}  # see _KEEP_LARGEST
        self._stack: list[float] = []  # child time of each open span
        self._restore: list[tuple[object, str, object]] = []

    def _record(self, name: str, started: float) -> None:
        elapsed = perf_counter() - started
        child = self._stack.pop()
        self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, fn, name: str):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        split = name in _SPLIT_BY_FIRST_ARG
        keep = name in _KEEP_LARGEST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = f"{name}.{args[0]}" if split else name
            self.calls[span] = self.calls.get(span, 0) + 1
            if keep:
                size = args[0].modulus * len(args[0])
                kept = self.largest.get(span)
                if kept is None or size > kept.modulus * len(kept):
                    self.largest[span] = args[0]
            self._stack.append(0.0)
            started = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._record(span, started)

        return traced

    def _wrap_generator(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            inner = fn(*args, **kwargs)
            while True:
                self._stack.append(0.0)
                started = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._record(name, started)
                self.items[name] = self.items.get(name, 0) + 1
                yield item

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in sys.modules.items() if n.startswith("addcomb.")]
        for mod_name, attr in TRACED:
            original = getattr(sys.modules[f"addcomb.{mod_name}"], attr)
            wrapper = self._wrap(original, f"{mod_name}.{attr}")
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, value))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, key, value in reversed(self._restore):
            setattr(mod, key, value)
        self._restore.clear()


def peak_bytes(fn, *args) -> int:
    """tracemalloc peak inside one call of fn (numpy reports its buffers to
    tracemalloc).  Run outside timed spans: tracing allocations slows Python
    code that allocates, such as the NTT's bit-reversal loop, several-fold."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
