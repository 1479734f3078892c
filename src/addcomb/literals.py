"""Text literals for sets.

Residue sets: ``n=<modulus>:{e1,e2,...}``.  Integer sets: ``{e1,e2,...}``.
Whitespace is ignored everywhere.  Reading a set takes two steps: syntax
(a literal, or decoded JSON) gives an element list and an optional modulus,
then checked_set applies the one set of rules.  Elements of a residue set are
reduced mod n; duplicates after reduction are an error, never silently
dropped.  The modulus is capped at residues.MAX_MODULUS = 2^22: input cannot
ask for a bitmask or a transform larger than the library can hold.
"""

import re

from .errors import LiteralError
from .intsets import IntSet
from .residues import MAX_MODULUS, ResidueSet

_RESIDUE_RE = re.compile(r"^n=(\d+):\{(.*)\}$")
_INT_RE = re.compile(r"^\{(.*)\}$")


def _parse_body(body: str):
    # lazy, so that checked_set refuses a bad modulus before any element
    for piece in body.split(",") if body else ():
        if not re.fullmatch(r"-?\d+", piece):
            raise LiteralError(f"bad element {piece!r}")
        try:
            value = int(piece)
        except ValueError:  # past the interpreter's int-conversion digit cap
            raise LiteralError(
                f"element of {len(piece)} characters is too long"
            ) from None
        yield value


def checked_set(elements, modulus: int | None = None) -> ResidueSet | IntSet:
    """The validator every set input ends in: a residue set mod `modulus`
    when one is given (2 <= modulus <= MAX_MODULUS), else a nonempty integer
    set.  A duplicate element, after reduction, is an error."""
    if modulus is not None:
        if modulus < 2:
            raise LiteralError(f"modulus must be at least 2, got {modulus}")
        if modulus > MAX_MODULUS:
            raise LiteralError(f"modulus exceeds the cap {MAX_MODULUS}")
    elements = list(elements)
    if modulus is None:
        if len(set(elements)) != len(elements):
            raise LiteralError("duplicate element in integer-set literal")
        if not elements:
            raise LiteralError("integer-set literal must be nonempty")
        return IntSet(tuple(sorted(elements)))
    seen = set()
    for e in elements:
        r = e % modulus
        if r in seen:
            raise LiteralError(f"duplicate element {e} (= {r} mod {modulus})")
        seen.add(r)
    return ResidueSet.from_elements(modulus, seen)


def parse_residue_set(text: str) -> ResidueSet:
    m = _RESIDUE_RE.match(re.sub(r"\s+", "", text))
    if not m:
        raise LiteralError(f"not a residue-set literal: {text!r}")
    digits = m.group(1).lstrip("0") or "0"
    n = int(digits) if len(digits) < 10 else MAX_MODULUS + 1
    return checked_set(_parse_body(m.group(2)), n)


def parse_int_set(text: str) -> IntSet:
    m = _INT_RE.match(re.sub(r"\s+", "", text))
    if not m:
        raise LiteralError(f"not an integer-set literal: {text!r}")
    return checked_set(_parse_body(m.group(1)))


def parse_any(text: str):
    """Residue literal if it carries a modulus prefix, else integer literal."""
    if re.sub(r"\s+", "", text).startswith("n="):
        return parse_residue_set(text)
    return parse_int_set(text)


def set_from_json(data):
    """A set from decoded JSON: an array of integers (an integer set) or
    {"modulus": n, "elements": [...]} (a residue set).  Booleans are not
    integers here."""
    modulus = None
    if isinstance(data, dict) and {"modulus", "elements"} <= data.keys():
        modulus, data = data["modulus"], data["elements"]
    if not isinstance(data, list):
        raise LiteralError("expected a JSON array or {modulus, elements}")
    for v in data if modulus is None else [modulus, *data]:
        if type(v) is not int:
            raise LiteralError(f"non-integer {v!r}")
    return checked_set(data, modulus)


def format_int_set(a: IntSet) -> str:
    return "{" + ",".join(str(e) for e in a.elements) + "}"
