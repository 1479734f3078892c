"""Text literals for sets.

Residue sets: ``n=<modulus>:{e1,e2,...}``.  Integer sets: ``{e1,e2,...}``.
Whitespace is ignored everywhere.  Elements of a residue literal are reduced
mod n; duplicates after reduction are an error, never silently dropped.  The
modulus is capped at residues.MAX_MODULUS = 2^22: a literal cannot ask for
a bitmask or a transform larger than the library can hold.
"""

import re

from .errors import LiteralError
from .intsets import IntSet
from .residues import MAX_MODULUS, ResidueSet

_RESIDUE_RE = re.compile(r"^n=(\d+):\{(.*)\}$")
_INT_RE = re.compile(r"^\{(.*)\}$")


def _parse_body(body: str) -> list[int]:
    if body == "":
        return []
    out = []
    for piece in body.split(","):
        if not re.fullmatch(r"-?\d+", piece):
            raise LiteralError(f"bad element {piece!r}")
        try:
            out.append(int(piece))
        except ValueError:  # past the interpreter's int-conversion digit cap
            raise LiteralError(
                f"element of {len(piece)} characters is too long"
            ) from None
    return out


def check_modulus(n: int) -> int:
    if n < 2:
        raise LiteralError(f"modulus must be at least 2, got {n}")
    if n > MAX_MODULUS:
        raise LiteralError(f"modulus exceeds the cap {MAX_MODULUS}")
    return n


def parse_residue_set(text: str) -> ResidueSet:
    compact = re.sub(r"\s+", "", text)
    m = _RESIDUE_RE.match(compact)
    if not m:
        raise LiteralError(f"not a residue-set literal: {text!r}")
    digits = m.group(1).lstrip("0") or "0"
    n = check_modulus(int(digits) if len(digits) < 10 else MAX_MODULUS + 1)
    seen = set()
    for e in _parse_body(m.group(2)):
        r = e % n
        if r in seen:
            raise LiteralError(f"duplicate element {e} (= {r} mod {n})")
        seen.add(r)
    return ResidueSet.from_elements(n, seen)


def parse_int_set(text: str) -> IntSet:
    compact = re.sub(r"\s+", "", text)
    m = _INT_RE.match(compact)
    if not m:
        raise LiteralError(f"not an integer-set literal: {text!r}")
    els = _parse_body(m.group(1))
    if len(set(els)) != len(els):
        raise LiteralError("duplicate element in integer-set literal")
    if not els:
        raise LiteralError("integer-set literal must be nonempty")
    return IntSet(tuple(sorted(els)))


def parse_any(text: str):
    """Residue literal if it carries a modulus prefix, else integer literal."""
    if re.sub(r"\s+", "", text).startswith("n="):
        return parse_residue_set(text)
    return parse_int_set(text)


def format_int_set(a: IntSet) -> str:
    return "{" + ",".join(str(e) for e in a.elements) + "}"
