"""Command-line interface.

One subcommand per library operation; human-readable summaries by default,
stable JSON with --json.  Exit codes: 0 success / no findings, 1 usage or
runtime error, 2 a campaign recorded findings (counterexamples, violations).

Every set command is one SET_COMMANDS entry: its help text, the set kind it
needs (None for either) and a handler from the set to (payload, human
lines); verdict's handler is a table of its kinds.  Sets come from a literal
or from --file, and both end in literals.checked_set.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SCHEMA_VERSION, __version__
from .covering import conjecture_verdict, covering_bound_verdict, min_ap_cover, vosper_verdict
from .engine import prove_cover
from .errors import AddcombError, LiteralError
from .freiman import additive_dimension, is_freiman_isomorphic, rectify
from .intsets import IntSet, sumset as int_sumset
from .literals import format_int_set, parse_any, set_from_json
from .residues import ResidueSet, sumset
from .search import (
    HUNT_DEFAULT_MAX_P, FamilyParams, build_family, hunt_conjecture, run_suite, verify_family,
)
from .spectral import energy_identity_residual, largest_coefficient, spectrum

FINDINGS_EXIT = 2


def _flag(value: bool) -> str:
    return str(value).lower()


def _sumset(a):
    if isinstance(a, ResidueSet):
        out = sumset(a)
        body = "{" + ",".join(map(str, out.elements())) + "}"
        return {"modulus": out.modulus, "elements": out.elements()}, [body]
    out = int_sumset(a)
    return {"elements": list(out.elements)}, [format_int_set(out)]


def _cover(a):
    res = min_ap_cover(a)
    w = res.witness
    return res.to_json(), [
        f"length {res.length}",
        f"bound {res.bound}",
        f"witness start={w.start} step={w.step} length={w.length}",
        f"within_bound {_flag(res.within_bound)}",
    ]


def _dim(a):
    res = additive_dimension(a)
    basis = [[str(x) for x in v] for v in res.nullspace_basis]
    return {"dim": res.dim, "nullspace_basis": basis}, [f"dim {res.dim}"]


def _rectify(a):
    out = rectify(a)
    return {"elements": list(out.elements)}, [format_int_set(out)]


def _spectrum(a):
    spec = spectrum(a)
    lc = largest_coefficient(a) if 0 < len(a) < a.modulus else None
    resid = energy_identity_residual(a)
    payload = {
        "p": spec.modulus,
        "magnitudes": [float(m) for m in spec.magnitudes],
        "argmax_d": lc.d if lc else None,
        "large_coefficient_bound": lc.bound if lc else None,
        "energy_residual": resid,
    }
    return payload, [
        f"p {spec.modulus}",
        f"size {len(a)}",
        f"argmax_d {lc.d if lc else '-'}",
        f"max_magnitude {lc.magnitude:.6f}" if lc else "max_magnitude -",
        f"large_coefficient_bound {lc.bound:.6f}" if lc else "large_coefficient_bound -",
        f"energy_residual {resid:.3e}",
    ]


def _engine(a):
    trace = prove_cover(a).to_json()
    return trace, [json.dumps(trace, indent=1, sort_keys=True)]


def _verdict_main(a):
    rep = covering_bound_verdict(a)
    return rep.to_json(), [
        f"doubling_ok {_flag(rep.doubling_ok)}",
        f"density {rep.density_note}",
        f"length {rep.cover.length}",
        f"bound {rep.cover.bound}",
        f"conclusion_holds {_flag(rep.conclusion_holds)}",
    ]


def _verdict_vosper(a):
    rep = vosper_verdict(a)
    return rep.to_json(), [
        f"equality_holds {_flag(rep.equality_holds)}",
        f"is_ap {_flag(rep.is_ap)}",
        f"agree {_flag(rep.agree)}",
    ]


def _verdict_conjecture(a):
    rep = conjecture_verdict(a)
    return rep.to_json(), [f"status {rep.status}", f"x {rep.x}"]


SET_COMMANDS = {
    "sumset": ("compute A + A", None, _sumset),
    "cover": ("minimal covering arithmetic progression", ResidueSet, _cover),
    "dim": ("additive dimension of an integer set", IntSet, _dim),
    "rectify": ("sum-faithful integer image of a residue set", ResidueSet, _rectify),
    "spectrum": ("Fourier magnitudes and the large-coefficient bound", ResidueSet, _spectrum),
    "engine": ("run the covering pipeline, print the trace", ResidueSet, _engine),
    "verdict": ("covering verdicts", ResidueSet, {
        "main": _verdict_main,
        "vosper": _verdict_vosper,
        "conjecture": _verdict_conjecture,
    }),
}
_KIND_NAMES = {ResidueSet: "a residue-set", IntSet: "an integer-set"}


def _load_set_argument(args) -> ResidueSet | IntSet:
    if args.file:
        try:
            with open(args.file) as fh:
                return set_from_json(json.load(fh))
        except (OSError, ValueError, RecursionError) as exc:
            raise LiteralError(f"cannot read --file: {exc}") from None
        except LiteralError as exc:
            raise LiteralError(f"--file: {exc}") from None
    if args.set is None:
        raise LiteralError("a set literal (or --file) is required")
    return parse_any(args.set)


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        human_lines = [json.dumps(payload, indent=1, sort_keys=True)]
    for line in human_lines:
        print(line)


def _write_report(args, report, examined: str, found: str) -> int:
    path = report.write(args.out)
    _emit(args, report.to_json(), [
        f"{examined} {report.classes_examined}",
        f"{found} {len(report.counterexamples)}",
        f"report {path}",
    ])
    return 0 if report.clean else FINDINGS_EXIT


def _prime_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="addcomb",
        description="sumsets, AP covering and Freiman structure in Z_p",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"addcomb {__version__} (schema {SCHEMA_VERSION})",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, (help_text, _, handler) in SET_COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if isinstance(handler, dict):
            sub.add_argument("kind", choices=list(handler))
        sub.add_argument("set", nargs="?", help="set literal, e.g. 'n=11:{0,3,4,5,6}'")
        sub.add_argument("--file", help="JSON file with an array or {modulus, elements}")
        sub.add_argument("--json", action="store_true", help="machine-readable output")

    iso = subs.add_parser("iso", help="Freiman-isomorphism test")
    iso.add_argument("first")
    iso.add_argument("second")
    iso.add_argument("--json", action="store_true")

    hunt = subs.add_parser("hunt", help="exhaustive conjecture hunt")
    hunt.add_argument("--primes", required=True, type=_prime_list,
                      help="comma-separated primes")
    hunt.add_argument("--threads", type=int, default=1)
    hunt.add_argument("--max-p", type=int, default=HUNT_DEFAULT_MAX_P,
                      help="campaign budget cap on p (default %(default)s: p = 37 takes about 35 s)")
    hunt.add_argument("--override-budget", action="store_true",
                      help="allow primes above the default cap (slow)")

    family = subs.add_parser("family", help="extremal family construction / audit")
    family.add_argument("mode", choices=["build", "verify"])
    family.add_argument("name", choices=["example1", "example2"])
    family.add_argument("-k", type=int)
    family.add_argument("-x", type=int)
    family.add_argument("-t", type=int)
    family.add_argument("--max-p", type=int, default=199)
    family.add_argument("--threads", type=int, default=1)

    suite = subs.add_parser("suite", help="verification suites")
    suite.add_argument("name",
                       choices=["vosper", "dim_bound", "3k4", "prop23_variant"])

    for sub in (hunt, family, suite):
        sub.add_argument("--out", default="reports", help="report directory")
        sub.add_argument("--json", action="store_true")
    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except AddcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but 2 means "findings" here
        if exc.code == 0:
            raise
        return 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in SET_COMMANDS:
        _, kind, handler = SET_COMMANDS[cmd]
        a = _load_set_argument(args)
        if kind is not None and not isinstance(a, kind):
            raise LiteralError(f"{cmd} expects {_KIND_NAMES[kind]} literal")
        if isinstance(handler, dict):
            handler = handler[args.kind]
        _emit(args, *handler(a))
        return 0

    if cmd == "iso":
        result = is_freiman_isomorphic(parse_any(args.first), parse_any(args.second))
        _emit(args, {"isomorphic": result}, [_flag(result)])
        return 0

    if cmd == "hunt":
        max_p = args.max_p
        if args.override_budget:
            max_p = max(args.primes, default=max_p)
            print("warning: budget override, large primes can take long",
                  file=sys.stderr)
        report = hunt_conjecture(args.primes, threads=args.threads, max_p=max_p)
        return _write_report(args, report, "classes_examined", "counterexamples")

    if cmd == "family":
        if args.mode == "build":
            params = FamilyParams(args.name, k=args.k, x=args.x, t=args.t)
            a, expected = build_family(params)
            _emit(args, {"set": a.literal(), "expected": expected}, [
                f"set {a.literal()}",
                f"size {expected['size']}",
                f"sumset_size {expected['sumset_size']}",
                f"bound {expected['bound']}",
            ])
            return 0
        report = verify_family(args.name, args.max_p, threads=args.threads)
        return _write_report(args, report, "instances", "violations")

    return _write_report(args, run_suite(args.name), "examined", "findings")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
