"""Command-line interface.

One subcommand per library operation; human-readable summaries by default,
stable JSON with --json.  Exit codes: 0 success / no findings, 1 usage or
runtime error, 2 a campaign recorded findings (counterexamples, violations).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import SCHEMA_VERSION, __version__
from .covering import (
    conjecture_verdict,
    covering_bound_verdict,
    min_ap_cover,
    vosper_verdict,
)
from .engine import prove_cover
from .errors import AddcombError, LiteralError
from .freiman import (
    additive_dimension,
    is_freiman_isomorphic,
    rectify,
)
from .intsets import IntSet
from .literals import check_modulus, format_int_set, parse_any
from .residues import ResidueSet, sumset
from .search import (
    HUNT_DEFAULT_MAX_P,
    FamilyParams,
    build_family,
    hunt_conjecture,
    run_suite,
    verify_family,
)
from .spectral import energy_identity_residual, largest_coefficient, spectrum

FINDINGS_EXIT = 2


def _load_set_argument(args, parser) -> ResidueSet | IntSet:
    if getattr(args, "file", None):
        try:
            with open(args.file) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise LiteralError(f"cannot read --file: {exc}") from None
        if isinstance(data, list):
            _require_integers(data)
            if len(set(data)) != len(data):
                parser.error("duplicate elements in --file input")
            return IntSet.from_iterable(data)
        if isinstance(data, dict) and "modulus" in data and "elements" in data:
            n, els = data["modulus"], data["elements"]
            if not isinstance(els, list):
                raise LiteralError("--file elements must be a JSON array")
            _require_integers([n, *els])
            n = check_modulus(n)
            if len({e % n for e in els}) != len(els):
                parser.error("duplicate elements mod n in --file input")
            return ResidueSet.from_elements(n, els)
        parser.error("--file must hold a JSON array or {modulus, elements}")
    if args.set is None:
        parser.error("a set literal (or --file) is required")
    return parse_any(args.set)


def _require_integers(values) -> None:
    for v in values:
        if not isinstance(v, int):
            raise LiteralError(f"--file holds a non-integer {v!r}")


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in human_lines:
            print(line)


def _add_set_arguments(sub) -> None:
    sub.add_argument("set", nargs="?", help="set literal, e.g. 'n=11:{0,3,4,5,6}'")
    sub.add_argument("--file", help="JSON file with an array or {modulus, elements}")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


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

    for name, help_text in [
        ("sumset", "compute A + A"),
        ("cover", "minimal covering arithmetic progression"),
        ("dim", "additive dimension of an integer set"),
        ("rectify", "sum-faithful integer image of a residue set"),
        ("spectrum", "Fourier magnitudes and the large-coefficient bound"),
        ("engine", "run the covering pipeline, print the trace"),
    ]:
        sub = subs.add_parser(name, help=help_text)
        _add_set_arguments(sub)

    iso = subs.add_parser("iso", help="Freiman-isomorphism test")
    iso.add_argument("first")
    iso.add_argument("second")
    iso.add_argument("--json", action="store_true")

    verdict = subs.add_parser("verdict", help="covering verdicts")
    verdict.add_argument("kind", choices=["main", "vosper", "conjecture"])
    _add_set_arguments(verdict)

    hunt = subs.add_parser("hunt", help="exhaustive conjecture hunt")
    hunt.add_argument("--primes", required=True, help="comma-separated primes")
    hunt.add_argument("--threads", type=int, default=1)
    hunt.add_argument("--max-p", type=int, default=HUNT_DEFAULT_MAX_P,
                      help="campaign budget cap on p")
    hunt.add_argument("--override-budget", action="store_true",
                      help="allow primes above the default cap (slow)")
    hunt.add_argument("--out", default="reports", help="report directory")
    hunt.add_argument("--json", action="store_true")

    family = subs.add_parser("family", help="extremal family construction / audit")
    family.add_argument("mode", choices=["build", "verify"])
    family.add_argument("name", choices=["example1", "example2"])
    family.add_argument("-k", type=int)
    family.add_argument("-x", type=int)
    family.add_argument("-t", type=int)
    family.add_argument("--max-p", type=int, default=199)
    family.add_argument("--threads", type=int, default=1)
    family.add_argument("--out", default="reports")
    family.add_argument("--json", action="store_true")

    suite = subs.add_parser("suite", help="verification suites")
    suite.add_argument("name",
                       choices=["vosper", "dim_bound", "3k4", "prop23_variant"])
    suite.add_argument("--out", default="reports")
    suite.add_argument("--json", action="store_true")

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args, parser)
    except AddcombError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but 2 means "findings" here
        if exc.code == 0:
            raise
        return 1


def _dispatch(args, parser) -> int:
    cmd = args.command

    if cmd == "sumset":
        a = _load_set_argument(args, parser)
        if isinstance(a, ResidueSet):
            out = sumset(a)
            body = "{" + ",".join(map(str, out.elements())) + "}"
            _emit(args, {"modulus": out.modulus, "elements": out.elements()}, [body])
        else:
            from .intsets import sumset as int_sumset

            out = int_sumset(a)
            _emit(args, {"elements": list(out.elements)}, [format_int_set(out)])
        return 0

    if cmd == "cover":
        a = _load_set_argument(args, parser)
        if not isinstance(a, ResidueSet):
            parser.error("cover expects a residue-set literal")
        res = min_ap_cover(a)
        w = res.witness
        _emit(args, res.to_json(), [
            f"length {res.length}",
            f"bound {res.bound}",
            f"witness start={w.start} step={w.step} length={w.length}",
            f"within_bound {str(res.within_bound).lower()}",
        ])
        return 0

    if cmd == "dim":
        a = _load_set_argument(args, parser)
        if isinstance(a, ResidueSet):
            parser.error("dim expects an integer-set literal")
        res = additive_dimension(a)
        payload = {
            "dim": res.dim,
            "nullspace_basis": [[str(x) for x in v] for v in res.nullspace_basis],
        }
        _emit(args, payload, [f"dim {res.dim}"])
        return 0

    if cmd == "rectify":
        a = _load_set_argument(args, parser)
        if not isinstance(a, ResidueSet):
            parser.error("rectify expects a residue-set literal")
        out = rectify(a)
        _emit(args, {"elements": list(out.elements)}, [format_int_set(out)])
        return 0

    if cmd == "iso":
        first = parse_any(args.first)
        second = parse_any(args.second)
        result = is_freiman_isomorphic(first, second)
        _emit(args, {"isomorphic": result}, [str(result).lower()])
        return 0

    if cmd == "spectrum":
        a = _load_set_argument(args, parser)
        if not isinstance(a, ResidueSet):
            parser.error("spectrum expects a residue-set literal")
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
        lines = [
            f"p {spec.modulus}",
            f"size {len(a)}",
            f"argmax_d {lc.d if lc else '-'}",
            f"max_magnitude {lc.magnitude:.6f}" if lc else "max_magnitude -",
            f"large_coefficient_bound {lc.bound:.6f}" if lc else
            "large_coefficient_bound -",
            f"energy_residual {resid:.3e}",
        ]
        _emit(args, payload, lines)
        return 0

    if cmd == "verdict":
        a = _load_set_argument(args, parser)
        if not isinstance(a, ResidueSet):
            parser.error("verdict expects a residue-set literal")
        if args.kind == "main":
            rep = covering_bound_verdict(a)
            lines = [
                f"doubling_ok {str(rep.doubling_ok).lower()}",
                f"density {rep.density_note}",
                f"length {rep.cover.length}",
                f"bound {rep.cover.bound}",
                f"conclusion_holds {str(rep.conclusion_holds).lower()}",
            ]
        elif args.kind == "vosper":
            rep = vosper_verdict(a)
            lines = [
                f"equality_holds {str(rep.equality_holds).lower()}",
                f"is_ap {str(rep.is_ap).lower()}",
                f"agree {str(rep.agree).lower()}",
            ]
        else:
            rep = conjecture_verdict(a)
            lines = [f"status {rep.status}", f"x {rep.x}"]
        _emit(args, rep.to_json(), lines)
        return 0

    if cmd == "engine":
        a = _load_set_argument(args, parser)
        if not isinstance(a, ResidueSet):
            parser.error("engine expects a residue-set literal")
        trace = prove_cover(a)
        json.dump(trace.to_json(), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
        return 0

    if cmd == "hunt":
        primes = [int(x) for x in args.primes.split(",") if x]
        max_p = args.max_p if not args.override_budget else max(primes)
        if args.override_budget:
            print("warning: budget override, large primes can take long",
                  file=sys.stderr)
        report = hunt_conjecture(primes, threads=args.threads, max_p=max_p)
        path = report.write(args.out)
        _emit(args, report.to_json(), [
            f"classes_examined {report.classes_examined}",
            f"counterexamples {len(report.counterexamples)}",
            f"report {path}",
        ])
        return 0 if report.clean else FINDINGS_EXIT

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
        path = report.write(args.out)
        _emit(args, report.to_json(), [
            f"instances {report.classes_examined}",
            f"violations {len(report.counterexamples)}",
            f"report {path}",
        ])
        return 0 if report.clean else FINDINGS_EXIT

    if cmd == "suite":
        report = run_suite(args.name)
        path = report.write(args.out)
        _emit(args, report.to_json(), [
            f"examined {report.classes_examined}",
            f"findings {len(report.counterexamples)}",
            f"report {path}",
        ])
        return 0 if report.clean else FINDINGS_EXIT

    parser.error(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
