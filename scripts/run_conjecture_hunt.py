#!/usr/bin/env python3
"""Exhaustive conjecture hunt over a list of primes, writing a JSON report.

Default range matches the standing campaign (p up to 23); pass --primes to
change it and --max-p to lift the budget cap.
"""

import argparse
import sys

from addcomb.search import HUNT_DEFAULT_MAX_P, hunt_conjecture


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--primes", default="5,7,11,13,17,19,23")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--max-p", type=int, default=HUNT_DEFAULT_MAX_P)
    ap.add_argument("--out", default="reports")
    args = ap.parse_args()
    primes = [int(x) for x in args.primes.split(",") if x]
    report = hunt_conjecture(primes, threads=args.threads, max_p=args.max_p)
    path = report.write(args.out)
    print(f"examined {report.classes_examined} classes "
          f"in {report.wall_time:.1f}s -> {path}")
    print(f"counterexamples: {len(report.counterexamples)}")
    return 0 if report.clean else 2


if __name__ == "__main__":
    sys.exit(main())
