#!/usr/bin/env python3
"""Tabulate K0 of the norm functor over a range of discriminants.

For each fundamental discriminant the table lists the class number, the
norm of the fundamental unit (real fields only), the order and invariant
factors of K0, and whether the localization sequence checks out exactly.
"""

import argparse
import sys

from qknorm.knorm import bass_sequence_report
from qknorm.quadfield import is_fundamental, make_discriminant


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min", type=int, default=-200)
    ap.add_argument("--max", type=int, default=200)
    args = ap.parse_args()

    print(f"{'delta':>8} {'h':>4} {'N(eps)':>6} {'|K0|':>5} "
          f"{'divisors':>12} {'exact':>5}")
    all_exact = True
    for delta in range(args.min, args.max + 1):
        if not is_fundamental(delta):
            continue
        disc = make_discriminant(delta)
        rep = bass_sequence_report(disc)
        ctx, grp = rep.group.ctx, rep.group
        ne = str(ctx.units.eps_norm) if delta > 0 else "-"
        divs = "x".join(str(d) for d in grp.divisors) or "1"
        print(f"{delta:>8} {ctx.cg.h:>4} {ne:>6} {rep.order:>5} "
              f"{divs:>12} {str(rep.exact):>5}")
        all_exact = all_exact and rep.exact
    return 0 if all_exact else 1


if __name__ == "__main__":
    sys.exit(main())
