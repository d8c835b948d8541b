"""Decompose the twisted weight families and tabulate the separating invariants.

Usage:
    python scripts/split_family_report.py [--q 1.3] [--max-twice 9]

For each half-odd l the twisted family splits into two components; the
table lists their dimensions, the matched split-family signs, the first
eigenvalue of the diagonal generator, and the trace of the hopping
generator (the invariants that separate the four sign classes).
"""

import argparse

import numpy as np

from qso3.qscalar import HalfInt, generic_ctx
from qso3.structure import are_equivalent, decompose, fingerprint
from qso3 import uqso3


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--q", type=float, default=1.3)
    ap.add_argument("--max-twice", type=int, default=9)
    args = ap.parse_args()
    ctx = generic_ctx(q=args.q)

    print(f"q = {args.q}")
    print(f"{'parent':>14} {'component':>10} {'match':>8} {'I1[0]':>22} {'tr I2':>22}")
    for tw in range(1, args.max_twice + 1, 2):
        l = HalfInt(tw)
        n = (tw + 1) // 2
        for sign in (1, -1):
            rep = uqso3.r_pm_i_l(ctx, l, sign)
            report = decompose(rep)
            for _, comp in report.components:
                hits = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)
                        if are_equivalent(comp, uqso3.r_split_n(ctx, n, (s1, s2)))]
                fp = fingerprint(comp)
                tag = f"Ri_l[{l},{'+' if sign > 0 else '-'}]"
                match = "".join("+" if s > 0 else "-" for s in hits[0])
                i1 = fp.spectrum[0][0]
                print(f"{tag:>14} {comp.dim:>10} {match:>8} "
                      f"{i1:>22.6f} {fp.traces['trace_i2']:>22.6f}")
    print("\nfour split classes at n = 3, pairwise intertwiner dimensions:")
    from qso3.structure import intertwiners

    reps = {(s1, s2): uqso3.r_split_n(ctx, 3, (s1, s2))
            for s1 in (1, -1) for s2 in (1, -1)}
    keys = list(reps)
    for i, ka in enumerate(keys):
        row = []
        for kb in keys:
            row.append(str(intertwiners(reps[ka], reps[kb])[0]))
        print(f"  {str(ka):>10}: {' '.join(row)}")


if __name__ == "__main__":
    main()
