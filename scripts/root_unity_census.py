"""Census of the root-of-unity representation families.

Usage:
    python scripts/root_unity_census.py [--p 5 7 8]

Builds every registered finite family at each root, verifies the defining
relations, runs both irreducibility oracles, and prints one line per
sample.  Reducible samples are decomposed and their component dimensions
listed.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from qso3.qscalar import root_of_unity_ctx
from qso3.repcore import Sl2FiniteRep, verify_sl2, verify_so3
from qso3.structure import commutant, decompose, is_irreducible_burnside


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, nargs="+", default=[5, 7, 8])
    args = ap.parse_args()

    from support import finite_sl2_samples, finite_so3_samples

    for p in args.p:
        ctx = root_of_unity_ctx(p, 1)
        print(f"\n=== p = {p} (p' = {ctx.p_prime}) ===")
        samples = finite_so3_samples(ctx) + finite_sl2_samples(ctx)
        for label, rep in samples:
            verify = verify_sl2 if isinstance(rep, Sl2FiniteRep) else verify_so3
            res = verify(rep).max_residual
            irr, bdim = is_irreducible_burnside(rep)
            cdim = commutant(rep)[0]
            line = (f"{label:<42} dim={rep.dim:<3} residual={res:8.1e} "
                    f"burnside={bdim:<4} commutant={cdim} "
                    f"{'irreducible' if irr else 'reducible'}")
            if not irr:
                report = decompose(rep)
                if report.is_direct_sum:
                    line += f" -> dims {report.component_dims}"
                else:
                    line += f" -> indecomposable, invariant dims " \
                            f"{sorted(b.shape[1] for b in report.lattice)}"
            print(line)


if __name__ == "__main__":
    main()
