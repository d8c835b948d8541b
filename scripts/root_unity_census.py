"""Census of the root-of-unity representation families.

Usage:
    python scripts/root_unity_census.py [--p 5 7 8]

Builds every registered finite family at each root, verifies the defining
relations, and prints one line per sample: the spin verdict
(``is_irreducible``) with the Burnside algebra dimension and the commutant
dimension as evidence.  Reducible samples are decomposed and their
component dimensions listed.  A sample whose evidence contradicts the
verdict (spin irreducible while the algebra is short of n^2 or the
commutant exceeds 1, or spin reducible while the algebra is full) is
marked DISAGREE, and the script then exits 1.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from qso3.qscalar import root_of_unity_ctx
from qso3.repcore import Sl2FiniteRep, verify_sl2, verify_so3
from qso3.structure import burnside_dim, commutant, decompose, is_irreducible


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=int, nargs="+", default=[5, 7, 8])
    args = ap.parse_args()

    from support import finite_sl2_samples, finite_so3_samples

    disagree = 0
    for p in args.p:
        ctx = root_of_unity_ctx(p, 1)
        print(f"\n=== p = {p} (p' = {ctx.p_prime}) ===")
        samples = finite_so3_samples(ctx) + finite_sl2_samples(ctx)
        for label, rep in samples:
            verify = verify_sl2 if isinstance(rep, Sl2FiniteRep) else verify_so3
            res = verify(rep).max_residual
            irr, _ = is_irreducible(rep)
            bdim, converged = burnside_dim(rep)
            cdim = commutant(rep)[0]
            full = converged and bdim == rep.dim ** 2
            line = (f"{label:<42} dim={rep.dim:<3} residual={res:8.1e} "
                    f"burnside={bdim:<4} commutant={cdim} "
                    f"{'irreducible' if irr else 'reducible'}")
            if irr != full or (irr and cdim > 1):
                disagree += 1
                line += " DISAGREE"
            if not irr:
                report = decompose(rep)
                if report.is_direct_sum:
                    line += f" -> dims {report.component_dims}"
                else:
                    line += f" -> indecomposable, invariant dims " \
                            f"{sorted(b.shape[1] for b in report.lattice)}"
            print(line)
    if disagree:
        print(f"\n{disagree} samples where the oracles disagree")
    return int(bool(disagree))


if __name__ == "__main__":
    sys.exit(main())
