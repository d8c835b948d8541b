"""The algebra map from the cyclic q-rotation algebra into localized sl2.

Images of the three rotation generators under a representation T:

    I1 -> i (K - Kinv) / (q - q^{-1})
    I2 -> (E - F) (K + Kinv)^{-1}
    I3 -> i q^{-1/2} (K E + Kinv F) (K + Kinv)^{-1}

The inverse exists exactly when the representation extends to the
localization (see ``uqsl2.is_extendable``).  Composition with T yields a
rotation-algebra representation; the q^{-1/2} factor in the third image is
pinned by the cyclic identities, which ``verify_psi`` checks directly.
"""

from __future__ import annotations

import numpy as np

from .errors import NotExtendable
from .qscalar import q_pow
from .repcore import (HALF, Band, BandedRep, Diagonals, FamilyDescriptor, ResidualReport,
                      Sl2FiniteRep, So3FiniteRep, _scaled_defect, relation_operands,
                      so3_i3_band, so3_relation_residuals)
from .uqsl2 import _is_diagonal, is_extendable


def _require_extendable(t: Sl2FiniteRep | BandedRep) -> None:
    ok, witness = is_extendable(t)
    if not ok:
        raise NotExtendable(
            f"K + Kinv has a non-invertible shift (k={witness[0]}, mu={witness[1]:.6g})",
            witness=witness)


def psi_images(t: Sl2FiniteRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense images (I1, I2, I3) of the generators under T composed with the map."""
    _require_extendable(t)
    ctx = t.ctx
    w = ctx.q - 1 / ctx.q
    M = t.K + t.Kinv
    I1 = 1j * (t.K - t.Kinv) / w
    # X M^{-1} computed as a solve against M^T from the right
    I2 = np.linalg.solve(M.T, (t.E - t.F).T).T
    core = 1j * q_pow(ctx, -HALF) * (t.K @ t.E + t.Kinv @ t.F)
    I3 = np.linalg.solve(M.T, core.T).T
    return I1, I2, I3


def compose(t: Sl2FiniteRep | BandedRep) -> So3FiniteRep | BandedRep:
    """Package the images of a representation as a rotation-algebra representation."""
    fam = FamilyDescriptor("psi_compose", {"of": t.family.name, **t.family.params})
    flags = {**t.flags, "provenance": ("psi", t.family)}
    if isinstance(t, Sl2FiniteRep):
        return So3FiniteRep(t.ctx, *psi_images(t), fam, flags)
    return _compose_banded(t, fam, flags)


def _compose_banded(t: BandedRep, fam: FamilyDescriptor, flags: dict) -> BandedRep:
    _require_extendable(t)
    ctx = t.ctx
    w = ctx.q - 1 / ctx.q
    k = t.bands["K"].diag
    e = t.bands["E"].up
    f = t.bands["F"].down
    kappa = lambda n: k(n) + 1 / k(n)

    i1 = Band(diag=lambda n: 1j * (k(n) - 1 / k(n)) / w)
    i2 = Band(up=lambda n: e(n) / kappa(n), down=lambda n: -f(n) / kappa(n))
    bands = {"I1": i1, "I2": i2, "I3": so3_i3_band(ctx, i1, i2)}
    return BandedRep(ctx, "so3", t.offset, bands, fam, n_min=t.n_min,
                     n_max=t.n_max, flags=flags)


def verify_psi(t: Sl2FiniteRep) -> ResidualReport:
    """Residuals of the three cyclic identities on the images of T (the
    first is the I3 consistency of ``so3_relation_residuals``).

    The images are formed on the relation operands, with (K + Kinv)^{-1}
    the reciprocal diagonal where K + Kinv is diagonal (every constructor
    and every coproduct) and ``np.linalg.inv`` otherwise: no solve, and
    O(n) on nonzero diagonals from ``DIAGONAL_CROSSOVER`` up.
    """
    _require_extendable(t)
    ctx = t.ctx
    w = ctx.q - 1 / ctx.q
    M = t.K + t.Kinv
    Minv = Diagonals([0], (1 / np.diag(M))[None]) if _is_diagonal(M) else np.linalg.inv(M)
    K, Kinv, E, F, Minv = relation_operands(t.K, t.Kinv, t.E, t.F, Minv)
    I1 = (1j / w) * (K - Kinv)
    I2 = (E - F) @ Minv
    I3 = (1j * q_pow(ctx, -HALF)) * (K @ E + Kinv @ F) @ Minv
    res = so3_relation_residuals(ctx, I1, I2, I3)
    rt = q_pow(ctx, HALF)
    rti = 1 / rt
    res["cyclic_231"] = _scaled_defect([rt * (I2 @ I3), -rti * (I3 @ I2), -I1])
    res["cyclic_312"] = _scaled_defect([rt * (I3 @ I1), -rti * (I1 @ I3), -I2])
    return ResidualReport(res)
