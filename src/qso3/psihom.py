"""The algebra map from the cyclic q-rotation algebra into localized sl2.

Images of the three rotation generators under a representation T:

    I1 -> i (K - Kinv) / (q - q^{-1})
    I2 -> (E - F) (K + Kinv)^{-1}
    I3 -> i q^{-1/2} (K E + Kinv F) (K + Kinv)^{-1}

The inverse exists exactly when the representation extends to the
localization (see ``uqsl2.is_extendable``).  Composition with T yields a
rotation-algebra representation that holds the images as diagonals, at
every dimension, and makes them dense only when read; the q^{-1/2} factor
in the third image is pinned by the cyclic identities, which
``verify_psi`` checks on the images ``compose`` returns.  A finite
representation forms its images once and keeps them
(``Sl2FiniteRep.psi_images``), so composing and checking it share them
and the one extendability scan.
"""

from __future__ import annotations

import numpy as np

from .errors import NotExtendable
from .qscalar import c_div, q_pow
from .repcore import (HALF, Band, BandedRep, Diagonals, FamilyDescriptor, ResidualReport,
                      Sl2FiniteRep, So3FiniteRep, _scaled_defect, is_diagonal,
                      relation_operands, so3_relation_residuals)
from .uqsl2 import is_extendable


def _require_extendable(t: Sl2FiniteRep | BandedRep) -> None:
    ok, witness = is_extendable(t)
    if not ok:
        raise NotExtendable(
            f"K + Kinv has a non-invertible shift (k={witness[0]}, mu={witness[1]:.6g})",
            witness=witness)


def _images(ctx, K, Kinv, E, F, right_divide):
    """The images (I1, I2, I3) of the generators, on dense matrices or on
    ``Diagonals``; ``right_divide(X)`` forms X (K + Kinv)^{-1}."""
    I1 = 1j * (K - Kinv) / ctx.q_minus_qinv
    I2 = right_divide(E - F)
    I3 = right_divide(1j * q_pow(ctx, -HALF) * (K @ E + Kinv @ F))
    return I1, I2, I3


def _psi_images(t: Sl2FiniteRep) -> tuple:
    """The images (I1, I2, I3), as ``Diagonals`` where K and Kinv are
    diagonal; ``Sl2FiniteRep.psi_images`` forms them here once and keeps
    them.

    Where K and Kinv are diagonal (every constructor and every coproduct)
    the images are formed on the generators' diagonals views in O(n): K E
    and Kinv F are row scalings, and X (K + Kinv)^{-1} divides column j of
    X by kappa_j = (K + Kinv)_jj as one 1 x 1 LAPACK solve per column
    (``np.linalg.solve`` on a stack of n 1 x 1 systems).  LAPACK's own
    1 x 1 solve gives the bits of the dense solve against the diagonal
    matrix, which a plain division or a reciprocal does not, and the last
    bits of I2 decide splits at roots of unity.  Otherwise two dense
    solves against the transpose of K + Kinv form the images from the
    dense fields.
    """
    _require_extendable(t)
    if not (is_diagonal(t.given["K"]) and is_diagonal(t.given["Kinv"])):
        M = t.K + t.Kinv
        # X M^{-1} computed as a solve against M^T from the right
        return _images(t.ctx, t.K, t.Kinv, t.E, t.F, lambda X: np.linalg.solve(M.T, X.T).T)
    K, Kinv = t.view("K"), t.view("Kinv")
    kappa = K.diagonal() + Kinv.diagonal()

    def right_divide(X: Diagonals) -> Diagonals:
        cols = np.linalg.solve(kappa[:, None, None], X.rows.T[:, None, :])[:, 0, :].T
        return Diagonals(X.offsets, np.ascontiguousarray(cols))

    return _images(t.ctx, K, Kinv, t.view("E"), t.view("F"), right_divide)


def compose(t: Sl2FiniteRep | BandedRep) -> So3FiniteRep | BandedRep:
    """Package the images of a representation as a rotation-algebra
    representation; a finite one takes the images it keeps
    (``Sl2FiniteRep.psi_images``), so it holds diagonals and densifies on
    first read."""
    fam = FamilyDescriptor("psi_compose", {"of": t.family.name, **t.family.params})
    flags = {**t.flags, "provenance": ("psi", t.family)}
    if isinstance(t, Sl2FiniteRep):
        return So3FiniteRep(t.ctx, *t.psi_images, fam, flags)
    return _compose_banded(t, fam, flags)


def _compose_banded(t: BandedRep, fam: FamilyDescriptor, flags: dict) -> BandedRep:
    _require_extendable(t)
    ctx = t.ctx
    w = ctx.q_minus_qinv
    k = t.bands["K"].diag
    e = t.bands["E"].up
    f = t.bands["F"].down

    def kappa(n):
        kn = k(n)
        return kn + c_div(1, kn)

    def i1_diag(n):
        kn = k(n)
        return c_div(1j * (kn - c_div(1, kn)), w)

    bands = {"I1": Band(diag=i1_diag),
             "I2": Band(up=lambda n: c_div(e(n), kappa(n)),
                        down=lambda n: c_div(-f(n), kappa(n)))}
    return BandedRep(ctx, "so3", t.offset, bands, fam, n_min=t.n_min,
                     n_max=t.n_max, flags=flags)


def verify_psi(t: Sl2FiniteRep) -> ResidualReport:
    """Residuals of the three cyclic identities on the images of T (the
    first is the I3 consistency of ``so3_relation_residuals``).

    The images are the ones ``compose`` takes (``Sl2FiniteRep.psi_images``),
    and the relations run on their ``relation_operands``, so the so3
    residuals equal ``verify_so3`` of the composed representation.
    """
    ctx = t.ctx
    I1, I2, I3 = relation_operands(*t.psi_images)
    res = so3_relation_residuals(ctx, I1, I2, I3)
    rt = q_pow(ctx, HALF)
    rti = 1 / rt
    res["cyclic_231"] = _scaled_defect([rt * (I2 @ I3), -rti * (I3 @ I2), -I1])
    res["cyclic_312"] = _scaled_defect([rt * (I3 @ I1), -rti * (I1 @ I3), -I2])
    return ResidualReport(res)
