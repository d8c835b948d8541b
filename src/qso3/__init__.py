"""Representations of the cyclically symmetric q-deformed rotation algebra.

Construction, relation verification, invariant-subspace decomposition,
equivalence testing and tensor products for the algebra generated by
I1, I2, I3 with q^{1/2} I1 I2 - q^{-1/2} I2 I1 = I3 (cyclically), for
generic deformation parameters and at roots of unity, including the
families induced from the localized quantum sl2 algebra.
"""

from .qscalar import HalfInt, QContext, generic_ctx, q_num, q_pow, q_pow_c, root_of_unity_ctx
from .repcore import (BandedRep, FamilyDescriptor, ResidualReport,
                      Sl2FiniteRep, So3FiniteRep, array_from_json, array_to_json,
                      matrix_from_json, rep_to_json, truncate, verify_sl2, verify_so3)
from .registry import REGISTRY, build_family

__all__ = [
    "HalfInt", "QContext", "generic_ctx", "root_of_unity_ctx",
    "q_num", "q_pow", "q_pow_c",
    "BandedRep", "FamilyDescriptor", "ResidualReport",
    "Sl2FiniteRep", "So3FiniteRep",
    "array_from_json", "array_to_json", "matrix_from_json", "rep_to_json",
    "truncate", "verify_sl2", "verify_so3",
    "REGISTRY", "build_family",
]
