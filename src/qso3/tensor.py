"""Tensor products of rotation-algebra representations and their decomposition.

Products are defined only through the sl2 factor data: the coproduct tensor
of the factors is pushed through the localization map.  There is no
coproduct on the rotation algebra itself, so products of the split
component families are not constructible.  Decomposition tables are
computed with the structure oracles and matched against the registered
generic-q families.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import BadRange
from .psihom import compose
from .qscalar import HalfInt
from .repcore import Sl2FiniteRep, So3FiniteRep
from .structure import are_equivalent, decompose, fingerprint
from .uqsl2 import OMEGAS, delta_tensor, omega_name, t_omega_l
from .uqso3 import r1_l, r_split_n


def tensor_so3(ta: Sl2FiniteRep, tb: Sl2FiniteRep) -> So3FiniteRep:
    """Rotation-algebra tensor product via the coproduct of the factors.

    Raises NotExtendable when the combined weight pattern makes the
    localization inverse singular (e.g. an i-twisted factor whose label
    parities cancel against the partner's).
    """
    return compose(delta_tensor(ta, tb))


@dataclass
class CGReport:
    """Multiplicity table of a decomposition, plus unmatched leftovers."""

    multiplicities: dict = field(default_factory=dict)
    unmatched_dims: list = field(default_factory=list)
    component_dims: list = field(default_factory=list)

    def total_dim(self) -> int:
        return sum(self.component_dims) + sum(self.unmatched_dims)

    def to_json(self) -> dict:
        return {"multiplicities": dict(self.multiplicities),
                "unmatched_dims": list(self.unmatched_dims)}


@functools.cache
def _candidate(build, ctx, *args):
    """A registered family, built once per process for each (constructor,
    context, arguments); only candidate families are kept here."""
    return build(ctx, *args)


def _so3_candidates(ctx, dim: int):
    """Registered generic-q families of the given dimension, built as they
    are asked for, up to the first one out of range."""
    l = HalfInt(dim - 1)  # 2l + 1 = dim
    try:
        yield f"R1_l[l={l}]", _candidate(r1_l, ctx, l)
        for s1 in (1, -1):
            for s2 in (1, -1):
                yield (f"Rsplit_n[n={dim},({_sgn(s1)},{_sgn(s2)})]",
                       _candidate(r_split_n, ctx, dim, (s1, s2)))
    except BadRange:
        return


def _sl2_candidates(ctx, dim: int):
    """The four sign-twisted weight families of the given dimension, built
    as they are asked for; none when the dimension is out of range."""
    l = HalfInt(dim - 1)
    try:
        for name, omega in OMEGAS.items():
            yield f"T_l[l={l},omega={name}]", _candidate(t_omega_l, ctx, l, omega)
    except BadRange:
        return


def _sgn(s: int) -> str:
    return "+" if s > 0 else "-"


def _cg_table(prod, candidates) -> CGReport:
    """Decompose ``prod`` and match each component against
    ``candidates(ctx, dim)``, an iterable of (name, representation) pairs:
    the first candidate with the same fingerprint that is equivalent names
    it; otherwise it is unmatched.  A product that is not a direct sum is
    matched whole, so ``total_dim()`` is always the product's dimension.
    Candidates come from the per-process cache of ``_candidate``, and their
    fingerprints read the candidate's weight frame."""
    report = decompose(prod)
    comps = [c for _, c in report.components] if report.is_direct_sum else [prod]
    out = CGReport()
    for comp in comps:
        fp = fingerprint(comp)
        matched = next((name for name, cand in candidates(prod.ctx, comp.dim)
                        if fp.matches(fingerprint(cand)) and are_equivalent(comp, cand)),
                       None)
        if matched is None:
            out.unmatched_dims.append(comp.dim)
        else:
            out.component_dims.append(comp.dim)
            out.multiplicities[matched] = out.multiplicities.get(matched, 0) + 1
    return out


def cg_decompose(prod: So3FiniteRep) -> CGReport:
    """Decompose a finite rotation-algebra representation and name the
    parts after the registered generic-q families."""
    return _cg_table(prod, _so3_candidates)


def sl2_cg_check(ta: Sl2FiniteRep, tb: Sl2FiniteRep) -> CGReport:
    """Decompose the coproduct tensor on the sl2 side and name the parts
    after the four sign-twisted weight families; for the twisted families
    the product of the factor twists is the twist of every component."""
    return _cg_table(delta_tensor(ta, tb), _sl2_candidates)


def _cg_range(omega_a: complex, omega_b: complex, la, lb):
    """The product twist and the values 2l for l = |la - lb|, ..., la + lb."""
    la, lb = HalfInt.of(la), HalfInt.of(lb)
    return (complex(omega_a) * complex(omega_b),
            range(abs(la.twice - lb.twice), la.twice + lb.twice + 1, 2))


def expected_sl2_tensor(omega_a: complex, omega_b: complex, la, lb) -> dict:
    """Clebsch-Gordan prediction for the twisted weight families: one copy
    of the (omega_a * omega_b)-twisted family for each l from |la - lb| to
    la + lb."""
    omega, twices = _cg_range(omega_a, omega_b, la, lb)
    return {f"T_l[l={HalfInt(tw)},omega={omega_name(omega)}]": 1 for tw in twices}


def expected_so3_tensor(omega_a: complex, omega_b: complex, la, lb) -> dict:
    """Rotation-algebra prediction: weight families recombine index-wise;
    products with a single i-twisted factor yield the reducible twisted
    families, which split into sign components of equal halves."""
    omega, twices = _cg_range(omega_a, omega_b, la, lb)
    out = {}
    for tw in twices:
        l = HalfInt(tw)
        if omega.imag == 0:
            out[f"R1_l[l={l}]"] = 1
        else:
            s1 = 1 if omega == 1j else -1
            n = (tw + 1) // 2  # l half-odd in this branch
            out[f"Rsplit_n[n={n},({_sgn(s1)},+)]"] = 1
            out[f"Rsplit_n[n={n},({_sgn(s1)},-)]"] = 1
    return out
