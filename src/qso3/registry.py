"""Family registry: the named constructors visible to the CLI and tests.

Each entry maps a registry name to a builder taking (ctx, **params) plus a
parameter schema used by the command line for parsing.  Parameter kinds:
"halfint", "int", "complex", "sign", "signs", "str"; a sign, on the
command line or passed to a builder, is read by ``qscalar.sign_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import uqsl2, uqso3
from .errors import BadParam


@dataclass(frozen=True)
class FamilyInfo:
    name: str
    flavor: str          # "so3" | "sl2"
    finite: bool         # False for window-evaluated lattice families
    build: Callable
    params: tuple        # ((param_name, kind), ...)


def _build_r_hw(ctx, kind, param):
    if kind in ("l+", "l-"):
        from .qscalar import HalfInt
        if not isinstance(param, HalfInt):
            param = HalfInt.of(param.real if isinstance(param, complex) else param)
    return uqso3.r_highest_lowest(ctx, kind, param)


def _build_q_root(ctx, desc, s1=1, s2=None):
    descriptor = (desc, s1) if s2 is None else (desc, s1, s2)
    return uqso3.q_root_components(ctx, descriptor)


REGISTRY: dict[str, FamilyInfo] = {}


def _register(name, flavor, finite, build, params):
    REGISTRY[name] = FamilyInfo(name, flavor, finite, build, tuple(params))


_register("R1_l", "so3", True, uqso3.r1_l, [("l", "halfint")])
_register("Ri_l", "so3", True, uqso3.r_pm_i_l,
          [("l", "halfint"), ("sign", "sign")])
_register("Rsplit_n", "so3", True, uqso3.r_split_n,
          [("n", "int"), ("signs", "signs")])
_register("R_a_eps", "so3", False, uqso3.r_a_epsilon,
          [("a", "complex"), ("eps", "complex")])
_register("R_a_special", "so3", False, uqso3.r_a_special,
          [("a", "complex"), ("branch", "sign")])
_register("Rsplit_inf", "so3", False, uqso3.r_split_infinite,
          [("a_prime", "complex"), ("family", "sign"), ("sign", "sign")])
_register("R_hw", "so3", False, _build_r_hw,
          [("kind", "str"), ("param", "complex")])
_register("Q_lambda", "so3", False, uqso3.q_lambda,
          [("lam", "complex"), ("sign", "sign")])
_register("Q_comp", "so3", False, uqso3.q_lambda_components,
          [("which", "int"), ("at", "str"), ("sign", "sign")])
_register("R_ab_lambda", "so3", True, uqso3.r_ab_lambda,
          [("a", "complex"), ("b", "complex"), ("lam", "complex")])
_register("R_ab_degen", "so3", True, uqso3.r_ab_degenerate,
          [("a", "complex"), ("b", "complex"), ("variant", "str")])
_register("Qp_lambda", "so3", True, uqso3.q_prime_lambda, [("lam", "complex")])
_register("Q_root_comp", "so3", True, _build_q_root,
          [("desc", "str"), ("s1", "sign"), ("s2", "sign")])

_register("T_l", "sl2", True, uqsl2.t_omega_l,
          [("l", "halfint"), ("omega", "str")])
_register("T_ab_lambda", "sl2", True, uqsl2.t_ab_lambda,
          [("a", "complex"), ("b", "complex"), ("lam", "complex")])
_register("T_prime", "sl2", True, uqsl2.t_prime_0b_lambda,
          [("b", "complex"), ("lam", "complex")])
_register("T_tilde", "sl2", True, uqsl2.t_tilde_ab_lambda,
          [("a", "complex"), ("b", "complex"), ("lam", "complex")])
_register("T_a_eps", "sl2", False, uqsl2.t_a_epsilon,
          [("a", "complex"), ("eps", "complex")])


def build_family(ctx, name: str, **params):
    """Construct a registered family; unknown names raise BadParam."""
    info = REGISTRY.get(name)
    if info is None:
        raise BadParam(f"unknown family {name!r}; known: {sorted(REGISTRY)}")
    return info.build(ctx, **params)
