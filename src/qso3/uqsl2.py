"""Representation families of the quantum sl2 algebra and its localization.

Finite families: the four sign-twisted weight families T_l^(omega) for
omega in {1, -1, i, -i}; at a root of unity additionally the cyclic
families T_{ab,lambda}, the one-sided variant T'_{0b,lambda}, and the
i-twisted T~_{ab,lambda}.  Infinite families: T_{a,eps} on a shifted
integer lattice.  ``is_extendable`` decides whether all operators
q^k K + q^{-k} Kinv are invertible, which is what admits division by
K + Kinv downstream: one array comparison of q^{2k} mu^2 against -1 over
the grid of shifts k and K-eigenvalues mu (off the unit circle, only the
shifts next to -log|mu| / log|q|).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadParam, BadRange
from .qscalar import HalfInt, QContext, q_num, q_pow, q_pow_c
from .repcore import Band, BandedRep, FamilyDescriptor, Sl2FiniteRep, materialize

OMEGAS = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}
EXTEND_SCAN_MARGIN = 8
# solutions eps_r of q^{2 eps} = -1 listed for |r| <= SPECIAL_R_RANGE, and
# the integer shifts |j| <= SPECIAL_J_SCAN away from them that still count
SPECIAL_R_RANGE = 8
SPECIAL_J_SCAN = 64


def _omega_value(ctx: QContext, omega) -> complex:
    if isinstance(omega, str):
        if omega not in OMEGAS:
            raise BadParam(f"omega must be one of 1, -1, i, -i (got {omega!r})")
        return OMEGAS[omega]
    w = complex(omega)
    for cand in OMEGAS.values():
        if abs(w - cand) < ctx.threshold():
            return cand
    raise BadParam(f"omega must be one of 1, -1, i, -i (got {omega!r})")


def omega_name(w: complex) -> str:
    return {v: name for name, v in OMEGAS.items()}[w]


def weight_labels(l: HalfInt) -> list[HalfInt]:
    """Basis labels m = -l, -l+1, ..., l in ascending order."""
    return [HalfInt(t) for t in range(-l.twice, l.twice + 1, 2)]


def t_omega_l(ctx: QContext, l, omega=1) -> Sl2FiniteRep:
    """Weight family of dimension 2l+1 with K = omega * diag(q^m).

    For omega = +-i the lowering generator is negated.  At a root of unity
    the label range is guarded by 2l < p'.
    """
    l = HalfInt.of(l)
    if l.twice < 0:
        raise BadParam(f"l must be >= 0, got {l}")
    if ctx.is_root_of_unity and l.twice >= ctx.p_prime:
        raise BadRange(f"2l = {l.twice} >= p' = {ctx.p_prime}: weight family out of range")
    w = _omega_value(ctx, omega)
    labels = weight_labels(l)
    f_sign = -1.0 if w.real == 0 else 1.0
    k_diag = lambda n: w * q_pow(ctx, labels[n])
    bands = {"K": Band(diag=k_diag), "Kinv": Band(diag=lambda n: 1 / k_diag(n)),
             "E": Band(up=lambda n: q_num(ctx, l - labels[n])),
             "F": Band(down=lambda n: f_sign * q_num(ctx, l + labels[n]))}
    fam = FamilyDescriptor("T_l", {"l": l, "omega": omega_name(w)})
    return _sl2_finite(ctx, bands, len(labels), fam)


def _sl2_finite(ctx: QContext, bands: dict[str, Band], dim: int,
                family: FamilyDescriptor, cyclic: bool = False) -> Sl2FiniteRep:
    """Materialize K, Kinv, E, F on n = 0..dim-1 (a cycle if ``cyclic``)."""
    mats = materialize(bands, 0, dim - 1, cyclic)
    return Sl2FiniteRep(ctx, mats["K"], mats["Kinv"], mats["E"], mats["F"], family)


def is_extendable(rep: Sl2FiniteRep | BandedRep):
    """Whether q^k K + q^{-k} Kinv is invertible for all integers k.

    A K-eigenvalue mu fails at k iff mu^2 = -q^{-2k}.  The scan covers
    |k| <= 2*dim + 8 for generic q (k ordered by |k|, -k first), and k mod p
    at a root of unity.  Off the unit circle only the shifts next to
    -log|mu| / log|q| can fail (``_nearest_shifts``), and only they are
    tested.  Returns (ok, witness) with witness = (k, mu) on
    failure: the first failing k in scan order, and its first eigenvalue.
    """
    ctx = rep.ctx
    if isinstance(rep, Sl2FiniteRep):
        mus = np.diag(rep.K) if _is_diagonal(rep.K) else np.linalg.eigvals(rep.K)
        dim = rep.dim
    else:
        band = rep.bands["K"]
        ns = range(-40, 41) if rep.n_min is None and rep.n_max is None else \
            range(rep.n_min if rep.n_min is not None else rep.n_max - 80,
                  (rep.n_max if rep.n_max is not None else rep.n_min + 80) + 1)
        mus = np.array([band.diag(n) for n in ns])
        dim = len(mus)
    if ctx.is_root_of_unity:
        ks = range(ctx.p)
    else:
        bound = 2 * dim + EXTEND_SCAN_MARGIN
        if ctx.close(abs(ctx.q) ** 2, 1):
            ks = sorted(range(-bound, bound + 1), key=abs)
        else:
            ks = sorted((k for k in _nearest_shifts(ctx, mus) if abs(k) <= bound),
                        key=lambda k: (abs(k), k))
    shift = np.array([q_pow_c(ctx, 2 * k) for k in ks])
    # mu^2 = -q^{-2k}, tested in the scale-free form q^{2k} mu^2 = -1 on the
    # whole (k, mu) grid at once
    t = shift[:, None] * mus * mus
    hits = np.abs(t + 1) <= ctx.threshold(np.abs(t))
    if not hits.any():
        return True, None
    # row-major argmax: the first hit in the order of the scan
    i, j = divmod(int(np.argmax(hits)), len(mus))
    return False, (ks[i], complex(mus[j]))


def _nearest_shifts(ctx: QContext, mus: np.ndarray) -> set[int]:
    """The integers next to k* = -log|mu| / log|q| for each nonzero mu.

    |q^{2k} mu^2| = |q|^{2(k - k*)}, so a shift at distance 1 or more from
    k* puts it at least as far from 1 as |q|^{+-2} is; when |q|^2 is not
    within ``threshold`` of 1, no such shift can meet q^{2k} mu^2 = -1, and
    only these are left to test.  Shifts then stay near k*, where q^{2k}
    does not overflow.
    """
    mods = np.abs(mus)
    kstar = -np.log(mods[mods > 0]) / math.log(abs(ctx.q))
    return {*np.floor(kstar).astype(int).tolist(), *np.ceil(kstar).astype(int).tolist()}


def _is_diagonal(mat: np.ndarray) -> bool:
    return np.count_nonzero(mat - np.diag(np.diag(mat))) == 0


def cyclic_dim(ctx: QContext, wraps: bool) -> int:
    """Dimension on which the cyclic families close.

    Stepping through the basis multiplies the K-eigenvalue by q, so a cycle
    with nonzero wraparound weights closes only after ord(q) = p steps.
    For odd p this is p' = p; for even p the p'-cycle would need
    q^{p'} = -1 to equal 1 and closes only at length p.  Wrap-free chains
    (all wrap weights zero) stay at length p'.
    """
    if not wraps or ctx.p % 2:
        return ctx.p_prime
    return ctx.p


def _cyclic_sl2(ctx: QContext, lam, k_diag, up_name: str, up_wrap, step, down_wrap,
                family: FamilyDescriptor) -> Sl2FiniteRep:
    """Cyclic family on a cycle of length ``cyclic_dim``: generator
    ``up_name`` steps i -> i+1 with weight 1, wrapping with ``up_wrap``; the
    other of E, F steps i -> i-1 with ``step(i)``, wrapping with ``down_wrap``."""
    _require_root(ctx)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    dim = cyclic_dim(ctx, up_wrap != 0 or down_wrap != 0)
    down_name = "F" if up_name == "E" else "E"
    bands = {
        "K": Band(diag=k_diag),
        # numpy's complex reciprocal, which can differ from Python's in the last bit
        "Kinv": Band(diag=lambda i: 1 / np.complex128(k_diag(i))),
        up_name: Band(up=lambda i: up_wrap if i == dim - 1 else 1.0),
        down_name: Band(down=lambda i: down_wrap if i == 0 else step(i)),
    }
    return _sl2_finite(ctx, bands, dim, family, cyclic=True)


def _weight_step(ctx: QContext, lam: complex, i: int) -> complex:
    """[i] (lam^2 q^{1-i} - lam^{-2} q^{i-1}) / (q - 1/q)."""
    q = ctx.q
    return q_num(ctx, i) * (
        lam ** 2 * q_pow(ctx, 1 - i) - lam ** -2 * q_pow(ctx, i - 1)) / (q - 1 / q)


def t_ab_lambda(ctx: QContext, a, b, lam) -> Sl2FiniteRep:
    """Cyclic family at a root of unity (dimension p' for odd p; see cyclic_dim).

    K|i> = q^{-i} lambda |i>; F steps i -> i+1, wrapping with weight b;
    E steps i -> i-1 with q-number coefficients, wrapping with weight a.
    Parameter points known to be reducible ((a,b) = (0,0), lambda = +-q^n)
    are constructed with a flag, never refused.
    """
    lam, a, b = complex(lam), complex(a), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: q_pow(ctx, -i) * lam, "F", b,
                      lambda i: a * b + _weight_step(ctx, lam, i), a,
                      FamilyDescriptor("T_ab_lambda", {"a": a, "b": b, "lambda": lam}))
    # wrap-free chains break exactly where a raising coefficient vanishes
    if a == 0 and b == 0 and _chain_breaks(ctx, rep.E, rep.dim):
        rep.flags["reducible"] = True
    return rep


def _chain_breaks(ctx: QContext, stepper: np.ndarray, dim: int) -> bool:
    thr = ctx.threshold(float(np.max(np.abs(stepper))))
    return any(abs(stepper[i - 1, i]) <= thr for i in range(1, dim))


def t_prime_0b_lambda(ctx: QContext, b, lam) -> Sl2FiniteRep:
    """One-sided cyclic variant: E steps up (wrapping with weight b), F|0> = 0."""
    lam, b = complex(lam), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: q_pow(ctx, i) / lam, "E", b,
                      lambda i: _weight_step(ctx, lam, i), 0,
                      FamilyDescriptor("T_prime", {"b": b, "lambda": lam}))
    if b == 0 and _chain_breaks(ctx, rep.F, rep.dim):
        rep.flags["reducible"] = True
    return rep


def t_tilde_ab_lambda(ctx: QContext, a, b, lam) -> Sl2FiniteRep:
    """Image of the cyclic family under the automorphism K -> iK, E -> -E.

    Equivalent to the plain cyclic family at i*lambda; kept as a separate
    constructor so the equivalence is testable.
    """
    lam, a, b = complex(lam), complex(a), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: 1j * q_pow(ctx, -i) * lam, "F", b,
                      lambda i: a * b - _weight_step(ctx, lam, i), a,
                      FamilyDescriptor("T_tilde", {"a": a, "b": b, "lambda": lam}))
    if a == 0 and b == 0 and _chain_breaks(ctx, rep.E, rep.dim):
        rep.flags["reducible"] = True
    return rep


def special_epsilon_values(ctx: QContext) -> list[complex]:
    """Solutions of q^{2*eps} = -1: eps = i*pi*(2r+1) / (2*tau)."""
    tau = ctx.tau
    return [1j * math.pi * (2 * r + 1) / (2 * tau)
            for r in range(-SPECIAL_R_RANGE, SPECIAL_R_RANGE + 1)]


def classify_epsilon(ctx: QContext, eps: complex) -> str:
    """"special0" if eps is congruent mod Z to a solution of q^{2eps} = -1,
    "special_half" if eps - 1/2 is, else "generic"."""
    eps = complex(eps)
    for base in special_epsilon_values(ctx):
        for shift, tag in ((0.0, "special0"), (0.5, "special_half")):
            d = eps - shift - base
            if abs(d - round(d.real)) <= ctx.threshold(abs(eps), abs(base)) and abs(
                    round(d.real)) <= SPECIAL_J_SCAN:
                return tag
    return "generic"


def t_a_epsilon(ctx: QContext, a, eps) -> BandedRep:
    """Two-sided lattice family on labels m = eps + n, n in Z.

    K|m> = q^m|m>, E|m> = [a-m]|m+1>, F|m> = [a+m]|m-1>.  Flags record
    irreducibility (a != +-eps mod Z) and extendability (eps avoids the
    special offsets where K + Kinv has a zero eigenvalue).
    """
    if ctx.is_root_of_unity:
        raise BadParam("lattice family is defined for generic q only")
    a, eps = complex(a), complex(eps)
    k_band = Band(diag=lambda n: q_pow_c(ctx, eps + n))
    e_band = Band(up=lambda n: q_num(ctx, a - eps - n))
    f_band = Band(down=lambda n: q_num(ctx, a + eps + n))
    kind = classify_epsilon(ctx, eps)
    flags = {
        "extendable": kind == "generic" or kind == "special_half",
        "epsilon_class": kind,
        "irreducible": not (_is_integer_mod(ctx, a - eps) or _is_integer_mod(ctx, a + eps)),
    }
    fam = FamilyDescriptor("T_a_eps", {"a": a, "eps": eps})
    return BandedRep(ctx, "sl2", eps, {"K": k_band, "E": e_band, "F": f_band},
                     fam, flags=flags)


def delta_tensor(ta: Sl2FiniteRep, tb: Sl2FiniteRep) -> Sl2FiniteRep:
    """Coproduct tensor product: K -> K(x)K, E -> E(x)K + Kinv(x)E, likewise F.

    Kronecker index order is left factor major: (iA, iB) -> iA*dimB + iB.
    """
    ta.ctx.require_same(tb.ctx)
    K = np.kron(ta.K, tb.K)
    Kinv = np.kron(ta.Kinv, tb.Kinv)
    E = np.kron(ta.E, tb.K) + np.kron(ta.Kinv, tb.E)
    F = np.kron(ta.F, tb.K) + np.kron(ta.Kinv, tb.F)
    fam = FamilyDescriptor("delta_tensor", {"left": ta.family, "right": tb.family})
    return Sl2FiniteRep(ta.ctx, K, Kinv, E, F, fam)


def _require_root(ctx: QContext):
    if not ctx.is_root_of_unity:
        raise BadParam("this family requires a root-of-unity context")


def _is_integer_mod(ctx: QContext, z: complex) -> bool:
    return abs(z - round(z.real)) <= ctx.threshold(abs(z))

