"""Representation families of the quantum sl2 algebra and its localization.

Finite families: the four sign-twisted weight families T_l^(omega) for
omega in {1, -1, i, -i}; at a root of unity additionally the cyclic
families T_{ab,lambda}, the one-sided variant T'_{0b,lambda}, and the
i-twisted T~_{ab,lambda}.  Infinite families: T_{a,eps} on a shifted
integer lattice.  ``is_extendable``, ``classify_epsilon`` and
``uqso3.excluded_lambda`` ask one test, ``_shift_hits``, where the
localization map does not exist: q^{2k} mu^2 against -1 over the candidate
pairs of a shift k and a K-eigenvalue mu that can meet it (on the unit
circle found by sorted angles, in O(n + bound) memory).

The finite families and the coproduct ``delta_tensor`` hand their
generators to ``Sl2FiniteRep`` as diagonals; the dense fields are made
only when read.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BadParam
from .qscalar import HalfInt, QContext, c_div, c_mul, q_num, q_pow, q_pow_c
from .repcore import (Band, BandedRep, Diagonals, FamilyDescriptor, Sl2FiniteRep,
                      band_diagonals, is_diagonal, masked)

OMEGAS = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}
EXTEND_SCAN_MARGIN = 8
# a lattice band is scanned on 2 * this + 1 coordinates
LATTICE_SCAN_HALF_WIDTH = 40


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


def weight_label(l: HalfInt, n: np.ndarray) -> HalfInt:
    """The basis labels m = -l + n of the coordinates n = 0..2l (ascending
    labels -l, -l+1, ..., l), as a HalfInt array."""
    return HalfInt(2 * n - l.twice)


def t_omega_l(ctx: QContext, l, omega=1) -> Sl2FiniteRep:
    """Weight family of dimension 2l+1 with K = omega * diag(q^m).

    For omega = +-i the lowering generator is negated.  At a root of unity
    the label range is guarded by 2l < p'.
    """
    l = HalfInt.of(l)
    if l.twice < 0:
        raise BadParam(f"l must be >= 0, got {l}")
    ctx.require_weight_range(l)
    w = _omega_value(ctx, omega)
    f_sign = -1.0 if w.real == 0 else 1.0
    k_diag = lambda n: w * q_pow(ctx, weight_label(l, n))
    bands = {"K": Band(diag=k_diag), "Kinv": Band(diag=lambda n: c_div(1, k_diag(n))),
             "E": Band(up=lambda n: q_num(ctx, l - weight_label(l, n))),
             "F": Band(down=lambda n: f_sign * q_num(ctx, l + weight_label(l, n)))}
    fam = FamilyDescriptor("T_l", {"l": l, "omega": omega_name(w)})
    return _sl2_finite(ctx, bands, l.twice + 1, fam)


def _sl2_finite(ctx: QContext, bands: dict[str, Band], dim: int,
                family: FamilyDescriptor, cyclic: bool = False) -> Sl2FiniteRep:
    """K, Kinv, E, F on n = 0..dim-1 (a cycle if ``cyclic``), handed over as
    their diagonals; the dense fields are made on first read."""
    return Sl2FiniteRep(ctx, family=family, **band_diagonals(bands, 0, dim - 1, cyclic))


def is_extendable(rep: Sl2FiniteRep | BandedRep):
    """Whether q^k K + q^{-k} Kinv is invertible for all integers k.

    A K-eigenvalue mu fails at k iff mu^2 = -q^{-2k}, tested in the
    scale-free form q^{2k} mu^2 = -1 (``_shift_hits``) for |k| <= 2*dim + 8
    (0 <= k < p at a root of unity).  Returns (ok, witness) with
    witness = (k, mu) on failure: the first failing pair in the order
    (|k|, k, eigenvalue index).
    """
    ctx = rep.ctx
    if isinstance(rep, Sl2FiniteRep):
        K = rep.given["K"]
        mus = K.diagonal() if is_diagonal(K) else np.linalg.eigvals(rep.K)
        dim = rep.dim
    else:
        w = LATTICE_SCAN_HALF_WIDTH
        lo = rep.n_min if rep.n_min is not None else -w if rep.n_max is None else rep.n_max - 2 * w
        hi = rep.n_max if rep.n_max is not None else lo + 2 * w
        mus = rep.bands["K"].diag(np.arange(lo, hi + 1))
        dim = len(mus)
    ks, js = _shift_hits(ctx, mus, 2 * dim + EXTEND_SCAN_MARGIN)
    if not ks.size:
        return True, None
    first = np.lexsort((js, ks, np.abs(ks)))[0]
    return False, (int(ks[first]), complex(mus[js[first]]))


def _shift_hits(ctx: QContext, mus: np.ndarray, bound: int):
    """The pairs (k, index of mu) with q^{2k} mu^2 = -1 within threshold,
    as two integer arrays; only the candidate pairs of ``_candidate_pairs``
    (|k| <= bound, or 0 <= k < p at a root of unity) are tested."""
    ks, js = _candidate_pairs(ctx, mus, bound)
    # q^{2k} from the context's table of powers (``QContext.s_powers``)
    t = q_pow(ctx, 2 * ks) * mus[js] * mus[js]
    hit = np.abs(t + 1) <= ctx.threshold(np.abs(t))
    return ks[hit], js[hit]


def _candidate_pairs(ctx: QContext, mus: np.ndarray, bound: int):
    """The pairs (k, index of mu) that can meet q^{2k} mu^2 = -1, as two
    integer arrays.

    At a root of unity: every k < p with every mu.  Otherwise a hit needs
    |t + 1| <= threshold for t = q^{2k} mu^2, and |t + 1| >= ||t| - 1|:

    * off the unit circle, |t| = |q|^{2(k - k*)} with k* = -log|mu| / log|q|,
      so a shift at distance 1 or more from k* leaves |t| at least as far
      from 1 as |q|^{+-2}: the candidates of mu are floor and ceil of k*;
    * on the unit circle (|q|^2 within ``threshold`` of 1), |t| stays near
      1 only for the mu with |mu|^2 near 1 (kept with a margin of 2), and
      t = -1 needs psi_k = 2 k theta to meet phi_mu = pi - 2 arg mu mod
      2 pi, theta = arg q.  With |t + 1|^2 = (1 - |t|)^2 + 4 |t|
      sin^2(delta / 2) for delta the angle of t from pi, a hit has
      |delta| <= (pi / 2) threshold / sqrt|t|, about 1.6 threshold.  The
      candidates of k are the mu whose phi_mu lies within
      margin = 4 threshold + 64 eps (2 bound |theta| + 4 pi) of psi_k on the
      circle: the second term covers the rounding of psi_k (its argument
      is at most 2 bound |theta|) and of phi_mu and the reduction mod
      2 pi.  The phi_mu are sorted once and each window is found by
      ``searchsorted``, so the scan costs O((n + bound) log n) time and
      O(n + bound) memory.
    """
    index = np.arange(len(mus))
    if ctx.is_root_of_unity:
        return np.repeat(np.arange(ctx.p), len(mus)), np.tile(index, ctx.p)
    with np.errstate(divide="ignore"):
        log_mods = np.log(np.abs(mus))     # -inf at mu = 0, which never fails
    log_r = math.log(abs(ctx.q))
    if ctx.close(abs(ctx.q) ** 2, 1):
        return _circle_pairs(ctx, mus, log_mods, log_r, bound)
    kstar = -log_mods / log_r
    ks = np.concatenate([np.floor(kstar), np.ceil(kstar)])
    inside = np.abs(ks) <= bound
    return ks[inside].astype(int), np.concatenate([index, index])[inside]


def _circle_pairs(ctx: QContext, mus: np.ndarray, log_mods: np.ndarray, log_r: float,
                  bound: int):
    """``_candidate_pairs`` on the unit circle: the mu near |mu| = 1 whose
    target angle lies within the margin of 2 k theta."""
    # a hit has |log|t|| <= -log(1 - threshold) <= 2 threshold, and
    # log|t| - log|mu|^2 = 2 k log|q| with |k| <= bound
    reach = 4 * (ctx.threshold() + bound * abs(log_r))
    live = np.flatnonzero(np.abs(2 * log_mods) <= reach)
    theta = cmath.phase(ctx.q)
    turn = 2 * math.pi
    phi = np.mod(math.pi - 2 * np.angle(mus[live]), turn)
    order = np.argsort(phi, kind="stable")
    live, phi = live[order], phi[order]
    ks = np.arange(-bound, bound + 1)
    psi = np.mod(2 * ks * theta, turn)
    margin = 4 * ctx.threshold() + 64 * np.finfo(float).eps * (2 * bound * abs(theta)
                                                               + 2 * turn)
    # windows that cross 0 or 2 pi find the targets a turn away
    around = np.concatenate([phi - turn, phi, phi + turn])
    lo = np.searchsorted(around, psi - margin, "left")
    counts = np.searchsorted(around, psi + margin, "right") - lo
    # positions lo .. lo + count - 1 of each window, concatenated
    starts = np.repeat(lo - np.cumsum(counts) + counts, counts)
    at = starts + np.arange(counts.sum())
    return np.repeat(ks, counts), live[at % len(live)]


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
    ctx.require_root()
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    dim = cyclic_dim(ctx, up_wrap != 0 or down_wrap != 0)
    down_name = "F" if up_name == "E" else "E"
    bands = {
        "K": Band(diag=k_diag),
        # numpy's complex reciprocal, which can differ from Python's in the last bit
        "Kinv": Band(diag=lambda i: 1 / k_diag(i)),
        up_name: Band(up=lambda i: masked(i == dim - 1, up_wrap, 1.0)),
        down_name: Band(down=lambda i: masked(i == 0, down_wrap, step(i))),
    }
    return _sl2_finite(ctx, bands, dim, family, cyclic=True)


def _weight_step(ctx: QContext, lam: complex, i: np.ndarray) -> np.ndarray:
    """[i] (lam^2 q^{1-i} - lam^{-2} q^{i-1}) / (q - 1/q)."""
    return c_div(c_mul(q_num(ctx, i), c_mul(lam ** 2, q_pow(ctx, 1 - i))
                       - c_mul(lam ** -2, q_pow(ctx, i - 1))), ctx.q_minus_qinv)


def t_ab_lambda(ctx: QContext, a, b, lam) -> Sl2FiniteRep:
    """Cyclic family at a root of unity (dimension p' for odd p; see cyclic_dim).

    K|i> = q^{-i} lambda |i>; F steps i -> i+1, wrapping with weight b;
    E steps i -> i-1 with q-number coefficients, wrapping with weight a.
    Parameter points known to be reducible ((a,b) = (0,0), lambda = +-q^n)
    are constructed with a flag, never refused.
    """
    lam, a, b = complex(lam), complex(a), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: c_mul(q_pow(ctx, -i), lam), "F", b,
                      lambda i: a * b + _weight_step(ctx, lam, i), a,
                      FamilyDescriptor("T_ab_lambda", {"a": a, "b": b, "lambda": lam}))
    # wrap-free chains break exactly where a raising coefficient vanishes
    if a == 0 and b == 0 and _chain_breaks(ctx, rep.view("E")):
        rep.flags["reducible"] = True
    return rep


def _chain_breaks(ctx: QContext, stepper: Diagonals) -> bool:
    """Whether a step i -> i-1 (entry (i-1, i)) vanishes against the
    largest entry of the stepper."""
    thr = ctx.threshold(float(np.max(np.abs(stepper.rows))))
    return bool(np.any(np.abs(stepper.diagonal(1)) <= thr))


def t_prime_0b_lambda(ctx: QContext, b, lam) -> Sl2FiniteRep:
    """One-sided cyclic variant: E steps up (wrapping with weight b), F|0> = 0."""
    lam, b = complex(lam), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: c_div(q_pow(ctx, i), lam), "E", b,
                      lambda i: _weight_step(ctx, lam, i), 0,
                      FamilyDescriptor("T_prime", {"b": b, "lambda": lam}))
    if b == 0 and _chain_breaks(ctx, rep.view("F")):
        rep.flags["reducible"] = True
    return rep


def t_tilde_ab_lambda(ctx: QContext, a, b, lam) -> Sl2FiniteRep:
    """Image of the cyclic family under the automorphism K -> iK, E -> -E.

    Equivalent to the plain cyclic family at i*lambda; kept as a separate
    constructor so the equivalence is testable.
    """
    lam, a, b = complex(lam), complex(a), complex(b)
    rep = _cyclic_sl2(ctx, lam, lambda i: c_mul(1j * q_pow(ctx, -i), lam), "F", b,
                      lambda i: a * b - _weight_step(ctx, lam, i), a,
                      FamilyDescriptor("T_tilde", {"a": a, "b": b, "lambda": lam}))
    if a == 0 and b == 0 and _chain_breaks(ctx, rep.view("E")):
        rep.flags["reducible"] = True
    return rep


def classify_epsilon(ctx: QContext, eps: complex) -> str:
    """"special0" if q^{2(eps + j)} = -1 for a shift j in reach (``_shift_hits``
    on mu = q^eps), "special_half" if q^{2(eps - 1/2 + j)} = -1, else
    "generic".  The reach |j| <= w + 2 (2w + 1) + 8 is the one ``is_extendable``
    gives the lattice band of w = ``LATTICE_SCAN_HALF_WIDTH`` coordinates a side."""
    eps = complex(eps)
    w = LATTICE_SCAN_HALF_WIDTH
    mus = np.array([q_pow_c(ctx, eps), q_pow_c(ctx, eps - 0.5)])
    _, js = _shift_hits(ctx, mus, w + 2 * (2 * w + 1) + EXTEND_SCAN_MARGIN)
    return "special0" if 0 in js else "special_half" if 1 in js else "generic"


def t_a_epsilon(ctx: QContext, a, eps) -> BandedRep:
    """Two-sided lattice family on labels m = eps + n, n in Z.

    K|m> = q^m|m>, E|m> = [a-m]|m+1>, F|m> = [a+m]|m-1>.  Flags record
    irreducibility (a != +-eps mod Z) and extendability (eps is not a
    special offset, where K + Kinv is singular: ``classify_epsilon``).
    """
    ctx.require_generic("lattice family is defined for generic q only")
    a, eps = complex(a), complex(eps)
    k_band = Band(diag=lambda n: q_pow_c(ctx, eps + n))
    e_band = Band(up=lambda n: q_num(ctx, a - eps - n))
    f_band = Band(down=lambda n: q_num(ctx, a + eps + n))
    kind = classify_epsilon(ctx, eps)
    flags = {"extendable": kind != "special0", "epsilon_class": kind,
             "irreducible": not (_is_integer_mod(ctx, a - eps) or _is_integer_mod(ctx, a + eps))}
    fam = FamilyDescriptor("T_a_eps", {"a": a, "eps": eps})
    return BandedRep(ctx, "sl2", eps, {"K": k_band, "E": e_band, "F": f_band},
                     fam, flags=flags)


def delta_tensor(ta: Sl2FiniteRep, tb: Sl2FiniteRep) -> Sl2FiniteRep:
    """Coproduct tensor product: K -> K(x)K, E -> E(x)K + Kinv(x)E, likewise F.

    Kronecker index order is left factor major: (iA, iB) -> iA*dimB + iB.
    The products are formed on the factors' views (``Diagonals.kron``),
    entry for entry those of ``np.kron``, and handed over as diagonals.
    """
    ta.ctx.require_same(tb.ctx)
    a, b = ({name: t.view(name) for name in t.GENERATORS} for t in (ta, tb))
    K = a["K"].kron(b["K"])
    Kinv = a["Kinv"].kron(b["Kinv"])
    E = a["E"].kron(b["K"]) + a["Kinv"].kron(b["E"])
    F = a["F"].kron(b["K"]) + a["Kinv"].kron(b["F"])
    fam = FamilyDescriptor("delta_tensor", {"left": ta.family, "right": tb.family})
    return Sl2FiniteRep(ta.ctx, K, Kinv, E, F, fam)


def _is_integer_mod(ctx: QContext, z: complex) -> bool:
    return abs(z - round(z.real)) <= ctx.threshold(abs(z))

