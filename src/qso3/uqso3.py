"""Explicit constructors for the rotation-algebra representation families.

Finite generic-q families: the weight family R1_l and the twisted pair
Ri_l with its irreducible split pieces Rsplit_n.  Infinite generic-q
families: lattice families R_a_eps and their special-offset variants,
one-sided highest/lowest weight families, and the constant-coefficient
Q_lambda family with its eight one-sided components.  Root-of-unity
families: the cyclic R_ab_lambda with its degenerate-parameter splits,
the cyclic constant-coefficient family Qp_lambda, and its component
families, plus the central polynomial P(I).

Every family is a band description in the ``repcore`` model: a diagonal
closure for I1 and up/diag/down closures for I2 of the domain coordinates
n, each evaluated on a whole integer array of them at once.  A point case
(n == 0, the last coordinate of a cycle) is a masked assignment
(``repcore.masked``), and every complex product and quotient goes through
``qscalar.c_mul``/``c_div``, so the coefficients keep the bits of the same
formulas evaluated by Python one coordinate at a time.  Finite families
live on an interval n = 0..dim-1 or, for the cyclic root of unity
families, on a cycle of that length; the one band evaluator
``repcore.band_diagonals`` builds them as diagonals, which the
representation takes.  Infinite families stay ``BandedRep`` closures on a
half-line or the line, whose windows the same evaluator builds as
diagonals.  The root-of-unity component families
differ only in dimension, first label and which ends carry a sqrt(2) link
or a diagonal entry, so they are a table (``_Q_ROOT_SHAPES``).

No family carries I3: one function, ``repcore.so3_i3_diagonals``, forms it
through the defining q-commutator on the diagonals of a finite family and
of each window of an infinite one, which keeps every constructor
internally consistent; unit tests check the entries against closed forms.

Sign conventions: the twisted families here are the exact images of the
twisted sl2 families under the localization map (entrywise equal to
``psihom.compose``).  The variant with both off-diagonal generators
negated is an equivalent representation (conjugation by an alternating
sign diagonal) and is not constructed separately.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (BadDescriptor, BadParam, BadParity, BadRange,
                     ParityMismatch, SingularBasisChange, SpecialEpsilon)
from .qscalar import HalfInt, QContext, c_div, c_mul, q_num, q_pow, q_pow_c, sign_of
from .repcore import (HALF, Band, BandedRep, FamilyDescriptor, So3FiniteRep,
                      band_diagonals, masked, so3_i3_diagonals, verify_so3)
from .structure import invariance_defect
from .uqsl2 import (_is_integer_mod, _shift_hits, _weight_step, classify_epsilon, cyclic_dim,
                    weight_label)

SQRT2 = math.sqrt(2.0)


def _so3_finite(ctx: QContext, dim: int, i1_diag, i2: Band,
                family: FamilyDescriptor, flags: dict | None = None,
                cyclic: bool = False) -> So3FiniteRep:
    """Diagonal I1 and banded I2 on n = 0..dim-1 (a cycle if ``cyclic``),
    and I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1 formed on them
    (``repcore.so3_i3_diagonals``), all as diagonals."""
    d1, d2 = band_diagonals({"I1": Band(diag=i1_diag), "I2": i2}, 0, dim - 1, cyclic).values()
    return So3FiniteRep(ctx, d1, d2, so3_i3_diagonals(ctx, d1, d2), family, flags or {})


# ---------------------------------------------------------------------------
# finite families, generic q (also valid below the root-of-unity range guard)

def r1_l(ctx: QContext, l) -> So3FiniteRep:
    """Weight family of dimension 2l+1: I1|m> = i[m]|m>, tridiagonal I2."""
    l = HalfInt.of(l)
    if l.twice < 0:
        raise BadParam(f"l must be >= 0, got {l}")
    ctx.require_weight_range(l)
    m = lambda n: weight_label(l, n)
    den = lambda n: q_pow(ctx, m(n)) + q_pow(ctx, -m(n))
    i2 = Band(up=lambda n: c_div(q_num(ctx, l - m(n)), den(n)),
              down=lambda n: c_div(-q_num(ctx, l + m(n)), den(n)))
    return _so3_finite(ctx, l.twice + 1, lambda n: 1j * q_num(ctx, m(n)), i2,
                       FamilyDescriptor("R1_l", {"l": l}))


def r_pm_i_l(ctx: QContext, l, sign: int = 1) -> So3FiniteRep:
    """Twisted family for half-odd l; reducible with two split components.

    Entrywise equal to the localization-map image of the i-twisted (sign=+1)
    or (-i)-twisted (sign=-1) weight family.
    """
    l = HalfInt.of(l)
    if l.is_integer():
        raise BadParity(f"l = {l} must be half-odd for the twisted family")
    if l.twice < 0:
        raise BadParam(f"l must be > 0, got {l}")
    ctx.require_weight_range(l)
    sign = sign_of(sign)
    w = ctx.q_minus_qinv
    m = lambda n: weight_label(l, n)
    den = lambda n: q_pow(ctx, m(n)) - q_pow(ctx, -m(n))
    i1_diag = lambda n: c_div(-sign * (q_pow(ctx, m(n)) + q_pow(ctx, -m(n))), w)
    i2 = Band(up=lambda n: c_div(-sign * 1j * q_num(ctx, l - m(n)), den(n)),
              down=lambda n: c_div(-sign * 1j * q_num(ctx, l + m(n)), den(n)))
    return _so3_finite(ctx, l.twice + 1, i1_diag, i2,
                       FamilyDescriptor("Ri_l", {"l": l, "sign": sign}),
                       {"reducible": True})


def split_n_max(ctx: QContext) -> int | None:
    """Largest admissible n for the split family at a root of unity.

    For odd p the shift denominators q^{k-1/2} - q^{-k+1/2} vanish at
    2k - 1 = p, which caps n at (p'-1)/2; for even p they never vanish and
    the cap p'/2 comes from the twisted parents 2l < p'.
    """
    if not ctx.is_root_of_unity:
        return None
    return (ctx.p_prime - 1) // 2 if ctx.p % 2 else ctx.p_prime // 2


def r_split_n(ctx: QContext, n: int, signs=(1, 1)) -> So3FiniteRep:
    """Irreducible split component of dimension n, basis k = 1..n.

    signs = (s1, s2): s1 picks the twisted parent (+1 for i, -1 for -i) and
    fixes the sign of the diagonal first generator; s2 is the sign of the
    single diagonal entry of the second generator at k = 1.
    """
    n = int(n)
    if n < 1:
        raise BadRange(f"n must be >= 1, got {n}")
    cap = split_n_max(ctx)
    if cap is not None and n > cap:
        raise BadRange(f"n = {n} > {cap}: split family out of range at p = {ctx.p}")
    s1, s2 = sign_of(signs[0]), sign_of(signs[1])
    w = ctx.q_minus_qinv
    delta = q_pow(ctx, HALF) - q_pow(ctx, -HALF)
    kh = lambda j: HalfInt(2 * j + 1)  # k - 1/2 for the basis index k = j + 1

    den = lambda j: masked(j == 0, delta, q_pow(ctx, kh(j)) - q_pow(ctx, -kh(j)))
    i1_diag = lambda j: c_div(-s1 * (q_pow(ctx, kh(j)) + q_pow(ctx, -kh(j))), w)
    i2 = Band(diag=lambda j: masked(j == 0, s1 * (s2 * q_num(ctx, n) / delta)),
              up=lambda j: s1 * c_div(1j * q_num(ctx, n - j - 1), den(j)),
              down=lambda j: s1 * c_div(1j * q_num(ctx, n + j), den(j)))
    return _so3_finite(ctx, n, i1_diag, i2,
                       FamilyDescriptor("Rsplit_n", {"n": n, "signs": (s1, s2)}))


# ---------------------------------------------------------------------------
# infinite families, generic q

def _so3_banded(ctx, offset, i1_diag, i2: Band, family,
                n_min=None, n_max=None, flags=None) -> BandedRep:
    return BandedRep(ctx, "so3", offset, {"I1": Band(diag=i1_diag), "I2": i2}, family,
                     n_min=n_min, n_max=n_max, flags=flags or {})


def _lattice_bands(ctx: QContext, m_of, up_arg, down_arg) -> tuple:
    """I1 = i[m] and the I2 band with up [up_arg] / (q^m + q^{-m}) and
    down -[down_arg] / (q^m + q^{-m}) on the labels m = m_of(n)."""
    def den(n):
        t = q_pow_c(ctx, m_of(n))
        return t + c_div(1, t)

    i2 = Band(up=lambda n: c_div(q_num(ctx, up_arg(n)), den(n)),
              down=lambda n: c_div(-q_num(ctx, down_arg(n)), den(n)))
    return lambda n: 1j * q_num(ctx, m_of(n)), i2


def r_a_epsilon(ctx: QContext, a, eps) -> BandedRep:
    """Two-sided lattice family on labels m = eps + n: I1|m> = i[m]|m>.

    Offsets eps with q^{2*eps} = -1 are rejected (no localization image);
    offsets with q^{2*(eps - 1/2)} = -1 are redirected to ``r_a_special``.
    """
    ctx.require_generic("lattice family is defined for generic q only")
    a, eps = complex(a), complex(eps)
    kind = classify_epsilon(ctx, eps)
    if kind != "generic":
        raise SpecialEpsilon(
            f"eps = {eps} is a special offset ({kind}); use r_a_special for the "
            "half-shifted branch")
    i1_diag, i2 = _lattice_bands(ctx, lambda n: eps + n, lambda n: a - (eps + n),
                                 lambda n: a + (eps + n))
    irr = not (_is_integer_mod(ctx, a - eps) or _is_integer_mod(ctx, a + eps))
    fam = FamilyDescriptor("R_a_eps", {"a": a, "eps": eps})
    return _so3_banded(ctx, eps, i1_diag, i2, fam, flags={"irreducible": irr})


def r_a_special(ctx: QContext, a, branch: int = 1) -> BandedRep:
    """Lattice family at the half-shifted special offset, labels k = n + 1/2.

    branch = +1/-1 selects the two special offsets; a' = a + branch*i*pi/(2 tau).
    Reducible: splits into two one-sided components (see r_split_infinite).
    """
    ctx.require_generic("lattice family is defined for generic q only")
    branch = sign_of(branch)
    a = complex(a)
    a_prime = a + branch * 1j * math.pi / (2 * ctx.tau)
    w = ctx.q_minus_qinv
    kh = lambda n: HalfInt(2 * n + 1)  # k = n + 1/2

    def i1_diag(n):
        t = q_pow(ctx, kh(n))
        return c_div(-branch * (t + c_div(1, t)), w)

    def den(n):
        t = q_pow(ctx, kh(n))
        return t - c_div(1, t)

    i2 = Band(up=lambda n: c_div(branch * 1j * q_num(ctx, a_prime - (n + 0.5)), den(n)),
              down=lambda n: c_div(branch * 1j * q_num(ctx, a_prime + (n + 0.5)), den(n)))
    fam = FamilyDescriptor("R_a_special", {"a": a, "branch": branch})
    return _so3_banded(ctx, 0.5, i1_diag, i2, fam,
                       flags={"reducible": True, "a_prime": a_prime})


def r_split_infinite(ctx: QContext, a_prime, family: int = 1, sign: int = 1) -> BandedRep:
    """One-sided split component on basis k = 1, 2, 3, ...

    family = +1/-1 picks the twist (negating the second generator as a
    whole); sign is the sign of the diagonal entry at k = 1.
    """
    ctx.require_generic("infinite split family is defined for generic q only")
    family, sign = sign_of(family), sign_of(sign)
    ap = complex(a_prime)
    w = ctx.q_minus_qinv
    delta = q_pow(ctx, HALF) - q_pow(ctx, -HALF)
    kh = lambda n: HalfInt(2 * n - 1)  # k - 1/2

    def i1_diag(n):
        t = q_pow(ctx, kh(n))
        return c_div(-family * (t + c_div(1, t)), w)

    def i2_diag(n):
        return masked(n == 1, family * sign * q_num(ctx, ap) / delta)

    def i2_up(n):
        t = q_pow(ctx, kh(n))
        return masked(n == 1, family * 1j * q_num(ctx, ap - 1) / delta,
                      c_div(family * 1j * q_num(ctx, ap - n), t - c_div(1, t)))

    def i2_down(n):
        t = q_pow(ctx, kh(n))
        return masked(n <= 1, 0.0,
                      c_div(family * 1j * q_num(ctx, ap + n - 1), t - c_div(1, t)))

    fam = FamilyDescriptor("Rsplit_inf", {"a_prime": ap, "family": family, "sign": sign})
    return _so3_banded(ctx, 0, i1_diag, Band(diag=i2_diag, up=i2_up, down=i2_down), fam,
                       n_min=1)


def r_highest_lowest(ctx: QContext, kind: str, param) -> BandedRep:
    """One-sided lattice families.

    kind "l+": basis m = l, l+1, ...; "l-": basis m = -l, -l-1, ...
    (both with lattice parameter a = -l, which makes the boundary
    coefficient [0] vanish exactly).  kind "a+": basis m = -a, -a+1, ...;
    "a-": basis m = a, a-1, ... for a not in Z or 1/2 + Z mod Z.
    """
    ctx.require_generic("one-sided lattice families are defined for generic q only")
    if kind in ("l+", "l-"):
        l = HalfInt.of(param)
        if l.twice <= 0:
            raise BadParam(f"l must be in {{1/2, 1, 3/2, ...}}, got {l}")
        sign = 1 if kind == "l+" else -1
        # m = sign*l + n with n >= 0 for "l+", n <= 0 for "l-"; a = -l.
        m_of = lambda n: HalfInt(sign * l.twice + 2 * n)
        # down coefficient argument a + m = n exactly for "l+";
        # up coefficient argument a - m = -n exactly for "l-".
        up_arg = (lambda n: HalfInt(-2 * l.twice - 2 * n)) if sign > 0 else \
            (lambda n: HalfInt(-2 * n))
        down_arg = (lambda n: HalfInt(2 * n)) if sign > 0 else \
            (lambda n: HalfInt(-2 * l.twice + 2 * n))
        offset = complex(sign * l.twice / 2)
        n_min, n_max = (0, None) if sign > 0 else (None, 0)
        fam = FamilyDescriptor("R_hw", {"kind": kind, "l": l})
    else:
        if kind not in ("a+", "a-"):
            raise BadParam(f"kind must be one of l+, l-, a+, a-, got {kind!r}")
        a = complex(param)
        if _is_integer_mod(ctx, a) or _is_integer_mod(ctx, a - 0.5):
            raise BadParam(f"a = {a} must avoid Z and 1/2 + Z (those are the l-type points)")
        sign = 1 if kind == "a+" else -1
        # "a+": m = -a + n, n >= 0; a + m = n exact.  "a-": m = a + n, n <= 0.
        m_of = lambda n: -sign * a + n if sign > 0 else a + n
        up_arg = (lambda n: 2 * a - n) if sign > 0 else (lambda n: -n)
        down_arg = (lambda n: n) if sign > 0 else (lambda n: 2 * a + n)
        offset = -a if sign > 0 else a
        n_min, n_max = (0, None) if sign > 0 else (None, 0)
        fam = FamilyDescriptor("R_hw", {"kind": kind, "a": a})
    i1_diag, i2 = _lattice_bands(ctx, m_of, up_arg, down_arg)
    return _so3_banded(ctx, complex(offset), i1_diag, i2, fam, n_min=n_min,
                       n_max=n_max, flags={"irreducible": True})


def q_lambda(ctx: QContext, lam, sign: int = 1) -> BandedRep:
    """Constant-coefficient two-sided family on integer labels.

    I1|m> = sign*(lam q^m + lam^{-1} q^{-m})/(q - q^{-1}) |m>, I2 hops with
    constant coefficient 1/(q - q^{-1}).  Reducible exactly at lam = 1 and
    lam = q^{1/2}.
    """
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    sign = sign_of(sign)
    w = ctx.q_minus_qinv
    c = 1 / w

    def i1_diag(n):
        t = q_pow(ctx, n)
        return c_div(sign * (c_mul(lam, t) + c_div(1 / lam, t)), w)

    reducible = ctx.close(lam, 1) or ctx.close(lam, ctx.s)
    fam = FamilyDescriptor("Q_lambda", {"lambda": lam, "sign": sign})
    return _so3_banded(ctx, 0, i1_diag, Band(up=lambda n: c, down=lambda n: c), fam,
                       flags={"reducible": reducible})


def q_lambda_components(ctx: QContext, which: int, at: str, sign: int = 1) -> BandedRep:
    """The eight one-sided components of the reducible constant families.

    at = "1": integer labels; which = 1 is the component containing |0>
    (basis sqrt(2)|0>, |m> + |-m>), which = 2 the complementary one
    (basis |m> - |-m>).  at = "sqrt_q": half-odd labels k = m + 1/2 with
    basis |m> - |-m-1> (which = 1, diagonal entry -c at k = 1/2) or
    |m> + |-m-1> (which = 2, diagonal entry +c).  sign is the overall sign
    of the diagonal first generator inherited from the parent.
    """
    sign = sign_of(sign)
    if which not in (1, 2):
        raise BadParam(f"which must be 1 or 2, got {which}")
    if at not in ("1", "sqrt_q"):
        raise BadParam(f"at must be '1' or 'sqrt_q', got {at!r}")
    w = ctx.q_minus_qinv
    c = 1 / w
    fam = FamilyDescriptor("Q_comp", {"which": which, "at": at, "sign": sign})
    if at == "1":
        def i1_diag(n):
            t = q_pow(ctx, n)
            return c_div(sign * (t + c_div(1, t)), w)

        if which == 1:
            i2 = Band(up=lambda n: masked(n == 0, SQRT2 * c, c),
                      down=lambda n: masked(n == 1, SQRT2 * c, c))
            return _so3_banded(ctx, 0, i1_diag, i2, fam, n_min=0)
        return _so3_banded(ctx, 0, i1_diag, Band(up=lambda n: c, down=lambda n: c),
                           fam, n_min=1)

    def i1_diag(n):
        t = q_pow(ctx, HalfInt(2 * n + 1))
        return c_div(sign * (t + c_div(1, t)), w)

    d0 = -c if which == 1 else c
    i2 = Band(diag=lambda n: masked(n == 0, d0), up=lambda n: c, down=lambda n: c)
    return _so3_banded(ctx, 0.5, i1_diag, i2, fam, n_min=0)


# ---------------------------------------------------------------------------
# root-of-unity families

def excluded_lambda(ctx: QContext, lam: complex) -> bool:
    """Whether lam is within tolerance of +-q^k: where mu = i lam, the K of the
    sl2 family ``r_ab_lambda`` is the image of, has q^{2k} mu^2 = -1 (``_shift_hits``)."""
    ctx.require_root()
    ks, _ = _shift_hits(ctx, np.array([1j * complex(lam)]), ctx.p)
    return bool(ks.size)


def degenerate_lambdas(ctx: QContext, trivial_ab: bool = False) -> list[complex]:
    """In-domain lambda values at which the cyclic family's I1 spectrum is
    fully paired (and the family can split): +-q^{(dim-1)/2} for an even
    cycle length dim.  For an odd one the exponent is whole, and +-q^k is
    excluded (``excluded_lambda``).
    """
    ctx.require_root()
    dim = cyclic_dim(ctx, not trivial_ab)
    v = q_pow(ctx, HalfInt(dim - 1))
    return [v, -v] if dim % 2 == 0 else []


def r_ab_lambda(ctx: QContext, a, b, lam) -> So3FiniteRep:
    """Cyclic family at a root of unity (dimension per ``uqsl2.cyclic_dim``).

    Defined for lam not in {0} and not within tolerance of +-q^k (where the
    column denominators q^{-i} lam - q^{i} lam^{-1} would vanish).  Equals
    the localization image of the cyclic sl2 family at (-a, b, +i*lam).
    """
    ctx.require_root()
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    if excluded_lambda(ctx, lam):
        raise BadParam(f"lambda = {lam} is within tolerance of +-q^k (excluded)")
    a, b = complex(a), complex(b)
    dim = cyclic_dim(ctx, a != 0 or b != 0)
    w = ctx.q_minus_qinv
    eta = lambda i: a * b + _weight_step(ctx, lam, i)
    ci = lambda i: c_div(1j, c_mul(q_pow(ctx, -i), lam) - c_div(q_pow(ctx, i), lam))
    i1_diag = lambda i: c_div(-(c_mul(q_pow(ctx, -i), lam) + c_div(q_pow(ctx, i), lam)), w)

    def up(i):
        c = ci(i)
        return masked(i == dim - 1, c_mul(c, b), c)

    i2 = Band(up=up, down=lambda i: c_mul(ci(i), masked(i == 0, a, eta(i))))
    flags = {}
    if any(ctx.close(lam, v) for v in degenerate_lambdas(ctx, a == 0 and b == 0)):
        flags["degenerate_lambda"] = True
    fam = FamilyDescriptor("R_ab_lambda", {"a": a, "b": b, "lambda": lam})
    return _so3_finite(ctx, dim, i1_diag, i2, fam, flags, cyclic=True)


def _split_factors(ctx: QContext, ab: complex, dim: int) -> list[complex]:
    """f_j = ab - zeta [j]^2 with zeta = q^dim, the second-generator column
    coefficients of the degenerate family after the diagonal rescaling."""
    zeta = q_pow(ctx, dim)
    return [ab - zeta * q_num(ctx, j) ** 2 for j in range(dim)]


def solve_split_b(ctx: QContext, a) -> list[complex]:
    """Values of b for which the degenerate cyclic family at p even splits:
    roots of a * prod_{j=1}^{dim-1}(ab - zeta [j]^2) = b as a polynomial in b.

    Near-zero roots are dropped (the wrap-free point is handled separately
    and splits unconditionally when p' is even).
    """
    ctx.require_root()
    if ctx.p % 2:
        raise BadParam("no in-domain degenerate lambda exists for odd p")
    a = complex(a)
    if a == 0:
        raise BadParam("a must be nonzero (the (0,0) point splits unconditionally)")
    dim = ctx.p
    zeta = q_pow(ctx, dim)
    poly = np.array([1.0 + 0j])
    for j in range(1, dim):
        poly = np.convolve(poly, np.array([a, -zeta * q_num(ctx, j) ** 2]))
    poly = a * poly
    poly[-2] += -1.0  # subtract b
    roots = np.roots(poly)
    return [complex(r) for r in roots if abs(r) > ctx.separation()]


def r_ab_degenerate(ctx: QContext, a, b, variant: str = "plus") -> list[So3FiniteRep]:
    """Cyclic family at the fully paired degenerate lambda, split when the
    parameter condition holds.

    variant "plus"/"minus" picks lambda = +-q^{(dim-1)/2}.  Requires even p
    (for odd p the degenerate lambda coincides with an excluded point +-q^k
    and the family does not exist there).  For (a, b) = (0, 0) the family
    is the wrap-free chain of dimension p' (p' even needed for the paired
    spectrum) and splits unconditionally into halves; for nonzero wraps the
    dimension-p family splits exactly when a prod(f_j) = b with
    f_j = ab - zeta [j]^2.  Components are returned in the primed bases
    |j>' , |j>'' = |j>^o +- i (-1)^{dim/2 - j - 1} |dim-1-j>^o (``_restrict``
    is exact whatever their norms).  A half that fails the relations at the
    context tolerance raises SingularBasisChange.
    """
    ctx.require_root()
    sgn = {"plus": 1, "minus": -1}.get(variant)
    if sgn is None:
        raise BadParam(f"variant must be 'plus' or 'minus', got {variant!r}")
    if ctx.p % 2:
        raise BadParam(
            f"p = {ctx.p} odd: the degenerate lambda +-q^{{(dim-1)/2}} lies on "
            "the excluded set +-q^k, so no degenerate family exists")
    a, b = complex(a), complex(b)
    ab = a * b
    trivial = a == 0 and b == 0
    dim = cyclic_dim(ctx, not trivial)
    if trivial and ctx.p_prime % 2:
        raise BadParam(
            f"p' = {ctx.p_prime} odd: the wrap-free chain has no in-domain "
            "fully paired lambda (its candidates are excluded points)")
    lam = sgn * q_pow(ctx, HalfInt(dim - 1))
    rep = r_ab_lambda(ctx, a, b, lam)
    factors = _split_factors(ctx, ab, dim)
    for j in range(1, dim):
        if abs(factors[j]) <= ctx.threshold(abs(ab)):
            raise SingularBasisChange(
                f"scaling factor {j} vanishes (ab = {ab}): primed basis undefined")
    roots = [cmath.sqrt(f) for f in factors]
    if not trivial:
        prod_root = np.prod(roots[1:])
        lhs = a * prod_root
        rhs = b / prod_root
        resid = abs(lhs - rhs)
        if resid > ctx.threshold(abs(lhs), abs(rhs)) * 100:
            rep.flags["split"] = False
            rep.flags["condition_residual"] = resid
            return [rep]
        rep.flags["condition_residual"] = resid
    # |i>^o = prod_{j=1}^{i} f_j^{-1/2} |i> (the j = 0 factor is an overall
    # scalar and cancels from all matrix elements)
    sig = np.ones(dim, dtype=complex)
    for i in range(1, dim):
        sig[i] = sig[i - 1] / roots[i]
    half, j = dim // 2, np.arange(dim // 2)
    sign = 1j * (-1.0) ** (half - j - 1)  # of |dim-1-j>^o in |j>', negated in |j>''
    halves = []
    for idx, mirror in ((1, sign), (2, -sign)):
        basis = np.zeros((dim, half), dtype=complex)
        basis[j, j], basis[dim - 1 - j, j] = sig[j], mirror * sig[dim - 1 - j]
        halves.append(_restrict(rep, basis, ("R_ab_degen", idx)))
    for half in halves:
        resid = verify_so3(half).max_residual
        if not resid <= ctx.threshold():  # a NaN residual fails too
            raise SingularBasisChange(
                f"restricted half {half.family.params['component']} fails the "
                f"relations (residual {resid:.3e})")
    return halves


def _restrict(rep: So3FiniteRep, basis: np.ndarray, tag) -> So3FiniteRep:
    """Restrict to the span of the (invariant) primed basis columns b_j.

    Invariance is tested with an orthonormal projector.  b_j is nonzero at
    rows j and dim-1-j only, so entry (i, j) of a restricted generator M is
    (M b_j)_i / (b_i)_i, a two-term sum formed with Python's complex bits."""
    ctx = rep.ctx
    Q, _ = np.linalg.qr(basis)
    half = basis.shape[1]
    own, mirror = np.diagonal(basis), np.diagonal(basis[::-1])
    new_mats = []
    for mat in (rep.I1, rep.I2, rep.I3):
        leak = invariance_defect([mat], Q)
        if leak > ctx.invariance(np.max(np.abs(mat))):
            raise SingularBasisChange(
                f"claimed invariant subspace leaks (defect {leak:.3e})")
        top = mat[:half]
        num = c_mul(top[:, :half], own) + c_mul(top[:, ::-1][:, :half], mirror)
        new_mats.append(c_div(num, own[:, None]))
    name, idx = tag
    fam = FamilyDescriptor(name, {**rep.family.params, "component": idx})
    return So3FiniteRep(ctx, *new_mats, fam, {"parent": rep.family, "basis": basis})


def q_prime_lambda(ctx: QContext, lam) -> So3FiniteRep:
    """Cyclic constant-coefficient family at a root of unity, dimension p.

    For odd p this is the dimension-p' cyclic family; for even p the
    periodicity of the diagonal requires the full period p (the p'-cycle
    does not close since q^{p'} = -1).  Reducible exactly at lambda in
    {1, q^{1/2}} modulo the shift relabeling.
    """
    ctx.require_root()
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    w = ctx.q_minus_qinv
    c = 1 / w
    i1_diag = lambda m: c_div(c_mul(lam, q_pow(ctx, m)) + c_mul(1 / lam, q_pow(ctx, -m)), w)
    reducible = ctx.close(lam, 1) or ctx.close(lam, ctx.s)
    fam = FamilyDescriptor("Qp_lambda", {"lambda": lam})
    return _so3_finite(ctx, ctx.p, i1_diag, Band(up=lambda m: c, down=lambda m: c),
                       fam, {"reducible": reducible}, cyclic=True)


def q_root_component_descriptors(ctx: QContext, distinct: bool = False) -> list[tuple]:
    """Component-family descriptors available at this root of unity.

    With distinct=True only pairwise inequivalent families are listed.
    For odd p the half-odd-label families are relabelings of the integer
    ones (q^{1/2} = +-q^{(p+1)/2} folds the half-odd cosh values onto the
    integer ones, and the explicit intertwiner is the label reversal), so
    the distinct list keeps the integer-label set.  For even p the overall
    diagonal sign is absorbed by the label reflection, so only one first
    sign is listed.
    """
    ctx.require_root()
    if ctx.p % 2:
        names = ["Q1", "Q1hat"] if distinct else \
            ["Q1", "Q1hat", "Qsqrt", "Qsqrt_breve"]
        return [(n, s1, s2) for n in names for s1 in (1, -1) for s2 in (1, -1)]
    if distinct:
        return ([("Q1_1", 1), ("Q1_2", 1)] +
                [("Qsqrt_hat", 1, s2) for s2 in (1, -1)])
    return ([("Q1_1", s1) for s1 in (1, -1)] +
            [("Q1_2", s1) for s1 in (1, -1)] +
            [("Qsqrt_hat", s1, s2) for s1 in (1, -1) for s2 in (1, -1)])


# name: (p mod 2, dimension from p', twice the first label, ends whose link
# carries sqrt(2), ends with the diagonal entry s2*c of the second generator)
_Q_ROOT_SHAPES = {
    "Q1": (1, lambda pp: (pp + 1) // 2, 0, ("lo",), ("hi",)),
    "Q1hat": (1, lambda pp: (pp - 1) // 2, 2, (), ("hi",)),
    "Qsqrt": (1, lambda pp: (pp + 1) // 2, 1, ("hi",), ("lo",)),
    "Qsqrt_breve": (1, lambda pp: (pp - 1) // 2, 1, (), ("lo",)),
    "Q1_1": (0, lambda pp: pp + 1, 0, ("lo", "hi"), ()),
    "Q1_2": (0, lambda pp: pp - 1, 2, (), ()),
    "Qsqrt_hat": (0, lambda pp: pp, 1, (), ("lo", "hi")),
}


def q_root_components(ctx: QContext, descriptor) -> So3FiniteRep:
    """Component families of the reducible cyclic constant families.

    Odd p (where q^{p'} = 1): descriptors ("Q1", s1, s2) of dimension
    (p'+1)/2 with a sqrt(2)-weighted first link and diagonal entry s2*c at
    the top; ("Q1hat", s1, s2) of dimension (p'-1)/2 with the s2*c top
    diagonal; ("Qsqrt", s1, s2) of dimension (p'+1)/2 on half-odd labels
    with diagonal s2*c at k = 1/2 and a sqrt(2)-weighted last link;
    ("Qsqrt_breve", s1, s2) of dimension (p'-1)/2.

    Even p (where q^{p'} = -1): the cyclic family of dimension p splits
    instead into ("Q1_1", s1) of dimension p'+1 (sqrt(2) links at both
    ends), ("Q1_2", s1) of dimension p'-1, and ("Qsqrt_hat", s1, s2) of
    dimension p' with diagonal entries s2*c at both ends.  The s1 = -1
    variants are equivalent to s1 = +1 by the label reflection.
    """
    ctx.require_root()
    if not isinstance(descriptor, (tuple, list)) or not descriptor:
        raise BadDescriptor(f"bad descriptor {descriptor!r}")
    name = descriptor[0]
    signs = [sign_of(x) for x in descriptor[1:]]
    if name not in _Q_ROOT_SHAPES:
        raise BadDescriptor(f"unknown component family {name!r}")
    p_parity, dim_of, first_twice, root2_ends, diag_ends = _Q_ROOT_SHAPES[name]
    if ctx.p % 2 != p_parity:
        raise ParityMismatch(
            f"{name} requires {'odd' if p_parity else 'even'} p (got p = {ctx.p})")
    if len(signs) != (2 if diag_ends else 1):
        raise BadDescriptor(f"wrong number of signs in {descriptor!r}")
    s1, s2 = signs[0], signs[-1]
    dim = dim_of(ctx.p_prime)
    w = ctx.q_minus_qinv
    c = 1 / w

    def i1_diag(n):
        t = q_pow(ctx, HalfInt(first_twice + 2 * n))
        return s1 * c_div(t + c_div(1, t), w)

    def at_end(n, ends, last):
        return ("lo" in ends) & (n == 0) | ("hi" in ends) & (n == last)

    link = lambda n: masked(at_end(n, root2_ends, dim - 2), SQRT2 * c, c)  # n -- n+1
    i2 = Band(diag=lambda n: masked(at_end(n, diag_ends, dim - 1), s2 * c),
              up=link, down=lambda n: link(n - 1))
    fam = FamilyDescriptor("Q_root_comp", {"name": name, "signs": tuple(signs)})
    return _so3_finite(ctx, dim, i1_diag, i2, fam)


# ---------------------------------------------------------------------------
# central elements

class CentralPoly:
    """The central polynomial in closed form: the Dickson polynomial
    D_p(I, a), a = (q - q^-1)^-2, with its constant term dropped,

        c_{2j} = (-1)^j * p/(p-j) * C(p-j, j) * (q - q^-1)^(-2j),
        0 <= 2j < p,

    the coefficient of I^{p-2j} (Havlicek-Klimyk-Posta, math/9911130).
    It is the polynomial with P((z + 1/z) / (q - q^-1)) equal to
    (z^p + z^-p) / (q - q^-1)^p up to a constant; it commutes with the
    generators in every representation at the given root of unity.

    ``coeffs`` is the descending coefficient list of length p+1 (leading 1,
    every other power).  A call evaluates P by the Dickson recurrence
    D_n = I D_{n-1} - a D_{n-2} (D_0 = 2, D_1 = I), not by Horner's rule
    on ``coeffs``, whose terms cancel where P(I) is nearly scalar.
    """

    def __init__(self, ctx: QContext):
        ctx.require_root()
        self.ctx = ctx
        self.p = p = ctx.p
        w = ctx.q_minus_qinv
        self.coeffs = np.zeros(p + 1, dtype=complex)
        for j in range((p + 1) // 2):  # j = p/2 would be the constant term
            self.coeffs[2 * j] = (-1) ** j * (p * math.comb(p - j, j) // (p - j)) * w ** (-2 * j)
        self._a = w ** -2
        # the constant term of D_p: 2 (-a)^(p/2) for even p, 0 for odd p
        self._constant = 0.0 if p % 2 else 2 * (-self._a) ** (p // 2)

    def __call__(self, mat: np.ndarray) -> np.ndarray:
        eye = np.eye(mat.shape[0], dtype=complex)
        prev, cur = 2 * eye, np.asarray(mat, dtype=complex)
        for _ in range(self.p - 1):
            prev, cur = cur, mat @ cur - self._a * prev
        return cur - self._constant * eye

    def __repr__(self):
        terms = []
        for j, ck in enumerate(self.coeffs):
            e = self.p - j
            if abs(ck) > self.ctx.floor():
                terms.append(f"({ck:.6g})*I^{e}" if e else f"({ck:.6g})")
        return "CentralPoly(" + " + ".join(terms) + ")"


def central_poly(ctx: QContext) -> CentralPoly:
    """The central polynomial of a root-of-unity context (``CentralPoly``)."""
    return CentralPoly(ctx)

