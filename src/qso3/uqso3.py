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
closure for I1 and up/diag/down closures for I2 on a domain coordinate n.
Finite families live on an interval n = 0..dim-1 or, for the cyclic root
of unity families, on a cycle of that length, and are made dense by the one
``repcore.materialize``; infinite families stay ``BandedRep`` closures on a
half-line or the line, whose windows ``repcore.band_diagonals`` builds as
diagonals.  The root-of-unity component families differ only
in dimension, first label and which ends carry a sqrt(2) link or a diagonal
entry, so they are a table (``_Q_ROOT_SHAPES``).

Everywhere the third generator is derived from the first two through the
defining q-commutator, which keeps every constructor internally
consistent; unit tests check the derived entries against closed forms.

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
from .qscalar import HalfInt, QContext, as_complex, q_num, q_pow, q_pow_c
from .repcore import (HALF, Band, BandedRep, FamilyDescriptor, So3FiniteRep,
                      materialize, so3_i3, so3_i3_band, verify_so3)
from .structure import invariance_defect
from .uqsl2 import (_is_integer_mod, _require_root, classify_epsilon, cyclic_dim,
                    weight_labels)

SQRT2 = math.sqrt(2.0)


def _so3_finite(ctx: QContext, dim: int, i1_diag, i2: Band,
                family: FamilyDescriptor, flags: dict | None = None,
                cyclic: bool = False) -> So3FiniteRep:
    """Diagonal I1 and banded I2 on n = 0..dim-1 (a cycle if ``cyclic``)."""
    mats = materialize({"I1": Band(diag=i1_diag), "I2": i2}, 0, dim - 1, cyclic)
    I1, I2 = mats["I1"], mats["I2"]
    return So3FiniteRep(ctx, I1, I2, so3_i3(ctx, I1, I2), family, flags or {})


def _w(ctx: QContext) -> complex:
    return ctx.q - 1 / ctx.q


def _guard_weight_range(ctx: QContext, l: HalfInt):
    if ctx.is_root_of_unity and l.twice >= ctx.p_prime:
        raise BadRange(f"2l = {l.twice} >= p' = {ctx.p_prime}: out of the admissible range")


# ---------------------------------------------------------------------------
# finite families, generic q (also valid below the root-of-unity range guard)

def r1_l(ctx: QContext, l) -> So3FiniteRep:
    """Weight family of dimension 2l+1: I1|m> = i[m]|m>, tridiagonal I2."""
    l = HalfInt.of(l)
    if l.twice < 0:
        raise BadParam(f"l must be >= 0, got {l}")
    _guard_weight_range(ctx, l)
    labels = weight_labels(l)
    den = lambda n: q_pow(ctx, labels[n]) + q_pow(ctx, -labels[n])
    i2 = Band(up=lambda n: q_num(ctx, l - labels[n]) / den(n),
              down=lambda n: -q_num(ctx, l + labels[n]) / den(n))
    return _so3_finite(ctx, len(labels), lambda n: 1j * q_num(ctx, labels[n]), i2,
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
    _guard_weight_range(ctx, l)
    sign = _pm(sign)
    w = _w(ctx)
    labels = weight_labels(l)
    t = lambda n: q_pow(ctx, labels[n])
    den = lambda n: t(n) - q_pow(ctx, -labels[n])
    i1_diag = lambda n: -sign * (t(n) + q_pow(ctx, -labels[n])) / w
    i2 = Band(up=lambda n: -sign * 1j * q_num(ctx, l - labels[n]) / den(n),
              down=lambda n: -sign * 1j * q_num(ctx, l + labels[n]) / den(n))
    return _so3_finite(ctx, len(labels), i1_diag, i2,
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
    s1, s2 = _pm(signs[0]), _pm(signs[1])
    w = _w(ctx)
    delta = q_pow(ctx, HALF) - q_pow(ctx, -HALF)
    kh = lambda j: HalfInt(2 * j + 1)  # k - 1/2 for the basis index k = j + 1
    den = lambda j: delta if j == 0 else q_pow(ctx, kh(j)) - q_pow(ctx, -kh(j))
    i1_diag = lambda j: -s1 * (q_pow(ctx, kh(j)) + q_pow(ctx, -kh(j))) / w
    i2 = Band(diag=lambda j: s1 * (s2 * q_num(ctx, n) / delta) if j == 0 else 0.0,
              up=lambda j: s1 * (1j * q_num(ctx, n - j - 1) / den(j)),
              down=lambda j: s1 * (1j * q_num(ctx, n + j) / den(j)))
    return _so3_finite(ctx, n, i1_diag, i2,
                       FamilyDescriptor("Rsplit_n", {"n": n, "signs": (s1, s2)}))


# ---------------------------------------------------------------------------
# infinite families, generic q

def _so3_banded(ctx, offset, i1_diag, i2_diag, i2_up, i2_down, family,
                n_min=None, n_max=None, flags=None) -> BandedRep:
    i1 = Band(diag=i1_diag)
    i2 = Band(diag=i2_diag, up=i2_up, down=i2_down)
    bands = {"I1": i1, "I2": i2, "I3": so3_i3_band(ctx, i1, i2)}
    return BandedRep(ctx, "so3", offset, bands, family, n_min=n_min,
                     n_max=n_max, flags=flags or {})


def r_a_epsilon(ctx: QContext, a, eps) -> BandedRep:
    """Two-sided lattice family on labels m = eps + n: I1|m> = i[m]|m>.

    Offsets eps with q^{2*eps} = -1 are rejected (no localization image);
    offsets with q^{2*(eps - 1/2)} = -1 are redirected to ``r_a_special``.
    """
    if ctx.is_root_of_unity:
        raise BadParam("lattice family is defined for generic q only")
    a, eps = complex(a), complex(eps)
    kind = classify_epsilon(ctx, eps)
    if kind != "generic":
        raise SpecialEpsilon(
            f"eps = {eps} is a special offset ({kind}); use r_a_special for the "
            "half-shifted branch")
    m_of = lambda n: eps + n
    qm = lambda n: q_pow_c(ctx, m_of(n))

    i1_diag = lambda n: 1j * q_num(ctx, m_of(n))
    i2_up = lambda n: q_num(ctx, a - m_of(n)) / (qm(n) + 1 / qm(n))
    i2_down = lambda n: -q_num(ctx, a + m_of(n)) / (qm(n) + 1 / qm(n))
    irr = not (_is_integer_mod(ctx, a - eps) or _is_integer_mod(ctx, a + eps))
    fam = FamilyDescriptor("R_a_eps", {"a": a, "eps": eps})
    return _so3_banded(ctx, eps, i1_diag, None, i2_up, i2_down, fam,
                       flags={"irreducible": irr})


def r_a_special(ctx: QContext, a, branch: int = 1) -> BandedRep:
    """Lattice family at the half-shifted special offset, labels k = n + 1/2.

    branch = +1/-1 selects the two special offsets; a' = a + branch*i*pi/(2 tau).
    Reducible: splits into two one-sided components (see r_split_infinite).
    """
    if ctx.is_root_of_unity:
        raise BadParam("lattice family is defined for generic q only")
    branch = _pm(branch)
    a = complex(a)
    a_prime = a + branch * 1j * math.pi / (2 * ctx.tau)
    w = _w(ctx)
    kh = lambda n: HalfInt(2 * n + 1)  # k = n + 1/2

    def i1_diag(n):
        t = q_pow(ctx, kh(n))
        return -branch * (t + 1 / t) / w

    def i2_up(n):
        t = q_pow(ctx, kh(n))
        return branch * 1j * q_num(ctx, a_prime - (n + 0.5)) / (t - 1 / t)

    def i2_down(n):
        t = q_pow(ctx, kh(n))
        return branch * 1j * q_num(ctx, a_prime + (n + 0.5)) / (t - 1 / t)

    fam = FamilyDescriptor("R_a_special", {"a": a, "branch": branch})
    return _so3_banded(ctx, 0.5, i1_diag, None, i2_up, i2_down, fam,
                       flags={"reducible": True, "a_prime": a_prime})


def r_split_infinite(ctx: QContext, a_prime, family: int = 1, sign: int = 1) -> BandedRep:
    """One-sided split component on basis k = 1, 2, 3, ...

    family = +1/-1 picks the twist (negating the second generator as a
    whole); sign is the sign of the diagonal entry at k = 1.
    """
    if ctx.is_root_of_unity:
        raise BadParam("infinite split family is defined for generic q only")
    family, sign = _pm(family), _pm(sign)
    ap = complex(a_prime)
    w = _w(ctx)
    delta = q_pow(ctx, HALF) - q_pow(ctx, -HALF)
    kh = lambda n: HalfInt(2 * n - 1)  # k - 1/2

    def i1_diag(n):
        t = q_pow(ctx, kh(n))
        return -family * (t + 1 / t) / w

    def i2_diag(n):
        return family * sign * q_num(ctx, ap) / delta if n == 1 else 0.0

    def i2_up(n):
        if n == 1:
            return family * 1j * q_num(ctx, ap - 1) / delta
        t = q_pow(ctx, kh(n))
        return family * 1j * q_num(ctx, ap - n) / (t - 1 / t)

    def i2_down(n):
        if n <= 1:
            return 0.0
        t = q_pow(ctx, kh(n))
        return family * 1j * q_num(ctx, ap + n - 1) / (t - 1 / t)

    fam = FamilyDescriptor("Rsplit_inf", {"a_prime": ap, "family": family, "sign": sign})
    return _so3_banded(ctx, 0, i1_diag, i2_diag, i2_up, i2_down, fam, n_min=1)


def r_highest_lowest(ctx: QContext, kind: str, param) -> BandedRep:
    """One-sided lattice families.

    kind "l+": basis m = l, l+1, ...; "l-": basis m = -l, -l-1, ...
    (both with lattice parameter a = -l, which makes the boundary
    coefficient [0] vanish exactly).  kind "a+": basis m = -a, -a+1, ...;
    "a-": basis m = a, a-1, ... for a not in Z or 1/2 + Z mod Z.
    """
    if ctx.is_root_of_unity:
        raise BadParam("one-sided lattice families are defined for generic q only")
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

    def i1_diag(n):
        return 1j * q_num(ctx, m_of(n))

    def den(n):
        m = m_of(n)
        t = q_pow(ctx, m) if isinstance(m, HalfInt) else q_pow_c(ctx, m)
        return t + 1 / t

    i2_up = lambda n: q_num(ctx, up_arg(n)) / den(n)
    i2_down = lambda n: -q_num(ctx, down_arg(n)) / den(n)
    return _so3_banded(ctx, as_complex(offset), i1_diag, None, i2_up, i2_down,
                       fam, n_min=n_min, n_max=n_max, flags={"irreducible": True})


def q_lambda(ctx: QContext, lam, sign: int = 1) -> BandedRep:
    """Constant-coefficient two-sided family on integer labels.

    I1|m> = sign*(lam q^m + lam^{-1} q^{-m})/(q - q^{-1}) |m>, I2 hops with
    constant coefficient 1/(q - q^{-1}).  Reducible exactly at lam = 1 and
    lam = q^{1/2}.
    """
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    sign = _pm(sign)
    w = _w(ctx)
    c = 1 / w

    def i1_diag(n):
        t = q_pow(ctx, n)
        return sign * (lam * t + (1 / lam) / t) / w

    reducible = ctx.close(lam, 1) or ctx.close(lam, ctx.s)
    fam = FamilyDescriptor("Q_lambda", {"lambda": lam, "sign": sign})
    return _so3_banded(ctx, 0, i1_diag, None, lambda n: c, lambda n: c, fam,
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
    sign = _pm(sign)
    if which not in (1, 2):
        raise BadParam(f"which must be 1 or 2, got {which}")
    if at not in ("1", "sqrt_q"):
        raise BadParam(f"at must be '1' or 'sqrt_q', got {at!r}")
    w = _w(ctx)
    c = 1 / w
    fam = FamilyDescriptor("Q_comp", {"which": which, "at": at, "sign": sign})
    if at == "1":
        def i1_diag(n):
            t = q_pow(ctx, n)
            return sign * (t + 1 / t) / w

        if which == 1:
            up = lambda n: SQRT2 * c if n == 0 else c
            down = lambda n: SQRT2 * c if n == 1 else c
            return _so3_banded(ctx, 0, i1_diag, None, up, down, fam, n_min=0)
        return _so3_banded(ctx, 0, i1_diag, None, lambda n: c, lambda n: c,
                           fam, n_min=1)

    def i1_diag(n):
        t = q_pow(ctx, HalfInt(2 * n + 1))
        return sign * (t + 1 / t) / w

    d0 = -c if which == 1 else c
    diag = lambda n: d0 if n == 0 else 0.0
    return _so3_banded(ctx, 0.5, i1_diag, diag, lambda n: c, lambda n: c,
                       fam, n_min=0)


# ---------------------------------------------------------------------------
# root-of-unity families

def excluded_lambda(ctx: QContext, lam: complex) -> bool:
    """Whether lam is within tolerance of +-q^k for some integer k."""
    lam = complex(lam)
    thr = ctx.threshold(abs(lam))
    return any(min(abs(lam - t), abs(lam + t)) <= thr
               for t in (q_pow(ctx, k) for k in range(ctx.p)))


def degenerate_lambdas(ctx: QContext, trivial_ab: bool = False) -> list[complex]:
    """In-domain lambda values at which the cyclic family's I1 spectrum is
    fully paired (and the family can split).

    Empty for odd p: there the candidates +-q^{(dim-1)/2} land on excluded
    points +-q^k, since q^{1/2} itself is +-q^{(p+1)/2}.
    """
    _require_root(ctx)
    dim = cyclic_dim(ctx, not trivial_ab)
    vals = [q_pow(ctx, HalfInt(dim - 1)), -q_pow(ctx, HalfInt(dim - 1))]
    return [v for v in vals if not excluded_lambda(ctx, v)]


def r_ab_lambda(ctx: QContext, a, b, lam) -> So3FiniteRep:
    """Cyclic family at a root of unity (dimension per ``uqsl2.cyclic_dim``).

    Defined for lam not in {0} and not within tolerance of +-q^k (where the
    column denominators q^{-i} lam - q^{i} lam^{-1} would vanish).  Equals
    the localization image of the cyclic sl2 family at (-a, b, +i*lam).
    """
    _require_root(ctx)
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    if excluded_lambda(ctx, lam):
        raise BadParam(f"lambda = {lam} is within tolerance of +-q^k (excluded)")
    a, b = complex(a), complex(b)
    dim = cyclic_dim(ctx, a != 0 or b != 0)
    w = _w(ctx)

    def eta(i):
        return a * b + q_num(ctx, i) * (
            lam ** 2 * q_pow(ctx, 1 - i) - lam ** -2 * q_pow(ctx, i - 1)) / w

    ci = lambda i: 1j / (q_pow(ctx, -i) * lam - q_pow(ctx, i) / lam)
    i1_diag = lambda i: -(q_pow(ctx, -i) * lam + q_pow(ctx, i) / lam) / w
    i2 = Band(up=lambda i: ci(i) * b if i == dim - 1 else ci(i),
              down=lambda i: ci(i) * a if i == 0 else ci(i) * eta(i))
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
    _require_root(ctx)
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
    |j>' , |j>'' = |j>^o +- i (-1)^{dim/2 - j - 1} |dim-1-j>^o.  A half
    that fails the relations at the context tolerance (the primed basis is
    too ill-conditioned, as for (0, 0) at p >= 76) raises SingularBasisChange.
    """
    _require_root(ctx)
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
    half = dim // 2
    basis1 = np.zeros((dim, half), dtype=complex)
    basis2 = np.zeros((dim, half), dtype=complex)
    for j in range(half):
        e_j = np.zeros(dim, dtype=complex)
        e_j[j] = sig[j]
        e_r = np.zeros(dim, dtype=complex)
        e_r[dim - 1 - j] = sig[dim - 1 - j]
        basis1[:, j] = e_j + 1j * (-1) ** (half - j - 1) * e_r
        basis2[:, j] = e_j + 1j * (-1) ** (half - j) * e_r
    halves = [_restrict(rep, basis1, ("R_ab_degen", 1)),
              _restrict(rep, basis2, ("R_ab_degen", 2))]
    for half in halves:
        resid = verify_so3(half).max_residual
        if not resid <= ctx.threshold():  # a NaN residual fails too
            raise SingularBasisChange(
                f"restricted half {half.family.params['component']} fails the "
                f"relations (residual {resid:.3e}): primed basis too ill-conditioned")
    return halves


def _restrict(rep: So3FiniteRep, basis: np.ndarray, tag) -> So3FiniteRep:
    """Restrict to the span of the (invariant) basis columns.

    Invariance is tested with an orthonormal projector; the restricted
    matrices are expressed in the given (not necessarily orthonormal) basis.
    """
    ctx = rep.ctx
    Q, _ = np.linalg.qr(basis)
    new_mats = []
    for mat in (rep.I1, rep.I2, rep.I3):
        leak = invariance_defect([mat], Q)
        if leak > ctx.invariance(np.max(np.abs(mat))):
            raise SingularBasisChange(
                f"claimed invariant subspace leaks (defect {leak:.3e})")
        coeff, *_ = np.linalg.lstsq(basis, mat @ basis, rcond=None)
        new_mats.append(coeff)
    name, idx = tag
    fam = FamilyDescriptor(name, {**rep.family.params, "component": idx})
    return So3FiniteRep(ctx, new_mats[0], new_mats[1], new_mats[2], fam,
                        {"parent": rep.family, "basis": basis})


def q_prime_lambda(ctx: QContext, lam) -> So3FiniteRep:
    """Cyclic constant-coefficient family at a root of unity, dimension p.

    For odd p this is the dimension-p' cyclic family; for even p the
    periodicity of the diagonal requires the full period p (the p'-cycle
    does not close since q^{p'} = -1).  Reducible exactly at lambda in
    {1, q^{1/2}} modulo the shift relabeling.
    """
    _require_root(ctx)
    lam = complex(lam)
    if lam == 0:
        raise BadParam("lambda must be nonzero")
    w = _w(ctx)
    c = 1 / w
    i1_diag = lambda m: (lam * q_pow(ctx, m) + (1 / lam) * q_pow(ctx, -m)) / w
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
    _require_root(ctx)
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
    _require_root(ctx)
    if not isinstance(descriptor, (tuple, list)) or not descriptor:
        raise BadDescriptor(f"bad descriptor {descriptor!r}")
    name = descriptor[0]
    signs = [_pm(x) for x in descriptor[1:]]
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
    w = _w(ctx)
    c = 1 / w

    def i1_diag(n):
        t = q_pow(ctx, HalfInt(first_twice + 2 * n))
        return s1 * ((t + 1 / t) / w)

    def at_end(n, ends, last):
        return ("lo" in ends and n == 0) or ("hi" in ends and n == last)

    link = lambda n: SQRT2 * c if at_end(n, root2_ends, dim - 2) else c  # n -- n+1
    i2 = Band(diag=lambda n: s2 * c if at_end(n, diag_ends, dim - 1) else 0.0,
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
        _require_root(ctx)
        self.ctx = ctx
        self.p = p = ctx.p
        w = _w(ctx)
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


def _pm(x) -> int:
    if isinstance(x, str):
        x = {"+": 1, "-": -1, "+1": 1, "-1": -1}.get(x.strip(), x)
    xi = int(x)
    if xi not in (1, -1):
        raise BadParam(f"sign must be +1 or -1, got {x!r}")
    return xi
