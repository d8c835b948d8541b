"""Scalar arithmetic for the deformation parameter.

All families downstream are phrased in terms of powers q^a and q-numbers
[a] = (q^a - q^{-a}) / (q - q^{-1}).  Half-integer exponents are sensitive to
the choice of square root of q, so the context stores the chosen root ``s``
as data and every half-integer power is computed as a power of ``s``.
Complex exponents go through the principal logarithm tau, q = exp(tau).

``q_pow``, ``q_pow_c`` and ``q_num`` take an exponent array as well as a
scalar, and give elementwise the bits of the scalar call.  numpy's complex
``*`` and ``/`` do not round as CPython's do (its SIMD product fuses, its
quotient multiplies by a reciprocal), so every complex product and quotient
on arrays goes through ``c_mul`` and ``c_div``, which give the bits of
CPython's ``_Py_c_prod`` and ``_Py_c_quot``.  ``+``, ``-`` and scaling by a
real number or by a multiple of 1j already round alike.  Powers ``s ** t``
and ``cmath.exp`` stay Python calls: ``cmath.exp`` one per entry, and the
integer powers of ``s`` and the q-numbers of half-integer exponents once
per exponent, kept in tables on the context (``QContext.s_powers``,
``QContext.q_numbers``).

Each fact about q that more than one module reads has one home here:
q - q^{-1} is ``QContext.q_minus_qinv`` alone, which refuses a numerically
zero value; the domain guards are ``QContext.require_same``,
``require_root``, ``require_generic`` and ``require_weight_range``; a sign
is read by ``sign_of``, for the constructors and the command line alike;
and ``ctx_from_json`` makes a stored context through the checks of
``generic_ctx`` or ``root_of_unity_ctx``.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass, replace
from math import gcd
from typing import Callable

import numpy as np

from .errors import BadModulus, BadParam, BadRange, CtxMismatch, DegenerateQ

GENERIC_SCAN_BOUND = 64


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact half-integer n/2, stored as the integer n, or elementwise
    the half-integers of an integer array n (the labels of a window).

    Addition, negation and comparison are exact; ``value`` is the float n/2.
    """

    twice: int | np.ndarray

    def __post_init__(self):
        if not (isinstance(self.twice, int) or
                isinstance(self.twice, np.ndarray) and self.twice.dtype.kind in "iu"):
            raise TypeError(f"twice must be int, got {type(self.twice).__name__}")

    @staticmethod
    def of(x) -> "HalfInt":
        """Coerce an int, HalfInt, or exact-float half-integer."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return HalfInt(2 * x)
        if isinstance(x, float) and float(2 * x).is_integer():
            return HalfInt(int(round(2 * x)))
        raise TypeError(f"not a half-integer: {x!r}")

    @staticmethod
    def parse(text: str) -> "HalfInt":
        """Parse '3/2', '-1/2', '2' style strings."""
        text = text.strip()
        if "/" in text:
            num, den = text.split("/")
            if int(den) != 2:
                raise ValueError(f"half-integer denominator must be 2: {text!r}")
            return HalfInt(int(num))
        return HalfInt(2 * int(text))

    @property
    def value(self) -> float:
        return self.twice / 2

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __mul__(self, other: int):
        if not isinstance(other, int):
            return NotImplemented
        return HalfInt(self.twice * other)

    __rmul__ = __mul__

    def __complex__(self):
        return complex(self.twice / 2)

    def __float__(self):
        return self.twice / 2

    def __str__(self):
        if self.is_integer():
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self):
        return f"HalfInt({self.twice})"


_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def sign_of(x) -> int:
    """The sign +1 or -1 that x spells: a real number equal to +1 or -1, or
    one of the strings '+', '+1', '1', '-', '-1' (blanks around it
    ignored).  Anything else raises BadParam."""
    if isinstance(x, str):
        sign = _SIGNS.get(x.strip())
    else:
        sign = int(x) if isinstance(x, numbers.Real) and x in (1, -1) else None
    if sign is None:
        raise BadParam(f"cannot parse sign {x!r} (use + or -)")
    return sign


@dataclass(frozen=True)
class QContext:
    """Deformation parameter with a fixed square-root branch and tolerance.

    ``s`` is the chosen value of q^{1/2}; q = s^2, tau = Log q and the checked
    q - q^{-1} are derived once per context and cached beside the fields
    (equality, hash, repr and ``ctx_to_json`` see the fields only).
    ``kind`` is "generic" or "root_of_unity"; in the latter case ``p`` is the
    minimal positive exponent with q^p = 1 and ``p_prime`` is p for odd p,
    p/2 for even p.

    ``tol`` is the one tolerance setting.  Every numerical cut in the
    library is one of the levels below: a fixed multiple of ``tol``, named
    after the decision it makes, times ``magnitude_scale`` of the
    magnitudes passed, and never below ``floor`` of the same magnitudes.
    A magnitude may be an array; the level is then an array, elementwise.
    A NaN, infinite or negative ``tol`` raises BadParam.
    """

    s: complex
    kind: str
    p: int | None = None
    p_prime: int | None = None
    tol: float = 1e-9

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise BadParam(f"tol must be finite and >= 0, got {self.tol}")

    @functools.cached_property
    def q(self) -> complex:
        return self.s * self.s

    @functools.cached_property
    def tau(self) -> complex:
        return cmath.log(self.q)

    @functools.cached_property
    def q_minus_qinv(self) -> complex:
        """q - q^{-1}; raises DegenerateQ where it is numerically zero (on
        every read: a raise caches nothing)."""
        w = self.q - 1 / self.q
        if abs(w) <= self.threshold(abs(self.q)):
            raise DegenerateQ(f"q - 1/q = {w} is numerically zero (q = {self.q})")
        return w

    @property
    def is_root_of_unity(self) -> bool:
        return self.kind == "root_of_unity"

    def _level(self, base: float, magnitudes):
        # base * max(1, magnitudes), never below the floor 1e-12 * the same
        return max(base, 1e-12) * magnitude_scale(*magnitudes)

    def floor(self, *magnitudes: float) -> float:
        """Rounding level, 1e-12 whatever tol: diagonality, context equality."""
        return self._level(0.0, magnitudes)

    def threshold(self, *magnitudes: float) -> float:
        """Scalar comparisons and relation residuals: tol."""
        return self._level(self.tol, magnitudes)

    def separation(self, *magnitudes: float) -> float:
        """Eigenvalue clustering and rank cuts: 10 tol."""
        return self._level(10 * self.tol, magnitudes)

    def orbit_drop(self, *magnitudes: float) -> float:
        """Residual norm of an orbit vector that adds no direction: 100 tol."""
        return self._level(100 * self.tol, magnitudes)

    def algebra_drop(self, *magnitudes: float) -> float:
        """Residual norm of a word that adds no Burnside direction: tol / 10."""
        return self._level(self.tol / 10, magnitudes)

    def invariance(self, *magnitudes: float) -> float:
        """Largest defect of a subspace accepted as invariant: 1e4 tol."""
        return self._level(1e4 * self.tol, magnitudes)

    def matching(self, *magnitudes: float) -> float:
        """Invariant matching (fingerprints): 1000 tol."""
        return self._level(self.tol / 1e-3, magnitudes)  # exactly 1e-6 at the default

    def close(self, a, b) -> bool:
        a, b = complex(a), complex(b)
        return abs(a - b) <= self.threshold(abs(a), abs(b))

    def require_same(self, other: "QContext") -> None:
        """Raise CtxMismatch unless other is the same deformation parameter."""
        if abs(self.s - other.s) > self.floor() or self.kind != other.kind:
            raise CtxMismatch("operands were built over different contexts")

    def require_root(self) -> None:
        """Raise BadParam unless q is a root of unity."""
        if not self.is_root_of_unity:
            raise BadParam("this family requires a root-of-unity context")

    def require_generic(self, message: str) -> None:
        """Raise BadParam(message) if q is a root of unity."""
        if self.is_root_of_unity:
            raise BadParam(message)

    def require_weight_range(self, l: HalfInt) -> None:
        """Raise BadRange unless 2l < p', where q is a root of unity."""
        if self.is_root_of_unity and l.twice >= self.p_prime:
            raise BadRange(
                f"2l = {l.twice} >= p' = {self.p_prime}: weight family out of range")

    @functools.cached_property
    def s_powers(self) -> "ExponentTable":
        """``s ** t`` for integer arrays t, each power made by Python."""
        return ExponentTable(self._powers)

    @functools.cached_property
    def q_numbers(self) -> "ExponentTable":
        """The q-numbers [t/2] = (s^t - s^-t) / (q - q^{-1}) for integer
        arrays t, with the bits of the scalar ``q_num``."""
        return ExponentTable(self._q_numbers)

    def _powers(self, ts: np.ndarray) -> np.ndarray:
        return np.array([self.s ** t for t in ts.tolist()], dtype=complex)

    def _q_numbers(self, ts: np.ndarray) -> np.ndarray:
        t = self.s_powers(ts)
        return c_div(t - c_div(1, t), self.q_minus_qinv)


class ExponentTable:
    """An elementwise function of integer exponents, each value made once.

    ``make`` maps an integer array to the values there; a call on an
    integer array t returns the values at t from a table that spans every
    exponent asked for so far, calling ``make`` only on the exponents by
    which the span grows.
    """

    def __init__(self, make: Callable[[np.ndarray], np.ndarray]):
        self.make = make
        self.t0, self.values = 0, np.empty(0, dtype=complex)

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        if not ts.size:
            return np.empty(ts.shape, dtype=complex)
        lo, hi = int(ts.min()), int(ts.max())
        t0, t1 = self.t0, self.t0 + len(self.values)
        if not self.values.size:
            self.t0, self.values = lo, self.make(np.arange(lo, hi + 1))
        elif lo < t0 or hi >= t1:
            parts = [self.make(np.arange(lo, t0))] if lo < t0 else []
            parts.append(self.values)
            if hi >= t1:
                parts.append(self.make(np.arange(t1, hi + 1)))
            self.t0, self.values = min(lo, t0), np.concatenate(parts)
        return self.values[ts - self.t0]


def magnitude_scale(*magnitudes):
    """The largest of 1 and the magnitudes: the scale every level and every
    relation residual is measured against.  With an array among the
    magnitudes the largest is taken elementwise."""
    for m in magnitudes:
        if isinstance(m, np.ndarray):
            return functools.reduce(np.maximum, magnitudes, 1.0)
    return max((1.0, *magnitudes))


def generic_ctx(q: complex | None = None, s: complex | None = None,
                tol: float = QContext.tol) -> QContext:
    """Context for q not a root of unity (no q^n = 1 for n up to
    GENERIC_SCAN_BOUND).

    Give either q (s defaults to the principal square root) or s directly.
    Raises ``BadModulus`` at q = 0, q = -1 and q^n = 1, and ``DegenerateQ``
    where q - q^{-1} is numerically zero at ``tol`` (``q_minus_qinv``).
    """
    if s is None:
        if q is None:
            raise BadParam("generic_ctx needs q or s")
        s = cmath.sqrt(complex(q))
    ctx = QContext(s=complex(s), kind="generic", tol=tol)
    q, thr = ctx.q, ctx.threshold()
    if q == 0:
        raise BadModulus("q must be nonzero")
    if abs(q + 1) <= thr:
        raise BadModulus("q = -1 is excluded")
    power = 1 + 0j
    for n in range(1, GENERIC_SCAN_BOUND + 1):
        power *= q
        if abs(power - 1) <= thr:
            if n == 1:
                raise BadModulus("q = 1 is excluded: the classical point, where q - q^{-1} = 0")
            raise BadModulus(
                f"q^{n} = 1 within tolerance; use root_of_unity_ctx(p={n}, k=...)")
    ctx.q_minus_qinv  # raises DegenerateQ where every q-number would
    return ctx


def root_of_unity_ctx(p: int, k: int = 1, tol: float = QContext.tol) -> QContext:
    """Context with q = exp(2*pi*i*k/p), s = exp(pi*i*k/p); requires gcd(k,p)=1."""
    if p in (1, 2) or p < 1:
        raise BadModulus(f"p = {p} is excluded (need p >= 3)")
    if gcd(k % p if k % p else p, p) != 1:
        raise BadModulus(f"gcd(k={k}, p={p}) != 1, so p would not be minimal")
    s = cmath.exp(1j * math.pi * k / p)
    p_prime = p if p % 2 else p // 2
    return QContext(s=s, kind="root_of_unity", p=p, p_prime=p_prime, tol=tol)


def _operand(x):
    """An array of one or more dimensions as a complex array, anything
    else (a number, a 0-d array) as a Python complex, whose parts are
    Python floats."""
    if isinstance(x, np.ndarray) and x.ndim:
        return x.astype(complex, copy=False)
    return complex(x)


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def c_mul(a, b) -> np.ndarray:
    """a * b elementwise (numbers or arrays, broadcast) with the bits of
    CPython's complex product ``_Py_c_prod``, (ar br - ai bi, ar bi + ai br),
    up to the sign of a zero part.

    It is formed as a Re(b) + a (i Im(b)): numpy's complex product with a
    factor whose real or imaginary part is 0 rounds each part once, fused
    or not (the other term is an exact zero), so both terms hold the
    rounded products, and their sum is the CPython sum of the same two."""
    a, b = _operand(a), _operand(b)
    if isinstance(a, complex) and isinstance(b, complex):
        return np.asarray(a * b)
    return a * b.real + a * (1j * b.imag)


def c_div(a, b) -> np.ndarray:
    """a / b elementwise (numbers or arrays, broadcast) with the bits of
    CPython's complex quotient ``_Py_c_quot``: Smith's algorithm, which
    divides through by the part of b of larger modulus (the real part on a
    tie).  A zero b raises ZeroDivisionError, as Python's ``/`` does."""
    a, b = _operand(a), _operand(b)
    br, bi = b.real, b.imag
    if isinstance(b, complex):
        if not b:
            raise ZeroDivisionError("complex division by zero")
        by_real = abs(br) >= abs(bi)
        every, mixed = by_real, False
    else:
        if np.count_nonzero(b) < b.size:
            raise ZeroDivisionError("complex division by zero")
        by_real = np.abs(br) >= np.abs(bi)
        count = np.count_nonzero(by_real)
        every, mixed = count == b.size, 0 < count < b.size
    # big is the part of b divided through with, u the part of a it pairs with
    ar, ai = a.real, a.imag
    if mixed:
        big, small = np.where(by_real, br, bi), np.where(by_real, bi, br)
        u, v = np.where(by_real, ar, ai), np.where(by_real, ai, ar)
    else:
        big, small, u, v = (br, bi, ar, ai) if every else (bi, br, ai, ar)
    ratio = small / big
    denom = big + small * ratio
    ur = u * ratio
    im = np.where(by_real, v - ur, ur - v) if mixed else v - ur if every else ur - v
    return _complex((u + v * ratio) / denom, im / denom)


def _exact_twice(a):
    """2a for an exact exponent a (an int, a HalfInt, an integer array), or
    None."""
    if isinstance(a, HalfInt):
        return a.twice
    if isinstance(a, int) or isinstance(a, np.ndarray) and a.dtype.kind in "iu":
        return 2 * a
    return None


def q_pow(ctx: QContext, a):
    """q^a for a half-integer a, computed through the stored branch s; for
    an integer array or a HalfInt of one, elementwise (``s_powers``)."""
    twice = _exact_twice(a)
    if twice is None:
        twice = HalfInt.of(a).twice
    if isinstance(twice, np.ndarray):
        return ctx.s_powers(twice)
    return ctx.s ** twice


def q_pow_c(ctx: QContext, a):
    """q^a = exp(a*tau) for arbitrary complex a (principal branch of tau);
    elementwise for an array, through ``q_pow`` for exact exponents."""
    if _exact_twice(a) is not None:
        return q_pow(ctx, a)
    if isinstance(a, np.ndarray):
        exponents = c_mul(a, ctx.tau)
        return np.array(list(map(cmath.exp, exponents.ravel().tolist())),
                        dtype=complex).reshape(a.shape)
    return cmath.exp(complex(a) * ctx.tau)


def q_num(ctx: QContext, a):
    """The q-number [a] = (q^a - q^{-a}) / (q - q^{-1}); elementwise for
    an array, from the context's table (``QContext.q_numbers``) for exact
    exponents."""
    w = ctx.q_minus_qinv
    twice = _exact_twice(a)
    if isinstance(twice, np.ndarray):
        return ctx.q_numbers(twice)
    t = q_pow_c(ctx, a)
    if isinstance(t, np.ndarray):
        return c_div(t - c_div(1, t), w)
    return (t - 1 / t) / w


def ctx_to_json(ctx: QContext) -> dict:
    out = {"s": [ctx.s.real, ctx.s.imag], "kind": ctx.kind, "tol": ctx.tol}
    if ctx.is_root_of_unity:
        out["p"] = ctx.p
        out["p_prime"] = ctx.p_prime
    return out


def ctx_from_json(data: dict) -> QContext:
    """The context ``ctx_to_json`` wrote, with its s bits, made through the
    checks of ``generic_ctx`` or ``root_of_unity_ctx``: a root-of-unity
    record must hold s = e^{i pi k/p} for some k coprime to p."""
    s = complex(data["s"][0], data["s"][1])
    tol = float(data.get("tol", QContext.tol))
    if data["kind"] == "generic":
        return generic_ctx(s=s, tol=tol)
    if data["kind"] != "root_of_unity":
        raise BadParam(f"unknown context kind {data['kind']!r}")
    p = int(data["p"])
    ctx = root_of_unity_ctx(p, round(cmath.phase(s) * p / math.pi), tol=tol)
    if not ctx.close(s, ctx.s):
        raise BadModulus(f"s = {s} is not e^(i pi k/{p}): q is no root of unity of order {p}")
    return replace(ctx, s=s)
