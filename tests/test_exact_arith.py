"""Exact complex arithmetic on arrays.

``c_mul`` and ``c_div`` against CPython's scalar ``*`` and ``/``, and the
array forms of ``q_pow``, ``q_pow_c`` and ``q_num`` against their scalar
calls, bit for bit after ``+ 0.0`` (which folds -0.0 into 0.0).  numpy's
own complex ``*`` and ``/`` round differently; these checks must hold
whatever SIMD targets numpy dispatches to, so CI runs this file a second
time with numpy's dispatch off.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from qso3.qscalar import (HalfInt, c_div, c_mul, generic_ctx, q_num, q_pow, q_pow_c,
                          root_of_unity_ctx)

from support import generic_contexts


def _bits(values) -> np.ndarray:
    return (np.asarray(values, dtype=complex) + 0.0).view(np.uint64)


def _assert_bits(got, want):
    got, want = _bits(got), _bits(want)
    assert got.shape == want.shape
    bad = np.flatnonzero(got != want)
    assert not bad.size, f"{bad.size} of {want.size} differ, first at {bad[:5]}"


def _python(op, a, b) -> np.ndarray:
    """The scalar operator on each pair, in Python."""
    return np.array([op(x, y) for x, y in zip(a.tolist(), b.tolist())], dtype=complex)


def _random(rng, n: int) -> np.ndarray:
    """Parts of random sign and magnitude 1e-150 .. 1e150, drawn apart."""
    re = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150, n)
    im = rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150, n)
    return re + 1j * im


def _edge_operands() -> np.ndarray:
    """Every pair of parts from signed zeros, units, ties and extremes."""
    parts = [0.0, -0.0, 1.0, -1.0, 2.5, -3.25, 1e-150, -1e150]
    return np.array([complex(x, y) for x, y in itertools.product(parts, parts)])


def _operand_sets():
    rng = np.random.default_rng(20)
    n = 20000
    scale = 10.0 ** rng.uniform(-150, 150, n)
    tie = scale * rng.choice([-1.0, 1.0], n) + 1j * scale * rng.choice([-1.0, 1.0], n)
    real = rng.normal(size=n) * scale + 0j
    imag = 1j * rng.normal(size=n) * scale
    edge = _edge_operands()
    a_edge, b_edge = (np.array(x) for x in zip(*itertools.product(edge, edge)))
    return {
        "random": (_random(rng, n), _random(rng, n)),
        "same magnitude": ((rng.normal(size=n) + 1j * rng.normal(size=n)) * scale,
                           (rng.normal(size=n) + 1j * rng.normal(size=n)) * scale[::-1]),
        "ties": (_random(rng, n), tie),
        "real divisor": (_random(rng, n), real),
        "imaginary divisor": (_random(rng, n), imag),
        "real and imaginary": (real, imag),
        "edges": (a_edge, b_edge),
    }


OPERANDS = _operand_sets()


@pytest.mark.parametrize("kind", sorted(OPERANDS))
def test_product_is_pythons(kind):
    a, b = OPERANDS[kind]
    _assert_bits(c_mul(a, b), _python(lambda x, y: x * y, a, b))


@pytest.mark.parametrize("kind", sorted(OPERANDS))
def test_quotient_is_pythons(kind):
    a, b = OPERANDS[kind]
    nonzero = b != 0
    a, b = a[nonzero], b[nonzero]
    _assert_bits(c_div(a, b), _python(lambda x, y: x / y, a, b))


@pytest.mark.parametrize("kind", sorted(OPERANDS))
def test_reciprocal_is_pythons(kind):
    b = OPERANDS[kind][1]
    b = b[b != 0]
    _assert_bits(c_div(1, b), np.array([1 / y for y in b.tolist()], dtype=complex))


def test_numbers_broadcast():
    rng = np.random.default_rng(3)
    a = _random(rng, 50)
    for z in (1.3 + 0.2j, -0.7j, 2.0, 1 + 1j):
        _assert_bits(c_mul(a, z), [x * z for x in a.tolist()])
        _assert_bits(c_mul(z, a), [z * x for x in a.tolist()])
        _assert_bits(c_div(a, z), [x / z for x in a.tolist()])
        _assert_bits(c_div(z, a), [z / x for x in a.tolist()])
    assert c_mul(2j, 3.0).shape == () and c_div(2j, 3.0) == 2j / 3.0


def test_zero_divisor_raises():
    with pytest.raises(ZeroDivisionError):
        c_div(np.ones(3), np.array([1.0, 0.0, 2.0j]))
    with pytest.raises(ZeroDivisionError):
        c_div(1, complex(-0.0, 0.0))


def _contexts():
    return generic_contexts() + [root_of_unity_ctx(8, 1)]


@pytest.mark.parametrize("ctx", _contexts(), ids=lambda c: f"s={c.s:.3f}")
def test_powers_and_q_numbers_are_the_scalar_calls(ctx):
    # s ** t takes CPython's repeated squaring at |t| <= 100 and exp/log above
    twice = np.arange(-261, 262)
    half = HalfInt(twice)
    _assert_bits(q_pow(ctx, half), [q_pow(ctx, HalfInt(t)) for t in twice.tolist()])
    _assert_bits(q_num(ctx, half), [q_num(ctx, HalfInt(t)) for t in twice.tolist()])
    ints = np.arange(-130, 131)
    for fn in (q_pow, q_pow_c, q_num):
        _assert_bits(fn(ctx, ints), [fn(ctx, k) for k in ints.tolist()])
    shifted = 0.3 + 0.2j + ints
    for fn in (q_pow_c, q_num):
        _assert_bits(fn(ctx, shifted), [fn(ctx, z) for z in shifted.tolist()])
    # real exponents that are not half-integer arrays take the exp path
    reals = ints + 0.25
    _assert_bits(q_num(ctx, reals), [q_num(ctx, x) for x in reals.tolist()])


@pytest.mark.parametrize("ctx", [generic_ctx(q=np.exp(0.37j)), root_of_unity_ctx(8, 1)],
                         ids=["e^0.37i", "p=8"])
def test_tables_grow_both_ways(ctx):
    # a context's tables of powers and q-numbers, grown below and above
    # by later calls, keep the bits of the scalar calls
    for twice in (np.array([3, 5]), np.arange(-2, 0), np.arange(150, 160, 3),
                  np.array([[7, -300], [4, 4]]), np.arange(0, 0)):
        scalar = [HalfInt(t) for t in twice.ravel().tolist()]
        for fn in (q_pow, q_num):
            got = fn(ctx, HalfInt(twice))
            assert got.shape == twice.shape
            _assert_bits(got, np.array([fn(ctx, h) for h in scalar],
                                       dtype=complex).reshape(twice.shape))
