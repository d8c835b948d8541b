"""Scalar layer: frozen values, branch handling, tolerance policy."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import GENERIC_QS

from qso3.errors import BadModulus, BadParam, BadRange, CtxMismatch, DegenerateQ
from qso3.qscalar import (HalfInt, QContext, ctx_from_json, ctx_to_json, generic_ctx, q_num,
                          q_pow, q_pow_c, root_of_unity_ctx, sign_of)


class TestHalfInt:
    def test_parse_and_str(self):
        assert HalfInt.parse("3/2").twice == 3
        assert HalfInt.parse("-1/2").twice == -1
        assert HalfInt.parse("2").twice == 4
        assert str(HalfInt(3)) == "3/2"
        assert str(HalfInt(4)) == "2"

    def test_exact_arithmetic(self):
        a, b = HalfInt(3), HalfInt(-1)
        assert (a + b).twice == 2
        assert (a - b).twice == 4
        assert (-a).twice == -3
        assert a > b
        assert HalfInt(2).is_integer()
        assert not HalfInt(3).is_integer()

    def test_of_coercions(self):
        assert HalfInt.of(2).twice == 4
        assert HalfInt.of(0.5).twice == 1
        with pytest.raises(TypeError):
            HalfInt.of(0.3)


class TestSignOf:
    @pytest.mark.parametrize("x, want", [
        (1, 1), (-1, -1), (1.0, 1), (-1.0, -1), (np.int64(-1), -1),
        ("+", 1), ("+1", 1), ("1", 1), ("-", -1), ("-1", -1), (" - ", -1)])
    def test_spellings(self, x, want):
        got = sign_of(x)
        assert got == want and type(got) is int

    @pytest.mark.parametrize("x", [1.5, -1.7, "x", 0, 2, -0.5, math.nan, "1.0", "+-", "",
                                   None, 1j])
    def test_anything_else_is_bad_param(self, x):
        # 1.5 read as +1 and -1.7 as -1, and "x" raised a bare ValueError
        with pytest.raises(BadParam, match="cannot parse sign"):
            sign_of(x)


class TestQPow:
    def test_sqrt_branch_is_data(self):
        ctx = generic_ctx(q=4)
        assert ctx.s == 2
        assert q_pow(ctx, HalfInt(1)) == 2
        assert q_pow(ctx, 0) == 1
        assert q_pow(ctx, HalfInt(-3)) == pytest.approx(0.125)

    def test_q_pow_c_consistency(self):
        ctx = generic_ctx(q=4)
        assert q_pow_c(ctx, 1) == pytest.approx(4)
        assert q_pow_c(ctx, 0.5) == pytest.approx(2)

    def test_complex_exponent(self):
        ctx = generic_ctx(q=cmath.exp(0.3j))
        assert q_pow_c(ctx, 1j) == pytest.approx(math.exp(-0.3))


class TestQNum:
    def test_forced_values(self):
        ctx = generic_ctx(q=4)
        assert q_num(ctx, 0) == 0
        assert q_num(ctx, 1) == pytest.approx(1)

    def test_frozen_examples(self):
        ctx = generic_ctx(q=4)
        # (2 - 0.5) / (4 - 0.25)
        assert q_num(ctx, HalfInt(1)) == pytest.approx(0.4)
        # q + 1/q
        assert q_num(ctx, 2) == pytest.approx(4.25)

    def test_degenerate_q(self):
        ctx = generic_ctx(q=2.0)
        broken = type(ctx)(s=1.0 + 0j, kind="generic", tol=1e-9)
        with pytest.raises(DegenerateQ):
            q_num(broken, 1)
        # a raise caches nothing: the second call raises too
        with pytest.raises(DegenerateQ):
            q_num(broken, 2)


class TestContextCache:
    @pytest.mark.parametrize("ctx", [generic_ctx(q=1.3), generic_ctx(q=cmath.exp(0.37j)),
                                     root_of_unity_ctx(8, 3)])
    def test_fields_only_after_derived_reads(self, ctx):
        fresh = QContext(ctx.s, ctx.kind, ctx.p, ctx.p_prime, ctx.tol)
        before = (repr(fresh), hash(fresh), ctx_to_json(fresh))
        assert (ctx.q, ctx.tau, ctx.q_minus_qinv) == (
            ctx.s * ctx.s, cmath.log(ctx.s * ctx.s), ctx.s * ctx.s - 1 / (ctx.s * ctx.s))
        assert ctx == fresh and fresh == ctx
        assert (repr(ctx), hash(ctx), ctx_to_json(ctx)) == before
        assert ctx_from_json(ctx_to_json(ctx)) == ctx
        assert {ctx, fresh} == {fresh}


class TestRootOfUnityCtx:
    def test_odd_p(self):
        ctx = root_of_unity_ctx(3, 1)
        assert ctx.q == pytest.approx(cmath.exp(2j * math.pi / 3))
        assert ctx.p_prime == 3

    def test_even_p(self):
        ctx = root_of_unity_ctx(8, 1)
        assert ctx.q == pytest.approx(cmath.exp(1j * math.pi / 4))
        assert ctx.p_prime == 4

    def test_bad_modulus(self):
        with pytest.raises(BadModulus):
            root_of_unity_ctx(2, 1)
        with pytest.raises(BadModulus):
            root_of_unity_ctx(6, 2)

    def test_generic_rejects_roots(self):
        with pytest.raises(BadModulus):
            generic_ctx(q=cmath.exp(2j * math.pi / 5))

    @pytest.mark.parametrize("q", [1, 1 + 1e-11])
    def test_generic_rejects_the_classical_point(self, q):
        # root_of_unity_ctx(p=1) is excluded too, so the message must not point there
        with pytest.raises(BadModulus, match="q = 1 is excluded") as err:
            generic_ctx(q=q)
        assert "p=1" not in str(err.value) and "root_of_unity_ctx" not in str(err.value)

    def test_generic_rejects_a_degenerate_q_minus_qinv(self):
        # |q - 1| = 3 is above tol, but |q - 1/q| = 3.75 is within tol |q| = 4
        # of zero, where every q-number would raise
        with pytest.raises(DegenerateQ):
            generic_ctx(q=4.0, tol=1.0)

    def test_json_round_trip(self):
        for ctx in (generic_ctx(q=1.3), root_of_unity_ctx(8, 3)):
            back = ctx_from_json(ctx_to_json(ctx))
            assert back.s == pytest.approx(ctx.s)
            assert back.kind == ctx.kind
            assert back.p == ctx.p



def _test_contexts():
    """The contexts the tests build: every root of unity of order 3..80 at
    every exponent k with |k| <= 2p, and the generic q values, at the
    tolerances the tests set."""
    tols = (1e-9, 1e-6, 0.0, 1e-20)
    qs = [*GENERIC_QS, 2.0, 0.6, 1.05, -1.7 + 0.4j, *(np.exp(t * 1j) for t in (
        0.01, 0.1, 0.3, 2.9, -1.3)), *(1 + 10.0 ** -e for e in range(1, 6))]
    roots = [root_of_unity_ctx(p, k, tol=tol) for p in range(3, 81)
             for k in range(-2 * p, 2 * p + 1) if math.gcd(k, p) == 1 for tol in tols]
    return roots + [generic_ctx(q=q, tol=tol) for q in qs for tol in tols]


class TestContextJson:
    def test_every_test_context_round_trips_bit_for_bit(self):
        for ctx in _test_contexts():
            back = ctx_from_json(json.loads(json.dumps(ctx_to_json(ctx))))
            # the repr shows every field, s with its shortest round-trip digits
            assert repr(back) == repr(ctx) and back == ctx

    @pytest.mark.parametrize("data", [
        {"s": [1.0, 0.0], "kind": "generic"},  # q = 1
        {"s": [0.0, 1.0], "kind": "generic"},  # q = -1
        {"s": [0.8090169943749475, 0.5877852522924731], "kind": "generic"},  # q^5 = 1
        {"s": [0.0, 1.0], "kind": "root_of_unity", "p": 2},
        {"s": [0.5, 0.0], "kind": "root_of_unity", "p": 5},  # q = 0.25
        {"s": [0.4045084971874737, 0.29389262614623657], "kind": "root_of_unity",
         "p": 5},  # s = e^{i pi/5} / 2, q = e^{2 i pi/5} / 4
        {"s": [math.cos(0.7), math.sin(0.7)], "kind": "root_of_unity", "p": 5},
        {"s": [0.8090169943749475, 0.5877852522924731], "kind": "root_of_unity",
         "p": 10},  # q = e^{2 i pi/5} has order 5, not 10
    ])
    def test_records_that_name_no_context_rejected(self, data):
        with pytest.raises(BadModulus):
            ctx_from_json(data)

    def test_degenerate_q_minus_qinv_rejected(self):
        with pytest.raises(DegenerateQ):
            ctx_from_json({"s": [2.0, 0.0], "kind": "generic", "tol": 1.0})

    def test_unknown_kind_rejected(self):
        with pytest.raises(BadParam, match="kind"):
            ctx_from_json({"s": [1.1, 0.0], "kind": "classical"})

    def test_stored_s_kept(self):
        # s = -e^{i pi/5} is e^{i pi k/5} at k = -4: q is the same, s is not
        ctx = root_of_unity_ctx(5, 1)
        data = {**ctx_to_json(ctx), "s": [-ctx.s.real, -ctx.s.imag]}
        back = ctx_from_json(data)
        assert back.s == -ctx.s and back.p == 5 and back.p_prime == 5


halfints = st.integers(min_value=-40, max_value=40).map(HalfInt)


class TestTolerancePolicy:
    def test_default_levels(self, q13):
        # the values the scattered constants had, bit for bit
        assert QContext.tol == q13.tol == 1e-9
        assert q13.threshold() == 1e-9
        assert q13.separation() == 1e-8
        assert q13.orbit_drop() == 100 * 1e-9
        assert q13.algebra_drop() == 1e-10
        assert q13.invariance() == 1e-5
        assert q13.matching() == 1e-6
        assert q13.floor() == 1e-12

    def test_levels_follow_tol_and_magnitudes(self):
        ctx = generic_ctx(q=1.3, tol=1e-6)
        assert ctx.separation() == pytest.approx(1e-5)
        assert ctx.separation(0.5, 30.0) == pytest.approx(3e-4)
        assert ctx.matching() == pytest.approx(1e-3)
        assert ctx.floor(30.0) == pytest.approx(3e-11)

    def test_floor_bounds_every_level(self):
        ctx = generic_ctx(q=1.3, tol=1e-20)
        for level in (ctx.threshold, ctx.separation, ctx.algebra_drop, ctx.matching):
            assert level() == ctx.floor()
            assert level(5.0) == ctx.floor(5.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_bad_tol_rejected_where_a_context_is_made(self, tol):
        # NaN passed every level comparison as false, inf made q = 1.3 read as
        # q = -1, and a negative tol failed residuals of 0
        makers = (lambda: generic_ctx(q=1.3, tol=tol), lambda: root_of_unity_ctx(5, tol=tol),
                  lambda: ctx_from_json({"s": [1.1, 0.0], "kind": "generic", "tol": tol}),
                  lambda: QContext(1.1 + 0j, "generic", tol=tol))
        for make in makers:
            with pytest.raises(BadParam, match="tol"):
                make()

    def test_zero_tol_is_legal(self):
        ctx = generic_ctx(q=1.3, tol=0)
        assert ctx.tol == 0 and ctx.threshold() == ctx.floor() == 1e-12

    def test_default_written_once(self):
        assert generic_ctx(q=1.3).tol == root_of_unity_ctx(5).tol == QContext.tol
        assert ctx_from_json({"s": [1.1, 0.0], "kind": "generic"}).tol == QContext.tol

    def test_require_same(self, q13, q4, p5):
        q13.require_same(generic_ctx(q=1.3))
        for other in (q4, p5):
            with pytest.raises(CtxMismatch):
                q13.require_same(other)

    def test_domain_guards(self, q13, p5):
        p5.require_root()
        q13.require_generic("generic only")
        q13.require_weight_range(HalfInt(99))
        p5.require_weight_range(HalfInt(4))
        with pytest.raises(BadParam, match="requires a root-of-unity context"):
            q13.require_root()
        with pytest.raises(BadParam, match="^generic only$"):
            p5.require_generic("generic only")
        with pytest.raises(BadRange, match="2l = 5 >= p' = 5"):
            p5.require_weight_range(HalfInt(5))


class TestProperties:
    @given(a=halfints)
    @settings(max_examples=60, deadline=None)
    def test_q_num_antisymmetry(self, a):
        ctx = generic_ctx(q=1.3)
        x, y = q_num(ctx, a), q_num(ctx, -a)
        assert abs(x + y) <= 1e-12 * max(1.0, abs(x))

    @given(a=st.integers(-100, 100), b=st.integers(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_q_pow_additivity(self, a, b):
        ctx = generic_ctx(q=cmath.exp(0.37j))
        lhs = q_pow(ctx, HalfInt(a + b))
        rhs = q_pow(ctx, HalfInt(a)) * q_pow(ctx, HalfInt(b))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    @given(a=st.integers(-40, 40))
    @settings(max_examples=60, deadline=None)
    def test_branch_consistency(self, a):
        # principal square root context: both power paths agree
        for q in (1.3, 4.0, cmath.exp(0.37j)):
            ctx = generic_ctx(q=q)
            lhs = q_pow(ctx, HalfInt(a))
            rhs = q_pow_c(ctx, a / 2)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(a=halfints, p=st.sampled_from([3, 5, 7, 8]))
    @settings(max_examples=40, deadline=None)
    def test_root_of_unity_period_sign(self, a, p):
        ctx = root_of_unity_ctx(p, 1)
        pp = ctx.p_prime
        sign = q_pow(ctx, pp)  # +1 or -1
        lhs = q_num(ctx, a + HalfInt(2 * pp))
        rhs = sign * q_num(ctx, a)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
