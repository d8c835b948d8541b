"""sl2-side families: weight families, extendability, cyclic families."""

import itertools
import json

import numpy as np
import pytest

from support import (finite_sl2_samples, generic_contexts, reference_delta_tensor,
                     reference_is_extendable, rng_params, root_contexts, unitary_conjugate)
from qso3.errors import BadParam, BadRange, CtxMismatch
from qso3.qscalar import HalfInt, generic_ctx, q_pow, root_of_unity_ctx
from qso3.repcore import FamilyDescriptor, Sl2FiniteRep, rep_to_json, verify_sl2
from qso3.structure import (are_equivalent, burnside_dim, cluster, is_irreducible,
                            _multiset_close)
from qso3.uqsl2 import (EXTEND_SCAN_MARGIN, OMEGAS, _candidate_pairs, classify_epsilon,
                        cyclic_dim, delta_tensor, is_extendable, t_a_epsilon, t_ab_lambda,
                        t_omega_l, t_prime_0b_lambda, t_tilde_ab_lambda)

H = HalfInt.parse


class TestWeightFamilies:
    def test_frozen_half(self, q4):
        t = t_omega_l(q4, H("1/2"), 1)
        assert np.allclose(np.diag(t.K), [0.5, 2.0])
        assert t.E[1, 0] == pytest.approx(1.0)  # E|-1/2> = [1] |1/2>
        assert abs(t.E[:, 1]).max() == 0       # E|1/2> = 0
        assert t.F[0, 1] == pytest.approx(1.0)
        assert abs(t.F[:, 0]).max() == 0

    def test_trivial(self, q4):
        t = t_omega_l(q4, 0, 1)
        assert t.dim == 1
        assert t.K[0, 0] == 1
        assert abs(t.E).max() == 0 and abs(t.F).max() == 0

    def test_i_twist_negates_f(self, q4):
        t1 = t_omega_l(q4, H("1/2"), 1)
        ti = t_omega_l(q4, H("1/2"), "i")
        assert np.allclose(ti.K, 1j * t1.K)
        assert np.allclose(ti.E, t1.E)
        assert np.allclose(ti.F, -t1.F)

    def test_root_range_guard(self, p5):
        t_omega_l(p5, H("2"), 1)  # 2l = 4 < 5
        with pytest.raises(BadRange):
            t_omega_l(p5, H("5/2"), 1)

    def test_four_twists_pairwise_distinct_spectra(self, q13):
        for l in (H("1"), H("3/2")):
            specs = []
            for omega in ("1", "-1", "i", "-i"):
                vals = np.diag(t_omega_l(q13, l, omega).K)
                specs.append(cluster(vals, 1e-9))
            for i in range(4):
                for j in range(i + 1, 4):
                    assert not _multiset_close(specs[i], specs[j], 1e-8)


class TestExtendability:
    def test_real_twists_always(self, q13):
        for tw in range(0, 10):
            for omega in ("1", "-1"):
                ok, _ = is_extendable(t_omega_l(q13, HalfInt(tw), omega))
                assert ok

    def test_i_twists_iff_half_odd(self, q13):
        for tw in range(0, 10):
            l = HalfInt(tw)
            for omega in ("i", "-i"):
                ok, witness = is_extendable(t_omega_l(q13, l, omega))
                assert ok == (not l.is_integer()), (l, omega)
                if not ok:
                    k, mu = witness
                    # failing eigenvalue satisfies mu^2 = -q^{-2k}
                    assert abs(mu * mu + q_pow(q13, -2 * k)) <= 1e-9

    def test_integer_l_witness_at_zero_weight(self, q4):
        ok, witness = is_extendable(t_omega_l(q4, 1, "i"))
        assert not ok
        assert witness == (0, pytest.approx(1j))

    def test_cyclic_lambda_condition(self, p5):
        ok, _ = is_extendable(t_ab_lambda(p5, 1, 1, 2))
        assert ok
        bad = t_ab_lambda(p5, 1, 1, 1j * p5.q ** 2)
        ok, _ = is_extendable(bad)
        assert not ok

    def test_twisted_range_at_roots(self):
        # computed directly from eigenvalues: for odd p the shifted sums
        # 2(m + k) can always hit a multiple of p, so no twisted family
        # extends; for even p the half-odd-l families extend up to the
        # weight-range cap
        for p in (5, 7):
            ctx = root_of_unity_ctx(p, 1)
            for l in range(1, ctx.p_prime):
                ok, _ = is_extendable(t_omega_l(ctx, HalfInt(l), "i"))
                assert not ok, (p, l)
        for p in (6, 8):
            ctx = root_of_unity_ctx(p, 1)
            for tw in range(1, ctx.p_prime):
                l = HalfInt(tw)
                ok, _ = is_extendable(t_omega_l(ctx, l, "i"))
                assert ok == (not l.is_integer()), (p, l)


def _cg_pool_products(ctx):
    """delta_tensor products of the Clebsch-Gordan table pool: T_l factors
    with real twists up to l = 5/2 and i-twists at l = 1/2, 3/2, 5/2, in
    every unordered pair of product dimension 12-30."""
    facs = [(o, HalfInt(t)) for o in ("1", "-1") for t in range(0, 6)]
    facs += [(o, HalfInt(t)) for o in ("i", "-i") for t in (1, 3, 5)]
    return [delta_tensor(t_omega_l(ctx, la, oa), t_omega_l(ctx, lb, ob))
            for i, (oa, la) in enumerate(facs) for ob, lb in facs[i:]
            if 12 <= (la.twice + 1) * (lb.twice + 1) <= 30]


class TestExtendabilityReference:
    """The array scan gives the (ok, witness) of the scalar double loop."""

    def _check(self, reps, failing=None):
        results = []
        for rep in reps:
            got = is_extendable(rep)
            assert got == reference_is_extendable(rep), rep.family
            results.append(got[0])
        if failing is not None:
            assert results.count(False) >= failing
        return results

    def test_finite_samples(self):
        for ctx in generic_contexts() + root_contexts():
            self._check([rep for _, rep in finite_sl2_samples(ctx)], failing=1)

    def test_cg_pool_products(self, q13):
        prods = _cg_pool_products(q13)
        assert len(prods) > 30
        self._check(prods, failing=1)

    def test_i_twisted_integer_l(self):
        reps = [t_omega_l(ctx, HalfInt(tw), omega)
                for ctx in generic_contexts() for tw in (0, 2, 4, 8)
                for omega in ("i", "-i")]
        reps += [t_omega_l(ctx, HalfInt(tw), "i") for ctx in root_contexts()
                 for tw in range(0, ctx.p_prime, 2)]
        assert not any(self._check(reps))

    def test_cyclic_failing_lambda(self):
        reps = []
        for ctx in root_contexts():
            for n in range(ctx.p):
                qn = q_pow(ctx, n)
                reps += [t_ab_lambda(ctx, 1, 1, 1j * qn), t_ab_lambda(ctx, 0, 0.5, -1j * qn),
                         t_tilde_ab_lambda(ctx, 1, 1, qn),
                         t_prime_0b_lambda(ctx, 0.5, 1j * qn)]
        assert not any(self._check(reps))

    def test_banded_lattice_family(self):
        for ctx in generic_contexts():
            special = 1j * np.pi / (2 * ctx.tau)
            eps_values = (0.4, 0.25 + 0.1j, special, special + 2, special + 0.5)
            results = self._check([t_a_epsilon(ctx, 0.3 + 0.2j, eps)
                                   for eps in eps_values])
            assert results == [True, True, False, False, True]


def _reference_or_none(rep):
    """The reference scan, or None where q^(2k) or q^(2k) mu^2 overflows in it."""
    try:
        with np.errstate(over="raise"):
            return reference_is_extendable(rep)
    except (OverflowError, FloatingPointError):
        return None


class TestExtendabilityNearestShifts:
    """Off the unit circle only the shifts next to -log|mu| / log|q| are
    tested; the answer and witness are those of the full scan."""

    @pytest.mark.parametrize("q", [2.0, 4.0, 1.3, 0.6, -1.7 + 0.4j, np.exp(0.37j)])
    def test_products_match_reference(self, q):
        ctx = generic_ctx(q=q)
        failing = 0
        for (oa, ta), (ob, tb) in itertools.combinations_with_replacement(
                [("1", 1), ("1", 6), ("-1", 9), ("i", 1), ("i", 5), ("-i", 9)], 2):
            rep = delta_tensor(t_omega_l(ctx, HalfInt(ta), oa), t_omega_l(ctx, HalfInt(tb), ob))
            want = _reference_or_none(rep)
            assert want is not None and is_extendable(rep) == want, rep.family
            failing += not want[0]
        assert failing >= 3

    def test_failing_shift_above_the_computed_one(self, q13):
        # mu = i q^-2 fails at k = 2, where -log|mu| / log|q| rounds to
        # 1.9999999999999996: the shift above it is tested too
        mu = 1j * q_pow(q13, -2)
        rep = Sl2FiniteRep(q13, np.array([[mu]]), np.array([[1 / mu]]), np.zeros((1, 1)),
                           np.zeros((1, 1)), FamilyDescriptor("K"))
        assert is_extendable(rep) == reference_is_extendable(rep) == (False, (2, mu))

    def test_overflowing_reference(self):
        # T_{15/2} (x) T_{15/2} at q = 2: the full scan overflows, the
        # nearest shifts do not
        t = t_omega_l(generic_ctx(q=2.0), H("15/2"), "1")
        rep = delta_tensor(t, t)
        assert _reference_or_none(rep) is None
        assert is_extendable(rep) == (True, None)


class TestCyclicFamilies:
    def test_dimensions(self):
        for p, expected_dim in ((3, 3), (5, 5), (7, 7), (8, 8)):
            ctx = root_of_unity_ctx(p, 1)
            assert t_ab_lambda(ctx, 1, 1, 2).dim == expected_dim
        # wrap-free point stays at p'
        ctx = root_of_unity_ctx(8, 1)
        assert t_ab_lambda(ctx, 0, 0, 2).dim == 4
        assert cyclic_dim(ctx, False) == 4
        assert cyclic_dim(ctx, True) == 8

    def test_relations(self, p5):
        rep = t_ab_lambda(p5, 1, 1, 2)
        assert verify_sl2(rep).max_residual <= 1e-10

    def test_commutator_on_wraparound(self, p5):
        rep = t_ab_lambda(p5, 1.2, 0.7, 1.9)
        w = p5.q - 1 / p5.q
        lhs = rep.E @ rep.F - rep.F @ rep.E
        rhs = (rep.K @ rep.K - rep.Kinv @ rep.Kinv) / w
        assert np.max(np.abs((lhs - rhs)[:, 0])) <= 1e-10  # includes |0> wrap

    def test_reducible_flags(self, p5):
        assert t_ab_lambda(p5, 0, 0, 1.0).flags.get("reducible")
        assert t_ab_lambda(p5, 0, 0, p5.q).flags.get("reducible")
        # the raising chain does not break at lambda = q^2 when p = 5
        assert not t_ab_lambda(p5, 0, 0, p5.q ** 2).flags.get("reducible")
        assert not t_ab_lambda(p5, 1, 1, p5.q ** 2).flags.get("reducible")
        assert t_prime_0b_lambda(p5, 0, -p5.q).flags.get("reducible")

    def test_tilde_reducible_where_plain_is(self, p5):
        # the tilde stepper is the plain one negated, so its chain breaks at
        # the same lambda; the algebra is then short of the full 25
        for lam, bdim in ((1.0, 21), (p5.q, 19)):
            plain, tilde = t_ab_lambda(p5, 0, 0, lam), t_tilde_ab_lambda(p5, 0, 0, lam)
            assert plain.flags.get("reducible") and tilde.flags.get("reducible")
            assert not is_irreducible(tilde)[0]
            assert burnside_dim(tilde) == (bdim, True)
        assert not t_tilde_ab_lambda(p5, 0, 0, p5.q ** 2).flags.get("reducible")

    def test_prime_kills_lowering_at_zero(self, p5):
        rep = t_prime_0b_lambda(p5, 0.5, 2)
        assert abs(rep.F[:, 0]).max() == 0
        assert verify_sl2(rep).max_residual <= 1e-10

    def test_lambda_zero_rejected(self, p5):
        with pytest.raises(BadParam):
            t_ab_lambda(p5, 1, 1, 0)

    def test_tilde_equivalent_to_i_lambda(self, p5, p8):
        for ctx in (p5, p8):
            tt = t_tilde_ab_lambda(ctx, 1, 1, 2)
            assert verify_sl2(tt).max_residual <= 1e-10
            assert np.allclose(np.diag(tt.K),
                               [1j * q_pow(ctx, -i) * 2 for i in range(tt.dim)])
            assert are_equivalent(tt, t_ab_lambda(ctx, 1, 1, 2j))

    def test_registry_samples_all_verify(self):
        for p in (3, 5, 7, 8):
            ctx = root_of_unity_ctx(p, 1)
            for label, rep in finite_sl2_samples(ctx):
                assert verify_sl2(rep).max_residual <= 1e-9, (p, label)


class TestLatticeFamily:
    def test_windowed_relations(self, q13):
        rep = t_a_epsilon(q13, 0.3 + 0.2j, 0.4)
        assert verify_sl2(rep, window=20).max_residual <= 1e-10

    def test_irreducibility_flag(self, q13):
        assert t_a_epsilon(q13, 0.3 + 0.2j, 0.4).flags["irreducible"]
        assert not t_a_epsilon(q13, 0.4, 0.4).flags["irreducible"]

    def test_special_offset_flagged(self, q13):
        eps0 = 1j * np.pi / (2 * q13.tau)
        assert classify_epsilon(q13, eps0) == "special0"
        assert classify_epsilon(q13, eps0 + 0.5) == "special_half"
        assert classify_epsilon(q13, 0.4) == "generic"
        rep = t_a_epsilon(q13, 0.3, eps0)
        assert not rep.flags["extendable"]
        rep = t_a_epsilon(q13, 0.3, eps0 + 0.5)
        assert rep.flags["extendable"]

    @pytest.mark.parametrize("q", [1.3, 4.0, 0.6, -1.7 + 0.4j, np.exp(0.37j)])
    def test_one_rule_on_the_offset_grid(self, q):
        # eps = eps_r + j + x about the solutions eps_r of q^(2 eps) = -1,
        # with shifts j inside, at and beyond the reach 210 of the band scan:
        # the class, the flag and the scan of the family agree everywhere
        ctx = generic_ctx(q=q)
        js = sorted(set(range(-260, 261, 13)) | {-211, -210, -65, 65, 210, 211})
        for r, j, x in itertools.product((-12, -9, 0, 3, 9, 15), js, (0, 0.5, 0.31 + 0.07j)):
            eps = 1j * np.pi * (2 * r + 1) / (2 * ctx.tau) + j + x
            rep = t_a_epsilon(ctx, 0.3, eps)
            ok = is_extendable(rep)[0]
            kind = classify_epsilon(ctx, eps)
            assert (kind == "special0") == (not ok) and rep.flags["extendable"] == ok, (r, j, x)
            in_reach = abs(j) <= 210
            assert kind == ("special0" if x == 0 and in_reach else
                            "special_half" if x == 0.5 and in_reach else "generic"), (r, j, x)


class TestDeltaTensor:
    def test_kron_order(self, q4):
        t = t_omega_l(q4, H("1/2"), 1)
        dt = delta_tensor(t, t)
        assert np.allclose(np.diag(dt.K), [0.25, 1, 1, 4])

    def test_unit_factor(self, q13):
        t0 = t_omega_l(q13, 0, 1)
        t = t_omega_l(q13, H("3/2"), 1)
        dt = delta_tensor(t0, t)
        assert np.allclose(dt.K, t.K) and np.allclose(dt.E, t.E)

    def test_algebra_map(self, q13):
        dt = delta_tensor(t_omega_l(q13, 1, "i"), t_omega_l(q13, H("1/2"), "-1"))
        assert verify_sl2(dt).max_residual <= 1e-10

    def test_fields_are_the_dense_kron(self):
        """Weight-family products at generic q, and weight and cyclic
        products at p = 5-16 (cyclic wraps whose offsets coincide), equal
        the ``np.kron`` reference entry for entry."""
        pairs = []
        for ctx in generic_contexts():
            facs = [t_omega_l(ctx, HalfInt(tw), o) for tw in (0, 1, 4, 7) for o in ("1", "i")]
            pairs += itertools.product(facs, facs)
            pairs.append((t_omega_l(ctx, H("13/2"), "1"), t_omega_l(ctx, H("13/2"), "-i")))
        for p in range(5, 17):
            ctx = root_of_unity_ctx(p, 1)
            facs = [t_omega_l(ctx, 1, "1"), t_omega_l(ctx, H("1/2"), "i"),
                    t_ab_lambda(ctx, 0.7 + 0.3j, 1.2, 1.7 + 0.6j), t_ab_lambda(ctx, 0, 0, 2.0),
                    t_prime_0b_lambda(ctx, 0.5, 2.0), t_tilde_ab_lambda(ctx, 1, 1, 1.3 - 0.4j)]
            pairs += itertools.product(facs, facs)
        for ta, tb in pairs:
            dt = delta_tensor(ta, tb)
            want = reference_delta_tensor(ta, tb)
            # the dump reads the handed-over diagonals, zero signs included
            dense = Sl2FiniteRep(ta.ctx, *want, dt.family)
            assert json.dumps(rep_to_json(dt)) == json.dumps(rep_to_json(dense)), dt.family
            for name, mat in zip(dt.GENERATORS, want):
                assert np.array_equal(getattr(dt, name), mat), (ta.family, tb.family, name)
        assert len(pairs) == 3 * 65 + 12 * 36

    def test_ctx_mismatch(self, q13, q4):
        with pytest.raises(CtxMismatch):
            delta_tensor(t_omega_l(q13, 1, 1), t_omega_l(q4, 1, 1))

    def test_extendability_pattern(self, q13):
        # real x real: always; real(int) x i(half-odd): yes;
        # real(half-odd) x i: no; i x i (both half-odd): yes
        def ok(oa, la, ob, lb):
            res, _ = is_extendable(
                delta_tensor(t_omega_l(q13, H(la), oa), t_omega_l(q13, H(lb), ob)))
            return res

        for la in ("0", "1/2", "1", "3/2", "2", "5/2"):
            for lb in ("0", "1/2", "1", "3/2", "2", "5/2"):
                assert ok("1", la, "-1", lb)
        assert ok("1", "1", "i", "3/2")
        assert ok("-1", "2", "-i", "1/2")
        assert not ok("1", "1/2", "i", "3/2")
        assert not ok("-1", "3/2", "-i", "5/2")
        assert ok("i", "1/2", "i", "3/2")
        assert ok("i", "5/2", "-i", "1/2")


def _diagonal_k(ctx, mus):
    """An sl2 datum with K = diag(mus) and E = F = 0: extendability only
    reads the K-eigenvalues."""
    mus = np.asarray(mus, dtype=complex)
    zero = np.zeros((len(mus), len(mus)), dtype=complex)
    return Sl2FiniteRep(ctx, np.diag(mus), np.diag(1 / mus), zero, zero,
                        FamilyDescriptor("K"))


CIRCLE_QS = [np.exp(0.01j), np.exp(0.37j), np.exp(2.9j), np.exp(-1.3j)]


class TestExtendabilityCandidates:
    """Only candidate pairs (k, mu) are tested, on and off the unit circle;
    answer and witness are those of the full scan."""

    @pytest.mark.parametrize("q", CIRCLE_QS)
    def test_weight_families_on_the_circle(self, q):
        ctx = generic_ctx(q=q)
        reps = [t_omega_l(ctx, HalfInt(tw), omega)
                for tw in (0, 1, 2, 5, 8, 13) for omega in OMEGAS]
        results = [is_extendable(rep) for rep in reps]
        assert results == [reference_is_extendable(rep) for rep in reps]
        # i-twisted integer l fails at k = 0 on the zero weight
        for tw in (0, 2, 8):
            for omega in ("i", "-i"):
                ok, (k, mu) = is_extendable(t_omega_l(ctx, HalfInt(tw), omega))
                assert not ok and k == 0 and abs(mu * mu + 1) <= 1e-12

    @pytest.mark.parametrize("q", CIRCLE_QS)
    def test_products_on_the_circle(self, q):
        ctx = generic_ctx(q=q)
        failing = 0
        for (oa, ta), (ob, tb) in itertools.combinations_with_replacement(
                [("1", 1), ("-1", 4), ("i", 1), ("i", 3), ("-i", 4)], 2):
            rep = delta_tensor(t_omega_l(ctx, HalfInt(ta), oa), t_omega_l(ctx, HalfInt(tb), ob))
            got = is_extendable(rep)
            assert got == reference_is_extendable(rep), rep.family
            failing += not got[0]
        assert failing >= 3

    @pytest.mark.parametrize("q", CIRCLE_QS + [1.3, 0.6])
    def test_shifted_failures_and_scan_order(self, q):
        # i q^-k fails at k; the first failure in the order (|k|, k, index)
        ctx = generic_ctx(q=q)
        mus = [1j * q_pow(ctx, -k) for k in (3, -2, 2, 7)] + [2.0]
        for order in (mus, mus[::-1], mus[2:] + mus[:2]):
            rep = _diagonal_k(ctx, order)
            got = is_extendable(rep)
            assert got == reference_is_extendable(rep)
            assert got == (False, (-2, mus[1]))
        assert is_extendable(_diagonal_k(ctx, [mus[0], mus[3]])) == (False, (3, mus[0]))

    def test_dimension_200_on_the_circle(self, qphase):
        t = t_omega_l(qphase, H("199/2"), "1")
        assert is_extendable(t) == reference_is_extendable(t) == (True, None)
        # one weight moved to i q^-150, which fails at k = 150
        mus = t.view("K").diagonal().copy()
        mus[17] = 1j * q_pow(qphase, -150)
        rep = _diagonal_k(qphase, mus)
        assert is_extendable(rep) == reference_is_extendable(rep) == (False, (150, mus[17]))

    def test_at_most_dim_candidates_on_the_circle(self, qphase):
        # the sorted-angle windows keep no more pairs than weights here
        t = t_omega_l(qphase, H("199/2"), "1")
        ks, js = _candidate_pairs(qphase, t.view("K").diagonal(),
                                  2 * t.dim + EXTEND_SCAN_MARGIN)
        assert len(ks) == len(js) <= t.dim

    def test_lattice_family(self, qphase):
        # complex eps: |mu| = |q^(eps + n)| != 1, so no mu is kept; real
        # eps: |mu| = 1, and only the special offsets fail
        for eps in (0.4 + 0.2j, 0.25 - 0.3j, 0.4):
            rep = t_a_epsilon(qphase, 0.3 + 0.2j, eps)
            assert is_extendable(rep) == reference_is_extendable(rep) == (True, None)
        special = 1j * np.pi / (2 * qphase.tau)
        rep = t_a_epsilon(qphase, 0.3 + 0.2j, special + 2)
        got = is_extendable(rep)
        assert got == reference_is_extendable(rep) and not got[0]

    @pytest.mark.parametrize("p", [5, 8, 80])
    def test_roots_every_shift_below_p(self, p):
        # the shifts 0 <= k < p may exceed the range 2 dim + 8 of a small family
        ctx = root_of_unity_ctx(p, 1)
        reps = [t_omega_l(ctx, HalfInt(tw), omega) for tw in (0, 1) for omega in OMEGAS]
        reps.append(_diagonal_k(ctx, [1j * q_pow(ctx, -(p - 1))]))
        results = [is_extendable(rep) for rep in reps]
        assert results == [reference_is_extendable(rep) for rep in reps]
        # q^(2k) has period p' in k: the first failure is k = p - 1 mod p'
        assert results[-1] == (False, ((p - 1) % ctx.p_prime, reps[-1].K[0, 0]))

    @pytest.mark.parametrize("q", CIRCLE_QS + [1.3])
    def test_conjugated_weight_family(self, q):
        ctx = generic_ctx(q=q)
        for tw, omega in ((5, "i"), (4, "i"), (6, "1")):
            rep = unitary_conjugate(t_omega_l(ctx, HalfInt(tw), omega))
            assert not np.allclose(rep.K, np.diag(np.diag(rep.K)))
            assert is_extendable(rep) == reference_is_extendable(rep), (tw, omega)
        assert not is_extendable(unitary_conjugate(t_omega_l(ctx, HalfInt(4), "i")))[0]
