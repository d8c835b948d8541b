"""Explicit rotation-algebra constructors: frozen examples and oracles."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from support import (dense_so3_i3, finite_so3_samples, banded_so3_samples, generic_contexts,
                     reference_central_poly, reference_so3_i3, root_contexts, safe_lambda)
from qso3.errors import (BadDescriptor, BadParam, BadParity, BadRange,
                         ParityMismatch, SingularBasisChange, SpecialEpsilon)
from qso3.qscalar import HalfInt, generic_ctx, q_num, q_pow, root_of_unity_ctx
from qso3.repcore import (Band, FamilyDescriptor, ResidualReport, truncate, truncate_n,
                          verify_so3)
from qso3.structure import cluster, i1_spectrum
from qso3 import uqso3 as U

H = HalfInt.parse


def _coprime(p: int) -> list[int]:
    return [k for k in range(1, p) if math.gcd(k, p) == 1]


@st.composite
def root_contexts_to_20(draw):
    p = draw(st.integers(3, 20))
    return root_of_unity_ctx(p, draw(st.sampled_from(_coprime(p))))


complex_box = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2))
# moduli away from 1 and 0 as well as on the unit circle, where +-q^k lie
polar = st.builds(cmath.rect, st.floats(0.3, 3), st.floats(0, 2 * math.pi))


class TestWeightFamily:
    def test_frozen_half(self, q4):
        rep = U.r1_l(q4, H("1/2"))
        assert np.allclose(np.diag(rep.I1), [-0.4j, 0.4j])
        assert np.allclose(rep.I2, [[0, -0.4], [0.4, 0]])
        assert rep.I3[1, 0] == pytest.approx(0.4j)
        assert rep.I3[0, 1] == pytest.approx(0.4j)

    def test_trivial(self, q4):
        rep = U.r1_l(q4, 0)
        assert rep.dim == 1 and abs(rep.I1).max() == 0

    def test_spectrum_distinct(self, q13):
        spec = i1_spectrum(U.r1_l(q13, H("7/2")))
        assert all(m == 1 for _, m in spec)

    def test_printed_i3_closed_form(self, q13):
        # i q^{1/2}/(q^m+q^{-m}) { q^m [l-m] up + q^{-m} [l+m] down }
        l = H("3/2")
        rep = U.r1_l(q13, l)
        rt = complex(q13.s)
        for j, tw in enumerate(range(-3, 4, 2)):
            m = HalfInt(tw)
            den = q_pow(q13, m) + q_pow(q13, -m)
            if j + 1 < rep.dim:
                want = 1j * rt * q_pow(q13, m) * q_num(q13, l - m) / den
                assert rep.I3[j + 1, j] == pytest.approx(complex(want))
            if j - 1 >= 0:
                want = 1j * rt * q_pow(q13, -m) * q_num(q13, l + m) / den
                assert rep.I3[j - 1, j] == pytest.approx(complex(want))


class TestDerivedI3:
    """I3 of every finite constructor, formed on I2's diagonals, has the
    bits of Python's complex products entry by entry and stays within
    ``threshold`` of the dense product (``support.dense_so3_i3``)."""

    @pytest.fixture(scope="class")
    def samples(self):
        out = [s for ctx in generic_contexts() + root_contexts() for s in finite_so3_samples(ctx)]
        # cycles of length 1-3, every link drawn, so the wraps of a short
        # cycle land on the same entries as the inner links
        rng = np.random.default_rng(5)
        draw = lambda: complex(*rng.normal(size=2))
        for ctx in (generic_ctx(q=np.exp(0.37j)), root_of_unity_ctx(3, 1)):
            for dim in (1, 2, 3):
                g, parts = [draw() for _ in range(dim)], [[draw() for _ in range(dim)]
                                                         for _ in range(3)]
                i2 = Band(*(lambda n, c=c: np.array(c)[n] for c in parts))
                out.append((f"cycle[{dim}]", U._so3_finite(
                    ctx, dim, lambda n: np.array(g)[n], i2, FamilyDescriptor("cycle"), cyclic=True)))
        return out

    def test_bits_of_python_products(self, samples):
        for label, rep in samples:
            want = reference_so3_i3(rep.ctx, rep.I1, rep.I2) + 0.0
            assert (rep.I3 + 0.0).tobytes() == want.tobytes(), label

    def test_within_threshold_of_dense_product(self, samples):
        for label, rep in samples:
            dense = dense_so3_i3(rep.ctx, rep.I1, rep.I2)
            scale = np.max(np.abs(dense), initial=0.0)
            assert np.max(np.abs(rep.I3 - dense)) <= rep.ctx.threshold(scale), label


class TestTwistedFamily:
    def test_double_eigenvalues(self, q4):
        rep = U.r_pm_i_l(q4, H("1/2"), 1)
        assert np.allclose(np.diag(rep.I1), [-2 / 3, -2 / 3])
        spec = i1_spectrum(rep)
        assert spec == [(pytest.approx(-2 / 3), 2)]

    def test_all_multiplicity_two(self, q13):
        for l in (H("3/2"), H("5/2")):
            spec = i1_spectrum(U.r_pm_i_l(q13, l, 1))
            assert all(m == 2 for _, m in spec)

    def test_integer_l_rejected(self, q13):
        with pytest.raises(BadParity):
            U.r_pm_i_l(q13, 1, 1)

    def test_sign_negates_i1(self, q13):
        plus = U.r_pm_i_l(q13, H("3/2"), 1)
        minus = U.r_pm_i_l(q13, H("3/2"), -1)
        assert np.allclose(plus.I1, -minus.I1)
        assert np.allclose(plus.I2, -minus.I2)

    def test_alternating_conjugation_flips_offdiagonal(self, q13):
        # the variant with negated I2, I3 is the same family in an
        # alternating-sign basis
        rep = U.r_pm_i_l(q13, H("3/2"), 1)
        D = np.diag([(-1.0) ** j for j in range(rep.dim)])
        assert np.allclose(D @ rep.I2 @ D, -rep.I2)
        assert np.allclose(D @ rep.I1 @ D, rep.I1)


class TestSplitFamily:
    def test_frozen_one_dim(self, q4):
        rep = U.r_split_n(q4, 1, (1, 1))
        assert rep.I1[0, 0] == pytest.approx(-2 / 3)
        assert rep.I2[0, 0] == pytest.approx(1 / 1.5)

    def test_trace_distinguishes_second_sign(self, q4):
        delta = q_pow(q4, HalfInt(1)) - q_pow(q4, HalfInt(-1))
        for n in (1, 2, 3):
            plus = U.r_split_n(q4, n, (1, 1))
            minus = U.r_split_n(q4, n, (1, -1))
            assert np.trace(plus.I2) == pytest.approx(complex(q_num(q4, n) / delta))
            assert np.trace(minus.I2) == pytest.approx(-complex(q_num(q4, n) / delta))

    def test_first_sign_negates_spectrum(self, q13):
        a = i1_spectrum(U.r_split_n(q13, 3, (1, 1)))
        b = i1_spectrum(U.r_split_n(q13, 3, (-1, 1)))
        flipped = sorted((complex(-v) for v, _ in b), key=lambda z: z.real)
        orig = sorted((complex(v) for v, _ in a), key=lambda z: z.real)
        assert np.allclose(orig, flipped)

    def test_printed_i3_boundary(self, q13):
        # I3|1> = -s2 [n]/delta |1> - i q [n-1]/delta |2> for the plus twist
        n = 3
        delta = q_pow(q13, HalfInt(1)) - q_pow(q13, HalfInt(-1))
        rep = U.r_split_n(q13, n, (1, 1))
        assert rep.I3[0, 0] == pytest.approx(complex(-q_num(q13, n) / delta))
        assert rep.I3[1, 0] == pytest.approx(
            complex(-1j * q13.q * q_num(q13, n - 1) / delta))

    def test_root_range(self, p5):
        assert U.split_n_max(p5) == 2
        U.r_split_n(p5, 2, (1, 1))
        with pytest.raises(BadRange):
            U.r_split_n(p5, 3, (1, 1))
        p8 = root_of_unity_ctx(8, 1)
        assert U.split_n_max(p8) == 2


class TestLatticeFamilies:
    def test_special_epsilon_redirect(self, q13):
        eps0 = 1j * np.pi / (2 * q13.tau)
        with pytest.raises(SpecialEpsilon):
            U.r_a_epsilon(q13, 0.3, eps0)
        with pytest.raises(SpecialEpsilon):
            U.r_a_epsilon(q13, 0.3, eps0 + 0.5)

    def test_reducible_flag(self, q13):
        assert U.r_a_epsilon(q13, 0.3 + 0.2j, 0.4).flags["irreducible"] is True
        rep = U.r_a_epsilon(q13, 0.4, 0.4)  # a = eps
        assert rep.flags["irreducible"] is False
        rep = U.r_a_epsilon(q13, -0.4 + 1.0, 0.4)  # a = -eps mod Z
        assert rep.flags["irreducible"] is False

    def test_special_diagonal_signs(self, q13):
        plus = U.r_a_special(q13, 0.7, 1)
        minus = U.r_a_special(q13, 0.7, -1)
        tp = truncate_n(plus, -3, 3)
        tm = truncate_n(minus, -3, 3)
        w = q13.q - 1 / q13.q
        k = 0.5
        want = -(q13.q ** k + q13.q ** -k) / w
        assert tp.matrices["I1"][3, 3] == pytest.approx(want)
        assert tm.matrices["I1"][3, 3] == pytest.approx(-want)

    def test_special_symmetric_multiplicity(self, q13):
        rep = U.r_a_special(q13, 0.7, 1)
        tr = truncate_n(rep, -6, 5)  # labels -5.5 .. 5.5, symmetric
        spec = cluster(np.diag(tr.matrices["I1"]), 1e-8)
        assert all(m == 2 for _, m in spec)

    def test_minus_twist_negates_i2(self, q13):
        ap = 0.4 + 0.1j
        plus = U.r_split_infinite(q13, ap, 1, 1)
        minus = U.r_split_infinite(q13, ap, -1, 1)
        a = truncate_n(plus, 1, 8).matrices["I2"]
        b = truncate_n(minus, 1, 8).matrices["I2"]
        assert np.allclose(a, -b)

    def test_infinite_split_families_pairwise_distinct(self, q13):
        # windowed separating invariants: the twist negates the diagonal
        # spectrum, the boundary sign flips the trace of the hopping part
        ap = 0.4 + 0.1j
        windows = {}
        for fam in (1, -1):
            for sg in (1, -1):
                tr = truncate_n(U.r_split_infinite(q13, ap, fam, sg), 1, 10)
                windows[(fam, sg)] = (np.diag(tr.matrices["I1"]).copy(),
                                      np.trace(tr.matrices["I2"]))
        import itertools

        for ka, kb in itertools.combinations(windows, 2):
            d1a, t2a = windows[ka]
            d1b, t2b = windows[kb]
            assert (np.max(np.abs(d1a - d1b)) > 1e-6 or
                    abs(t2a - t2b) > 1e-6), (ka, kb)

    def test_all_banded_relations(self, q13):
        for label, rep in banded_so3_samples(q13):
            assert verify_so3(rep, window=20).max_residual <= 1e-10, label


class TestSpecialSplits:
    def test_special_decomposes_into_split_families(self, q13):
        # basis |1/2> + i|-1/2>, |3/2> - i|-3/2>, ... carries the plus
        # component at shifted parameter a' + 1/2
        a = 0.37 + 0.21j
        for branch in (1, -1):
            rep = U.r_a_special(q13, a, branch)
            ap = rep.flags["a_prime"]
            K = 8
            tr = truncate_n(rep, -K - 2, K + 2)
            idx = {int(n): j for j, n in enumerate(tr.ns)}
            for sign, expect_sign in ((1, 1), (-1, -1)):
                cols = []
                for r in range(K):
                    v = np.zeros(len(tr.ns), complex)
                    v[idx[r]] = 1.0
                    v[idx[-r - 1]] = sign * 1j * (-1) ** r
                    cols.append(v)
                B = np.column_stack(cols)
                M2 = tr.matrices["I2"]
                coef, *_ = np.linalg.lstsq(B, M2 @ B, rcond=None)
                leak = np.max(np.abs((M2 @ B - B @ coef))[:, :K - 2])
                assert leak <= 1e-10
                comp = U.r_split_infinite(q13, ap + 0.5, branch, expect_sign)
                tc = truncate_n(comp, 1, K)
                assert np.max(np.abs(coef[:K - 2, :K - 2] -
                                     tc.matrices["I2"][:K - 2, :K - 2])) <= 1e-10


class TestHighestLowest:
    def test_boundary_zero_exact(self, q13):
        rep = U.r_highest_lowest(q13, "l+", H("1/2"))
        tr = truncate_n(rep, 0, 5)
        assert tr.matrices["I2"][0, 0] == 0  # [0] kills the down coefficient
        rep = U.r_highest_lowest(q13, "l-", H("1/2"))
        tr = truncate_n(rep, -5, 0)
        assert abs(tr.matrices["I2"][:, -1]).max() > 0
        assert verify_so3(rep, window=15).max_residual <= 1e-10

    def test_i1_values(self, q13):
        rep = U.r_highest_lowest(q13, "l+", H("1/2"))
        tr = truncate_n(rep, 0, 3)
        want = [1j * q_num(q13, HalfInt(t)) for t in (1, 3, 5, 7)]
        assert np.allclose(np.diag(tr.matrices["I1"]), want)

    def test_pairwise_spectra_differ(self, q13):
        specs = []
        for l in (H("1/2"), H("1"), H("3/2")):
            tr = truncate_n(U.r_highest_lowest(q13, "l+", l), 0, 10)
            specs.append(np.sort_complex(np.diag(tr.matrices["I1"])))
        for i in range(len(specs)):
            for j in range(i + 1, len(specs)):
                assert np.max(np.abs(specs[i] - specs[j])) > 1e-6

    def test_param_guards(self, q13):
        with pytest.raises(BadParam):
            U.r_highest_lowest(q13, "a+", 2.0)       # integer
        with pytest.raises(BadParam):
            U.r_highest_lowest(q13, "a-", 1.5)       # half-integer
        with pytest.raises(BadParam):
            U.r_highest_lowest(q13, "x+", 0.3)


class TestConstantFamily:
    def test_lambda_one_multiplicities(self, q13):
        rep = U.q_lambda(q13, 1.0, 1)
        assert rep.flags["reducible"]
        tr = truncate_n(rep, -6, 6)
        spec = cluster(np.diag(tr.matrices["I1"]), 1e-8)
        mults = sorted(m for _, m in spec)
        assert mults == [1] + [2] * 6
        w = q13.q - 1 / q13.q
        assert any(abs(v - 2 / w) < 1e-9 and m == 1 for v, m in spec)

    def test_sqrt_lambda_all_double(self, q13):
        rep = U.q_lambda(q13, complex(q13.s), 1)
        assert rep.flags["reducible"]
        tr = truncate_n(rep, -6, 5)
        spec = cluster(np.diag(tr.matrices["I1"]), 1e-8)
        assert all(m == 2 for _, m in spec)

    def test_generic_simple(self, q13):
        rep = U.q_lambda(q13, 0.7 + 0.1j, 1)
        assert not rep.flags["reducible"]
        tr = truncate_n(rep, -6, 6)
        spec = cluster(np.diag(tr.matrices["I1"]), 1e-8)
        assert all(m == 1 for _, m in spec)

    def test_spectrum_closed_form(self, q13):
        lam = 0.7 + 0.1j
        for sign in (1, -1):
            rep = U.q_lambda(q13, lam, sign)
            tr = truncate_n(rep, -4, 4)
            w = q13.q - 1 / q13.q
            want = [sign * (lam * q13.q ** m + q13.q ** -m / lam) / w
                    for m in range(-4, 5)]
            assert np.allclose(np.diag(tr.matrices["I1"]), want)


class TestConstantComponents:
    def test_w_family_boundary_entries(self, q13):
        w = q13.q - 1 / q13.q
        rep = U.q_lambda_components(q13, 1, "sqrt_q", 1)
        tr = truncate_n(rep, 0, 4)
        assert tr.matrices["I2"][0, 0] == pytest.approx(-1 / w)
        assert tr.matrices["I2"][1, 0] == pytest.approx(1 / w)
        rep = U.q_lambda_components(q13, 2, "sqrt_q", 1)
        assert truncate_n(rep, 0, 4).matrices["I2"][0, 0] == pytest.approx(1 / w)

    @pytest.mark.parametrize("at", ["1", "sqrt_q"])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_restriction_oracle(self, q13, at, sign):
        lam = 1.0 if at == "1" else complex(q13.s)
        parent = U.q_lambda(q13, lam, sign)
        K = 9
        tr = truncate_n(parent, -K - 3, K + 3)
        idx = {int(n): j for j, n in enumerate(tr.ns)}
        for which in (1, 2):
            comp = U.q_lambda_components(q13, which, at, sign)
            cols = []
            if at == "1":
                ks = range(0, K) if which == 1 else range(1, K)
                for k in ks:
                    v = np.zeros(len(tr.ns), complex)
                    if k == 0:
                        v[idx[0]] = np.sqrt(2.0)
                    else:
                        v[idx[k]] = 1.0
                        v[idx[-k]] = 1.0 if which == 1 else -1.0
                    cols.append(v)
            else:
                for m in range(0, K):
                    v = np.zeros(len(tr.ns), complex)
                    v[idx[m]] = 1.0
                    v[idx[-m - 1]] = -1.0 if which == 1 else 1.0
                    cols.append(v)
            B = np.column_stack(cols)
            for name in ("I1", "I2"):
                M = tr.matrices[name]
                coef, *_ = np.linalg.lstsq(B, M @ B, rcond=None)
                leak = np.max(np.abs(M @ B - B @ coef)[:, :len(cols) - 2])
                assert leak <= 1e-10, (at, sign, which, name)
                tc = truncate_n(comp, comp.n_min, comp.n_min + len(cols) - 1)
                want = tc.matrices[name]
                cut = len(cols) - 2
                assert np.max(np.abs(coef[:cut, :cut] - want[:cut, :cut])) <= 1e-10


class TestCyclicRootFamilies:
    def test_dims_and_relations(self):
        for p, dim in ((5, 5), (7, 7), (8, 8)):
            ctx = root_of_unity_ctx(p, 1)
            rep = U.r_ab_lambda(ctx, 1, 1, 2)
            assert rep.dim == dim
            assert verify_so3(rep).max_residual <= 1e-9
        assert U.r_ab_lambda(root_of_unity_ctx(8, 1), 0, 0, 2).dim == 4

    def test_excluded_lambda(self, p5):
        with pytest.raises(BadParam):
            U.r_ab_lambda(p5, 1, 1, p5.q ** 2)
        with pytest.raises(BadParam):
            U.r_ab_lambda(p5, 1, 1, 0)
        # for odd p the half-odd powers are excluded as well
        assert U.excluded_lambda(p5, q_pow(p5, HalfInt(3)))

    def test_spectrum_list(self, p5):
        lam = safe_lambda(p5, 1.7 + 0.4j)
        rep = U.r_ab_lambda(p5, 0.8, 1.1, lam)
        w = p5.q - 1 / p5.q
        want = [-(q_pow(p5, -i) * lam + q_pow(p5, i) / lam) / w for i in range(5)]
        assert np.allclose(np.diag(rep.I1), want)

    def test_degenerate_flag(self, p8):
        lam = U.degenerate_lambdas(p8)[0]
        rep = U.r_ab_lambda(p8, 1, 1, lam)
        assert rep.flags.get("degenerate_lambda")
        assert not U.r_ab_lambda(p8, 1, 1, 2).flags.get("degenerate_lambda")


class TestDegenerateSplits:
    def test_wrap_free_split_breaks_in_half(self, p8):
        comps = U.r_ab_degenerate(p8, 0, 0, "plus")
        assert [c.dim for c in comps] == [2, 2]
        for c in comps:
            assert verify_so3(c).max_residual <= 1e-9

    def test_cyclic_split_on_condition(self, p8):
        a = 0.8 + 0.3j
        for b in U.solve_split_b(p8, a):
            if abs(a * b) < 1e-6:
                continue
            comps = U.r_ab_degenerate(p8, a, b, "plus")
            assert [c.dim for c in comps] == [4, 4]
            for c in comps:
                assert verify_so3(c).max_residual <= 1e-8
            break
        else:
            pytest.fail("no usable root of the splitting condition")

    def test_generic_does_not_split(self, p8):
        out = U.r_ab_degenerate(p8, 0.5, 0.9, "plus")
        assert len(out) == 1
        assert out[0].flags["split"] is False
        assert out[0].flags["condition_residual"] > 1e-3

    def test_odd_p_has_no_instance(self, p5):
        with pytest.raises(BadParam):
            U.r_ab_degenerate(p5, 1, 1, "plus")

    def test_minus_variant_negates(self, p8):
        plus = U.r_ab_degenerate(p8, 0, 0, "plus")
        minus = U.r_ab_degenerate(p8, 0, 0, "minus")
        pvals = np.sort_complex(np.concatenate([np.diag(c.I1) for c in plus]))
        mvals = np.sort_complex(np.concatenate([np.diag(c.I1) for c in minus]))
        assert np.allclose(pvals, np.sort_complex(-mvals))

    def test_singular_basis_change(self, p8):
        # pick (a, b) with ab = zeta [1]^2 = [1]^2 so that f_1 = 0
        zeta = q_pow(p8, p8.p)
        ab = zeta * q_num(p8, 1) ** 2
        with pytest.raises(SingularBasisChange):
            U.r_ab_degenerate(p8, 1.0, complex(ab), "plus")

    def test_ill_conditioned_basis_halves_verify(self, monkeypatch):
        # the wrap-free primed basis has condition number ~5e14 at p = 76;
        # the restriction reads each entry off two terms, so the halves
        # stay exact past it
        for p, half in ((72, 18), (76, 19), (100, 25)):
            comps = U.r_ab_degenerate(root_of_unity_ctx(p, 1), 0, 0, "plus")
            assert [c.dim for c in comps] == [half, half]
            for c in comps:
                assert verify_so3(c).max_residual <= 1e-12
        # a half that fails the relations (here a NaN residual) raises
        monkeypatch.setattr(U, "verify_so3", lambda rep: ResidualReport({"cubic_1": np.nan}))
        with pytest.raises(SingularBasisChange, match="residual"):
            U.r_ab_degenerate(root_of_unity_ctx(8, 1), 0, 0, "plus")

    def test_mult_one_pattern_without_split(self):
        # wrap-free chain at p = 2p' with p' odd: exactly one multiplicity-1
        # point in the spectrum, yet indecomposable (no direct-sum split)
        ctx = root_of_unity_ctx(10, 1)
        lam = q_pow(ctx, HalfInt(3))
        rep = U.r_ab_lambda(ctx, 0, 0, lam)
        assert verify_so3(rep).max_residual <= 1e-10
        mults = sorted(m for _, m in i1_spectrum(rep))
        assert mults == [1, 2, 2]
        from qso3.structure import commutant, is_irreducible

        assert commutant(rep)[0] == 1
        irr, _ = is_irreducible(rep)
        assert not irr


class TestCyclicConstantFamily:
    def test_relations_and_flags(self, p5):
        rep = U.q_prime_lambda(p5, 2.0)
        assert rep.dim == 5
        assert verify_so3(rep).max_residual <= 1e-9
        assert not rep.flags["reducible"]
        assert U.q_prime_lambda(p5, 1.0).flags["reducible"]
        assert U.q_prime_lambda(p5, complex(p5.s)).flags["reducible"]

    def test_even_p_dimension(self, p8):
        rep = U.q_prime_lambda(p8, 2.0)
        assert rep.dim == 8
        assert verify_so3(rep).max_residual <= 1e-9

    def test_wraparound_entries(self, p5):
        rep = U.q_prime_lambda(p5, 2.0)
        w = p5.q - 1 / p5.q
        assert rep.I2[4, 0] == pytest.approx(1 / w)
        assert rep.I2[0, 4] == pytest.approx(1 / w)


class TestRootComponents:
    def test_all_descriptors_verify(self):
        for p in (5, 7, 8):
            ctx = root_of_unity_ctx(p, 1)
            for desc in U.q_root_component_descriptors(ctx):
                rep = U.q_root_components(ctx, desc)
                assert verify_so3(rep).max_residual <= 1e-9, (p, desc)

    def test_odd_dims(self, p5):
        assert U.q_root_components(p5, ("Q1", 1, 1)).dim == 3
        assert U.q_root_components(p5, ("Q1hat", 1, 1)).dim == 2
        assert U.q_root_components(p5, ("Qsqrt", 1, 1)).dim == 3
        assert U.q_root_components(p5, ("Qsqrt_breve", 1, 1)).dim == 2

    def test_even_dims(self, p8):
        assert U.q_root_components(p8, ("Q1_1", 1)).dim == 5
        assert U.q_root_components(p8, ("Q1_2", 1)).dim == 3
        assert U.q_root_components(p8, ("Qsqrt_hat", 1, 1)).dim == 4

    def test_boundary_diagonals(self, p5):
        w = p5.q - 1 / p5.q
        rep = U.q_root_components(p5, ("Q1", 1, 1))
        assert rep.I2[2, 2] == pytest.approx(1 / w)   # s2 c at the top
        rep = U.q_root_components(p5, ("Q1", 1, -1))
        assert rep.I2[2, 2] == pytest.approx(-1 / w)
        rep = U.q_root_components(p5, ("Qsqrt", 1, 1))
        assert rep.I2[0, 0] == pytest.approx(1 / w)   # s2 c at k = 1/2

    def test_even_double_diagonal(self, p8):
        w = p8.q - 1 / p8.q
        rep = U.q_root_components(p8, ("Qsqrt_hat", 1, 1))
        assert rep.I2[0, 0] == pytest.approx(1 / w)
        assert rep.I2[-1, -1] == pytest.approx(1 / w)

    def test_parity_guards(self, p5, p8):
        with pytest.raises(ParityMismatch):
            U.q_root_components(p5, ("Q1_1", 1))
        with pytest.raises(ParityMismatch):
            U.q_root_components(p8, ("Q1", 1, 1))
        with pytest.raises(BadDescriptor):
            U.q_root_components(p5, ("nope", 1, 1))
        with pytest.raises(BadDescriptor):
            U.q_root_components(p5, ("Q1", 1))
        with pytest.raises(BadDescriptor):
            U.q_root_components(p8, ("Q1_2", 1, 1))

    def test_components_come_from_cyclic_parent(self, p5):
        # the cyclic constant family at lambda = 1 splits into the two
        # odd-p component families with second signs (+, -)
        from qso3.structure import are_equivalent, decompose

        parent = U.q_prime_lambda(p5, 1.0)
        report = decompose(parent)
        assert report.is_direct_sum
        assert report.component_dims == [2, 3]
        hit_names = set()
        for _, comp in report.components:
            hits = []
            for desc in U.q_root_component_descriptors(p5, distinct=True):
                cand = U.q_root_components(p5, desc)
                if cand.dim == comp.dim and are_equivalent(comp, cand):
                    hits.append(desc)
            assert len(hits) == 1, hits
            hit_names.add(hits[0][0])
        assert hit_names == {"Q1", "Q1hat"}

    def test_half_odd_families_are_relabelings(self, p5):
        # q^{1/2} = -q^3 at p = 5: the half-odd-label families coincide with
        # integer-label ones under label reversal
        from qso3.structure import are_equivalent

        sigma = -1  # s = sigma * q^{(p+1)/2}
        assert abs(complex(p5.s) - sigma * q_pow(p5, 3)) <= 1e-12
        for s1 in (1, -1):
            for s2 in (1, -1):
                breve = U.q_root_components(p5, ("Qsqrt_breve", s1, s2))
                hat = U.q_root_components(p5, ("Q1hat", s1 * sigma, s2))
                assert are_equivalent(breve, hat)
                qs = U.q_root_components(p5, ("Qsqrt", s1, s2))
                q1 = U.q_root_components(p5, ("Q1", s1 * sigma, s2))
                assert are_equivalent(qs, q1)

    def test_even_components_come_from_cyclic_parent(self, p8):
        from qso3.structure import are_equivalent, decompose

        # lambda = 1: chain of length p'+1 plus a clean chain of length p'-1
        parent = U.q_prime_lambda(p8, 1.0)
        report = decompose(parent)
        assert report.is_direct_sum and report.component_dims == [3, 5]
        for _, comp in report.components:
            cand = U.q_root_components(
                p8, ("Q1_1", 1) if comp.dim == 5 else ("Q1_2", 1))
            assert are_equivalent(comp, cand)
        # lambda = sqrt(q): two chains of length p' with opposite boundary
        # diagonal signs
        parent = U.q_prime_lambda(p8, complex(p8.s))
        report = decompose(parent)
        assert report.is_direct_sum and report.component_dims == [4, 4]
        signs_hit = set()
        for _, comp in report.components:
            for s2 in (1, -1):
                if are_equivalent(comp, U.q_root_components(p8, ("Qsqrt_hat", 1, s2))):
                    signs_hit.add(s2)
        assert signs_hit == {1, -1}

    def test_even_reflection_equivalence(self, p8):
        # flipping the overall sign of the diagonal generator gives an
        # equivalent family via label reflection for even p
        from qso3.structure import are_equivalent
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        rep = U.q_root_components(p8, ("Q1_1", 1))
        flipped = So3FiniteRep(p8, -rep.I1, rep.I2, -rep.I3,
                               FamilyDescriptor("flip", {}), {})
        assert are_equivalent(rep, flipped)


class TestCentralElements:
    def test_p3_p4_exact(self):
        p3 = U.central_poly(root_of_unity_ctx(3, 1))
        assert np.allclose(p3.coeffs, [1, 0, 1, 0], atol=1e-8)
        p4 = U.central_poly(root_of_unity_ctx(4, 1))
        assert np.allclose(p4.coeffs, [1, 0, 1, 0, 0], atol=1e-8)

    def test_p5_solved_form(self, p5):
        # printed degree-5 coefficients are garbled; the solved polynomial
        # is I^5 + (1 + nu^2) I^3 + nu^2 I with nu = q + 1/q
        poly = U.central_poly(p5)
        nu = p5.q + 1 / p5.q
        assert np.allclose(poly.coeffs, [1, 0, 1 + nu ** 2, 0, nu ** 2, 0],
                           atol=1e-8)

    def test_commutes_across_independent_reps(self, p5):
        poly = U.central_poly(p5)
        samples = [
            U.r_ab_lambda(p5, 0.3 - 0.8j, 0.9 + 0.2j, 1.3 + 0.7j),
            U.q_prime_lambda(p5, 1.7 - 0.3j),
            U.r1_l(p5, H("2")),
        ]
        for rep in samples:
            for gen in (rep.I1, rep.I2):
                P = poly(gen)
                other = rep.I2 if gen is rep.I1 else rep.I1
                comm = P @ other - other @ P
                scale = max(np.max(np.abs(P)) * np.max(np.abs(other)), 1.0)
                assert np.max(np.abs(comm)) <= 1e-8 * scale

    def test_p5_alt_branch(self):
        # coefficient formula holds with the other primitive root as well
        ctx = root_of_unity_ctx(5, 2)
        poly = U.central_poly(ctx)
        nu = ctx.q + 1 / ctx.q
        assert np.allclose(poly.coeffs, [1, 0, 1 + nu ** 2, 0, nu ** 2, 0],
                           atol=1e-8)

    @pytest.mark.parametrize("p", [7, 8])
    def test_higher_orders_commute_across_reps(self, p):
        ctx = root_of_unity_ctx(p, 1)
        poly = U.central_poly(ctx)
        samples = [
            U.r_ab_lambda(ctx, 1.1 + 0.2j, 0.4 - 0.9j,
                          U.excluded_lambda(ctx, 1.6 - 0.8j) and 1.9 or 1.6 - 0.8j),
            U.q_prime_lambda(ctx, 0.8 + 0.6j),
            U.r1_l(ctx, HalfInt(ctx.p_prime - 1)),
        ]
        for rep in samples:
            for gen, other in ((rep.I1, rep.I2), (rep.I2, rep.I1)):
                P = poly(gen)
                comm = P @ other - other @ P
                scale = max(np.max(np.abs(P)) * np.max(np.abs(other)), 1.0)
                assert np.max(np.abs(comm)) <= 1e-8 * scale, (p, rep.family)

    @pytest.mark.parametrize("p", range(3, 21))
    def test_closed_form_matches_fit(self, p):
        for k in _coprime(p):
            ctx = root_of_unity_ctx(p, k)
            got = U.central_poly(ctx).coeffs
            want = reference_central_poly(ctx)
            assert np.all(np.abs(got - want) <= ctx.matching(np.abs(want))), (p, k)

    @pytest.mark.parametrize("p", [16, 19, 20])
    def test_nearly_scalar_evaluation_commutes(self, p):
        # I2 of Qp_lambda is the circulant (S + S^-1) / (q - q^-1), on which
        # P is a multiple of the identity: its monomial terms cancel to it
        ctx = root_of_unity_ctx(p, 1)
        rep = U.q_prime_lambda(ctx, 0.8 + 0.6j)
        P = U.central_poly(ctx)(rep.I2)
        comm = P @ rep.I1 - rep.I1 @ P
        assert np.max(np.abs(comm)) <= ctx.matching(
            np.max(np.abs(P)) * np.max(np.abs(rep.I1))), p

    @given(ctx=root_contexts_to_20(), cyclic=st.booleans(), a=complex_box,
           b=complex_box, lam=polar)
    @settings(max_examples=60, deadline=None)
    def test_central_on_drawn_cyclic_families(self, ctx, cyclic, a, b, lam):
        # [P(I), J] = 0 for I, J in {I1, I2}, at the level of the size of
        # the evaluation, sum_j |c_j| |I|^(p-j): where P(I) is nearly
        # scalar (I2 of the wrap-free cyclic family) its terms cancel
        if cyclic:
            assume(not U.excluded_lambda(ctx, lam))
            rep = U.r_ab_lambda(ctx, a, b, lam)
        else:
            rep = U.q_prime_lambda(ctx, lam)
        poly = U.central_poly(ctx)
        for gen in (rep.I1, rep.I2):
            P = poly(gen)
            size = np.polyval(np.abs(poly.coeffs), np.linalg.norm(gen, 2))
            for other in (rep.I1, rep.I2):
                comm = P @ other - other @ P
                assert np.max(np.abs(comm)) <= ctx.matching(
                    size * np.linalg.norm(other, 2)), (ctx.p, ctx.q, rep.family)


class TestRegistrySamples:
    @pytest.mark.parametrize("q", [1.3, 4.0])
    def test_generic_finite_all_verify(self, q):
        ctx = generic_ctx(q=q)
        for label, rep in finite_so3_samples(ctx):
            assert verify_so3(rep).max_residual <= 1e-9, label

    @pytest.mark.parametrize("p", [3, 5, 7, 8])
    def test_root_finite_all_verify(self, p):
        ctx = root_of_unity_ctx(p, 1)
        for label, rep in finite_so3_samples(ctx):
            assert verify_so3(rep).max_residual <= 1e-9, (p, label)
