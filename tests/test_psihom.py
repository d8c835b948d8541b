"""The localization map: images, cyclic identities, composition oracles."""

import numpy as np
import pytest

from support import finite_sl2_samples, reference_psi_residuals, unitary_conjugate, weight_ls
from qso3.errors import NotExtendable
from qso3.psihom import compose, psi_images, verify_psi
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from qso3.repcore import DIAGONAL_CROSSOVER, truncate, verify_so3
from qso3 import uqso3
from qso3.uqsl2 import delta_tensor, t_a_epsilon, t_ab_lambda, t_omega_l

H = HalfInt.parse


def entrywise(rep_a, rep_b) -> float:
    return max(np.max(np.abs(rep_a.I1 - rep_b.I1)),
               np.max(np.abs(rep_a.I2 - rep_b.I2)),
               np.max(np.abs(rep_a.I3 - rep_b.I3)))


class TestImages:
    def test_frozen_half(self, q4):
        I1, I2, I3 = psi_images(t_omega_l(q4, H("1/2"), 1))
        assert np.allclose(np.diag(I1), [-0.4j, 0.4j])
        assert I2[1, 0] == pytest.approx(0.4)
        assert I2[0, 1] == pytest.approx(-0.4)
        assert I3[1, 0] == pytest.approx(0.4j)

    def test_trivial(self, q4):
        I1, I2, I3 = psi_images(t_omega_l(q4, 0, 1))
        assert abs(I1).max() == 0 and abs(I2).max() == 0 and abs(I3).max() == 0

    def test_not_extendable(self, q4):
        with pytest.raises(NotExtendable) as err:
            psi_images(t_omega_l(q4, 1, "i"))
        assert err.value.witness is not None


class TestVerifyPsi:
    def test_weight_families(self, q13):
        for l in weight_ls(q13):
            assert verify_psi(t_omega_l(q13, l, 1)).max_residual <= 1e-10

    def test_cyclic_families(self, p5):
        rep = t_ab_lambda(p5, 1, 2, 3)
        assert verify_psi(rep).max_residual <= 1e-9

    def test_trivial_exact(self, q13):
        assert verify_psi(t_omega_l(q13, 0, 1)).max_residual == 0

    @pytest.mark.parametrize("tw", [19, 59])     # dims 20 and 60: both sides
    def test_conjugated_matches_reference(self, tw):
        # K + Kinv is not diagonal: (K + Kinv)^-1 comes from np.linalg.inv.
        # q near the unit circle keeps the weight basis balanced, so the
        # unitary change of basis does not mix scales
        assert (tw + 1 < DIAGONAL_CROSSOVER) == (tw == 19)
        for ctx in (generic_ctx(q=1.05), generic_ctx(q=np.exp(0.1j))):
            for omega in ("1", "i"):
                rep = unitary_conjugate(t_omega_l(ctx, HalfInt(tw), omega))
                got, want = verify_psi(rep).residuals, reference_psi_residuals(rep)
                assert got.keys() == want.keys()
                for name, value in want.items():
                    assert abs(got[name] - value) <= 1e-14, (ctx.q, omega, name, got[name], value)

    def test_no_solve(self, q13, qphase, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify_psi solved a linear system")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        for ctx in (q13, qphase):
            for tw in (5, 99):
                assert verify_psi(t_omega_l(ctx, HalfInt(tw), "i")).max_residual <= 1e-12


class TestComposeOracles:
    def test_weight_equals_explicit(self, q13, q4, qphase):
        for ctx in (q4, qphase):
            for l in weight_ls(ctx):
                co = compose(t_omega_l(ctx, l, 1))
                assert entrywise(co, uqso3.r1_l(ctx, l)) <= 1e-10, (ctx.q, l)

    def test_minus_twist_equivalent_not_equal(self, q13):
        from qso3.structure import are_equivalent, intertwiners

        for l in (H("1/2"), H("1"), H("3/2")):
            co = compose(t_omega_l(q13, l, -1))
            direct = uqso3.r1_l(q13, l)
            if l.twice > 0:
                assert entrywise(co, direct) > 1e-3  # relabeled, not equal
            dim, _ = intertwiners(co, direct)
            assert dim == 1
            assert are_equivalent(co, direct)

    def test_i_twists_equal_explicit(self, q13):
        for l in weight_ls(q13, half_odd_only=True):
            for sign, omega in ((1, "i"), (-1, "-i")):
                co = compose(t_omega_l(q13, l, omega))
                assert entrywise(co, uqso3.r_pm_i_l(q13, l, sign)) <= 1e-10

    def test_banded_equals_explicit(self, q13):
        co = compose(t_a_epsilon(q13, 0.3 + 0.2j, 0.4))
        direct = uqso3.r_a_epsilon(q13, 0.3 + 0.2j, 0.4)
        ta, tb = truncate(co, -8, 8), truncate(direct, -8, 8)
        for name in ("I1", "I2", "I3"):
            assert np.max(np.abs(ta.matrices[name] - tb.matrices[name])) <= 1e-10

    def test_special_offset_equals_explicit(self, q13):
        # the half-shifted special offsets compose to the dedicated family
        from qso3.repcore import truncate_n

        a = 0.37 + 0.21j
        for branch in (1, -1):
            eps = branch * 1j * np.pi / (2 * q13.tau) + 0.5
            t = t_a_epsilon(q13, a, eps)
            assert t.flags["extendable"]
            co = compose(t)
            direct = uqso3.r_a_special(q13, a, branch)
            ta = truncate_n(co, -6, 6)
            tb = truncate_n(direct, -6, 6)
            for name in ("I1", "I2", "I3"):
                assert np.max(np.abs(ta.matrices[name] -
                                     tb.matrices[name])) <= 1e-9, (branch, name)

    def test_cyclic_equals_explicit(self, p5, p8):
        for ctx in (p5, p8):
            a, b, lam = 0.8 + 0.1j, 1.3 - 0.2j, 2.0 + 0.5j
            co = compose(t_ab_lambda(ctx, -a, b, 1j * lam))
            assert entrywise(co, uqso3.r_ab_lambda(ctx, a, b, lam)) <= 1e-10


class TestHomomorphismProperties:
    def test_composites_satisfy_relations(self, q13, p5):
        for ctx in (q13, p5):
            from qso3.uqsl2 import is_extendable

            for label, t in finite_sl2_samples(ctx):
                if not is_extendable(t)[0]:
                    continue
                assert verify_so3(compose(t)).max_residual <= 1e-9, label

    def test_respects_direct_sums(self, q13):
        from qso3.repcore import Sl2FiniteRep

        ta = t_omega_l(q13, H("1/2"), 1)
        tb = t_omega_l(q13, H("1"), -1)
        blocks = {}
        for name in ("K", "Kinv", "E", "F"):
            blocks[name] = np.block([
                [getattr(ta, name), np.zeros((ta.dim, tb.dim))],
                [np.zeros((tb.dim, ta.dim)), getattr(tb, name)]])
        direct_sum = Sl2FiniteRep(q13, blocks["K"], blocks["Kinv"], blocks["E"],
                                  blocks["F"], ta.family)
        co = compose(direct_sum)
        ca, cb = compose(ta), compose(tb)
        expect = np.block([[ca.I2, np.zeros((ta.dim, tb.dim))],
                           [np.zeros((tb.dim, ta.dim)), cb.I2]])
        assert np.max(np.abs(co.I2 - expect)) <= 1e-12

    def test_tensor_consistency(self, q13):
        from qso3.tensor import tensor_so3

        ta = t_omega_l(q13, H("1/2"), 1)
        tb = t_omega_l(q13, H("1"), -1)
        via_tensor = tensor_so3(ta, tb)
        via_compose = compose(delta_tensor(ta, tb))
        assert entrywise(via_tensor, via_compose) <= 1e-12
