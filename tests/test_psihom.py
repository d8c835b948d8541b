"""The localization map: images, cyclic identities, composition oracles."""

import numpy as np
import pytest

from support import (finite_sl2_samples, generic_contexts, reference_is_extendable,
                     reference_psi_images, reference_psi_residuals, unitary_conjugate, weight_ls)
from qso3.errors import NotExtendable, QAlgebraError
from qso3.psihom import compose, verify_psi
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from qso3.repcore import FamilyDescriptor, So3FiniteRep, truncate, verify_so3
from qso3 import psihom, uqso3
from qso3.structure import decompose
from qso3.tensor import cg_decompose, tensor_so3
from qso3.uqsl2 import delta_tensor, is_extendable, t_a_epsilon, t_ab_lambda, t_omega_l

H = HalfInt.parse


def entrywise(rep_a, rep_b) -> float:
    return max(np.max(np.abs(rep_a.I1 - rep_b.I1)),
               np.max(np.abs(rep_a.I2 - rep_b.I2)),
               np.max(np.abs(rep_a.I3 - rep_b.I3)))


def images(t) -> tuple:
    """The dense generators of the composed representation."""
    image = compose(t)
    return image.I1, image.I2, image.I3


class TestImages:
    def test_frozen_half(self, q4):
        I1, I2, I3 = images(t_omega_l(q4, H("1/2"), 1))
        assert np.allclose(np.diag(I1), [-0.4j, 0.4j])
        assert I2[1, 0] == pytest.approx(0.4)
        assert I2[0, 1] == pytest.approx(-0.4)
        assert I3[1, 0] == pytest.approx(0.4j)

    def test_trivial(self, q4):
        I1, I2, I3 = images(t_omega_l(q4, 0, 1))
        assert abs(I1).max() == 0 and abs(I2).max() == 0 and abs(I3).max() == 0

    def test_not_extendable(self, q4):
        with pytest.raises(NotExtendable) as err:
            compose(t_omega_l(q4, 1, "i"))
        assert err.value.witness is not None


ROOT_PS = (5, 7, 8, 9, 12, 16)


def _root_products(p: int, cap: int):
    """T_a (x) T_b at the root of unity p with an untwisted or i-twisted
    left factor and an untwisted right one, for (2a + 1)(2b + 1) <= cap."""
    ctx = root_of_unity_ctx(p, 1)
    for ta in range(ctx.p_prime):
        for tb in range(ctx.p_prime):
            if (ta + 1) * (tb + 1) <= cap:
                for omega in ("1", "i"):
                    yield (p, ta, tb, omega), delta_tensor(
                        t_omega_l(ctx, HalfInt(ta), omega), t_omega_l(ctx, HalfInt(tb), "1"))


def _image_samples():
    """(label, T) for extendable weight families at q = 1.3, 4 and e^{0.37i}
    (dims 1-10, 60 and 100) and coproducts of them, and the
    root-of-unity coproducts of ``_root_products``."""
    for ctx in generic_contexts():
        for tw in [*range(10), 59, 99]:
            for omega in ("1", "-1", "i", "-i"):
                yield (ctx.q, tw, omega), t_omega_l(ctx, HalfInt(tw), omega)
        for ta, tb in ((1, 2), (3, 4), (7, 8)):
            for omega in ("1", "i"):
                yield (ctx.q, ta, tb, omega), delta_tensor(
                    t_omega_l(ctx, HalfInt(ta), omega), t_omega_l(ctx, HalfInt(tb), "1"))
    for p in ROOT_PS:
        yield from _root_products(p, 64)


def _report(run, rep):
    """What a decomposition or table run reports: the summary of its report,
    or the name of the error it raised."""
    try:
        report = run(rep)
    except QAlgebraError as exc:
        return type(exc).__name__
    if hasattr(report, "to_json"):
        return report.to_json(), report.component_dims
    return (report.is_direct_sum, report.is_irreducible, report.component_dims,
            report.commutant_dim, report.burnside_dim, [b.shape[1] for b in report.lattice])


class TestImagesAgainstDenseSolve:
    """The images equal those of two dense solves and dense products
    (``reference_psi_images``): I1 and I2 entry for entry, I3 within
    threshold and entry for entry at real q."""

    def test_images(self):
        checked = 0
        for label, t in _image_samples():
            if not is_extendable(t)[0]:
                continue
            got, want = images(t), reference_psi_images(t)
            for name, a, b in zip(("I1", "I2"), got, want):
                assert np.array_equal(a + 0.0, b + 0.0), (label, name)
            scale = np.max(np.abs(want[2])) if want[2].size else 0.0
            assert np.max(np.abs(got[2] - want[2])) <= t.ctx.threshold(scale), label
            if not t.ctx.is_root_of_unity and np.isreal(t.ctx.q):
                assert np.array_equal(got[2] + 0.0, want[2] + 0.0), label
            checked += 1
        assert checked > 350

    def test_compose_hands_over_the_image_diagonals(self, qphase):
        t = delta_tensor(t_omega_l(qphase, H("7/2"), "i"), t_omega_l(qphase, H("3"), "1"))
        image = compose(t)
        assert set(image._views) == {"I1", "I2", "I3"}
        for name in ("I1", "I2", "I3"):
            assert np.array_equal(image.view(name).dense(), getattr(image, name)), name

    def test_only_one_by_one_solves(self, q13, qphase, p8, monkeypatch):
        shapes = []
        solve = np.linalg.solve

        def spy(a, b):
            shapes.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        for ctx in (q13, qphase, p8):
            t = t_omega_l(ctx, HalfInt(3), "i")
            reps = [t, delta_tensor(t, t_omega_l(ctx, HalfInt(2), "1"))]
            if not ctx.is_root_of_unity:
                reps.append(t_omega_l(ctx, HalfInt(59), "i"))
            for rep in reps:
                shapes.clear()
                compose(rep)
                verify_psi(rep)
                assert shapes == [(rep.dim, 1, 1)] * 2, (ctx.q, rep.dim)
        # a K + Kinv that is not diagonal keeps the two dense solves
        conj = unitary_conjugate(t_omega_l(q13, H("3/2"), "1"))
        shapes.clear()
        compose(conj)
        assert shapes == [(4, 4)] * 2


class TestRootOfUnityReports:
    """At roots of unity the splits hang on the last bits of the images:
    the composed products decompose and tabulate exactly as the products
    built from the dense-solve images do, including the three products whose
    verdicts a plain division flips."""

    FLIPS = ((7, 4, 4), (7, 3, 5), (8, 2, 3))   # (p, 2a, 2b)

    def _check(self, t):
        got = compose(t)
        want = So3FiniteRep(t.ctx, *reference_psi_images(t), got.family)
        for run in (decompose, cg_decompose):
            assert _report(run, got) == _report(run, want), (t.family, run.__name__)

    def test_division_flips(self):
        for p, ta, tb in self.FLIPS:
            ctx = root_of_unity_ctx(p, 1)
            self._check(delta_tensor(t_omega_l(ctx, HalfInt(ta), "1"),
                                     t_omega_l(ctx, HalfInt(tb), "1")))

    def test_small_products(self):
        for p in ROOT_PS:
            for label, t in _root_products(p, 16):
                if is_extendable(t)[0]:
                    self._check(t)


class TestExtendabilityOnce:
    """A finite representation is scanned once, before the images it keeps
    are formed (``Sl2FiniteRep.psi_images``), and compose and verify_psi
    share that scan."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        scan = psihom.is_extendable

        def spy(rep):
            seen.append(rep)
            return scan(rep)

        monkeypatch.setattr(psihom, "is_extendable", spy)
        return seen

    def test_compose_then_verify(self, q13, qphase, calls):
        for ctx in (q13, qphase):
            t = t_omega_l(ctx, H("99/2"), "i")
            compose(t)
            verify_psi(t)
            assert len(calls) == 1 and calls[0] is t
            calls.clear()

    def test_one_scan_per_product(self, q13, calls):
        ta, tb = t_omega_l(q13, H("3/2"), "i"), t_omega_l(q13, H("2"), "1")
        for _ in range(3):
            tensor_so3(ta, tb)
        assert len(calls) == 3 and all(rep.family.name == "delta_tensor" for rep in calls)

    def test_refused_pair_keeps_its_witness(self, q13):
        # one i-twisted factor and an integer total label
        ta, tb = t_omega_l(q13, H("1/2"), "i"), t_omega_l(q13, H("3/2"), "1")
        prod = delta_tensor(ta, tb)
        want = reference_is_extendable(prod)
        assert not want[0]
        for entry in (lambda: tensor_so3(ta, tb), lambda: compose(prod),
                      lambda: verify_psi(prod)):
            with pytest.raises(NotExtendable) as err:
                entry()
            assert err.value.witness == want[1]


class TestVerifyPsi:
    def test_weight_families(self, q13):
        for l in weight_ls(q13):
            assert verify_psi(t_omega_l(q13, l, 1)).max_residual <= 1e-10

    def test_cyclic_families(self, p5):
        rep = t_ab_lambda(p5, 1, 2, 3)
        assert verify_psi(rep).max_residual <= 1e-9

    def test_trivial_exact(self, q13):
        assert verify_psi(t_omega_l(q13, 0, 1)).max_residual == 0

    @pytest.mark.parametrize("tw", [19, 59])     # dims 20 and 60
    def test_conjugated_matches_reference(self, tw):
        # K + Kinv is not diagonal: the images come from two dense solves,
        # and a representation given dense is verified dense at any dimension.
        # q near the unit circle keeps the weight basis balanced, so the
        # unitary change of basis does not mix scales
        for ctx in (generic_ctx(q=1.05), generic_ctx(q=np.exp(0.1j))):
            for omega in ("1", "i"):
                rep = unitary_conjugate(t_omega_l(ctx, HalfInt(tw), omega))
                got, want = verify_psi(rep).residuals, reference_psi_residuals(rep)
                assert got.keys() == want.keys()
                for name, value in want.items():
                    assert abs(got[name] - value) <= 1e-14, (ctx.q, omega, name, got[name], value)

    def test_checks_the_composed_images(self, q13, qphase):
        # the relations verify_psi reports are those of the representation
        # compose returns, bit for bit, at dims 2 to 100
        p7 = root_of_unity_ctx(7, 1)
        weights = [t_omega_l(ctx, HalfInt(tw), omega)
                   for ctx, tws in ((q13, range(1, 100)), (qphase, range(1, 100)), (p7, range(1, 7)))
                   for tw in tws for omega in ("1", "i")]
        samples = [t for t in weights if is_extendable(t)[0]]
        # a root-of-unity coproduct, and K + Kinv not diagonal at dims 4 and 60
        samples += [delta_tensor(t_omega_l(p7, H("3/2"), "1"), t_omega_l(p7, H("5/2"), "1")),
                    unitary_conjugate(t_omega_l(generic_ctx(q=1.05), H("3/2"), "i")),
                    unitary_conjugate(t_omega_l(generic_ctx(q=np.exp(0.1j)), HalfInt(59), "1"))]
        assert len(samples) > 300
        for t in samples:
            got = verify_psi(t).residuals
            want = verify_so3(compose(t)).residuals
            assert {name: got[name] for name in want} == want, (t.ctx.q, t.family)


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
