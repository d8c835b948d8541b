"""Tensor products and Clebsch-Gordan tables."""

import itertools

import numpy as np
import pytest

from qso3.errors import NotExtendable, QAlgebraError
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from qso3.repcore import verify_so3
from qso3.structure import decompose
from qso3.tensor import (cg_decompose, expected_sl2_tensor, expected_so3_tensor,
                         sl2_cg_check, tensor_so3)
from qso3 import uqso3 as U
from qso3.uqsl2 import delta_tensor, t_omega_l

H = HalfInt.parse
OMEGAS = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}


def _admissible(omega: str, l: HalfInt) -> bool:
    if omega in ("i", "-i"):
        return not l.is_integer()
    return True


class TestTensorSo3:
    def test_spectrum_adds(self, q13):
        prod = tensor_so3(t_omega_l(q13, H("1/2"), 1), t_omega_l(q13, H("1/2"), 1))
        from qso3.qscalar import q_num
        from qso3.structure import cluster, _multiset_close

        want = cluster([1j * q_num(q13, mb + ma) for ma in (-0.5, 0.5)
                        for mb in (-0.5, 0.5)], 1e-9)
        got = cluster(np.diag(prod.I1), 1e-9)
        assert _multiset_close(got, want, 1e-9)

    def test_unit_factor(self, q13):
        prod = tensor_so3(t_omega_l(q13, 0, 1), t_omega_l(q13, H("3/2"), 1))
        direct = U.r1_l(q13, H("3/2"))
        assert np.max(np.abs(prod.I2 - direct.I2)) <= 1e-12

    def test_relations_always(self, q13):
        prod = tensor_so3(t_omega_l(q13, 1, "-1"), t_omega_l(q13, H("3/2"), "i"))
        assert verify_so3(prod).max_residual <= 1e-9

    def test_not_extendable_pattern(self, q13):
        # one twisted factor: the product extends iff the total label
        # parity is half-odd, i.e. the untwisted factor has integer l
        with pytest.raises(NotExtendable):
            tensor_so3(t_omega_l(q13, H("1/2"), 1), t_omega_l(q13, H("3/2"), "i"))
        with pytest.raises(NotExtendable):
            tensor_so3(t_omega_l(q13, H("5/2"), "-i"), t_omega_l(q13, H("3/2"), -1))
        tensor_so3(t_omega_l(q13, 1, 1), t_omega_l(q13, H("3/2"), "i"))  # fine


class TestCgSo3:
    @pytest.mark.parametrize("la,lb", [("1/2", "1/2"), ("1", "1/2"),
                                       ("1", "1"), ("3/2", "1")])
    def test_weight_products(self, q13, la, lb):
        prod = tensor_so3(t_omega_l(q13, H(la), 1), t_omega_l(q13, H(lb), -1))
        table = cg_decompose(prod)
        assert table.multiplicities == expected_so3_tensor(1, -1, H(la), H(lb))
        assert not table.unmatched_dims
        assert table.total_dim() == prod.dim

    def test_twisted_product_splits(self, q13):
        prod = tensor_so3(t_omega_l(q13, 1, 1), t_omega_l(q13, H("1/2"), "i"))
        table = cg_decompose(prod)
        assert table.multiplicities == expected_so3_tensor(1, 1j, 1, H("1/2"))

    def test_each_candidate_built_once_per_table(self, q13, monkeypatch):
        # two tables whose components share dimensions 1 and 2 build each
        # candidate (family, arguments) once between them
        import qso3.tensor as T

        built = []
        for name in ("r1_l", "r_split_n"):
            def logged(ctx, *args, name=name, build=getattr(T, name)):
                built.append((name, args))
                return build(ctx, *args)

            monkeypatch.setattr(T, name, logged)
        for omega in ("i", "-i"):
            prod = tensor_so3(t_omega_l(q13, 1, 1), t_omega_l(q13, H("1/2"), omega))
            table = cg_decompose(prod)
            assert table.multiplicities == expected_so3_tensor(1, OMEGAS[omega], 1, H("1/2"))
            assert sorted(table.component_dims) == [1, 1, 2, 2]
        assert len(built) == len(set(built)) > 0

    @pytest.mark.parametrize("la,lb", [("3/2", "5/2"), ("2", "5/2")])
    def test_wedderburn_dimensions(self, q13, la, lb):
        # pairwise inequivalent irreducible components: the algebra is the
        # sum of their full matrix algebras and the commutant is one scalar
        # per component (dimension 24: 164 and 4; dimension 30: 220 and 5)
        from qso3.structure import burnside_dim, commutant, decompose

        prod = tensor_so3(t_omega_l(q13, H(la), 1), t_omega_l(q13, H(lb), -1))
        dims = decompose(prod).component_dims
        assert sum(dims) == prod.dim and len(dims) == len(set(dims))
        assert burnside_dim(prod) == (sum(d * d for d in dims), True)
        assert commutant(prod)[0] == len(dims)

    def test_double_twist_returns_weights(self, q13):
        prod = tensor_so3(t_omega_l(q13, H("1/2"), "i"),
                          t_omega_l(q13, H("1/2"), "i"))
        table = cg_decompose(prod)
        assert table.multiplicities == {"R1_l[l=0]": 1, "R1_l[l=1]": 1}


def _square(q: float, dim: int):
    half = t_omega_l(generic_ctx(q=q), HalfInt(round(dim ** 0.5) - 1), 1)
    return tensor_so3(half, half)


class TestCeiling:
    # T_l (x) T_l with omega = 1 is one R1_l for each l = 0..2L; split along
    # the Casimir first, no commutant spans the whole product
    @pytest.mark.parametrize("q, dim", [(1.3, 100), (1.3, 144), (1.3, 196)] +
                             [(1.01, (2 * k) ** 2) for k in range(5, 13)])
    def test_full_table(self, q, dim):
        prod = _square(q, dim)
        table = cg_decompose(prod)
        L = HalfInt(round(dim ** 0.5) - 1)
        assert table.multiplicities == expected_so3_tensor(1, 1, L, L)
        assert not table.unmatched_dims

    def test_dimension_256(self):
        # every component is found; one of the 16 is not named, because the
        # weight basis is badly conditioned there (cond 1.2e7)
        prod = _square(1.3, 256)
        report = decompose(prod)
        assert len(report.components) == 16 and report.commutant_dim == 16
        assert cg_decompose(prod).total_dim() == 256


class TestLargeProducts:
    # the extendability scan tests only the shifts next to -log|mu| / log|q|
    # off the unit circle, so q^(2k) does not overflow at these dimensions
    @pytest.mark.parametrize("q, l", [(2.0, "15/2"), (1.3, "25/2"), (4.0, "49/2")])
    def test_builds_and_verifies(self, q, l):
        t = t_omega_l(generic_ctx(q=q), H(l), "1")
        prod = tensor_so3(t, t)
        assert prod.dim == (H(l).twice + 1) ** 2
        assert verify_so3(prod).max_residual <= 1e-9


class TestCgSl2:
    def test_omega_bookkeeping_all_combos(self, q13):
        for oa, ob in itertools.product(OMEGAS, OMEGAS):
            la = H("1/2") if oa in ("i", "-i") else H("1/2")
            lb = H("1/2") if ob in ("i", "-i") else H("1/2")
            got = sl2_cg_check(t_omega_l(q13, la, oa), t_omega_l(q13, lb, ob))
            want = expected_sl2_tensor(OMEGAS[oa], OMEGAS[ob], la, lb)
            assert got.multiplicities == want, (oa, ob)
            assert not got.unmatched_dims

    def test_trivial_right_factor(self, q13):
        got = sl2_cg_check(t_omega_l(q13, H("3/2"), "i"), t_omega_l(q13, 0, 1))
        assert got.multiplicities == {"T_l[l=3/2,omega=i]": 1}

    def test_dimension_sum(self, q13):
        for la, lb in (("1", "2"), ("3/2", "1/2")):
            got = sl2_cg_check(t_omega_l(q13, H(la), 1), t_omega_l(q13, H(lb), 1))
            assert got.total_dim() == (H(la).twice + 1) * (H(lb).twice + 1)


class TestNotDirectSum:
    # T_2 (x) T_2 at p = 7 (dimension 25) is not a direct sum on either
    # side: it is named whole, and with no weight family of dimension 25
    # in range there it is unmatched rather than an error
    @pytest.fixture
    def t2(self):
        return t_omega_l(root_of_unity_ctx(7, 1), 2, 1)

    def test_so3_side(self, t2):
        prod = tensor_so3(t2, t2)
        assert not decompose(prod).is_direct_sum
        table = cg_decompose(prod)
        assert table.multiplicities == {} and table.unmatched_dims == [25]
        assert table.total_dim() == prod.dim == 25

    def test_sl2_side(self, t2):
        assert not decompose(delta_tensor(t2, t2)).is_direct_sum
        table = sl2_cg_check(t2, t2)
        assert table.multiplicities == {} and table.unmatched_dims == [25]
        assert table.total_dim() == 25


class TestExpectedTables:
    def test_range_rule(self):
        want = expected_sl2_tensor(1, -1, H("3/2"), H("1"))
        assert set(want) == {"T_l[l=1/2,omega=-1]", "T_l[l=3/2,omega=-1]",
                             "T_l[l=5/2,omega=-1]"}

    def test_dim_identity(self):
        for la, lb in ((H("2"), H("3/2")), (H("1"), H("1"))):
            table = expected_so3_tensor(1, 1, la, lb)
            total = 0
            for name in table:
                ltext = name.split("l=")[1].rstrip("]")
                total += HalfInt.parse(ltext).twice + 1
            assert total == (la.twice + 1) * (lb.twice + 1)
