"""Representation data model: conventions, verifiers, truncation, JSON."""

import json

import numpy as np
import pytest

from support import reference_matrix_entry_list
from qso3.errors import EmptyWindow
from qso3.qscalar import HalfInt, generic_ctx
from qso3.repcore import (FamilyDescriptor, So3FiniteRep, rep_to_json, truncate,
                          verify_sl2, verify_so3)
from qso3 import psihom, repcore, structure, tensor, uqso3
from qso3.uqsl2 import t_omega_l

H = HalfInt.parse


class TestMatrixConvention:
    def test_column_action(self, q4):
        # T(E)|m> = [l-m]|m+1> fills column index(m), row index(m+1)
        t = t_omega_l(q4, H("1/2"), 1)
        assert t.K[0, 0] == pytest.approx(0.5)
        assert t.K[1, 1] == pytest.approx(2.0)
        assert t.E[1, 0] == pytest.approx(1.0)
        assert t.E[0, 1] == 0
        assert t.F[0, 1] == pytest.approx(1.0)

    def test_verify_sl2_frozen(self, q4):
        assert verify_sl2(t_omega_l(q4, H("1/2"), 1)).max_residual <= 1e-12

    def test_twisted_families_keep_relations(self, q4):
        for omega in ("1", "-1", "i", "-i"):
            rep = t_omega_l(q4, H("3/2"), omega)
            assert verify_sl2(rep).max_residual <= 1e-12


class TestVerifySo3:
    def test_weight_family_frozen(self, q4):
        rep = uqso3.r1_l(q4, H("1/2"))
        assert verify_so3(rep).max_residual <= 1e-12

    def test_broken_rep_is_flagged(self, q4):
        rep = uqso3.r1_l(q4, H("1/2"))
        rep.I2[:] = 0
        report = verify_so3(rep)
        # zeroed I2 violates the cubic relation whose right side is -I1
        assert report.residuals["cubic_1"] > 0.1

    def test_banded_window(self, q13):
        rep = uqso3.q_lambda(q13, 0.7 + 0.1j, 1)
        assert verify_so3(rep, window=20).max_residual <= 1e-10

    @pytest.mark.parametrize("l", ["3/2", "5/2"])
    def test_numerically_zero_component_passes(self, q13, l):
        # the trivial summand of T_l (x) T_l has entries of about 1e-17; its
        # defect is rounding, not a relative defect of 1
        t = t_omega_l(q13, H(l), 1)
        report = structure.decompose(tensor.tensor_so3(t, t))
        trivial = [c for _, c in report.components if c.dim == 1]
        assert len(trivial) == 1
        assert np.max(np.abs(trivial[0].I1)) < 1e-12
        assert verify_so3(trivial[0]).max_residual <= q13.tol

    def test_small_perturbation_still_fails(self, q13):
        rep = uqso3.r1_l(q13, H("3/2"))
        rep.I2[0, 1] += 1e-6
        assert verify_so3(rep).residuals["cubic_1"] > q13.tol
        tiny = 1e-6 * np.ones((1, 1), dtype=complex)
        near_zero = So3FiniteRep(q13, tiny, 0 * tiny, 0 * tiny, FamilyDescriptor("tiny"))
        assert verify_so3(near_zero).residuals["cubic_1"] > q13.tol


class TestTruncate:
    def test_window_figures(self, q13):
        rep = uqso3.r_a_epsilon(q13, 0.3, 0.4)
        tr = truncate(rep, -5.6, 5.4)
        assert tr.matrices["I1"].shape == (12, 12)
        # interior columns of the window satisfy the relations exactly
        cols = np.where(tr.interior)[0]
        assert len(cols) == 8
        from qso3.repcore import so3_relation_residuals

        res = so3_relation_residuals(q13, tr.matrices["I1"], tr.matrices["I2"],
                                     tr.matrices["I3"], cols=cols)
        assert max(res.values()) <= 1e-10

    def test_single_vector(self, q13):
        from qso3.qscalar import q_num

        rep = uqso3.r_a_epsilon(q13, 0.3, 0.4)
        tr = truncate(rep, 0.39, 0.41)
        assert tr.matrices["I1"].shape == (1, 1)
        assert tr.matrices["I1"][0, 0] == pytest.approx(1j * q_num(q13, 0.4))

    def test_one_sided_boundary(self, q13):
        rep = uqso3.r_highest_lowest(q13, "l+", H("1"))
        tr = truncate(rep, 1, 6)
        assert tr.matrices["I1"].shape == (6, 6)
        # true boundary: the down coefficient at m = l vanishes by [0] = 0
        assert abs(tr.matrices["I2"][0, 0]) <= 1e-14
        cols = np.where(tr.interior)[0]
        assert 0 in cols  # the true boundary is exact
        from qso3.repcore import so3_relation_residuals

        res = so3_relation_residuals(q13, tr.matrices["I1"], tr.matrices["I2"],
                                     tr.matrices["I3"], cols=cols)
        assert max(res.values()) <= 1e-10

    def test_empty_window(self, q13):
        rep = uqso3.r_a_epsilon(q13, 0.3, 0.4)
        with pytest.raises(EmptyWindow):
            truncate(rep, 3.0, 3.1)


class TestI3Consistency:
    def test_stored_i3_equals_commutator(self, q13, q4):
        from support import finite_so3_samples

        for ctx in (q13, q4):
            for label, rep in finite_so3_samples(ctx):
                rt = complex(ctx.s)
                recomputed = rt * rep.I1 @ rep.I2 - (1 / rt) * rep.I2 @ rep.I1
                scale = max(1.0, np.max(np.abs(rep.I3)))
                assert np.max(np.abs(recomputed - rep.I3)) <= 1e-10 * scale, label


class TestJson:
    def test_dump_shape(self, q4):
        rep = uqso3.r1_l(q4, H("1/2"))
        data = rep_to_json(rep)
        assert data["family"] == "R1_l"
        assert data["params"] == {"l": "1/2"}
        assert data["ctx"]["kind"] == "generic"
        mat = data["matrices"]["I2"]
        assert mat[1][0] == [pytest.approx(0.4), pytest.approx(0.0)]
        json.dumps(data)  # serializable

    def test_banded_dump(self, q13):
        rep = uqso3.q_lambda(q13, 2.0, 1)
        tr = truncate(rep, -3, 3)
        data = rep_to_json(tr, rep.family)
        assert data["truncated"] is True
        assert len(data["labels"]) == 7
        json.dumps(data)

    def test_matrix_entries_round_trip(self, q4):
        rep = uqso3.r1_l(q4, H("3/2"))
        data = json.loads(json.dumps(rep_to_json(rep)))
        back = np.array([[complex(re, im) for re, im in row]
                         for row in data["matrices"]["I2"]])
        assert np.allclose(back, rep.I2)
        from qso3.qscalar import ctx_from_json

        ctx = ctx_from_json(data["ctx"])
        assert complex(ctx.s) == pytest.approx(complex(q4.s))


class TestDumpIdentity:
    """The array dump writes the same JSON text as the entry-by-entry one."""

    def _texts(self, monkeypatch, rep, family=None):
        new = json.dumps(rep_to_json(rep, family))
        with monkeypatch.context() as m:
            m.setattr(repcore, "_matrix_entry_list", reference_matrix_entry_list)
            old = json.dumps(rep_to_json(rep, family))
        return new, old

    def test_finite_reps(self, monkeypatch, q13):
        for rep in (uqso3.r1_l(q13, H("3/2")), t_omega_l(q13, 2, "i")):
            new, old = self._texts(monkeypatch, rep)
            assert new == old

    def test_truncation(self, monkeypatch, q13):
        rep = uqso3.q_lambda(q13, 0.7 + 0.1j, 1)
        new, old = self._texts(monkeypatch, truncate(rep, -3, 3), rep.family)
        assert new == old

    def test_compose_image_not_contiguous(self, monkeypatch, q13):
        image = psihom.compose(t_omega_l(q13, H("5/2"), "-1"))
        assert not image.I2.flags.c_contiguous
        new, old = self._texts(monkeypatch, image)
        assert new == old

    def test_negative_zero(self, monkeypatch, q13):
        zero = -np.zeros((2, 2), dtype=complex)
        rep = So3FiniteRep(q13, zero, np.conj(zero), zero.real, FamilyDescriptor("zeros"))
        new, old = self._texts(monkeypatch, rep)
        assert new == old and "-0.0" in new
