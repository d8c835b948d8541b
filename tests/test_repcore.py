"""Representation data model: conventions, verifiers, truncation, JSON."""

import json

import numpy as np
import pytest

from support import (banded_so3_samples, finite_sl2_samples, finite_so3_samples,
                     generic_contexts, reference_matrix_entry_list, root_contexts)
from qso3.errors import EmptyWindow
from qso3.qscalar import HalfInt, ctx_from_json, generic_ctx
from qso3.registry import REGISTRY
from qso3.repcore import (Band, FamilyDescriptor, So3FiniteRep, TruncatedRep,
                          materialize, matrix_from_json, rep_to_json, truncate,
                          verify_sl2, verify_so3)
from qso3 import psihom, structure, tensor, uqso3
from qso3.uqsl2 import t_a_epsilon, t_omega_l

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
        assert mat["dim"] == 2 and mat["offsets"] == [-1, 1]
        assert matrix_from_json(mat)[1, 0] == pytest.approx(0.4)
        json.dumps(data)  # serializable

    def test_banded_dump(self, q13):
        rep = uqso3.q_lambda(q13, 2.0, 1)
        tr = truncate(rep, -3, 3)
        data = rep_to_json(tr, rep.family)
        assert data["truncated"] is True
        assert len(data["labels"]) == 7
        assert ctx_from_json(json.loads(json.dumps(data))["ctx"]) == q13

    def test_matrix_entries_round_trip(self, q4):
        rep = uqso3.r1_l(q4, H("3/2"))
        data = json.loads(json.dumps(rep_to_json(rep)))
        assert np.array_equal(matrix_from_json(data["matrices"]["I2"]), rep.I2)
        ctx = ctx_from_json(data["ctx"])
        assert complex(ctx.s) == pytest.approx(complex(q4.s))


def _source(rep, name):
    return rep.matrices[name] if isinstance(rep, TruncatedRep) else getattr(rep, name)


def _round_trip(rep, family=None) -> dict:
    """Every dumped matrix decodes to its source exactly; returns the dump."""
    data = json.loads(json.dumps(rep_to_json(rep, family)))
    for name, entry in data["matrices"].items():
        assert np.array_equal(matrix_from_json(entry), _source(rep, name)), name
    return data


def _offsets(data) -> set:
    return {k for entry in data["matrices"].values() for k in entry["offsets"]}


def _so3(ctx, *mats) -> So3FiniteRep:
    return So3FiniteRep(ctx, *(np.asarray(m, dtype=complex) for m in mats),
                        FamilyDescriptor("matrices"))


class TestDumpIdentity:
    """The diagonal dump decodes to the dense entry-by-entry dump, value for value."""

    def _check(self, rep, family=None):
        text = json.dumps(rep_to_json(rep, family))
        data = json.loads(text)
        for name, entry in data["matrices"].items():
            src = _source(rep, name)
            dense = json.loads(json.dumps(reference_matrix_entry_list(src)))
            decoded = matrix_from_json(entry).view(float).reshape(*src.shape, 2)
            assert decoded.tolist() == dense, name
        return text, data

    def test_finite_reps(self, q13):
        for rep in (uqso3.r1_l(q13, H("3/2")), t_omega_l(q13, 2, "i")):
            self._check(rep)

    def test_truncation(self, q13):
        rep = uqso3.q_lambda(q13, 0.7 + 0.1j, 1)
        tr = truncate(rep, -3, 3)
        text, _ = self._check(tr, rep.family)
        labels = json.dumps([[z.real, z.imag] for z in tr.labels])
        assert f'"labels": {labels}' in text

    def test_compose_image_not_contiguous(self, q13):
        image = psihom.compose(t_omega_l(q13, H("5/2"), "-1"))
        assert not image.I2.flags.c_contiguous
        self._check(image)

    def test_negative_zero(self, q13):
        i1 = np.diag([complex(-0.0, 1.5), complex(2.0, -0.0)])
        rep = _so3(q13, i1, np.conj(i1), i1.real)
        text, data = self._check(rep)
        assert "-0.0" in text
        decoded = matrix_from_json(data["matrices"]["I1"])
        assert np.signbit(decoded[0, 0].real) and np.signbit(decoded[1, 1].imag)


class TestDiagonalDump:
    """``matrix_from_json`` inverts the dump exactly, and a banded family
    writes only its bands."""

    def test_finite_samples(self):
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                offsets = _offsets(_round_trip(rep))
                # weight families are tridiagonal; a cycle adds its wrap corners
                band = {-1, 0, 1} | ({1 - rep.dim, rep.dim - 1} if ctx.is_root_of_unity else set())
                assert offsets <= band, (label, offsets)

    def test_banded_truncations(self, q13):
        reps = [rep for _, rep in banded_so3_samples(q13)]
        reps.append(t_a_epsilon(q13, 0.3 + 0.2j, 0.4))
        assert {rep.family.name for rep in reps} == \
            {name for name, info in REGISTRY.items() if not info.finite}
        for rep in reps:
            data = _round_trip(truncate(rep, -6, 6), rep.family)
            assert {e["dim"] for e in data["matrices"].values()} == {len(data["labels"])}
            assert _offsets(data) <= {-1, 0, 1}
            assert ctx_from_json(data["ctx"]) == q13

    def test_cycles(self, p5, q13):
        rep = uqso3.r_ab_lambda(p5, 1, 1, 2.0)
        assert _offsets(_round_trip(rep)) == {-4, -1, 0, 1, 4}
        # on a 2-cycle the up link at n = 1 and the down link land on one entry
        mats = materialize({name: Band(diag=lambda n: 1 + n, up=lambda n: 2.0 + n,
                                       down=lambda n: 0.5j)
                            for name in ("I1", "I2", "I3")}, 0, 1, cyclic=True)
        assert mats["I2"][0, 1] == 3 + 0.5j
        data = _round_trip(_so3(q13, mats["I1"], mats["I2"], mats["I3"]))
        assert _offsets(data) == {-1, 0, 1}

    def test_decompose_components(self, q13):
        prod = tensor.tensor_so3(t_omega_l(q13, H("1"), "1"), t_omega_l(q13, H("3/2"), "i"))
        report = structure.decompose(prod)
        assert len(report.components) == 6
        for _, comp in report.components:
            _round_trip(comp)

    def test_dense_small_and_zero(self, q13):
        rng = np.random.default_rng(3)
        dense = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        data = _round_trip(_so3(q13, dense, dense.T, np.conj(dense)))
        assert all(e["offsets"] == [-3, -2, -1, 0, 1, 2, 3] for e in data["matrices"].values())
        one = [[2.5 - 1j]]
        data = _round_trip(_so3(q13, one, [[0]], one))
        assert data["matrices"]["I2"] == {"dim": 1, "offsets": [], "diagonals": []}
        assert data["matrices"]["I1"]["offsets"] == [0]
        zero = np.zeros((3, 3))
        data = _round_trip(_so3(q13, zero, zero, zero))
        assert all(e["offsets"] == [] and e["dim"] == 3 for e in data["matrices"].values())
