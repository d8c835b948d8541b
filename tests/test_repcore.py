"""Representation data model: conventions, verifiers, truncation, JSON."""

import json
import tracemalloc

import numpy as np
import pytest

from support import (banded_so3_samples, dense_of_diagonals, finite_sl2_samples,
                     finite_so3_samples, generic_contexts, reference_matrix_entry_list,
                     reference_psi_residuals, reference_sl2_relation_residuals,
                     reference_so3_relation_residuals, root_contexts)
from qso3.errors import EmptyWindow
from qso3.qscalar import HalfInt, ctx_from_json, generic_ctx, root_of_unity_ctx
from qso3.registry import REGISTRY
from qso3.repcore import (Band, BandedRep, Diagonals, FamilyDescriptor, ResidualReport,
                          Sl2FiniteRep, So3FiniteRep, TruncatedRep, materialize,
                          matrix_from_json, rep_to_json, so3_i3_band, truncate, verify_sl2,
                          verify_so3)
from qso3 import psihom, repcore, structure, tensor, uqso3
from qso3.uqsl2 import delta_tensor, is_extendable, t_a_epsilon, t_omega_l

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


class TestResidualReport:
    @pytest.mark.parametrize("keys", [("a", "b"), ("b", "a")])
    def test_nan_is_never_dropped(self, keys):
        values = {"a": float("nan"), "b": 1e-17}
        report = ResidualReport({k: values[k] for k in keys})
        assert np.isnan(report.max_residual)

    def test_empty_and_largest(self):
        assert ResidualReport({}).max_residual == 0.0
        assert ResidualReport({"a": 1e-17, "b": float("inf")}).max_residual == float("inf")


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


class TestDiagonals:
    """Products and sums on nonzero diagonals equal the dense ones."""

    def _matrices(self, n, rng):
        def draw(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)
        band = np.diag(draw(n)) + np.diag(draw(n - 1), 1) + np.diag(draw(n - 1), -1)
        cyclic = band.copy()
        cyclic[0, n - 1] += draw(())
        cyclic[n - 1, 0] += draw(())
        return [band, cyclic, draw((n, n)), np.zeros((n, n), dtype=complex)]

    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_arithmetic_matches_dense(self, n):
        rng = np.random.default_rng(n)
        mats = self._matrices(n, rng)
        for a in mats:
            da = Diagonals.of(a)
            assert np.array_equal(dense_of_diagonals(da), a)
            assert np.array_equal(dense_of_diagonals(-(2.5j * da)), -(2.5j * a))
            for b in mats:
                db = Diagonals.of(b)
                for got, want in ((da @ db, a @ b), (da + db, a + b), (da - db, a - b)):
                    assert got.offsets == sorted(set(got.offsets))
                    assert all(abs(k) < n for k in got.offsets)
                    assert np.allclose(dense_of_diagonals(got), want, rtol=0, atol=1e-13)

    def test_rows_hold_zero_outside_the_matrix(self):
        d = Diagonals.of(uqso3.r_ab_lambda(root_of_unity_ctx(5, 1), 1, 1, 2.0).I2)
        assert d.offsets == [-4, -1, 1, 4]
        prod = d @ d @ d
        j = np.arange(5)
        for k, row in zip(prod.offsets, prod.rows):
            assert not row[(j - k < 0) | (j - k >= 5)].any()


def _zero_diag_rep(ctx) -> BandedRep:
    """A banded rep whose I2 ``diag`` part is -0.0 on every coordinate."""
    i1 = Band(diag=lambda n: 1j * (n + 0.5))
    i2 = Band(diag=lambda n: complex(-0.0, -0.0), up=lambda n: 1.0 + 0.1j * n,
              down=lambda n: -0.5 + 0j)
    return BandedRep(ctx, "so3", 0.0, {"I1": i1, "I2": i2, "I3": so3_i3_band(ctx, i1, i2)},
                     FamilyDescriptor("zero_diag"))


class TestWindowDiagonals:
    """Windows are built as diagonals with the entries of the dense fill."""

    def _reps(self, ctx):
        return ([rep for _, rep in banded_so3_samples(ctx)]
                + [t_a_epsilon(ctx, 0.3 + 0.2j, 0.4 + 0.2j), _zero_diag_rep(ctx)])

    @pytest.mark.parametrize("w", [6, 40])
    def test_equal_to_the_dense_window(self, w):
        for ctx in generic_contexts():
            for rep in self._reps(ctx):
                tr = truncate(rep, -w, w)
                dense = materialize(rep.bands, int(tr.ns[0]), int(tr.ns[-1]))
                assert tr.diagonals.keys() == dense.keys()
                for name, mat in dense.items():
                    assert dense_of_diagonals(tr.diagonals[name]).tobytes() == mat.tobytes()
                    assert tr.matrices[name].tobytes() == mat.tobytes()
                # the dump of the dense window goes through Diagonals.of
                want = {name: repcore._matrix_diagonals(mat) for name, mat in dense.items()}
                got = rep_to_json(tr, rep.family)["matrices"]
                assert json.dumps(got) == json.dumps(want), rep.family

    def test_zero_part_is_left_out_of_the_dump(self, q13):
        tr = truncate(_zero_diag_rep(q13), -6, 6)
        assert tr.diagonals["I2"].offsets == [-1, 0, 1]
        zero = tr.diagonals["I2"].diagonal(0)
        # -0.0 folds to 0.0 as in the dense fill
        assert not zero.any() and not np.signbit(zero.view(float)).any()
        assert rep_to_json(tr)["matrices"]["I2"]["offsets"] == [-1, 1]

    def test_window_1000_in_a_few_megabytes(self, q13):
        rep = uqso3.r_a_epsilon(q13, 0.3 + 0.2j, 0.4 + 0.2j)
        tracemalloc.start()
        try:
            verify_so3(rep, window=1000)
            data = rep_to_json(truncate(rep, -1000, 1000), rep.family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense window of 2000 complex entries squared alone takes 64 MB
        assert peak < 16e6
        assert {e["dim"] for e in data["matrices"].values()} == {2000}


@pytest.fixture(params=["dense", "diagonals"])
def side(request, monkeypatch):
    """Evaluates every relation with dense products, then on diagonals,
    whatever the dimension."""
    monkeypatch.setattr(repcore, "DIAGONAL_CROSSOVER",
                        10 ** 9 if request.param == "dense" else 0)
    return request.param


def _agree(got: dict, want: dict, label):
    assert got.keys() == want.keys(), label
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-14, (label, name, got[name], value)


class TestDiagonalResiduals:
    """Residuals on either side of the crossover equal the dense written-out
    relations (``support``) within 1e-14; their definition is unchanged."""

    def test_finite_samples(self, side):
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx):
                _agree(verify_so3(rep).residuals,
                       reference_so3_relation_residuals(ctx, rep.I1, rep.I2, rep.I3), label)
            for label, rep in finite_sl2_samples(ctx):
                _agree(verify_sl2(rep).residuals,
                       reference_sl2_relation_residuals(ctx, rep.K, rep.Kinv, rep.E, rep.F),
                       label)
                if is_extendable(rep)[0]:
                    _agree(psihom.verify_psi(rep).residuals, reference_psi_residuals(rep), label)

    def test_two_cycles(self, side):
        # on a 2-cycle the up and down links of a column land on one entry
        for p in (3, 4):
            ctx = root_of_unity_ctx(p, 1)
            reps = [rep for _, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx)
                    if rep.dim == 2]
            assert len(reps) >= 8
            for rep in reps:
                if isinstance(rep, So3FiniteRep):
                    want = reference_so3_relation_residuals(ctx, rep.I1, rep.I2, rep.I3)
                    _agree(verify_so3(rep).residuals, want, rep.family)
                else:
                    want = reference_sl2_relation_residuals(ctx, rep.K, rep.Kinv, rep.E, rep.F)
                    _agree(verify_sl2(rep).residuals, want, rep.family)

    @pytest.mark.parametrize("window", [4, 30])
    def test_banded_windows(self, side, window):
        for ctx in generic_contexts():
            for label, rep in banded_so3_samples(ctx):
                tr = repcore._verify_window(rep, window)
                assert tr.interior.any(), label
                cols = np.where(tr.interior)[0]
                want = reference_so3_relation_residuals(
                    ctx, tr.matrices["I1"], tr.matrices["I2"], tr.matrices["I3"], cols=cols)
                _agree(verify_so3(rep, window=window).residuals, want, label)
            rep = t_a_epsilon(ctx, 0.3 + 0.2j, 0.4 + 0.2j)
            tr = repcore._verify_window(rep, window)
            K = tr.matrices["K"]
            want = reference_sl2_relation_residuals(
                ctx, K, np.diag(1 / np.diag(K)), tr.matrices["E"], tr.matrices["F"],
                cols=np.where(tr.interior)[0])
            _agree(verify_sl2(rep, window=window).residuals, want, "T_a_eps")

    def test_product_and_components(self, side, q13):
        t = t_omega_l(q13, H("5/2"), "1")
        prod = tensor.tensor_so3(t, t)
        _agree(verify_so3(prod).residuals,
               reference_so3_relation_residuals(q13, prod.I1, prod.I2, prod.I3), "product")
        _agree(psihom.verify_psi(delta_tensor(t, t)).residuals,
               reference_psi_residuals(delta_tensor(t, t)), "product psi")
        report = structure.decompose(prod)
        assert len(report.components) == 6
        comps = [comp for _, comp in report.components]
        # the largest component in a random unitary basis: every entry nonzero
        rng = np.random.default_rng(5)
        big = max(comps, key=lambda c: c.dim)
        u = np.linalg.qr(rng.normal(size=(big.dim, big.dim)) + 1j * rng.normal(size=(big.dim, big.dim)))[0]
        comps.append(_so3(q13, *(u.conj().T @ g @ u for g in (big.I1, big.I2, big.I3))))
        assert np.count_nonzero(comps[-1].I2) == big.dim ** 2
        for comp in comps:
            _agree(verify_so3(comp).residuals,
                   reference_so3_relation_residuals(q13, comp.I1, comp.I2, comp.I3), comp.dim)

    @pytest.mark.parametrize("n", [1, 60])
    def test_zero_and_tiny(self, side, q13, n):
        zero = np.zeros((n, n), dtype=complex)
        assert verify_so3(_so3(q13, zero, zero, zero)).max_residual == 0
        sl2_zero = Sl2FiniteRep(q13, zero, zero, zero, zero, FamilyDescriptor("zero"))
        # K Kinv = 0 misses the identity by 1 in every column
        assert verify_sl2(sl2_zero).residuals == {"k_kinv": 1.0, "kek": 0.0, "kfk": 0.0,
                                                  "ef_commutator": 0.0}
        # a numerically zero representation scores its absolute defect
        tiny = 1e-6 * np.eye(n, dtype=complex)
        res = verify_so3(_so3(q13, tiny, zero, zero)).residuals
        assert res["cubic_1"] == 1e-6 and res["cubic_2"] == 0

    @pytest.mark.parametrize("l", ["5", "40"])
    def test_wrong_q_fails(self, side, q13, q4, l):
        rep = uqso3.r1_l(q13, H(l))
        assert verify_so3(_so3(q4, rep.I1, rep.I2, rep.I3)).max_residual > 0.1
        t = t_omega_l(q13, H(l), "1")
        assert verify_sl2(Sl2FiniteRep(q4, t.K, t.Kinv, t.E, t.F, t.family)).max_residual > 0.1
