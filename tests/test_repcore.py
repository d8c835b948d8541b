"""Representation data model: conventions, verifiers, truncation, JSON."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from support import (banded_so3_samples, dense_of_diagonals, finite_sl2_samples, finite_so3_samples, generic_contexts,
                     reference_materialize, reference_matrix_entry_list, reference_psi_residuals,
                     reference_sl2_relation_residuals, reference_so3_i3,
                     reference_so3_relation_residuals, root_contexts, unitary_conjugate)
from qso3.errors import EmptyWindow
from qso3.qscalar import HalfInt, ctx_from_json, generic_ctx, root_of_unity_ctx
from qso3.registry import REGISTRY
from qso3.repcore import (Band, BandedRep, Diagonals, FamilyDescriptor, ResidualReport,
                          Sl2FiniteRep, So3FiniteRep, TruncatedRep, band_diagonals,
                          matrix_from_json, rep_to_json, sl2_relation_residuals,
                          so3_relation_residuals, truncate, truncate_n, verify_sl2,
                          verify_so3)
from qso3 import psihom, repcore, structure, tensor, uqsl2, uqso3
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
        report = verify_so3(dataclasses.replace(rep, I2=np.zeros_like(rep.I2)))
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
        I2 = rep.I2.copy()
        I2[0, 1] += 1e-6
        assert verify_so3(dataclasses.replace(rep, I2=I2)).residuals["cubic_1"] > q13.tol
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

    def test_generator_not_contiguous(self, q13):
        image = psihom.compose(t_omega_l(q13, H("5/2"), "-1"))
        rep = So3FiniteRep(q13, image.I1, np.asfortranarray(image.I2), image.I3, image.family)
        assert not rep.I2.flags.c_contiguous
        self._check(rep)

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
        diags = band_diagonals({name: Band(diag=lambda n: 1 + n, up=lambda n: 2.0 + n,
                                           down=lambda n: 0.5j)
                                for name in ("I1", "I2", "I3")}, 0, 1, cyclic=True)
        mats = {name: d.dense() for name, d in diags.items()}
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

    def _pools(self):
        """Lists of operands of one dimension: the generators of registry
        samples (2-cycles and longer cycles with wraps among them), and at
        dims 1-3 the matrices of ``_matrices`` with a random diagonal, each
        also with an infinite entry."""
        for ctx in (generic_ctx(q=1.3), root_of_unity_ctx(4, 1), root_of_unity_ctx(5, 1)):
            for _, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                yield [rep.view(name) for name in rep.GENERATORS]
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            mats = self._matrices(n, rng)
            mats.append(np.diag(rng.normal(size=n) + 1j * rng.normal(size=n)))
            for a in mats[:2] + mats[-1:]:
                a = a.copy()
                a[0, 0] = np.inf
                mats.append(a)
            yield [Diagonals.of(a) for a in mats]

    @staticmethod
    def _padded(d: Diagonals) -> Diagonals:
        """d with an all-zero offset 2n added: the general loop runs, and
        the products of the added offset land outside the matrix."""
        n = d.shape[0]
        return Diagonals(d.offsets + [2 * n], np.vstack([d.rows, np.zeros((1, n))]))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # 0 * inf
    def test_diagonal_factor_is_the_general_loop(self):
        # the fast path's in-range entries have the general loop's bits up
        # to the sign of a zero, and its slots outside the matrix hold 0
        # where the loop may write 0 * inf
        count = 0
        for pool in self._pools():
            n = pool[0].shape[0]
            for a in pool:
                for b in pool:
                    if [0] not in (a.offsets, b.offsets):
                        continue
                    got, want = a @ b, self._padded(a) @ self._padded(b)
                    assert got.offsets == want.offsets
                    for k, g, w in zip(got.offsets, got.rows, want.rows):
                        lo, hi = max(k, 0), n + min(k, 0)
                        assert (g[lo:hi] + 0.0).tobytes() == (w[lo:hi] + 0.0).tobytes(), (n, k)
                        assert not g[:lo].any() and not g[hi:].any(), (n, k)
                    count += 1
        assert count > 500

    def test_sum_of_equal_offsets_is_the_general_loop(self):
        count = 0
        for pool in self._pools():
            for a in pool:
                for b in pool:
                    if a.offsets != b.offsets:
                        continue
                    got, want = a + b, self._padded(a) + b
                    assert got.offsets == want.offsets[:-1]
                    assert (got.rows + 0.0).tobytes() == (want.rows[:-1] + 0.0).tobytes()
                    count += 1
        assert count > 500

    def test_kron_is_np_kron(self):
        # every pair of sizes 1-7, with cyclic wraps whose offsets coincide
        # (a = 1, b = -1 and a = 0, b = m - 1 both land on m - 1)
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 7):
            for m in (1, 2, 3, 7):
                for a in self._matrices(n, rng):
                    for b in self._matrices(m, rng):
                        got = Diagonals.of(a).kron(Diagonals.of(b))
                        assert got.offsets == sorted(set(got.offsets))
                        assert np.array_equal(got.dense(), np.kron(a, b)), (n, m)

    def test_rows_hold_zero_outside_the_matrix(self):
        d = Diagonals.of(uqso3.r_ab_lambda(root_of_unity_ctx(5, 1), 1, 1, 2.0).I2)
        assert d.offsets == [-4, -1, 1, 4]
        prod = d @ d @ d
        j = np.arange(5)
        for k, row in zip(prod.offsets, prod.rows):
            assert not row[(j - k < 0) | (j - k >= 5)].any()


class TestBandDiagonals:
    """``band_diagonals`` on an interval or a cycle, made dense by
    ``Diagonals.dense``, equals the entry-by-entry fill of
    ``support.reference_materialize`` byte for byte."""

    def _check(self, bands, n_lo, n_hi, cyclic):
        got = band_diagonals(bands, n_lo, n_hi, cyclic)
        want = reference_materialize(bands, n_lo, n_hi, cyclic)
        assert got.keys() == want.keys()
        for name, mat in want.items():
            assert got[name].dense().tobytes() == mat.tobytes(), (name, n_lo, n_hi, cyclic)

    def test_finite_samples(self, monkeypatch):
        calls = []

        def recording(bands, n_lo, n_hi, cyclic=False):
            calls.append((bands, n_lo, n_hi, cyclic))
            return band_diagonals(bands, n_lo, n_hi, cyclic)

        monkeypatch.setattr(uqso3, "band_diagonals", recording)
        monkeypatch.setattr(uqsl2, "band_diagonals", recording)
        # p = 4 has cycles of length 2, on which the up and down links of a
        # column land on one entry
        for ctx in generic_contexts() + root_contexts() + [root_of_unity_ctx(4, 1)]:
            finite_so3_samples(ctx)
            finite_sl2_samples(ctx)
        lengths = {n_hi - n_lo + 1 for _, n_lo, n_hi, cyclic in calls if cyclic}
        assert {2, 3} <= lengths
        for call in calls:
            self._check(*call)

    @staticmethod
    def _counting(bands, calls):
        """The bands with every part wrapped to record its argument."""
        def counted(key, coeff):
            def part(ns):
                calls.append((key, ns))
                return coeff(ns)
            return part
        return {name: Band(**{part: counted((name, part), getattr(band, part))
                              for part in ("diag", "up", "down") if getattr(band, part)})
                for name, band in bands.items()}

    def _assert_once(self, calls, bands, n):
        # every part once; on one coordinate the links have no column
        keys = [key for key, _ in calls]
        parts = {(name, part) for name, band in bands.items()
                 for part in ("diag", "up", "down") if getattr(band, part)}
        assert len(keys) == len(set(keys)), keys
        assert set(keys) == parts if n > 1 else set(keys) <= parts, keys
        for key, ns in calls:
            assert isinstance(ns, np.ndarray) and ns.dtype.kind == "i", key
            assert len(ns) >= n - 1, (key, len(ns))

    def test_each_part_called_once_per_window(self, monkeypatch):
        # finite families: one call per part in the constructor's evaluation
        for module in (uqso3, uqsl2):
            def recording(bands, n_lo, n_hi, cyclic=False):
                calls = []
                got = band_diagonals(self._counting(bands, calls), n_lo, n_hi, cyclic)
                self._assert_once(calls, bands, n_hi - n_lo + 1)
                return got
            monkeypatch.setattr(module, "band_diagonals", recording)
        for ctx in (generic_ctx(q=1.3), root_of_unity_ctx(8, 1)):
            assert finite_so3_samples(ctx) and finite_sl2_samples(ctx)
        # banded families: one call per part in each window
        ctx = generic_ctx(q=1.3)
        for rep in [rep for _, rep in banded_so3_samples(ctx)] + [t_a_epsilon(ctx, 0.3, 0.4)]:
            bands, calls = rep.bands, []
            rep.bands = self._counting(bands, calls)
            for w in (6, 40):
                calls.clear()
                tr = truncate(rep, -w, w)
                self._assert_once(calls, bands, len(tr.ns))

    def test_windows_inside_the_last_one(self):
        # a part keeps its values on the last window; windows inside it,
        # and single coordinates, are read from them with the same bits
        ctx = generic_ctx(q=1.3)

        def reps():
            return [rep for _, rep in banded_so3_samples(ctx)] + [t_a_epsilon(ctx, 0.3, 0.4)]

        # the reference reads a second build of each family, never windowed
        for rep, fresh in zip(reps(), reps()):
            calls = []
            rep.bands = self._counting(rep.bands, calls)
            a, b = (int(n) for n in truncate_n(rep, -30, 30).ns[[0, -1]])
            calls.clear()
            for lo, hi in ((a, b), (a + 3, b - 5), (a + 2, a + 2), (b - 1, b)):
                tr = truncate_n(rep, lo, hi)
                want = reference_materialize(fresh.bands, int(tr.ns[0]), int(tr.ns[-1]))
                for name, mat in want.items():
                    assert tr.diagonals[name].dense().tobytes() == mat.tobytes(), rep.family
            assert not [key for key, ns in calls if len(ns) > 1], rep.family

    @pytest.mark.parametrize("cyclic", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_random_parts(self, n, cyclic):
        # random complex coefficients in every part, so that each entry of
        # the reference is matched bit for bit; on a 1-cycle all three parts
        # share one entry, where "cancelling" pins the order of the sum
        rng = np.random.default_rng(10 * n + cyclic)
        table = rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))
        n_lo = -2

        def part(t):
            return lambda m: table[t, m - n_lo]

        bands = {"all": Band(diag=part(0), up=part(1), down=part(2)),
                 "links": Band(up=part(1), down=part(2)),
                 "up": Band(up=part(1)), "down": Band(down=part(2)),
                 "diag": Band(diag=part(0)),
                 "negative_zero": Band(diag=lambda m: complex(-0.0, -0.0),
                                       up=lambda m: -0.0, down=part(2)),
                 # on a 1-cycle (1 + 1e-16) - 1 is 0 and (1 - 1) + 1e-16 is not
                 "cancelling": Band(diag=lambda m: 1.0, up=lambda m: 1e-16,
                                    down=lambda m: -1.0)}
        self._check(bands, n_lo, n_lo + n - 1, cyclic)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_dense_at_the_corners(self, n):
        rng = np.random.default_rng(n)
        for offsets in (list(range(1 - n, n)), sorted({1 - n, n - 1}), [1 - n], [n - 1], []):
            rows = rng.normal(size=(len(offsets), n)) + 1j * rng.normal(size=(len(offsets), n))
            diags = Diagonals(offsets, rows)
            assert diags.dense().tobytes() == dense_of_diagonals(diags).tobytes(), offsets


def _zero_diag_rep(ctx) -> BandedRep:
    """A banded rep whose I2 ``diag`` part is -0.0 on every coordinate."""
    i1 = Band(diag=lambda n: 1j * (n + 0.5))
    i2 = Band(diag=lambda n: complex(-0.0, -0.0), up=lambda n: 1.0 + 0.1j * n,
              down=lambda n: -0.5 + 0j)
    return BandedRep(ctx, "so3", 0.0, {"I1": i1, "I2": i2}, FamilyDescriptor("zero_diag"))


class TestWindowDiagonals:
    """Windows are built as diagonals with the entries of the dense fill;
    an so3 window's I3 is formed on the window's I1 and I2 with the bits
    of Python's complex products."""

    def _reps(self, ctx):
        t = t_a_epsilon(ctx, 0.3 + 0.2j, 0.4 + 0.2j)
        return ([rep for _, rep in banded_so3_samples(ctx)]
                + [t, psihom.compose(t), _zero_diag_rep(ctx)])

    @pytest.mark.parametrize("w", [6, 40])
    def test_equal_to_the_dense_window(self, w):
        for ctx in generic_contexts():
            for rep in self._reps(ctx):
                tr = truncate(rep, -w, w)
                dense = reference_materialize(rep.bands, int(tr.ns[0]), int(tr.ns[-1]))
                if rep.flavor == "so3":
                    assert rep.bands.keys() == {"I1", "I2"}
                    dense["I3"] = reference_so3_i3(ctx, dense["I1"], dense["I2"]) + 0.0
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
    """Evaluates every relation with dense products, then on diagonals
    wherever every operand is handed over as diagonals (the library's own
    rule)."""
    if request.param == "dense":
        def dense(*mats):
            return [m.dense() if isinstance(m, Diagonals) else m for m in mats]
        for module in (repcore, psihom):
            monkeypatch.setattr(module, "relation_operands", dense)
    return request.param


def _agree(got: dict, want: dict, label):
    assert got.keys() == want.keys(), label
    for name, value in want.items():
        assert abs(got[name] - value) <= 1e-14, (label, name, got[name], value)


class TestDiagonalResiduals:
    """Residuals on dense products and on diagonals equal the dense written-out
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


def _view_samples():
    """Every finite registry sample of the support contexts, the images of
    the extendable sl2 samples under the localization map, and coproducts
    of weight families."""
    for ctx in generic_contexts() + root_contexts():
        yield from finite_so3_samples(ctx)
        for label, t in finite_sl2_samples(ctx):
            yield label, t
            if t.extendability[0]:
                yield f"psi({label})", psihom.compose(t)
    for ctx in generic_contexts():
        prod = delta_tensor(t_omega_l(ctx, H("7/2"), "i"), t_omega_l(ctx, H("3"), "1"))
        yield "T_7/2,i (x) T_3", prod
        yield "psi(T_7/2,i (x) T_3)", psihom.compose(prod)


@pytest.fixture
def of_calls(monkeypatch):
    """The shapes of the matrices ``Diagonals.of`` converts from here on."""
    calls = []
    of = Diagonals.of.__func__

    def spy(cls, mat):
        calls.append(mat.shape)
        return of(cls, mat)

    monkeypatch.setattr(Diagonals, "of", classmethod(spy))
    return calls


class TestDiagonalsView:
    """A finite representation's diagonals view (``view``), handed over by
    its constructor or made once by ``Diagonals.of``, holds the nonzero
    diagonals of its dense fields, and the verifiers and the dump that read
    it return what the dense scans return."""

    def test_nonzero_rows_are_the_dense_diagonals(self):
        for label, rep in _view_samples():
            for name in rep.GENERATORS:
                view, want = rep.view(name), Diagonals.of(getattr(rep, name))
                kept = [k for k, row in zip(view.offsets, view.rows) if row.any()]
                assert kept == want.offsets, (label, name)
                for k in kept:
                    got = view.diagonal(k).tobytes()
                    assert got == want.diagonal(k).tobytes(), (label, name, k)

    def test_residuals_equal_the_dense_scan(self, side):
        for label, rep in _view_samples():
            # the dense fields as diagonals, so the relations take the path
            # the representation's own diagonals take
            diags = [Diagonals.of(getattr(rep, name)) for name in rep.GENERATORS]
            if isinstance(rep, So3FiniteRep):
                want = so3_relation_residuals(rep.ctx, *diags)
                assert verify_so3(rep).residuals == want, label
                continue
            want = sl2_relation_residuals(rep.ctx, *diags)
            assert verify_sl2(rep).residuals == want, label
            if rep.extendability[0]:
                dense_only = dataclasses.replace(rep)   # no view handed over
                assert psihom.verify_psi(rep).residuals == \
                    psihom.verify_psi(dense_only).residuals, label

    def test_dump_unchanged(self):
        for label, rep in _view_samples():
            dense_only = dataclasses.replace(rep)   # no view handed over
            assert not dense_only._views
            assert json.dumps(rep_to_json(rep)) == json.dumps(rep_to_json(dense_only)), label

    def test_each_generator_converted_at_most_once(self, q13, of_calls):
        t = t_omega_l(q13, H("61/2"), "i")
        prod = delta_tensor(t_omega_l(q13, H("7/2"), "i"), t_omega_l(q13, H("3"), "1"))
        r = uqso3.r1_l(q13, H("30"))
        for _ in range(2):
            for rep in (t, prod):
                image = psihom.compose(rep)
                verify_sl2(rep), psihom.verify_psi(rep), rep_to_json(rep)
                verify_so3(image), rep_to_json(image)
            verify_so3(r), rep_to_json(r)
        # the constructors, the coproduct and compose hand every generator over
        assert of_calls == []

    @pytest.mark.parametrize("tw", [59, 99])     # dims 60 and 100
    def test_dense_given_rep_is_verified_dense(self, tw, of_calls):
        # a representation given dense converts no generator into diagonals:
        # its relations, its extendability and its images run dense
        t = unitary_conjugate(t_omega_l(generic_ctx(q=1.05), HalfInt(tw), "1"))
        assert verify_sl2(t).max_residual <= 1e-9
        assert psihom.verify_psi(t).max_residual <= 1e-9
        assert verify_so3(psihom.compose(t)).max_residual <= 1e-9
        assert of_calls == []

    def test_is_diagonal(self, q13):
        t = t_omega_l(q13, H("3/2"), "1")
        zero_off = Diagonals([-1, 0], np.array([[0, 0, 0], [1, 2, 3]], dtype=complex))
        for diagonal, mats in ((True, (t.view("K"), t.K, zero_off, zero_off.dense())),
                               (False, (t.view("E"), t.E))):
            assert all(repcore.is_diagonal(mat) == diagonal for mat in mats)



@pytest.fixture
def dense_calls(monkeypatch):
    """The shapes of the matrices ``Diagonals.dense`` makes from here on."""
    calls = []
    dense = Diagonals.dense

    def spy(self):
        calls.append(self.shape)
        return dense(self)

    monkeypatch.setattr(Diagonals, "dense", spy)
    return calls


class TestDenseOnFirstRead:
    """A finite representation given diagonals makes its dense fields only
    when they are read: construct, coproduct, compose, verify and dump of
    the sl2 and the finite so3 families make none, at any dimension."""

    @pytest.mark.parametrize("dim", [1, 2, 8, 24])
    def test_small_dims_make_no_dense_matrix(self, q13, qphase, dim, dense_calls):
        l = HalfInt(dim - 1)    # 2 l + 1 = dim
        factors = {1: (1, 1), 2: (2, 1), 8: (4, 2), 24: (6, 4)}[dim]
        sl2, so3 = [], []
        for ctx in (q13, qphase):
            sl2 += [t_omega_l(ctx, l, omega) for omega in ("1", "i")]
            sl2.append(delta_tensor(*(t_omega_l(ctx, HalfInt(f - 1), "1") for f in factors)))
            so3 += [uqso3.r1_l(ctx, l), uqso3.r_split_n(ctx, dim, (1, -1))]
            so3 += [uqso3.r_pm_i_l(ctx, l, -1)] if dim % 2 == 0 else []
        if dim > 2:     # cycles of length dim (p = dim), with wraps
            p = root_of_unity_ctx(dim, 1)
            sl2.append(uqsl2.t_ab_lambda(p, 1, 2, 3))
            so3 += [uqso3.r_ab_lambda(p, 0.7 + 0.3j, 1.2, 1.7 + 0.6j),
                    uqso3.q_prime_lambda(p, 0.7 + 0.4j)]
        for t in sl2:
            assert t.dim == dim and verify_sl2(t).max_residual <= 1e-9, t.family
            rep_to_json(t)
            if t.extendability[0]:
                assert psihom.verify_psi(t).max_residual <= 1e-9, t.family
                so3.append(psihom.compose(t))
        for rep in so3:
            assert rep.dim == dim and verify_so3(rep).max_residual <= 1e-9, rep.family
            rep_to_json(rep)
        assert dense_calls == []

    def test_weight_family_path_makes_no_dense_matrix(self, q13, qphase, dense_calls):
        for ctx in (q13, qphase):
            t = t_omega_l(ctx, H("199/2"), "1")
            image = psihom.compose(t)
            verify_sl2(t), psihom.verify_psi(t), verify_so3(image)
            rep_to_json(t), rep_to_json(image)
        assert dense_calls == []

    def test_tensor_path_makes_no_dense_matrix(self, q13, qphase, dense_calls):
        for ctx in (q13, qphase):
            for (la, oa), lb in ((("7/2", "i"), "3"), (("13/2", "1"), "13/2")):
                prod = tensor.tensor_so3(t_omega_l(ctx, H(la), oa), t_omega_l(ctx, H(lb), "1"))
                assert verify_so3(prod).max_residual <= 1e-12
                rep_to_json(prod)
        assert dense_calls == []

    def test_cyclic_family_path_makes_no_dense_matrix(self, dense_calls):
        # wrap-free (a = b = 0): dimension p' = 79
        rep = uqsl2.t_ab_lambda(root_of_unity_ctx(79, 1), 0, 0, 1.7 + 0.6j)
        assert rep.dim == 79 and verify_sl2(rep).max_residual <= 1e-12
        rep_to_json(rep)
        assert dense_calls == []

    def test_so3_family_path_makes_no_dense_matrix(self, q13, qphase, dense_calls):
        reps = []
        for ctx in (q13, qphase):
            reps += [uqso3.r1_l(ctx, H("199/2")), uqso3.r_pm_i_l(ctx, H("191/2"), -1),
                     uqso3.r_split_n(ctx, 190, (1, -1))]
        p79 = root_of_unity_ctx(79, 1)
        reps += [uqso3.r_ab_lambda(p79, 0.7 + 0.3j, 1.2, 1.7 + 0.6j),
                 uqso3.q_prime_lambda(p79, 0.7 + 0.4j)]
        for rep in reps:
            assert rep.dim >= 79 and verify_so3(rep).max_residual <= 1e-9, rep.family
            rep_to_json(rep)
        assert dense_calls == []

    def test_dense_field_made_once_on_first_read(self, q13, dense_calls):
        t = t_omega_l(q13, H("5/2"), "1")
        assert t.dim == 6 and dense_calls == []     # dim converts nothing
        first = t.E
        assert t.E is first and dense_calls == [(6, 6)]
        assert np.array_equal(first, t.view("E").dense())

    def test_generators_frozen_before_and_after_first_read(self, q13):
        t, r = t_omega_l(q13, H("5/2"), "1"), uqso3.r1_l(q13, 2)
        for rep, name in ((t, "K"), (t, "F"), (r, "I3")):
            zero = np.zeros((rep.dim, rep.dim), dtype=complex)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, name, zero)
            before = getattr(rep, name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rep, name, zero)
            assert getattr(rep, name) is before

    @pytest.mark.parametrize("l", ["1/2", "30"])     # dims 2 and 61
    def test_generator_arrays_are_read_only(self, q4, l):
        # every reader (relations, dump, structure) sees the same generators
        reps = [uqso3.r1_l(q4, H(l)), t_omega_l(q4, H(l), "1")]
        given = np.eye(reps[0].dim, dtype=complex)
        reps.append(dataclasses.replace(reps[0], I1=given))   # a dense generator given
        for rep in reps:
            for name in rep.GENERATORS:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(rep, name)[:] = 0
        # held as a view, not a copy
        assert np.shares_memory(reps[-1].I1, given) and reps[-1].given["I1"] is reps[-1].I1

    @pytest.mark.parametrize("l", ["1/2", "30"])     # dims 2 and 61
    def test_view_rows_are_read_only(self, q4, l):
        # given diagonals, and the Diagonals.of a dense generator gets on
        # its first view: a write through a view would leave the dump and
        # the relations reading other generators than the oracles
        so3 = uqso3.r1_l(q4, H(l))
        so3.I2  # the dense field read first, as in a decompose
        reps = [so3, t_omega_l(q4, H(l), "1"), dataclasses.replace(so3)]
        for rep in reps:
            for name in rep.GENERATORS:
                with pytest.raises(ValueError, match="read-only"):
                    rep.view(name).rows[:] = 0
                assert np.array_equal(rep.view(name).dense(), getattr(rep, name))
        assert verify_so3(so3).max_residual <= 1e-9

    def test_given_diagonals_stay_writable_for_their_owner(self, q13):
        # the representation holds a read-only view, not the given rows
        rows = np.arange(1, 4, dtype=complex)[None]
        diags = Diagonals([0], rows)
        zero = Diagonals([0], np.zeros((1, 3), complex))
        rep = So3FiniteRep(q13, diags, zero, zero, FamilyDescriptor("diagonals"))
        assert np.shares_memory(rep.view("I1").rows, rows)
        assert rows.flags.writeable and not rep.view("I1").rows.flags.writeable

    def test_unknown_attribute_raises(self, q13):
        with pytest.raises(AttributeError):
            t_omega_l(q13, 1, "1").I1
