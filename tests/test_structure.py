"""Structure oracles: spectra, orbits, irreducibility, decomposition."""

import dataclasses
import gc
import itertools
import weakref

import numpy as np
import pytest

from support import (dense_burnside_dim, dense_commutant_dim, finite_so3_samples,
                     finite_sl2_samples, generic_contexts, is_proper_witness,
                     reference_block_solutions,
                     reference_decompose, reference_frame_spin, reference_reach,
                     reference_scatter_solutions, reference_spin, reference_unknowns,
                     root_contexts)
from qso3 import structure, tensor
from qso3.errors import CtxMismatch, SingularBasisChange
from qso3.psihom import compose
from qso3.qscalar import HalfInt, generic_ctx, root_of_unity_ctx
from qso3.repcore import FamilyDescriptor, So3FiniteRep, verify_sl2, verify_so3
from qso3.structure import (_norm, _spin, _split_along, _unknowns,
                            are_equivalent, burnside_dim, casimir, commutant, decompose,
                            fingerprint, i1_spectrum, intertwiners, is_irreducible,
                            orbit_span)
from qso3 import uqso3 as U
from qso3.tensor import _so3_candidates, cg_decompose, tensor_so3
from qso3.uqsl2 import delta_tensor, t_omega_l

H = HalfInt.parse


class TestSpectrum:
    def test_weight_family(self, q4):
        assert i1_spectrum(U.r1_l(q4, H("1/2"))) == [
            (pytest.approx(-0.4j), 1), (pytest.approx(0.4j), 1)]

    def test_twisted_degeneracy(self, q4):
        assert i1_spectrum(U.r_pm_i_l(q4, H("1/2"), 1)) == [
            (pytest.approx(-2 / 3), 2)]

    def test_degenerate_cyclic_exactly_one_single(self):
        ctx = root_of_unity_ctx(10, 1)
        lam = U.degenerate_lambdas(ctx, trivial_ab=True)
        # no fully paired lambda for the wrap-free chain at p' odd
        assert lam == []
        rep = U.r_ab_lambda(ctx, 0, 0, complex(ctx.s) ** 3)
        mults = sorted(m for _, m in i1_spectrum(rep))
        assert mults.count(1) == 1


class TestOrbitSpan:
    def test_full_space_from_any_seed(self, q13):
        rep = U.r1_l(q13, 1)
        seed = np.zeros(3)
        seed[1] = 1.0
        assert orbit_span(rep, seed).shape[1] == 3

    def test_invariant_plane(self, q13):
        rep = U.r_pm_i_l(q13, H("3/2"), 1)
        seed = np.zeros(4, complex)
        seed[2], seed[1] = 1.0, 1j  # |1/2> + i|-1/2>
        assert orbit_span(rep, seed).shape[1] == 2

    def test_line_in_trivial(self, q13):
        rep = U.r1_l(q13, 0)
        assert orbit_span(rep, np.array([1.0])).shape[1] == 1


class TestIrreducibilityOracles:
    def test_weight_families_irreducible(self, q13, q4):
        # at q = 4 the chain coupling 1/(q^(l-1) + q^(1-l)) sits many orders
        # below the largest entry [l]_q (2.4e-4 next to 4369 at l = 7); a
        # spin dropping at the largest entry's level stopped short of it,
        # and so does burnside_dim from l = 10
        cases = [(q13, l) for l in (0, H("1/2"), H("3/2"), H("9/2"))] + \
            [(q4, H(str(l))) for l in range(7, 11)]
        for ctx, l in cases:
            rep = U.r1_l(ctx, l)
            assert is_irreducible(rep) == (True, None), (ctx.q, l)
            assert commutant(rep)[0] == 1
            if ctx is q13:
                assert burnside_dim(rep) == (rep.dim ** 2, True)

    def test_twisted_families_reducible(self, q13, q4):
        # two inequivalent halves of dimension n/2: the algebra has
        # dimension 2 (n/2)^2; a span grown in ambient n^2 reached n^2 at
        # dimension 12 (q = 1.3) and 10 (q = 4).  From l = 15/2 at q = 4 the
        # smallest coupling is below 1e-3 of the largest entry, where a
        # spin dropping at the largest entry's level stopped at dimension 7
        # and burnside_dim, which still does, falls short from l = 19/2
        for ctx in (q13, q4):
            for l in ("1/2", "3/2", "5/2", "7/2", "9/2", "11/2", "15/2", "19/2", "23/2"):
                rep = U.r_pm_i_l(ctx, H(l), 1)
                irr, witness = is_irreducible(rep)
                assert not irr and witness.shape[1] == rep.dim // 2, (ctx.q, l)
                assert is_proper_witness(rep, witness), (ctx.q, l)
                assert commutant(rep)[0] == 2
                if H(l) <= H("11/2"):
                    assert burnside_dim(rep) == (rep.dim ** 2 // 2, True), (ctx.q, l)

    def test_oracles_agree_across_registry(self, q13, p5, p8):
        # irreducible => trivial commutant; indecomposable chains may pair a
        # trivial commutant with reducibility, which the spin then witnesses
        count = 0
        for ctx in (q13, p5, p8):
            samples = finite_so3_samples(ctx) + finite_sl2_samples(ctx)
            for label, rep in samples:
                irr, _ = is_irreducible(rep)
                cdim = commutant(rep)[0]
                if irr:
                    assert cdim == 1, (label, cdim)
                if cdim > 1:
                    assert not irr, label
                if rep.flags.get("reducible"):
                    assert not irr, label
                if cdim == 1 and not irr:
                    report = decompose(rep)
                    assert not report.is_direct_sum
                    assert any(b.shape[1] < rep.dim for b in report.lattice), label
                count += 1
        assert count >= 100


class TestDenseReference:
    def test_blocked_matches_dense(self):
        # the weight-blocked oracles and the spin verdict against the full
        # n^2 Kronecker system and the n^2 span, on every registry sample
        # small enough for both
        count = 0
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                if rep.dim > 8:
                    continue
                assert commutant(rep)[0] == dense_commutant_dim(rep), (ctx.q, label)
                dense = dense_burnside_dim(rep)
                assert burnside_dim(rep) == dense, (ctx.q, label)
                irr, witness = is_irreducible(rep)
                assert irr == (dense == (rep.dim ** 2, True)), (ctx.q, label)
                assert irr or is_proper_witness(rep, witness), (ctx.q, label)
                count += 1
        assert count >= 300

    def test_no_simple_weight(self, q13, p8):
        # every I1 weight is paired, so the spin starts from a simple
        # eigenvalue of a fixed-seed combination of the generators
        whole = U.r_pm_i_l(q13, H("5/2"), 1)
        unsplit = U.r_ab_degenerate(p8, 0.5, 0.9, "plus")
        assert len(unsplit) == 1
        cases = [(whole, False), (unsplit[0], True),
                 (U.q_prime_lambda(p8, complex(p8.s)), False)]
        for rep, irreducible in cases:
            assert all(m > 1 for _, m in i1_spectrum(rep))
            irr, witness = is_irreducible(rep)
            assert irr == irreducible == (dense_burnside_dim(rep) == (rep.dim ** 2, True))
            assert irr or is_proper_witness(rep, witness)
        assert is_irreducible(whole)[1].shape[1] == whole.dim // 2


class TestWeightFrame:
    def test_defective_first_generator_raises(self, q13):
        # a Jordan block has no eigenbasis to block in
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        jordan = np.array([[1.0, 1.0], [0.0, 1.0]], complex)
        other = np.array([[0.0, 0.0], [1.0, 0.0]], complex)
        rep = So3FiniteRep(q13, jordan, other, np.zeros((2, 2), complex),
                           FamilyDescriptor("jordan", {}), {})
        for oracle in (commutant, burnside_dim, is_irreducible,
                       lambda r: orbit_span(r, np.ones(2, complex))):
            with pytest.raises(SingularBasisChange):
                oracle(rep)

    def test_conjugated_rep_maps_back(self, q13):
        # a non-diagonal I1 is blocked in its eigenbasis; the commutant
        # basis comes back in the caller's basis
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        rep = U.r_pm_i_l(q13, H("3/2"), 1)
        S = np.random.default_rng(3).standard_normal((4, 4)) + 0j
        Sinv = np.linalg.inv(S)
        conj = So3FiniteRep(q13, S @ rep.I1 @ Sinv, S @ rep.I2 @ Sinv,
                            S @ rep.I3 @ Sinv, FamilyDescriptor("conj", {}), {})
        dim, basis = commutant(conj)
        assert dim == 2
        for X in basis:
            for g in (conj.I1, conj.I2):
                assert np.max(np.abs(X @ g - g @ X)) <= 1e-8
        assert burnside_dim(conj) == burnside_dim(rep)
        assert decompose(conj).component_dims == [2, 2]
        irr, witness = is_irreducible(conj)
        assert not irr and witness.shape[1] == 2 and is_proper_witness(conj, witness)

    def test_one_frame_per_representation(self, q13, monkeypatch):
        # decompose, the component spins, fingerprints and equivalence
        # decisions of a whole table share each representation's frame
        framed = []

        class Spy(structure.WeightFrame):
            def __init__(self, rep):
                framed.append(rep)
                super().__init__(rep)

        monkeypatch.setattr(structure, "WeightFrame", Spy)
        tensor._candidate.cache_clear()  # candidates are built once per process
        prod = _product(q13, (("1", "1"), ("1", "1")))
        table = cg_decompose(prod)
        assert table.multiplicities == {f"R1_l[l={l}]": 1 for l in (0, 1, 2)}
        assert len({id(rep) for rep in framed}) == len(framed)
        # the product, its three components and their named candidates at least
        assert len(framed) >= 7 and framed[0] is prod

    def test_generators_cannot_be_swapped(self, q13):
        rep, t = U.r1_l(q13, 1), t_omega_l(q13, H("1/2"), 1)
        frame = rep.weight_frame
        for target, name in ((rep, "I2"), (t, "K")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(target, name, np.zeros((target.dim, target.dim), complex))
        assert rep.weight_frame is frame


def _registry_samples():
    return [(label, rep) for ctx in generic_contexts() + root_contexts()
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx)]


class TestFrameReferences:
    """The frame-based spin and equation fill against copies of the code
    they replaced: the results are equal bit for bit."""

    def test_spin_matches_reference(self):
        rng = np.random.default_rng(5)
        count = 0
        for label, rep in _registry_samples():
            f = rep.weight_frame
            adjoints = [g.conj().T for g in f.gens]
            simple = [b[0] for b in f.blocks if len(b) == 1]
            seeds = [rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim)]
            seeds += [np.eye(rep.dim, dtype=complex)[simple[0]]] if simple else []
            for v in seeds:
                assert np.array_equal(_spin(f, v),
                                      reference_spin(f.gens, f.blocks, v, rep.ctx)), label
                assert np.array_equal(_spin(f, v, adjoint=True),
                                      reference_spin(adjoints, f.blocks, v, rep.ctx)), label
                count += 1
        assert count >= 500

    def test_commutant_matches_scatter_reference(self):
        for label, rep in _registry_samples():
            dim, basis = commutant(rep)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "_block_solutions", reference_scatter_solutions)
                ref_dim, ref_basis = commutant(rep)
            assert dim == ref_dim and all(map(np.array_equal, basis, ref_basis)), label


def _fresh(rep):
    """The representation built again from its given generators: no frame."""
    return type(rep)(rep.ctx, *rep.given.values(), rep.family, dict(rep.flags))


class TestKernelReferences:
    """The frame kernels against verbatim copies of the per-candidate and
    per-block code they replaced (``support``): equal bit for bit on every
    finite sample of all seven contexts."""

    def test_norm_is_numpy_norm(self):
        rng = np.random.default_rng(11)
        count = 0
        for dim in range(1, 40):
            for exponent in range(-20, 21):
                for _ in range(5):
                    v = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) \
                        * 10.0 ** exponent
                    assert _norm(v) == np.linalg.norm(v)
                    count += 1
        assert count == 7995

    def test_frames_match_references(self):
        rng = np.random.default_rng(5)
        count = 0
        for label, rep in _registry_samples():
            f = rep.weight_frame
            # the blocks, and the pieces of both reaches
            assert all(map(np.array_equal, f.blocks, [np.array(idx) for _, idx in f.groups])), label
            assert all((f.label[b] == k).all() for k, b in enumerate(f.blocks)), label
            for adjoint, reach in ((False, f.reach), (True, f.adjoint_reach)):
                ref = reference_reach(f, adjoint)
                assert [[i for i, _ in r] for r in reach] == [[i for i, _ in r] for r in ref]
                for got, want in zip(reach, ref):
                    for (_, a), (_, b) in zip(got, want):
                        assert np.array_equal(a, b) and a.strides == b.strides, label
            # the spin columns from each simple weight and a random vector
            seeds = [np.eye(rep.dim, dtype=complex)[b[0]] for b in f.blocks if len(b) == 1]
            seeds.append(rng.standard_normal(rep.dim) + 1j * rng.standard_normal(rep.dim))
            for v in seeds:
                for adjoint in (False, True):
                    assert np.array_equal(_spin(f, v, adjoint),
                                          reference_frame_spin(f, v, adjoint)), label
            # the unknowns of the commutant's blocks
            pairs = [(b, b) for b in f.blocks]
            for got, want in zip(_unknowns(pairs), reference_unknowns(pairs)):
                assert got.dtype == want.dtype and np.array_equal(got, want), label
            count += 1
        assert count >= 500

    def test_commutant_and_intertwiners_match_references(self):
        samples = _registry_samples()
        # each sample into itself, and into the next sample of its algebra
        # and context (the two index lists of a matched block then differ)
        fresh = [_fresh(rep) for _, rep in samples]
        others = [next((b for b in fresh[k + 1:] if type(b) is type(rep) and b.ctx == rep.ctx),
                       fresh[k]) for k, (_, rep) in enumerate(samples)]
        for (label, rep), other in zip(samples, others):
            dim, basis = commutant(rep)
            idims = [intertwiners(rep, b) for b in (_fresh(rep), other)]
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(structure, "_unknowns", reference_unknowns)
                dense = dataclasses.replace(rep)   # no frame kept
                ref_dim, ref_basis = commutant(dense)
                ref_idims = [intertwiners(dense, dataclasses.replace(b))
                             for b in (dense, other)]
            assert dim == ref_dim and all(map(np.array_equal, basis, ref_basis)), label
            for (idim, ibasis), (ref_idim, ref_ibasis) in zip(idims, ref_idims):
                assert idim == ref_idim, label
                assert all(map(np.array_equal, ibasis, ref_ibasis)), label


class TestCommutant:
    def test_reducible_constant_family(self, p5):
        rep = U.q_prime_lambda(p5, 1.0)
        assert commutant(rep)[0] >= 2

    def test_irreducible_is_schur(self, p5):
        rep = U.q_prime_lambda(p5, 2.0)
        assert commutant(rep)[0] == 1


class TestDecompose:
    def test_split_structure(self, q13):
        report = decompose(U.r_pm_i_l(q13, H("5/2"), 1))
        assert report.is_direct_sum
        assert report.component_dims == [3, 3]
        assert report.commutant_dim == 2
        assert report.combined_condition < 10
        for basis, comp in report.components:
            irr, _ = is_irreducible(comp)
            assert irr
            from qso3.repcore import verify_so3

            assert verify_so3(comp).max_residual <= 1e-9

    def test_components_in_weight_bases(self, q13):
        # split bases are I1 eigenvectors, so every component has a
        # diagonal I1
        for l in (H("5/2"), H("9/2")):
            for basis, comp in decompose(U.r_pm_i_l(q13, l, -1)).components:
                off = comp.I1 - np.diag(np.diag(comp.I1))
                assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(comp.I1))
                assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]))

    def test_reassembly(self, q13):
        rep = U.r_pm_i_l(q13, H("3/2"), -1)
        report = decompose(rep)
        order = np.column_stack([b for b, _ in report.components])
        blocks = [c.I2 for _, c in report.components]
        block_mat = np.zeros_like(rep.I2)
        at = 0
        for blk in blocks:
            block_mat[at:at + blk.shape[0], at:at + blk.shape[0]] = blk
            at += blk.shape[0]
        back = order @ block_mat @ np.linalg.inv(order)
        scale = max(1.0, np.max(np.abs(rep.I2)))
        assert np.max(np.abs(back - rep.I2)) <= 1e-8 * scale

    @staticmethod
    def _verified_components(rep) -> int:
        """Every component of rep, all of its generators restricted (I3 and
        K^-1 included), satisfies every relation within ``threshold``."""
        verify = verify_so3 if isinstance(rep, So3FiniteRep) else verify_sl2
        comps = [comp for _, comp in decompose(rep).components]
        for comp in comps:
            res = verify(comp)
            assert res.max_residual <= comp.ctx.threshold(), (rep.family, comp.dim, res)
        return len(comps)

    def test_registry_components_satisfy_the_relations(self):
        assert sum(self._verified_components(rep) for _, rep in _registry_samples()) >= 500

    def test_product_components_satisfy_the_relations(self, q13, qphase):
        for ctx in (q13, qphase):
            for la, lb, count in (("5/2", "5/2", 6), ("3", "2", 5), ("7/2", "3/2", 4)):
                prod = tensor_so3(t_omega_l(ctx, H(la), "1"), t_omega_l(ctx, H(lb), "1"))
                assert self._verified_components(prod) == count

    def test_irreducible_input(self, q13):
        report = decompose(U.r1_l(q13, 2))
        assert report.is_irreducible and report.is_direct_sum
        assert report.component_dims == [5]

    def test_indecomposable_chain(self):
        # wrap-free cyclic chain with a one-way arrow: reducible but not a
        # direct sum; the lattice records the invariant line
        ctx = root_of_unity_ctx(10, 1)
        rep = U.r_ab_lambda(ctx, 0, 0, complex(ctx.s) ** 3)
        report = decompose(rep)
        assert not report.is_direct_sum
        assert not report.is_irreducible
        assert report.components == []
        assert any(b.shape[1] < rep.dim for b in report.lattice)

    def test_deterministic(self, q13):
        rep = U.r_pm_i_l(q13, H("5/2"), 1)
        a = decompose(rep)
        b = decompose(rep)
        assert np.allclose(a.components[0][0], b.components[0][0])

    def test_partial_split_flags_indecomposable_block(self, p8):
        # direct sum of an irreducible weight family and an indecomposable
        # chain: the split separates the blocks and marks the chain as a
        # reducible component
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        a = U.r1_l(p8, 1)
        lam = complex(p8.s)  # eta_2 vanishes: the chain breaks
        b = U.r_ab_lambda(p8, 0, 0, lam)
        assert not is_irreducible(b)[0]
        assert commutant(b)[0] == 1
        n = a.dim + b.dim
        mats = {}
        for name in ("I1", "I2", "I3"):
            mats[name] = np.zeros((n, n), complex)
            mats[name][:a.dim, :a.dim] = getattr(a, name)
            mats[name][a.dim:, a.dim:] = getattr(b, name)
        summed = So3FiniteRep(p8, mats["I1"], mats["I2"], mats["I3"],
                              FamilyDescriptor("sum", {}), {})
        report = decompose(summed)
        assert report.is_direct_sum
        assert report.component_dims == [3, 4]
        flags = {comp.dim: comp.flags["component_irreducible"]
                 for _, comp in report.components}
        assert flags == {3: True, 4: False}


def _all_generators(rep):
    if isinstance(rep, So3FiniteRep):
        return [rep.I1, rep.I2, rep.I3]
    return [rep.K, rep.Kinv, rep.E, rep.F]


class TestCasimir:
    def test_central_on_registry(self):
        # every finite sample, roots of unity included
        count = 0
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                C = casimir(rep)
                for g in _all_generators(rep):
                    comm = np.max(np.abs(C @ g - g @ C))
                    assert comm <= ctx.matching(np.max(np.abs(C)) * np.max(np.abs(g))), \
                        (ctx.q, label)
                count += 1
        assert count >= 500

    def test_scalar_on_weight_families(self):
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                if label.startswith(("R1_l", "Rsplit_n", "T_l")):
                    C = casimir(rep)
                    spread = np.max(np.abs(C - np.trace(C) / rep.dim * np.eye(rep.dim)))
                    assert spread <= ctx.threshold(np.max(np.abs(C))), (ctx.q, label)

    def test_commutes_with_central_poly(self):
        # the two central elements at a root of unity: C and P(I1)
        for ctx in root_contexts():
            poly = U.central_poly(ctx)
            for label, rep in finite_so3_samples(ctx):
                C, P = casimir(rep), poly(rep.I1)
                comm = np.max(np.abs(C @ P - P @ C))
                assert comm <= ctx.matching(np.max(np.abs(C)) * np.max(np.abs(P))), \
                    (ctx.p, label)


def _fields(report):
    return (report.component_dims, report.commutant_dim, report.burnside_dim,
            report.is_irreducible, report.is_direct_sum,
            sorted((c.dim, c.flags.get("component_irreducible"))
                   for _, c in report.components),
            [b.shape[1] for b in report.lattice])


def _triple(ctx, factors):
    (la, oa), (lb, ob), (lc, oc) = factors
    ab = delta_tensor(t_omega_l(ctx, H(la), oa), t_omega_l(ctx, H(lb), ob))
    return compose(delta_tensor(ab, t_omega_l(ctx, H(lc), oc)))


@pytest.fixture
def solved(monkeypatch):
    """The dimensions of the representations ``commutant`` is solved on."""
    dims, original = [], structure.commutant
    monkeypatch.setattr(structure, "commutant",
                        lambda rep: dims.append(rep.dim) or original(rep))
    return dims


class TestCasimirSplit:
    def test_matches_commutant_first_reference(self):
        # every registry sample and the sl2 products of T_l, l <= 2
        cases = []
        for ctx in generic_contexts() + root_contexts():
            cases += [(ctx, label, rep)
                      for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx)]
        factors = [(HalfInt(t), w) for w in ("1", "-1") for t in range(5)] + \
            [(H(l), "i") for l in ("1/2", "3/2")]
        for ctx in generic_contexts():
            for (la, oa), (lb, ob) in itertools.combinations_with_replacement(factors, 2):
                cases.append((ctx, f"T_l[{la},{oa}] (x) T_l[{lb},{ob}]",
                              delta_tensor(t_omega_l(ctx, la, oa), t_omega_l(ctx, lb, ob))))
        for ctx, label, rep in cases:
            assert _fields(decompose(rep)) == _fields(reference_decompose(rep)), \
                (ctx.q, label)
        assert len(cases) >= 700

    @pytest.mark.parametrize("labels, table", [
        (("1/2", "1/2", "1/2"), {"1/2": 2, "3/2": 1}),
        (("1", "1", "1"), {"0": 1, "1": 3, "2": 2, "3": 1}),
        (("1/2", "1", "3/2"), {"0": 1, "1": 2, "2": 2, "3": 1}),
        (("2", "2", "2"), {"0": 1, "1": 3, "2": 5, "3": 4, "4": 3, "5": 2, "6": 1}),
    ])
    def test_multiplicities(self, q13, labels, table):
        # pieces with multiplicity above 1 go through the in-piece commutant
        prod = _triple(q13, [(l, "1") for l in labels])
        report = cg_decompose(prod)
        assert report.multiplicities == {f"R1_l[l={l}]": m for l, m in table.items()}
        assert not report.unmatched_dims
        assert decompose(prod).commutant_dim == sum(m * m for m in table.values())

    def test_twisted_pair_shares_a_piece(self, q13):
        # all four sign variants of Rsplit_n share one Casimir value, so
        # each (+,+)/(+,-) pair is one piece, split by its commutant
        prod = _triple(q13, [("1/2", "i"), ("1/2", "1"), ("1/2", "1")])
        assert sorted(Q.shape[1] for Q in _split_along(prod, casimir(prod))) == [4, 4]
        report = cg_decompose(prod)
        assert report.multiplicities == {
            "Rsplit_n[n=1,(+,+)]": 2, "Rsplit_n[n=1,(+,-)]": 2,
            "Rsplit_n[n=2,(+,+)]": 1, "Rsplit_n[n=2,(+,-)]": 1}
        assert not report.unmatched_dims
        assert decompose(prod).commutant_dim == 10

    def test_no_top_level_commutant(self, q13, monkeypatch):
        # C has several clusters on a product, so no commutant is solved
        # on the whole representation
        solved = []
        original = structure.commutant

        def spy(rep):
            solved.append(rep.dim)
            return original(rep)

        monkeypatch.setattr(structure, "commutant", spy)
        prod = _triple(q13, [("1", "1"), ("1", "1"), ("1", "1")])
        report = decompose(prod)
        assert report.commutant_dim == 15
        assert solved and max(solved) < prod.dim

    def test_exhaustive_split_solves_no_part(self, q13, solved):
        # Ri_l has commutant dimension 2 and splits into two parts, so both
        # parts have commutant dimension 1 and are leaves without a solve
        rep = U.r_pm_i_l(q13, H("5/2"), 1)
        report = decompose(rep)
        assert report.component_dims == [3, 3] and report.commutant_dim == 2
        assert solved == [rep.dim]

    def test_multiplicity_two_recurses(self, q13, solved):
        # the l = 1/2 piece (commutant dimension 4) splits into two parts,
        # fewer than 4, so the parts' commutants are solved
        prod = _triple(q13, [("1/2", "1"), ("1/2", "1"), ("1/2", "1")])
        report = decompose(prod)
        assert sorted(solved) == [2, 2, 4, 4]
        assert report.component_dims == [2, 2, 4] and report.commutant_dim == 5
        assert _fields(report) == _fields(reference_decompose(prod))

    def test_casimir_values(self, q13):
        prod = _triple(q13, [("1/2", "1"), ("1/2", "1"), ("1/2", "1")])
        report = decompose(prod)
        want = {d: casimir(U.r1_l(q13, HalfInt(d - 1)))[0, 0] for d in (2, 4)}
        assert report.component_dims == [2, 2, 4]
        assert report.casimir_values == [pytest.approx(want[d]) for d in (2, 2, 4)]


class TestNoReferenceCycle:
    def test_product_freed_on_return(self, q13):
        # decompose and the table hold no cycle: with the cyclic collector
        # off, the product dies with its last reference
        prod = _product(q13, (("3", "1"), ("3", "1")))
        gc.collect()
        gc.disable()
        try:
            ref = weakref.ref(prod)
            table = cg_decompose(prod)
            del prod
            assert ref() is None
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert table.multiplicities == {f"R1_l[l={l}]": 1 for l in range(7)}


class TestReportConsistency:
    # the report's algebra dimension is the one its decomposition implies
    # (Wedderburn), never a separate span that can contradict it

    def test_near_degenerate_direct_sum(self, p8):
        # lambda 1e-9 off the degenerate value: the blocked span called
        # this [2, 2] direct sum with commutant 2 irreducible (16 = n^2)
        lam = U.degenerate_lambdas(p8, True)[0] * (1 + 1e-9)
        report = decompose(U.r_ab_lambda(p8, 0, 0, lam))
        assert report.component_dims == [2, 2]
        assert report.commutant_dim == 2
        assert report.burnside_dim == 8

    def test_large_product_is_sum_of_squares(self, q13):
        # T_l (x) T_l at l = 9/2 (dimension 100) is one R1_l for each
        # l = 0..9; the span lost rank decisions there and gave 6951
        half = t_omega_l(q13, H("9/2"), 1)
        report = decompose(tensor_so3(half, half))
        assert report.component_dims == [2 * l + 1 for l in range(10)]
        assert report.burnside_dim == sum((2 * l + 1) ** 2 for l in range(10)) == 1330

    def test_indecomposable_chain_has_no_algebra_dim(self):
        ctx = root_of_unity_ctx(10, 1)
        rep = U.r_ab_lambda(ctx, 0, 0, complex(ctx.s) ** 3)
        report = decompose(rep)
        assert report.burnside_dim is None
        assert [b.shape[1] for b in report.lattice] == [1]
        assert is_proper_witness(rep, report.lattice[0])


class TestIntertwiners:
    def test_self_intertwiner_contains_identity(self, q13):
        rep = U.r1_l(q13, 1)
        dim, basis = intertwiners(rep, rep)
        assert dim == 1
        X = basis[0]
        assert np.allclose(X / X[0, 0], np.eye(3), atol=1e-8)

    def test_relabeling_equivalence(self, q13):
        co = compose(t_omega_l(q13, H("3/2"), -1))
        dim, basis = intertwiners(co, U.r1_l(q13, H("3/2")))
        assert dim == 1
        assert np.linalg.matrix_rank(basis[0], tol=1e-10) == 4

    def test_split_families_disjoint(self, q4):
        import itertools

        reps = [U.r_split_n(q4, 2, (s1, s2))
                for s1 in (1, -1) for s2 in (1, -1)]
        for a, b in itertools.combinations(reps, 2):
            assert intertwiners(a, b)[0] == 0

    def test_ctx_mismatch(self, q13, q4):
        with pytest.raises(CtxMismatch):
            intertwiners(U.r1_l(q13, 1), U.r1_l(q4, 1))

    def test_algebra_mismatch(self, q13):
        # same context and dimension, but an so3 and an sl2 representation
        so3, sl2 = U.r1_l(q13, 1), t_omega_l(q13, 1)
        for a, b in ((so3, sl2), (sl2, so3)):
            with pytest.raises(CtxMismatch, match="different algebras"):
                intertwiners(a, b)

    def test_schur_across_dimensions(self, q13):
        # the weight-0 vector of R1_0 meets the weight-0 vector of R1_1;
        # only the equation at R1_1's weights +-1 rules the map out
        for la, lb in itertools.product(range(3), repeat=2):
            assert intertwiners(U.r1_l(q13, la), U.r1_l(q13, lb))[0] == (la == lb)


class TestTolerancePolicy:
    @pytest.mark.parametrize("tol, eps", [(1e-6, 1e-7), (1e-9, 1e-9)])
    def test_tol_governs_the_rank_cut(self, tol, eps):
        # lambda within tol of the degenerate value: the I1 pairs cluster at
        # this tol, and the rank cut must follow, or the commutant misses
        # the split that the clustering set up
        ctx = root_of_unity_ctx(8, 1, tol=tol)
        lam = U.degenerate_lambdas(ctx, True)[0] * (1 + eps)
        rep = U.r_ab_lambda(ctx, 0, 0, lam)
        assert commutant(rep)[0] == 2
        assert decompose(rep).component_dims == [2, 2]


class TestFingerprint:
    def test_separates_split_signs(self, q4):
        fps = {}
        for s1 in (1, -1):
            for s2 in (1, -1):
                fps[(s1, s2)] = fingerprint(U.r_split_n(q4, 2, (s1, s2)))
        assert not fps[(1, 1)].matches(fps[(1, -1)])      # I2 trace
        assert not fps[(1, 1)].matches(fps[(-1, 1)])      # I1 spectrum
        assert fps[(1, 1)].matches(fps[(1, 1)])

    def test_diff_names_the_differing_invariants(self, q4):
        fps = {signs: fingerprint(U.r_split_n(q4, 2, signs))
               for signs in ((1, 1), (1, -1), (-1, 1))}
        assert "trace_i2" in fps[(1, 1)].diff(fps[(1, -1)])
        assert "i1_spectrum" in fps[(1, 1)].diff(fps[(-1, 1)])
        assert fps[(1, 1)].diff(fps[(1, 1)]) == []
        assert fingerprint(U.r1_l(q4, 1)).diff(fps[(1, 1)]) == ["dim"]
        for a in fps.values():
            for b in fps.values():
                assert a.matches(b) == (not a.diff(b))

    def test_sl2_names(self, q13):
        fps = {w: fingerprint(t_omega_l(q13, H("3/2"), w)) for w in ("1", "-1", "i")}
        assert fps["1"].diff(fps["-1"]) == ["k_spectrum"]
        assert fps["1"].diff(fps["i"]) == ["k_spectrum"]
        assert fps["1"].matches(fingerprint(t_omega_l(q13, H("3/2"), 1)))
        assert set(fps["1"].traces) == {"trace_e", "trace_f"}

    def test_weight_vs_split_disjoint(self, q4):
        f_weight = fingerprint(U.r1_l(q4, 1))
        f_split = fingerprint(U.r_split_n(q4, 3, (1, 1)))
        assert not f_weight.matches(f_split)


class TestEquivalenceDecisions:
    def test_decomposed_matching(self, q13):
        # reducible pair matched component-by-component
        a = U.r_pm_i_l(q13, H("3/2"), 1)
        D = np.diag([1.0, -1.0, 1.0, -1.0])
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        twisted = So3FiniteRep(q13, D @ a.I1 @ D, D @ a.I2 @ D, D @ a.I3 @ D,
                               FamilyDescriptor("conj", {}), {})
        assert are_equivalent(a, twisted)

    def test_inequivalent_same_dim(self, q13):
        assert not are_equivalent(U.r1_l(q13, 1), U.r_split_n(q13, 3, (1, 1)))

    def test_one_rank_test_for_a_one_dimensional_space(self, q13, monkeypatch):
        # X (+) Y and X (+) Z with Y, Z inequivalent: every intertwiner is a
        # multiple of one singular map, so one rank evaluation decides
        x, y, z = (U.r_split_n(q13, 2, signs) for signs in ((1, 1), (1, -1), (-1, 1)))
        a, b = _direct_sum(x, y), _direct_sum(x, z)
        assert intertwiners(a, b)[0] == 1
        ranks = []
        rank = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank",
                            lambda *args, **kw: ranks.append(1) or rank(*args, **kw))
        assert not are_equivalent(a, b)
        assert len(ranks) == 1
        # dim End(a) = 2: its first combination is already invertible
        assert intertwiners(a, a)[0] == 2
        assert are_equivalent(a, a) and len(ranks) == 2

    def test_equivalence_invariant_under_conjugation(self, q13):
        from qso3.repcore import FamilyDescriptor, So3FiniteRep

        rng = np.random.default_rng(5)
        for l in (1, H("3/2")):
            rep = U.r1_l(q13, l)
            n = rep.dim
            S = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            Sinv = np.linalg.inv(S)
            conj = So3FiniteRep(q13, S @ rep.I1 @ Sinv, S @ rep.I2 @ Sinv,
                                S @ rep.I3 @ Sinv,
                                FamilyDescriptor("conj", {}), {})
            assert are_equivalent(rep, conj)
            assert not are_equivalent(U.r_split_n(q13, n, (1, 1)), conj)


def _direct_sum(*reps):
    """The block-diagonal sum of rotation-algebra representations."""
    def blocks(name):
        out = np.zeros((sum(r.dim for r in reps),) * 2, complex)
        at = 0
        for r in reps:
            out[at:at + r.dim, at:at + r.dim] = getattr(r, name)
            at += r.dim
        return out
    return So3FiniteRep(reps[0].ctx, blocks("I1"), blocks("I2"), blocks("I3"),
                        FamilyDescriptor("sum", {}))


def _reference(oracle, *reps):
    """The oracle with ``_block_solutions`` replaced by the block-pair
    assembly of ``support.reference_block_solutions``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structure, "_block_solutions", reference_block_solutions)
        return oracle(*reps)


def _same_solutions(oracle, *reps) -> int:
    """Assert that the scatter and the block-pair assembly give the same
    null count and the same solution subspace, and return the count.  The
    two order their equations differently, so the subspaces are compared
    through the orthogonal projectors on vec(X), not vector by vector."""
    (dim, basis), (ref_dim, ref_basis) = oracle(*reps), _reference(oracle, *reps)
    assert dim == ref_dim
    if dim:
        P, R = (_projector(b) for b in (basis, ref_basis))
        assert np.max(np.abs(P - R)) <= 1e-8
    return dim


def _projector(basis):
    Q = np.linalg.qr(np.column_stack([X.ravel() for X in basis]))[0]
    return Q @ Q.conj().T


def _max_defect(X, rep_a, rep_b):
    """Largest entry of X A - B X over the generators of the two reps."""
    return max(float(np.max(np.abs(X @ A - B @ X)))
               for A, B in zip(structure._gens(rep_a), structure._gens(rep_b)))


_PRODUCTS = [(("1/2", "1"), ("1/2", "1")), (("1", "1"), ("1", "1")),
             (("1/2", "1"), ("3/2", "1")), (("3/2", "-1"), ("1", "-1")),
             (("1/2", "i"), ("1", "1"))]


def _product(ctx, factors):
    (la, oa), (lb, ob) = factors
    return tensor_so3(t_omega_l(ctx, H(la), oa), t_omega_l(ctx, H(lb), ob))


class TestBlockAssembly:
    """``_block_solutions`` (one scatter over all unknowns) against the
    block-pair assembly it replaced."""

    def test_commutant_matches_reference(self):
        count = 0
        for ctx in generic_contexts() + root_contexts():
            for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
                _same_solutions(commutant, rep)
                count += 1
        assert count >= 500

    @pytest.mark.parametrize("factors", _PRODUCTS)
    def test_named_candidate_and_the_others(self, q13, factors):
        # one map into the candidate cg_decompose names, none into the rest
        prod = _product(q13, factors)
        named = cg_decompose(prod).multiplicities
        for _, comp in decompose(prod).components:
            dims = {name: _same_solutions(intertwiners, comp, cand)
                    for name, cand in _so3_candidates(q13, comp.dim)}
            hits = [name for name, d in dims.items() if d]
            assert len(hits) == 1 and dims[hits[0]] == 1 and hits[0] in named
            assert len(dims) > 1

    def test_disjoint_spectra(self, q13):
        # no weight of R1_1 is a weight of Rsplit_3: no matched block
        a, b = U.r1_l(q13, 1), U.r_split_n(q13, 3, (1, 1))
        assert not {v for v, _ in i1_spectrum(a)} & {v for v, _ in i1_spectrum(b)}
        assert intertwiners(a, b) == (0, [])
        assert _same_solutions(intertwiners, a, b) == 0

    @pytest.mark.parametrize("factors", _PRODUCTS[:3] + [
        (("1/2", "1"), ("1/2", "1"), ("1/2", "1"))])
    def test_component_into_its_product(self, q13, factors):
        # a rectangular X (d x n): as many maps as copies of the component.
        # The block-pair assembly drops the equations at weights no block
        # matches, so it over-counts the trivial component (weight 0 alone):
        # it is compared only for d > 1
        prod = _product(q13, factors) if len(factors) == 2 else _triple(q13, factors)
        report = decompose(prod)
        for _, comp in report.components:
            copies = report.component_dims.count(comp.dim)
            dim, basis = intertwiners(comp, prod)
            assert dim == copies
            assert all(X.shape == (prod.dim, comp.dim) for X in basis)
            assert max(_max_defect(X, comp, prod) for X in basis) <= 1e-8
            if comp.dim > 1:
                assert _same_solutions(intertwiners, comp, prod) == copies


_DEGENERATE_EPS = (0, 1e-3, 1e-5, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)


class TestDegeneracyWalk:
    """Walks to the loci where the commutant rank cut decides: the cyclic
    family at its fully paired lambda, and R1_l as q -> 1.  The scatter
    and the block-pair assembly order their equations differently, and
    these cuts are where a reordering could move a verdict."""

    @pytest.mark.parametrize("p", (8, 12, 16))
    @pytest.mark.parametrize("eps", _DEGENERATE_EPS)
    def test_degenerate_lambda(self, p, eps):
        ctx = root_of_unity_ctx(p, 1)
        lam = U.degenerate_lambdas(ctx, True)[0] * (1 + eps)
        rep = U.r_ab_lambda(ctx, 0, 0, lam)
        # within separation of the degenerate value the pairs split
        split = eps <= 1e-9
        assert _same_solutions(commutant, rep) == (2 if split else 1)
        dims = decompose(rep).component_dims
        assert dims == _reference(decompose, rep).component_dims
        assert dims == ([p // 4, p // 4] if split else [p // 2])

    @pytest.mark.parametrize("l", (3, 7))
    @pytest.mark.parametrize("q", (1.1, 1.01, 1.001, 1.0001, 1.00001))
    def test_r1_l_towards_q_one(self, l, q):
        rep = U.r1_l(generic_ctx(q), l)
        assert _same_solutions(commutant, rep) == 1
        dims = decompose(rep).component_dims
        assert dims == _reference(decompose, rep).component_dims == [2 * l + 1]
