"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines.  Two sub-criteria are marked as strict expected failures because the
stated parameter points do not carry the required structure (the blocking
analysis is in the test docstrings and in the project notes); the
corresponding sound analogs are tested and pass.
"""

import itertools

import numpy as np
import pytest

from support import (banded_so3_samples, finite_sl2_samples, finite_so3_samples,
                     is_proper_witness, rng_params, safe_lambda, weight_ls)
from qso3.errors import BadParam, NotExtendable
from qso3.psihom import compose, verify_psi
from qso3.qscalar import HalfInt, generic_ctx, q_pow, root_of_unity_ctx
from qso3.repcore import truncate_n, verify_sl2, verify_so3
from qso3.structure import (are_equivalent, burnside_dim, commutant, decompose,
                            fingerprint, i1_spectrum, intertwiners, is_irreducible)
from qso3.tensor import (cg_decompose, expected_sl2_tensor, expected_so3_tensor,
                         sl2_cg_check, tensor_so3)
from qso3 import uqso3 as U
from qso3.uqsl2 import is_extendable, t_a_epsilon, t_omega_l

H = HalfInt.parse
GENERIC = [generic_ctx(q=q) for q in (1.3, 4.0, np.exp(0.37j))]
ROOTS = [root_of_unity_ctx(p, 1) for p in (3, 5, 7, 8)]


def _report(num, text):
    print(f"\n[acceptance] criterion {num}: PASS - {text}")


def test_criterion_1_relation_suite():
    """Every registered finite family satisfies its defining relations to
    1e-9 (scaled residuals) at three generic q and four roots of unity."""
    checked = 0
    for ctx in GENERIC:
        for label, rep in finite_so3_samples(ctx):
            assert verify_so3(rep).max_residual <= 1e-9, (ctx.q, label)
            checked += 1
        for label, rep in finite_sl2_samples(ctx):
            assert verify_sl2(rep).max_residual <= 1e-9, (ctx.q, label)
            checked += 1
    for ctx in ROOTS:
        for label, rep in finite_so3_samples(ctx):
            assert verify_so3(rep).max_residual <= 1e-9, (ctx.p, label)
            checked += 1
        for label, rep in finite_sl2_samples(ctx):
            assert verify_sl2(rep).max_residual <= 1e-9, (ctx.p, label)
            checked += 1
    assert checked > 300
    _report(1, f"relation residuals <= 1e-9 on {checked} family samples")


def test_criterion_2_homomorphism_suite():
    """Cyclic identities hold on the images of every extendable finite
    representation; the weight-family image equals its explicit form."""
    checked = 0
    for ctx in GENERIC + ROOTS:
        for label, rep in finite_sl2_samples(ctx):
            if not is_extendable(rep)[0]:
                continue
            assert verify_psi(rep).max_residual <= 1e-9, label
            checked += 1
    for ctx in GENERIC:
        for l in weight_ls(ctx):
            co = compose(t_omega_l(ctx, l, 1))
            direct = U.r1_l(ctx, l)
            diff = max(np.max(np.abs(co.I1 - direct.I1)),
                       np.max(np.abs(co.I2 - direct.I2)),
                       np.max(np.abs(co.I3 - direct.I3)))
            assert diff <= 1e-10, (ctx.q, l)
    # lattice family: composed windowed relations
    ctx = GENERIC[0]
    banded = compose(t_a_epsilon(ctx, 0.3 + 0.2j, 0.4))
    assert verify_so3(banded, window=20).max_residual <= 1e-9
    _report(2, f"cyclic identities <= 1e-9 on {checked} extendable samples; "
               "weight images equal explicit constructors to 1e-10")


def test_criterion_3_minus_twist_equivalence():
    """The minus-twisted weight family composes to a representation
    equivalent (dim-1 invertible intertwiner) to the explicit one."""
    for ctx in (GENERIC[0],):
        for l in weight_ls(ctx):
            co = compose(t_omega_l(ctx, l, -1))
            direct = U.r1_l(ctx, l)
            dim, basis = intertwiners(co, direct)
            assert dim == 1, l
            rank = np.linalg.matrix_rank(basis[0], tol=1e-10)
            assert rank == co.dim, l
    _report(3, "minus-twist images equivalent to weight families, l <= 9/2")


def test_criterion_4_twisted_split():
    """The twisted families decompose into two split components of half
    dimension, each matching a registered split family; the four split
    families at fixed n are pairwise nonequivalent."""
    ctx = GENERIC[0]
    for l in weight_ls(ctx, half_odd_only=True):
        n = (l.twice + 1) // 2
        for sign in (1, -1):
            rep = U.r_pm_i_l(ctx, l, sign)
            report = decompose(rep)
            assert report.is_direct_sum
            assert report.component_dims == [n, n], l
            seen = set()
            for _, comp in report.components:
                irr, _ = is_irreducible(comp)
                assert irr
                hits = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)
                        if are_equivalent(comp, U.r_split_n(ctx, n, (s1, s2)))]
                assert len(hits) == 1, (l, sign, hits)
                seen.add(hits[0])
            assert len(seen) == 2 and all(s1 == sign for s1, _ in seen)
    for n in (1, 2, 3, 4, 5):
        reps = [U.r_split_n(ctx, n, (s1, s2))
                for s1 in (1, -1) for s2 in (1, -1)]
        pairs = 0
        for a, b in itertools.combinations(reps, 2):
            assert intertwiners(a, b)[0] == 0, n
            pairs += 1
        assert pairs == 6
    _report(4, "twisted families split into matched half-dimension pieces; "
               "four split families pairwise disjoint (6 pairs per n)")


def test_criterion_5_oracle_agreement():
    """The spin verdict, the full algebra span and the trivial commutant
    agree over 100+ registry samples; reducible-flagged points test
    reducible.  Indecomposable wrap-free chains pair a trivial commutant
    with a genuine invariant subspace, which the spin witnesses."""
    count = 0
    flagged = 0
    for ctx in (GENERIC[0], ROOTS[1], ROOTS[3]):
        for label, rep in finite_so3_samples(ctx) + finite_sl2_samples(ctx):
            irr, witness = is_irreducible(rep)
            cdim = commutant(rep)[0]
            assert irr == (burnside_dim(rep) == (rep.dim ** 2, True)), label
            assert irr or is_proper_witness(rep, witness), label
            if irr:
                assert cdim == 1, label
            if cdim > 1:
                assert not irr, label
            if rep.flags.get("reducible"):
                flagged += 1
                assert not irr, label
            if cdim == 1 and not irr:
                report = decompose(rep)
                assert any(b.shape[1] < rep.dim for b in report.lattice), label
            elif cdim > 1:
                report = decompose(rep)
                assert report.is_direct_sum or report.lattice, label
            count += 1
    assert count >= 100 and flagged >= 6
    _report(5, f"oracles agree on {count} samples ({flagged} reducible-flagged)")


def test_criterion_6_tensor_cg():
    """Clebsch-Gordan tables for all extendable products with labels <= 2
    match the predicted decompositions, with exact dimension sums."""
    ctx = GENERIC[0]
    reals = [(o, HalfInt(t)) for o in ("1", "-1") for t in range(0, 5)]
    twisted = [(o, HalfInt(t)) for o in ("i", "-i") for t in (1, 3)]
    factors = reals + twisted
    omegas = {"1": 1 + 0j, "-1": -1 + 0j, "i": 1j, "-i": -1j}
    products = 0
    for (oa, la), (ob, lb) in itertools.product(factors, factors):
        ta, tb = t_omega_l(ctx, la, oa), t_omega_l(ctx, lb, ob)
        try:
            prod = tensor_so3(ta, tb)
        except NotExtendable:
            # single twisted factor with half-odd total label only
            assert (omegas[oa] * omegas[ob]).imag != 0
            assert (la + lb).is_integer()
            continue
        table = cg_decompose(prod)
        want = expected_so3_tensor(omegas[oa], omegas[ob], la, lb)
        assert table.multiplicities == want, (oa, la, ob, lb)
        assert not table.unmatched_dims
        assert table.total_dim() == (la.twice + 1) * (lb.twice + 1)
        products += 1
    sl2_checked = 0
    for (oa, la), (ob, lb) in itertools.product(factors, factors):
        if la.twice > 2 or lb.twice > 2:
            continue
        got = sl2_cg_check(t_omega_l(ctx, la, oa), t_omega_l(ctx, lb, ob))
        want = expected_sl2_tensor(omegas[oa], omegas[ob], la, lb)
        assert got.multiplicities == want, (oa, la, ob, lb)
        sl2_checked += 1
    _report(6, f"{products} rotation-side and {sl2_checked} sl2-side tensor "
               "tables match predictions with exact dimension sums")


def test_criterion_7_infinite_families():
    """Windowed residuals <= 1e-9 on |m| <= 20 for every lattice family;
    windowed decompositions match the component bases entrywise."""
    ctx = GENERIC[0]
    for label, rep in banded_so3_samples(ctx):
        assert verify_so3(rep, window=20).max_residual <= 1e-9, label
    assert verify_sl2(t_a_epsilon(ctx, 0.3 + 0.2j, 0.4),
                      window=20).max_residual <= 1e-9

    # special-offset lattice family: the alternating combinations carry the
    # one-sided split components at shifted parameter
    a = 0.37 + 0.21j
    for branch in (1, -1):
        rep = U.r_a_special(ctx, a, branch)
        ap = rep.flags["a_prime"]
        K = 9
        tr = truncate_n(rep, -K - 2, K + 2)
        idx = {int(n): j for j, n in enumerate(tr.ns)}
        for sign in (1, -1):
            cols = []
            for r in range(K):
                v = np.zeros(len(tr.ns), complex)
                v[idx[r]] = 1.0
                v[idx[-r - 1]] = sign * 1j * (-1) ** r
                cols.append(v)
            B = np.column_stack(cols)
            M2 = tr.matrices["I2"]
            coef, *_ = np.linalg.lstsq(B, M2 @ B, rcond=None)
            assert np.max(np.abs(M2 @ B - B @ coef)[:, :K - 2]) <= 1e-9
            comp = U.r_split_infinite(ctx, ap + 0.5, branch, sign)
            tc = truncate_n(comp, 1, K)
            cut = K - 2
            assert np.max(np.abs(coef[:cut, :cut] -
                                 tc.matrices["I2"][:cut, :cut])) <= 1e-9

    # constant-family components: restriction to the symmetric /
    # antisymmetric bases reproduces the component constructors
    for at, lam in (("1", 1.0), ("sqrt_q", complex(ctx.s))):
        parent = U.q_lambda(ctx, lam, 1)
        K = 9
        tr = truncate_n(parent, -K - 3, K + 3)
        idx = {int(n): j for j, n in enumerate(tr.ns)}
        for which in (1, 2):
            comp = U.q_lambda_components(ctx, which, at, 1)
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
                cut = len(cols) - 2
                assert np.max(np.abs(M @ B - B @ coef)[:, :cut]) <= 1e-9
                tc = truncate_n(comp, comp.n_min, comp.n_min + len(cols) - 1)
                assert np.max(np.abs(coef[:cut, :cut] -
                                     tc.matrices[name][:cut, :cut])) <= 1e-9
    _report(7, "lattice families verified on |m| <= 20; windowed "
               "decompositions match the component constructors")


def test_criterion_8a_nondegenerate_irreducible():
    """Random cyclic-family points away from the degenerate set are
    irreducible at p in {5, 7, 8}."""
    total = 0
    for p in (5, 7, 8):
        ctx = root_of_unity_ctx(p, 1)
        for a, b, lam in rng_params(seed=100 + p, count=20):
            lam = safe_lambda(ctx, lam)
            if any(ctx.close(lam, v) for v in U.degenerate_lambdas(ctx)):
                lam *= 1.1
            rep = U.r_ab_lambda(ctx, a, b, lam)
            irr, _ = is_irreducible(rep)
            assert irr, (p, a, b, lam)
            total += 1
    _report(8, f"(a) {total} non-degenerate cyclic samples all irreducible")


def test_criterion_8b_even_split():
    """At p = 8 the degenerate-parameter splits work: the wrap-free point
    (which satisfies the splitting condition trivially) breaks into
    dims {2,2}; the full cyclic family splits into halves exactly on the
    condition variety; generic parameters do not split."""
    ctx = root_of_unity_ctx(8, 1)
    comps = U.r_ab_degenerate(ctx, 0, 0, "plus")
    assert [c.dim for c in comps] == [2, 2]
    for c in comps:
        assert verify_so3(c).max_residual <= 1e-9
        irr, _ = is_irreducible(c)
        assert irr
    assert not are_equivalent(comps[0], comps[1])

    a = 0.8 + 0.3j
    split_found = False
    for b in U.solve_split_b(ctx, a):
        if abs(b) < 1e-6:
            continue
        comps = U.r_ab_degenerate(ctx, a, b, "plus")
        assert [c.dim for c in comps] == [4, 4]
        for c in comps:
            assert verify_so3(c).max_residual <= 1e-8
        split_found = True
        break
    assert split_found

    single = U.r_ab_degenerate(ctx, 0.5, 0.9, "plus")
    assert len(single) == 1 and single[0].flags["split"] is False
    irr, _ = is_irreducible(single[0])
    assert irr
    _report(8, "(b) p=8 degenerate splits: {2,2} at the wrap-free point, "
               "{4,4} on the condition variety, none at generic parameters")


@pytest.mark.xfail(strict=True, reason=(
    "unattainable as stated: at p = 5 the degenerate lambda +-q^{(p'-2)/2} "
    "equals -+q^4 (an excluded point where the column denominators vanish: "
    "q^{p'/2} - q^{-p'/2} = 0 because q^{p'} = 1), so the odd-p' split "
    "family does not exist; see the blocking analysis in the decisions notes"))
def test_criterion_8c_odd_split_literal():
    """Literal form: parameters solving the odd-p' conditions split into
    dims {3, 2} at p = 5 with complementary attachment on the other branch."""
    ctx = root_of_unity_ctx(5, 1)
    comps = U.r_ab_degenerate(ctx, 1.0, 1.0, "plus")  # raises BadParam
    assert sorted(c.dim for c in comps) == [2, 3]


def test_criterion_8c_blocking_facts_and_analog():
    """The facts that block the literal criterion, plus the surviving
    content: at p = 5 every degenerate lambda is excluded; the
    one-multiplicity-one spectrum pattern lives on the wrap-free chain at
    p = 10, where the singleton spans an invariant line but no direct-sum
    split exists."""
    p5 = root_of_unity_ctx(5, 1)
    assert U.degenerate_lambdas(p5) == []
    # the would-be coefficient denominator is exactly zero
    assert abs(q_pow(p5, HalfInt(5)) - 1 / q_pow(p5, HalfInt(5))) <= 1e-12
    with pytest.raises(BadParam):
        U.r_ab_degenerate(p5, 1.0, 1.0, "plus")

    ctx10 = root_of_unity_ctx(10, 1)
    lam = q_pow(ctx10, HalfInt(3))  # q^{(p'-2)/2} with p' = 5
    rep = U.r_ab_lambda(ctx10, 0, 0, lam)
    assert verify_so3(rep).max_residual <= 1e-9
    mults = sorted(m for _, m in i1_spectrum(rep))
    assert mults == [1, 2, 2]
    report = decompose(rep)
    assert not report.is_direct_sum
    assert any(b.shape[1] == 1 for b in report.lattice)
    _report(8, "(c) blocking facts verified at p=5; multiplicity-one "
               "pattern and invariant line verified at p=10 (no direct sum)")


def test_criterion_8d_constant_cyclic_families():
    """The cyclic constant family is irreducible for generic lambda at
    p in {5, 7}; the component families are irreducible and pairwise
    nonequivalent at p in {5, 7, 8}."""
    for p in (5, 7):
        ctx = root_of_unity_ctx(p, 1)
        for lam in (2.0, 1.3 - 0.4j, 0.6 + 0.8j):
            rep = U.q_prime_lambda(ctx, lam)
            irr, _ = is_irreducible(rep)
            assert irr, (p, lam)
    for p in (5, 7, 8):
        ctx = root_of_unity_ctx(p, 1)
        reps = [U.q_root_components(ctx, d)
                for d in U.q_root_component_descriptors(ctx, distinct=True)]
        for rep in reps:
            irr, _ = is_irreducible(rep)
            assert irr, (p, rep.family)
        pairs = 0
        for a, b in itertools.combinations(reps, 2):
            assert not are_equivalent(a, b), (p, a.family, b.family)
            pairs += 1
        assert pairs == len(reps) * (len(reps) - 1) // 2
    _report(8, "(d) constant cyclic family irreducible at generic lambda; "
               "distinct component families pairwise nonequivalent")


def test_criterion_9_central_elements():
    """Low-order central polynomials recovered exactly; the solved
    degree-5 polynomial commutes on three independent representations."""
    p3 = U.central_poly(root_of_unity_ctx(3, 1))
    assert np.max(np.abs(p3.coeffs - np.array([1, 0, 1, 0]))) <= 1e-8
    p4 = U.central_poly(root_of_unity_ctx(4, 1))
    assert np.max(np.abs(p4.coeffs - np.array([1, 0, 1, 0, 0]))) <= 1e-8
    ctx = root_of_unity_ctx(5, 1)
    poly = U.central_poly(ctx)
    samples = [
        U.r_ab_lambda(ctx, 0.3 - 0.8j, 0.9 + 0.2j, 1.3 + 0.7j),
        U.q_prime_lambda(ctx, 1.7 - 0.3j),
        U.r1_l(ctx, H("2")),
    ]
    for rep in samples:
        for gen, other in ((rep.I1, rep.I2), (rep.I2, rep.I1)):
            P = poly(gen)
            comm = P @ other - other @ P
            scale = max(np.max(np.abs(P)) * np.max(np.abs(other)), 1.0)
            assert np.max(np.abs(comm)) <= 1e-8 * scale
    _report(9, "degree-3/4 central polynomials exact; solved degree-5 "
               "polynomial commutes on three independent p=5 samples")


def test_criterion_10_spectrum_claims():
    """The cyclic family's diagonal matches the closed-form spectrum list;
    degenerate-lambda multiplicity patterns hold where the parameter points
    exist (full pairing at +-q^{(dim-1)/2}; the stated multiplicity-one
    points at p in {5, 8} are excluded parameters, and that pattern is
    verified at p = 10 instead)."""
    for p in (5, 8):
        ctx = root_of_unity_ctx(p, 1)
        lam = safe_lambda(ctx, 1.7 + 0.4j)
        rep = U.r_ab_lambda(ctx, 0.9, 1.2, lam)
        w = ctx.q - 1 / ctx.q
        want = [-(q_pow(ctx, -i) * lam + q_pow(ctx, i) / lam) / w
                for i in range(rep.dim)]
        assert np.allclose(np.diag(rep.I1), want)
        # generic lambda: simple spectrum
        assert all(m == 1 for _, m in i1_spectrum(rep))

    p8 = root_of_unity_ctx(8, 1)
    # wrap-free chain: fully paired exactly at lambda = +-q^{(p'-1)/2}
    lam_star = q_pow(p8, HalfInt(3))
    rep = U.r_ab_lambda(p8, 0, 0, lam_star)
    assert all(m == 2 for _, m in i1_spectrum(rep))
    other = U.r_ab_lambda(p8, 0, 0, q_pow(p8, HalfInt(1)))
    mults = sorted(m for _, m in i1_spectrum(other))
    assert mults == [1, 1, 2]  # more than one multiplicity-one point
    # full cyclic family: fully paired at +-q^{(p-1)/2}
    rep = U.r_ab_lambda(p8, 0.9, 1.2, q_pow(p8, HalfInt(7)))
    assert all(m == 2 for _, m in i1_spectrum(rep))

    # stated multiplicity-one points are excluded parameters at p in {5, 8}
    p5 = root_of_unity_ctx(5, 1)
    assert U.excluded_lambda(p5, q_pow(p5, HalfInt(3)))
    assert U.excluded_lambda(p8, q_pow(p8, 1))
    ctx10 = root_of_unity_ctx(10, 1)
    rep = U.r_ab_lambda(ctx10, 0, 0, q_pow(ctx10, HalfInt(3)))
    assert sorted(m for _, m in i1_spectrum(rep)) == [1, 2, 2]
    _report(10, "spectrum lists reproduced; pairing patterns verified at the "
                "existing parameter points (multiplicity-one pattern at p=10)")
