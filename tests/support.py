"""Shared helpers: parameter samplers over the family registry, the dense
reference oracles the weight-blocked ones are checked against, the
commutant-first decomposition the Casimir-first one is checked against,
the scalar extendability scan the array one is checked against, the
least-squares fit the closed-form central polynomial is checked against,
the dense relation residuals the diagonal ones are checked against, the
dense fill of bands the diagonal evaluator is checked against, the spin
and equation fill the weight-frame oracles are checked against, and the
dense-solve images and dense-scan map residuals the diagonal localization
map is checked against, the dense Kronecker coproduct the diagonal one
is checked against, the entry-by-entry and the dense derived generator
the constructors' diagonal one is checked against, and the per-candidate
spin, piece gathers and unknown index build the weight frame's kernels
are checked against bit for bit."""

from __future__ import annotations

import numpy as np

from qso3.qscalar import (HalfInt, QContext, generic_ctx, magnitude_scale, q_pow,
                          q_pow_c, root_of_unity_ctx)
from qso3 import uqsl2, uqso3
from qso3.errors import NoSolution
from qso3.repcore import Band, Diagonals, FamilyDescriptor, Sl2FiniteRep
from qso3.structure import (DEFAULT_SEED, DecompositionReport, _block_columns,
                            _gens, _GrowingSpan, _scale, _split_once,
                            _wrap_component, commutant, is_irreducible)

GENERIC_QS = (1.3, 4.0, np.exp(0.37j))
ROOT_PS = (3, 5, 7, 8)

H = HalfInt.parse


def generic_contexts(tol=1e-9):
    return [generic_ctx(q=q, tol=tol) for q in GENERIC_QS]


def root_contexts(tol=1e-9):
    return [root_of_unity_ctx(p, 1, tol=tol) for p in ROOT_PS]


def weight_ls(ctx: QContext, half_odd_only=False, max_twice=9):
    """Admissible l values (as HalfInt) for the weight families."""
    cap = max_twice
    if ctx.is_root_of_unity:
        cap = min(cap, ctx.p_prime - 1)
    out = [HalfInt(t) for t in range(0, cap + 1)]
    if half_odd_only:
        out = [l for l in out if not l.is_integer() and l.twice > 0]
    return out


def split_ns(ctx: QContext, max_n=5):
    cap = uqso3.split_n_max(ctx)
    hi = max_n if cap is None else min(max_n, cap)
    return list(range(1, hi + 1))


def rng_params(seed=7, count=5):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        b = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        lam = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(lam) > 0.2:
            out.append((a, b, lam))
    return out


def safe_lambda(ctx: QContext, lam: complex) -> complex:
    """Nudge lam off the excluded set +-q^k if needed."""
    while uqso3.excluded_lambda(ctx, lam):
        lam = lam * 1.07 + 0.013j
    return lam


def finite_so3_samples(ctx: QContext, seed=11):
    """(label, rep) pairs covering every finite rotation-algebra family."""
    out = []
    for l in weight_ls(ctx):
        out.append((f"R1_l[{l}]", uqso3.r1_l(ctx, l)))
    for l in weight_ls(ctx, half_odd_only=True):
        for sign in (1, -1):
            out.append((f"Ri_l[{l},{sign}]", uqso3.r_pm_i_l(ctx, l, sign)))
    for n in split_ns(ctx):
        for s1 in (1, -1):
            for s2 in (1, -1):
                out.append((f"Rsplit_n[{n},({s1},{s2})]",
                            uqso3.r_split_n(ctx, n, (s1, s2))))
    if ctx.is_root_of_unity:
        for a, b, lam in rng_params(seed):
            lam = safe_lambda(ctx, lam)
            out.append((f"R_ab_lambda[{a:.2f},{b:.2f},{lam:.2f}]",
                        uqso3.r_ab_lambda(ctx, a, b, lam)))
        for lam in (2.0, 0.7 + 0.4j, 1.0, complex(ctx.s), -1.0):
            out.append((f"Qp_lambda[{lam}]", uqso3.q_prime_lambda(ctx, lam)))
        for desc in uqso3.q_root_component_descriptors(ctx):
            out.append((f"Q_root_comp{desc}", uqso3.q_root_components(ctx, desc)))
    return out


def finite_sl2_samples(ctx: QContext, seed=13):
    out = []
    for l in weight_ls(ctx):
        for omega in ("1", "-1", "i", "-i"):
            out.append((f"T_l[{l},{omega}]", uqsl2.t_omega_l(ctx, l, omega)))
    if ctx.is_root_of_unity:
        for a, b, lam in rng_params(seed):
            out.append((f"T_ab[{a:.2f},{b:.2f},{lam:.2f}]",
                        uqsl2.t_ab_lambda(ctx, a, b, lam)))
        for lam in (2.0, 1.3 - 0.4j):
            out.append((f"T_prime[0.5,{lam}]",
                        uqsl2.t_prime_0b_lambda(ctx, 0.5, lam)))
            out.append((f"T_prime[0,{lam}]", uqsl2.t_prime_0b_lambda(ctx, 0, lam)))
            out.append((f"T_tilde[1,1,{lam}]",
                        uqsl2.t_tilde_ab_lambda(ctx, 1, 1, lam)))
        # reducible-flagged points: (a,b) = (0,0) with lambda = +-q^n
        for n in range(0, min(3, ctx.p_prime - 1)):
            out.append((f"T_ab[0,0,q^{n}]",
                        uqsl2.t_ab_lambda(ctx, 0, 0, q_pow(ctx, n))))
    return out


def banded_so3_samples(ctx: QContext):
    """(label, rep) pairs for the lattice families (generic q only)."""
    assert not ctx.is_root_of_unity
    out = [
        ("R_a_eps", uqso3.r_a_epsilon(ctx, 0.3 + 0.2j, 0.4)),
        ("R_a_special[+]", uqso3.r_a_special(ctx, 0.7, 1)),
        ("R_a_special[-]", uqso3.r_a_special(ctx, 0.7, -1)),
        ("R_hw[l+,1/2]", uqso3.r_highest_lowest(ctx, "l+", H("1/2"))),
        ("R_hw[l-,1/2]", uqso3.r_highest_lowest(ctx, "l-", H("1/2"))),
        ("R_hw[l+,3/2]", uqso3.r_highest_lowest(ctx, "l+", H("3/2"))),
        ("R_hw[a+]", uqso3.r_highest_lowest(ctx, "a+", 0.3 + 0.2j)),
        ("R_hw[a-]", uqso3.r_highest_lowest(ctx, "a-", 0.3 + 0.2j)),
        ("Q_lambda[0.7+0.1i,+]", uqso3.q_lambda(ctx, 0.7 + 0.1j, 1)),
        ("Q_lambda[1,+]", uqso3.q_lambda(ctx, 1.0, 1)),
        ("Q_lambda[sqrt_q,-]", uqso3.q_lambda(ctx, complex(ctx.s), -1)),
    ]
    for fam in (1, -1):
        for sgn in (1, -1):
            out.append((f"Rsplit_inf[{fam},{sgn}]",
                        uqso3.r_split_infinite(ctx, 0.4 + 0.1j, fam, sgn)))
    for which in (1, 2):
        for at in ("1", "sqrt_q"):
            for sgn in (1, -1):
                out.append((f"Q_comp[{which},{at},{sgn}]",
                            uqso3.q_lambda_components(ctx, which, at, sgn)))
    return out


def dense_commutant_dim(rep) -> int:
    """Commutant dimension from the full n^2 x n^2 Kronecker system: the
    nullity of the stacked I (x) G^T - G (x) I, cut at the context's
    separation level relative to the largest singular value (floored at 1)."""
    gens = _gens(rep)
    n = gens[0].shape[0]
    eye = np.eye(n)
    A = np.vstack([np.kron(eye, g.T) - np.kron(g, eye) for g in gens])
    s = np.linalg.svd(A, compute_uv=False)
    thr = rep.ctx.separation(*s[:1])
    return int(np.sum(s <= thr)) + (n * n - len(s))


def reference_block_solutions(ga, gb, pairs, ctx: QContext) -> list[np.ndarray]:
    """``structure._block_solutions`` assembled block pair by block pair.

    Block (c, d) of X A_j = B_j X reads X_c A_cd - B_cd X_d = 0; in row-major
    vectorization its coefficients are I (x) A_cd^T and B_cd (x) I, built per
    coupled pair (c, d) of matched blocks, so equations at weights that no
    block matches are left out.  Same unknown order, rank cut and null count
    as the scatter assembly.
    """
    sizes = [len(ib) * len(ia) for ia, ib in pairs]
    offs = np.concatenate([[0], np.cumsum(sizes, dtype=int)])
    eqs = [(c, d, A[np.ix_(pairs[c][0], pairs[d][0])], B[np.ix_(pairs[c][1], pairs[d][1])])
           for A, B in zip(ga[1:], gb[1:])
           for c, d in sorted({*reference_coupled(A, [ia for ia, _ in pairs]),
                               *reference_coupled(B, [ib for _, ib in pairs])})]
    rows = np.zeros((sum(B_cd.shape[0] * A_cd.shape[1] for _, _, A_cd, B_cd in eqs),
                     offs[-1]), complex)
    at = 0
    for c, d, A_cd, B_cd in eqs:
        mb, ma = B_cd.shape[0], A_cd.shape[1]
        rows[at:at + mb * ma, offs[c]:offs[c + 1]] += np.einsum(
            "ik,lj->ijkl", np.eye(mb), A_cd).reshape(mb * ma, -1)
        rows[at:at + mb * ma, offs[d]:offs[d + 1]] -= np.einsum(
            "ik,lj->ijkl", B_cd, np.eye(ma)).reshape(mb * ma, -1)
        at += mb * ma
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    thr = ctx.separation(*s[:1])  # relative to the largest singular value
    null_count = int(np.sum(s <= thr)) + (offs[-1] - len(s))
    basis = []
    for k in range(null_count):
        x = vh[-(k + 1)].conj()
        X = np.zeros((gb[0].shape[0], ga[0].shape[0]), complex)
        for c, (ia, ib) in enumerate(pairs):
            X[np.ix_(ib, ia)] = x[offs[c]:offs[c + 1]].reshape(len(ib), len(ia))
        basis.append(X)
    return basis


def reference_coupled(g, blocks) -> list[tuple[int, int]]:
    """``structure._coupled`` with the labels written block by block and
    the pairs collected in a Python set."""
    label = np.full(g.shape[0], -1)
    for k, b in enumerate(blocks):
        label[b] = k
    rows, cols = (label[idx].tolist() for idx in np.nonzero(g))
    return sorted({(i, k) for i, k in zip(rows, cols) if i >= 0 and k >= 0})


def reference_pieces(blocks, gens, couplings) -> list[list[tuple[int, np.ndarray]]]:
    """``WeightFrame._pieces`` with one fancy-index gather per coupled pair
    of the unordered generators."""
    reach = [[] for _ in blocks]
    for g, pairs in zip(gens, couplings):
        for i, k in pairs:
            reach[k].append((i, g[blocks[i][:, None], blocks[k]]))
    return reach


def reference_reach(frame, adjoint: bool = False) -> list[list[tuple[int, np.ndarray]]]:
    """A frame's ``reach`` (or ``adjoint_reach``) through ``reference_pieces``
    and ``reference_coupled``."""
    couplings = [reference_coupled(g, frame.blocks) for g in frame.gens[1:]]
    if adjoint:
        return reference_pieces(frame.blocks, [g.conj().T for g in frame.gens[1:]],
                                [sorted((k, i) for i, k in c) for c in couplings])
    return reference_pieces(frame.blocks, frame.gens[1:], couplings)


class ReferenceGrowingSpan:
    """``structure._GrowingSpan`` with ``np.linalg.norm``, an ``np.asarray``
    of every candidate and the projection loop run on an empty span too."""

    def __init__(self, ambient: int, level):
        self.rows = np.zeros((ambient, ambient), dtype=complex)
        self.size = 0
        self.level = level

    def add(self, vec: np.ndarray) -> bool:
        if self.size == len(self.rows):  # full: only rounding would be left
            return False
        v = np.asarray(vec, dtype=complex).ravel()
        drop = self.level(np.linalg.norm(v))
        Q = self.rows[:self.size]
        for _ in range(2):
            if self.size:
                # conj(Q) @ v without copying the basis
                v = v - Q.T @ (Q @ v.conj()).conj()
        nrm = np.linalg.norm(v)
        if nrm > drop:
            self.rows[self.size] = v / nrm
            self.size += 1
            return True
        return False


def reference_frame_grow(reach, blocks, seeds, w: int, level, cap: int):
    """``structure._grow`` on ``ReferenceGrowingSpan``."""
    spans = [ReferenceGrowingSpan(len(b) * w, level) for b in blocks]
    frontier = [(k, spans[k].rows[0].reshape(-1, w)) for k, x in seeds if spans[k].add(x)]
    while frontier and cap:
        cap -= 1
        new = []
        for k, mat in frontier:
            for i, piece in reach[k]:
                if spans[i].size < len(spans[i].rows) and spans[i].add(piece @ mat):
                    new.append((i, spans[i].rows[spans[i].size - 1].reshape(-1, w)))
        frontier = new
    return spans, not frontier


def reference_frame_spin(frame, v, adjoint: bool = False) -> np.ndarray:
    """``structure._spin`` seeded block by block with ``v[b].any()`` and
    grown by ``reference_frame_grow`` on ``reference_reach``."""
    seeds = [(k, v[b, None]) for k, b in enumerate(frame.blocks) if v[b].any()]
    spans, _ = reference_frame_grow(reference_reach(frame, adjoint), frame.blocks,
                                    seeds, 1, frame.ctx.orbit_drop, len(v))
    return _block_columns(len(v), frame.blocks, [sp.rows[:sp.size].T for sp in spans])


def reference_unknowns(pairs) -> tuple[np.ndarray, np.ndarray]:
    """``structure._unknowns`` with one repeat and one tile per block pair."""
    r = np.concatenate([np.repeat(ib, len(ia)) for ia, ib in pairs])
    c = np.concatenate([np.tile(ia, len(ib)) for ia, ib in pairs])
    return r, c


def reference_grow(gens, blocks, seeds, level, cap: int):
    """The span growth of ``structure._grow`` with its pieces cut from the
    generators on every call, every block seeded (zero parts too) and every
    product formed, also for spans that are already full."""
    w = seeds[0][1].shape[1]
    reach = [[] for _ in blocks]
    for g in gens[1:]:
        for i, k in reference_coupled(g, blocks):
            reach[k].append((i, g[blocks[i][:, None], blocks[k]]))
    spans = [ReferenceGrowingSpan(len(b) * w, level) for b in blocks]
    frontier = [(k, spans[k].rows[0].reshape(-1, w)) for k, x in seeds if spans[k].add(x)]
    while frontier and cap:
        cap -= 1
        new = []
        for k, mat in frontier:
            for i, piece in reach[k]:
                if spans[i].add(piece @ mat):
                    new.append((i, spans[i].rows[spans[i].size - 1].reshape(-1, w)))
        frontier = new
    return spans, not frontier


def reference_spin(gens, blocks, v, ctx: QContext) -> np.ndarray:
    """``structure._spin`` on explicit generators (pass the adjoints for the
    left spin), through ``reference_grow``."""
    spans, _ = reference_grow(gens, blocks, [(k, v[b, None]) for k, b in enumerate(blocks)],
                              ctx.orbit_drop, len(v))
    return _block_columns(len(v), blocks, [sp.rows[:sp.size].T for sp in spans])


def reference_scatter_solutions(ga, gb, pairs, ctx: QContext) -> list[np.ndarray]:
    """``structure._block_solutions`` with the equations filled by
    ``np.add.at`` and the null basis written one matrix at a time."""
    r = np.concatenate([np.repeat(ib, len(ia)) for ia, ib in pairs])
    c = np.concatenate([np.tile(ia, len(ib)) for ia, ib in pairs])
    nb, na = gb[0].shape[0], ga[0].shape[0]
    keys, unknowns, coeffs = [], [], []
    for t, (A, B) in enumerate(zip(ga[1:], gb[1:])):
        Ac, Br = A[c], B[:, r]
        u, j = np.nonzero(Ac)
        keys.append((t * nb + r[u]) * na + j)
        unknowns.append(u)
        coeffs.append(Ac[u, j])
        i, u = np.nonzero(Br)
        keys.append((t * nb + i) * na + c[u])
        unknowns.append(u)
        coeffs.append(-Br[i, u])
    entries, row = np.unique(np.concatenate(keys), return_inverse=True)
    rows = np.zeros((len(entries), len(r)), complex)
    np.add.at(rows, (row, np.concatenate(unknowns)), np.concatenate(coeffs))
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    thr = ctx.separation(*s[:1])
    null_count = int(np.sum(s <= thr)) + (len(r) - len(s))
    basis = []
    for k in range(null_count):
        X = np.zeros((nb, na), complex)
        X[r, c] = vh[-(k + 1)].conj()
        basis.append(X)
    return basis


def dense_burnside_dim(rep) -> tuple[int, bool]:
    """Algebra dimension from one span in ambient n^2, grown from the
    identity by left multiplication with the generators."""
    gens = _gens(rep)
    n = gens[0].shape[0]
    drop = rep.ctx.algebra_drop(_scale(gens))
    span = _GrowingSpan(n * n, lambda _: drop)
    eye = np.eye(n, dtype=complex) / np.sqrt(n)
    span.add(eye)
    frontier = [eye]
    rounds = 0
    while frontier and rounds < 2 * n * n:
        rounds += 1
        new = []
        for mat in frontier:
            for g in gens:
                if span.add(g @ mat):
                    new.append(span.rows[span.size - 1].reshape(n, n))
        frontier = new
    return span.size, not frontier


def is_proper_witness(rep, witness) -> bool:
    """A spin witness has 0 < dim < n and is invariant block by block: in
    the weight frame, the part of G W that leaves span W, restricted to
    the weight blocks (i, k), is within the ``invariance`` level of the
    largest entry of G[i, k] itself.  A level set by the largest generator
    entry would pass a subspace that misses a coupling many orders below
    it (the 14 of 15 weights of R1_7 at q = 4)."""
    if not 0 < witness.shape[1] < rep.dim:
        return False
    frame = rep.weight_frame
    gens, S, blocks = frame.gens, frame.S, frame.blocks
    W = np.linalg.qr(witness if S is None else np.linalg.solve(S, witness))[0]
    P = W @ W.conj().T
    return all(np.max(np.abs(d[np.ix_(bi, bk)]))
               <= rep.ctx.invariance(np.max(np.abs(g[np.ix_(bi, bk)])))
               for g in gens for d in [(g - P @ g) @ P]
               for bi in blocks for bk in blocks)


def reference_decompose(rep) -> DecompositionReport:
    """``structure.decompose`` with no Casimir split: one commutant of the
    whole representation, split recursively along commutant
    eigenprojections, then a spin of each leaf."""
    n = rep.dim
    rng = np.random.default_rng(DEFAULT_SEED)
    top_com = commutant(rep)
    cdim = top_com[0]

    def recurse(sub, carrier, com):
        bases = _split_once(sub, rng, com)
        if bases is None:
            return [(carrier, sub)]
        out = []
        for Q in bases:
            part = _wrap_component(rep, sub, Q)
            out.extend(recurse(part, carrier @ Q, commutant(part)))
        return out

    pieces = recurse(rep, np.eye(n, dtype=complex), top_com)
    if len(pieces) == 1:
        irr, witness = is_irreducible(rep)
        if irr:
            return DecompositionReport(
                components=pieces, commutant_dim=cdim, burnside_dim=n * n,
                is_irreducible=True, is_direct_sum=True, combined_condition=1.0)
        return DecompositionReport(components=[], lattice=[witness], commutant_dim=cdim)
    for _, comp in pieces:
        comp.flags["component_irreducible"] = is_irreducible(comp)[0]
    simple = cdim == len(pieces) and all(c.flags["component_irreducible"] for _, c in pieces)
    cond = float(np.linalg.cond(np.column_stack([B for B, _ in pieces])))
    return DecompositionReport(
        components=pieces, commutant_dim=cdim,
        burnside_dim=sum(c.dim ** 2 for _, c in pieces) if simple else None,
        is_direct_sum=True, combined_condition=cond)


def reference_is_extendable(rep):
    """``uqsl2.is_extendable`` as a scalar double loop over (k, mu): one
    threshold call per pair, returning at the first failing pair."""
    ctx = rep.ctx
    if isinstance(rep, Sl2FiniteRep):
        diagonal = np.count_nonzero(rep.K - np.diag(np.diag(rep.K))) == 0
        mus = np.diag(rep.K) if diagonal else np.linalg.eigvals(rep.K)
        dim = rep.dim
    else:
        band = rep.bands["K"]
        ns = range(-40, 41) if rep.n_min is None and rep.n_max is None else \
            range(rep.n_min if rep.n_min is not None else rep.n_max - 80,
                  (rep.n_max if rep.n_max is not None else rep.n_min + 80) + 1)
        mus = np.array([coefficient(band.diag, n) for n in ns])
        dim = len(mus)
    if ctx.is_root_of_unity:
        ks = range(ctx.p)
    else:
        bound = 2 * dim + uqsl2.EXTEND_SCAN_MARGIN
        ks = sorted(range(-bound, bound + 1), key=abs)
    for k in ks:
        shift = q_pow_c(ctx, 2 * k)
        for mu in mus:
            # mu^2 = -q^{-2k}, tested in the scale-free form q^{2k} mu^2 = -1
            t = shift * mu * mu
            if abs(t + 1) <= ctx.threshold(abs(t)):
                return False, (k, complex(mu))
    return True, None


def reference_delta_tensor(ta: Sl2FiniteRep, tb: Sl2FiniteRep) -> tuple[np.ndarray, ...]:
    """K, Kinv, E, F of the coproduct tensor as ``np.kron`` of the factors'
    dense fields: K (x) K, Kinv (x) Kinv, E (x) K + Kinv (x) E, likewise F."""
    return (np.kron(ta.K, tb.K), np.kron(ta.Kinv, tb.Kinv),
            np.kron(ta.E, tb.K) + np.kron(ta.Kinv, tb.E),
            np.kron(ta.F, tb.K) + np.kron(ta.Kinv, tb.F))


def unitary_conjugate(t: Sl2FiniteRep, seed=3) -> Sl2FiniteRep:
    """T in a random unitary basis: K is no longer diagonal."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.normal(size=(t.dim, t.dim)) + 1j * rng.normal(size=(t.dim, t.dim)))[0]
    return Sl2FiniteRep(t.ctx, *(u @ g @ u.conj().T for g in (t.K, t.Kinv, t.E, t.F)),
                        FamilyDescriptor("conjugated", {"of": t.family}))


def reference_matrix_entry_list(mat) -> list:
    """The dense dump layout, entry by entry: rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in mat]


def reference_central_poly(ctx: QContext) -> np.ndarray:
    """The descending coefficients of the central polynomial fitted by
    solving [P(I1), I2] = 0 on a cyclic family at generic parameters and
    cross-checked, by Horner's rule, to commute with both generators on it;
    an inconsistent system raises NoSolution."""
    rep_sample = uqso3.r_ab_lambda(ctx, 0.7 + 0.31j, 1.2 - 0.4j, 1.7 + 0.6j)
    p = ctx.p
    I1, I2 = rep_sample.I1, rep_sample.I2
    d = np.diag(I1)
    exps = list(range(p - 2, 0, -2))  # down to 2 (even p) or 1 (odd p)
    rows, rhs = [], []
    n = len(d)
    for r in range(n):
        for col in range(n):
            weight = I2[r, col]
            if r != col and abs(weight) >= ctx.floor():
                rows.append([(d[r] ** e - d[col] ** e) * weight for e in exps])
                rhs.append(-(d[r] ** p - d[col] ** p) * weight)
    A = np.array(rows, dtype=complex)
    y = np.array(rhs, dtype=complex)
    x, *_ = np.linalg.lstsq(A, y, rcond=None)
    fit_resid = float(np.max(np.abs(A @ x - y))) if len(y) else 0.0
    scale = float(np.max(np.abs(y))) if len(y) else 1.0
    if fit_resid > ctx.matching(scale):
        raise NoSolution(f"central coefficient system inconsistent (residual {fit_resid:.3e})")
    coeffs = np.zeros(p + 1, dtype=complex)
    coeffs[0] = 1.0
    for e, xe in zip(exps, x):
        coeffs[p - e] = xe
    for gen, other in ((I1, I2), (I2, I1)):
        P = np.zeros_like(gen)
        for ck in coeffs:
            P = P @ gen + ck * np.eye(n, dtype=complex)
        comm = P @ other - other @ P
        if np.max(np.abs(comm)) > ctx.matching(np.max(np.abs(P)) * np.max(np.abs(other))):
            raise NoSolution("solved polynomial fails to commute on the sample")
    return coeffs


def _dense_maxabs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def _dense_scaled_defect(terms: list[np.ndarray], cols=None) -> float:
    """Max-entry norm of sum(terms) (on the columns ``cols``), scaled by the
    term norms but never by less than 1."""
    defect = sum(terms)
    if cols is not None:
        defect = defect[:, cols]
    return _dense_maxabs(defect) / magnitude_scale(sum(_dense_maxabs(t) for t in terms))


def reference_so3_relation_residuals(ctx: QContext, I1, I2, I3, cols=None) -> dict[str, float]:
    """The rotation-algebra relations with dense products, each written out."""
    q = ctx.q
    nu = q + 1 / q
    rt = q_pow(ctx, HalfInt(1))
    rels = {
        "i3_consistency": [rt * I1 @ I2, -(1 / rt) * I2 @ I1, -I3],
        "cubic_1": [I1 @ I2 @ I2, -nu * I2 @ I1 @ I2, I2 @ I2 @ I1, I1],
        "cubic_2": [I2 @ I1 @ I1, -nu * I1 @ I2 @ I1, I1 @ I1 @ I2, I2],
    }
    return {name: _dense_scaled_defect(terms, cols) for name, terms in rels.items()}


def reference_sl2_relation_residuals(ctx: QContext, K, Kinv, E, F, cols=None) -> dict[str, float]:
    """The sl2 relations with dense products."""
    q = ctx.q
    w = q - 1 / q
    eye = np.eye(K.shape[0], dtype=complex)
    rels = {
        "k_kinv": [K @ Kinv, -eye],
        "kek": [K @ E @ Kinv, -q * E],
        "kfk": [K @ F @ Kinv, -(1 / q) * F],
        "ef_commutator": [E @ F, -F @ E, -(K @ K - Kinv @ Kinv) / w],
    }
    return {name: _dense_scaled_defect(terms, cols) for name, terms in rels.items()}


def dense_so3_i3(ctx: QContext, I1: np.ndarray, I2: np.ndarray) -> np.ndarray:
    """I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1 with dense products."""
    rt = q_pow(ctx, HalfInt(1))
    return rt * I1 @ I2 - (1 / rt) * I2 @ I1


def reference_so3_i3(ctx: QContext, I1: np.ndarray, I2: np.ndarray) -> np.ndarray:
    """I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1 for a diagonal I1, entry by
    entry with Python's complex ``*``: (q^{1/2} g_i) I2_ij - (q^{-1/2} I2_ij) g_j
    for g the diagonal of I1."""
    rt = complex(q_pow(ctx, HalfInt(1)))
    rti = 1 / rt
    g = [complex(z) for z in np.diag(I1)]
    n = len(g)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            v = complex(I2[i, j])
            out[i, j] = (rt * g[i]) * v - (rti * v) * g[j]
    return out


def reference_psi_images(t: Sl2FiniteRep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The images of the generators under T composed with the localization
    map, with dense products K E and Kinv F and X (K + Kinv)^{-1} as a dense
    solve against (K + Kinv)^T, whatever K + Kinv is; no extendability
    check."""
    ctx = t.ctx
    M = t.K + t.Kinv
    w = ctx.q - 1 / ctx.q
    I1 = 1j * (t.K - t.Kinv) / w
    I2 = np.linalg.solve(M.T, (t.E - t.F).T).T
    I3 = np.linalg.solve(M.T, (1j * q_pow(ctx, -HalfInt(1)) * (t.K @ t.E + t.Kinv @ t.F)).T).T
    return I1, I2, I3


def reference_psi_residuals(t: Sl2FiniteRep) -> dict[str, float]:
    """The relations and the two further cyclic identities on the images of
    T, with dense products."""
    I1, I2, I3 = reference_psi_images(t)
    res = reference_so3_relation_residuals(t.ctx, I1, I2, I3)
    rt = q_pow(t.ctx, HalfInt(1))
    rti = 1 / rt
    res["cyclic_231"] = _dense_scaled_defect([rt * I2 @ I3, -rti * I3 @ I2, -I1])
    res["cyclic_312"] = _dense_scaled_defect([rt * I3 @ I1, -rti * I1 @ I3, -I2])
    return res


def dense_of_diagonals(diags: Diagonals) -> np.ndarray:
    """The square matrix whose nonzero diagonals ``diags`` holds."""
    n = diags.shape[0]
    mat = np.zeros((n, n), dtype=complex)
    j = np.arange(n)
    for k, row in zip(diags.offsets, diags.rows):
        inside = (j - k >= 0) & (j - k < n)
        mat[j[inside] - k, j[inside]] = row[inside]
    return mat


def coefficient(coeff, n: int) -> complex:
    """One band part at the single coordinate n: the part called on the
    one-element array [n] (a number it returns holds for every n)."""
    return complex(np.broadcast_to(coeff(np.array([n])), (1,))[0])


def reference_materialize(bands: dict[str, Band], n_lo: int, n_hi: int,
                          cyclic: bool = False) -> dict[str, np.ndarray]:
    """Dense matrices of the bands on the domain coordinates n_lo..n_hi,
    filled entry by entry, each part called on one coordinate at a time
    (``coefficient``).

    On an interval, images outside n_lo..n_hi are dropped; on a cycle, up at
    n_hi lands on n_lo and down at n_lo on n_hi.  Entries accumulate, so on
    a 2-cycle the up and down links of a column add up.
    """
    ns = range(n_lo, n_hi + 1)
    j = np.arange(len(ns))
    # part: (rows, columns, coordinates) of its entries; on an interval the
    # links that would leave it are dropped, on a cycle they wrap around
    if cyclic:
        places = {"diag": (j, j, ns), "up": ((j + 1) % len(ns), j, ns),
                  "down": (j - 1, j, ns)}
    else:
        places = {"diag": (j, j, ns), "up": (j[1:], j[:-1], ns[:-1]),
                  "down": (j[:-1], j[1:], ns[1:])}
    mats = {}
    for name, band in bands.items():
        mat = np.zeros((len(ns), len(ns)), dtype=complex)
        for part, (rows, cols, part_ns) in places.items():
            coeff = getattr(band, part)
            if coeff is not None and part_ns:
                # rows are distinct within one part, so += adds every entry
                mat[rows, cols] += [coefficient(coeff, n) for n in part_ns]
        mats[name] = mat
    return mats
