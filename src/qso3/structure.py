"""Spectral analysis, invariant subspaces, irreducibility and equivalence.

Every oracle works in the weight blocks of the first generator (``I1``, or
``K`` on the sl2 side): the index groups of its tolerance-clustered
eigenvalues.  Registered families and the tensor products built through the
localization map have a diagonal first generator; any other input is first
moved to the generator's eigenbasis and the results are mapped back.

- The commutant and the intertwiners vanish between blocks of different
  weight, so their unknowns live only on matched blocks (sum of m_a * m_b
  instead of n_a * n_b) and the equations come from the other generators.
- The algebra spanned by words in the generators contains the spectral
  idempotents E_i of the first generator (they are polynomials in it), so
  its dimension is the sum over block pairs of dim E_i A E_j.  Each piece
  is grown by left multiplication with the block pieces of the other
  generators, in ambient dimension m_i * m_j.  Full dimension n^2 means
  irreducible over C; a span grown in ambient n^2 accumulates rounding until
  it admits noise and calls reducible representations (the twisted weight
  families at dimension 12 and up, Clebsch-Gordan products of dimension 24
  and 30) irreducible.
- Decomposition splits along eigenprojections of a random commutant
  element, drawn from a fixed-seed generator for reproducibility, block by
  block, so component bases stay weight vectors and the recursion stays
  blocked.

Every oracle takes a finite representation of either flavor (``I1, I2``
or ``K, E, F``) and makes each cut at a level of its context's tolerance
policy (``QContext``): eigenvalue clusters and rank cuts at
``separation``, span growth at ``orbit_drop`` and ``algebra_drop``, split
bases at ``invariance`` and fingerprints at ``matching``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CtxMismatch, SingularBasisChange
from .qscalar import QContext
from .repcore import FamilyDescriptor, Sl2FiniteRep, So3FiniteRep, so3_i3

DEFAULT_SEED = 1234


def _gens(rep) -> list[np.ndarray]:
    """The generators the oracles act with; I3 is the q-commutator of I1
    and I2, and K^-1 the inverse of K, so neither adds equations."""
    if isinstance(rep, So3FiniteRep):
        return [rep.I1, rep.I2]
    return [rep.K, rep.E, rep.F]


def _scale(gens) -> float:
    """Largest entry modulus over the generators."""
    return max(float(np.max(np.abs(g))) for g in gens)


def _cluster_groups(values, tol: float) -> list[tuple[complex, list[int]]]:
    """Greedy tolerance clustering of complex values into (mean, indices)."""
    vals = [complex(v) for v in values]
    out: list[list] = []
    for i in sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag)):
        v = vals[i]
        for g in out:
            if abs(g[0] - v) <= tol:
                g[1].append(i)
                g[0] = g[0] + (v - g[0]) / len(g[1])
                break
        else:
            out.append([v, [i]])
    return [(g[0], g[1]) for g in out]


def cluster(values, tol: float) -> list[tuple[complex, int]]:
    """Greedy tolerance clustering of complex values into (value, count)."""
    return [(v, len(idx)) for v, idx in _cluster_groups(values, tol)]


def _first_eig(g0: np.ndarray, ctx: QContext) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvector matrix of the first generator; the
    matrix is None when the generator is diagonal already."""
    off = np.max(np.abs(g0 - np.diag(np.diag(g0)))) if g0.size else 0.0
    if off <= ctx.floor(np.max(np.abs(g0))):
        return np.diag(g0), None
    return np.linalg.eig(g0)


def i1_spectrum(rep) -> list[tuple[complex, int]]:
    """Tolerance-clustered eigenvalue multiset of the first generator
    (I1, or K on the sl2 side)."""
    vals, _ = _first_eig(_gens(rep)[0], rep.ctx)
    return cluster(vals, rep.ctx.separation(*np.abs(vals)))


def _weight_frame(rep):
    """Generators in a weight basis of the first one.

    Returns (generators, eigenvalues, S): S is the eigenvector matrix the
    generators were conjugated by, or None when the first generator is
    diagonal already.  Raises SingularBasisChange when the eigenvectors are
    numerically dependent, i.e. rounding amplified by their condition number
    exceeds the tolerance.
    """
    gens = _gens(rep)
    vals, S = _first_eig(gens[0], rep.ctx)
    if S is None:
        return gens, vals, None
    if np.linalg.cond(S) * np.finfo(float).eps > rep.ctx.threshold():
        raise SingularBasisChange(
            "the first generator has no well-conditioned eigenbasis")
    return [np.linalg.solve(S, g @ S) for g in gens], vals, S


def _blocks(vals, ctx: QContext) -> list[np.ndarray]:
    """Index groups of the clustered eigenvalues of the first generator."""
    return [np.array(idx) for _, idx in _cluster_groups(vals, ctx.separation(*np.abs(vals)))]


class _GrowingSpan:
    """Orthonormal row basis with vectorized (twice-through) projection.

    Candidate vectors are projected raw and their residual norm is compared
    against the drop threshold, so near-zero images are never amplified
    into spurious directions.
    """

    def __init__(self, ambient: int, drop_tol: float):
        self.rows = np.zeros((ambient, ambient), dtype=complex)
        self.size = 0
        self.drop_tol = drop_tol

    def add(self, vec: np.ndarray) -> bool:
        v = np.asarray(vec, dtype=complex).ravel()
        Q = self.rows[:self.size]
        for _ in range(2):
            if self.size:
                # conj(Q) @ v without copying the basis
                v = v - Q.T @ (Q @ v.conj()).conj()
        nrm = np.linalg.norm(v)
        if nrm > self.drop_tol:
            self.rows[self.size] = v / nrm
            self.size += 1
            return True
        return False


def orbit_span(rep, seed: np.ndarray) -> np.ndarray:
    """Smallest generator-invariant subspace containing the seed vector.

    Returns an orthonormal basis (columns), grown by repeated generator
    application with re-orthogonalization until the rank stabilizes.
    """
    gens = _gens(rep)
    n = gens[0].shape[0]
    span = _GrowingSpan(n, rep.ctx.orbit_drop(_scale(gens)))
    v = np.asarray(seed, dtype=complex).ravel()
    span.add(v)
    frontier = [v / np.linalg.norm(v)]
    while frontier:
        new = []
        for vec in frontier:
            for g in gens:
                w = g @ vec
                if span.add(w):
                    new.append(span.rows[span.size - 1])
        frontier = new
    return span.rows[:span.size].T.copy()


def burnside_dim(rep, max_rounds: int | None = None) -> tuple[int, bool]:
    """Dimension of the algebra spanned by words in the generators.

    Returns (dimension, converged).  The dimension is the sum over weight
    block pairs (i, j) of dim E_i A E_j, each grown by left multiplication
    from E_j with the blocks of the other generators; ``max_rounds`` caps
    the rounds of each column block (default 2 n^2).
    """
    gens, vals, _ = _weight_frame(rep)
    cap = max_rounds if max_rounds is not None else 2 * rep.dim ** 2
    drop = rep.ctx.algebra_drop(_scale(_gens(rep)))
    blocks = _blocks(vals, rep.ctx)
    # reach[k]: (i, G[i-block, k-block]) for each other generator coupling k to i
    reach = [[(i, piece) for g in gens[1:] for i, bi in enumerate(blocks)
              if (piece := g[np.ix_(bi, bk)]).any()] for bk in blocks]
    total, converged = 0, True
    for j, bj in enumerate(blocks):
        mj = len(bj)
        spans = [_GrowingSpan(len(bi) * mj, drop) for bi in blocks]
        # the frontier holds the orthonormalized new directions, which keeps
        # product norms bounded by the generator scale
        frontier = [(j, np.eye(mj, dtype=complex) / np.sqrt(mj))]
        spans[j].add(frontier[0][1])
        rounds = 0
        while frontier and rounds < cap:
            rounds += 1
            new = []
            for k, mat in frontier:
                for i, piece in reach[k]:
                    if spans[i].add(piece @ mat):
                        new.append((i, spans[i].rows[spans[i].size - 1].reshape(-1, mj)))
            frontier = new
        total += sum(s.size for s in spans)
        converged = converged and not frontier
    return total, converged


def is_irreducible_burnside(rep) -> tuple[bool, int]:
    """(irreducible?, algebra dimension): irreducible iff the span is full."""
    dim, converged = burnside_dim(rep)
    return (converged and dim == rep.dim ** 2), dim


def _block_solutions(ga, gb, pairs, ctx: QContext) -> list[np.ndarray]:
    """Basis of the X with X A_j = B_j X for the generators after the first,
    where X (nb x na) is zero outside the matched weight blocks: pairs[c] =
    (A indices, B indices) carries the unknown block X[B_c, A_c].

    Block (c, d) of the equation reads X_c A_cd - B_cd X_d = 0; in row-major
    vectorization its coefficients are I (x) A_cd^T and B_cd (x) I, built per
    block.  The rank cut is the separation level relative to the largest
    singular value (and at least 1), so near-zero generators count as
    commuting with everything.
    """
    sizes = [len(ib) * len(ia) for ia, ib in pairs]
    offs = np.concatenate([[0], np.cumsum(sizes, dtype=int)])
    eqs = []
    for A, B in zip(ga[1:], gb[1:]):
        for c, (ia_c, ib_c) in enumerate(pairs):
            for d, (ia_d, ib_d) in enumerate(pairs):
                A_cd, B_cd = A[np.ix_(ia_c, ia_d)], B[np.ix_(ib_c, ib_d)]
                if A_cd.any() or B_cd.any():
                    eqs.append((c, d, A_cd, B_cd))
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


def _from_frames(basis, Sa, Sb) -> list[np.ndarray]:
    """Map solutions X found between weight frames back to the callers' bases:
    X -> Sb X Sa^-1, where None stands for the identity."""
    if Sa is not None:
        basis = [np.linalg.solve(Sa.T, X.T).T for X in basis]
    if Sb is not None:
        basis = [Sb @ X for X in basis]
    return basis


def commutant(rep) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of {X : X G = G X for all generators}.

    The basis is orthonormal in the weight basis of the first generator
    (in the caller's basis too when that generator is diagonal).
    """
    gens, vals, S = _weight_frame(rep)
    pairs = [(b, b) for b in _blocks(vals, rep.ctx)]
    basis = _from_frames(_block_solutions(gens, gens, pairs, rep.ctx), S, S)
    return len(basis), basis


def intertwiners(rep_a, rep_b) -> tuple[int, list[np.ndarray]]:
    """Solutions X of X A_j = B_j X for the generator lists of the two reps.

    The representations must share a context; X maps the space of rep_a to
    that of rep_b.  Unknowns sit only where a weight block of rep_a meets a
    block of rep_b with the same clustered eigenvalue.
    """
    ctx = rep_a.ctx
    ctx.require_same(rep_b.ctx)
    if type(rep_a) is not type(rep_b):
        raise CtxMismatch("representations of different algebras")
    ga, va, Sa = _weight_frame(rep_a)
    gb, vb, Sb = _weight_frame(rep_b)
    na = len(va)
    pairs = [(idx[idx < na], idx[idx >= na] - na)
             for idx in _blocks(np.concatenate([va, vb]), ctx)]
    pairs = [(ia, ib) for ia, ib in pairs if len(ia) and len(ib)]
    basis = _from_frames(_block_solutions(ga, gb, pairs, ctx), Sa, Sb)
    return len(basis), basis


def are_equivalent(rep_a, rep_b, seed: int = DEFAULT_SEED) -> bool:
    """Equivalence via an invertible intertwiner.

    Representations of different dimension are rejected; otherwise a random
    combination of the intertwiner basis is tested for invertibility.
    """
    n = rep_a.dim
    if n != rep_b.dim:
        return False
    dim, basis = intertwiners(rep_a, rep_b)
    if dim == 0:
        return False
    rng = np.random.default_rng(seed)
    cut = rep_a.ctx.separation()
    for _ in range(4):
        X = sum(rng.standard_normal() * B for B in basis)
        if np.linalg.matrix_rank(X, tol=cut * max(1e-300, np.linalg.norm(X))) == n:
            return True
    return False


def _multiset_close(a, b, thr: float) -> bool:
    """Greedy nearest matching of (value, multiplicity) multisets."""
    if len(a) != len(b):
        return False
    taken = [False] * len(b)
    for v, m in a:
        hit = None
        for j, (v2, m2) in enumerate(b):
            if not taken[j] and m2 == m and abs(v - v2) <= thr:
                hit = j
                break
        if hit is None:
            return False
        taken[hit] = True
    return True


@dataclass
class Fingerprint:
    """Dimension, clustered spectrum of the first generator and traces of
    the others, keyed by their names: "i1_spectrum", "trace_i2" and
    "trace_i3" for so3, "k_spectrum", "trace_e" and "trace_f" for sl2."""

    ctx: QContext
    dim: int
    spectrum_name: str
    spectrum: list[tuple[complex, int]]
    traces: dict[str, complex]

    def diff(self, other: "Fingerprint") -> list[str]:
        """Names of the invariants that differ beyond the matching level of
        the largest of 1, |eigenvalue| and |trace| of self."""
        if self.dim != other.dim:
            return ["dim"]
        thr = self.ctx.matching(*(abs(v) for v, _ in self.spectrum),
                                *(abs(t) for t in self.traces.values()))
        out = [] if _multiset_close(self.spectrum, other.spectrum, thr) \
            else [self.spectrum_name]
        return out + [name for name, t in self.traces.items()
                      if abs(t - other.traces[name]) > thr]

    def matches(self, other: "Fingerprint") -> bool:
        return not self.diff(other)


def fingerprint(rep) -> Fingerprint:
    """Cheap separating invariants: dimension, I1 (or K) spectrum, traces
    of I2 and I3 (or E and F)."""
    first, others = ("i1", ("I2", "I3")) if isinstance(rep, So3FiniteRep) \
        else ("k", ("E", "F"))
    traces = {f"trace_{g.lower()}": complex(np.trace(getattr(rep, g))) for g in others}
    return Fingerprint(rep.ctx, rep.dim, f"{first}_spectrum", i1_spectrum(rep), traces)


@dataclass
class DecompositionReport:
    components: list[tuple[np.ndarray, object]]
    lattice: list[np.ndarray] = field(default_factory=list)
    commutant_dim: int = 0
    burnside_dim: int = 0
    is_irreducible: bool = False
    is_direct_sum: bool = False
    combined_condition: float | None = None

    @property
    def component_dims(self) -> list[int]:
        return sorted(b.shape[1] for b, _ in self.components)


def invariance_defect(gens, Q) -> float:
    """Largest entry of G Q - Q Q^H G Q: zero when the orthonormal columns
    of Q span a subspace invariant under every G."""
    return max(float(np.max(np.abs(g @ Q - Q @ (Q.conj().T @ g @ Q)))) for g in gens)


def _split_once(rep, rng, retries=5, com=None):
    """One commutant-driven split: returns list of orthonormal bases or None.

    The random commutant element is block-diagonal in the weight blocks; it
    is eigendecomposed block by block and each eigenvalue cluster is
    orthonormalized per block, so every basis column is a weight vector.
    """
    cdim, cbasis = com if com is not None else commutant(rep)
    if cdim <= 1:
        return None
    gens, ctx = _gens(rep), rep.ctx
    n = gens[0].shape[0]
    max_defect = ctx.invariance(_scale(gens))
    vals, S = _first_eig(gens[0], ctx)
    if S is not None:
        cbasis = [np.linalg.solve(S, X @ S) for X in cbasis]
    blocks = _blocks(vals, ctx)
    for _ in range(retries):
        Z = sum(rng.standard_normal() * X for X in cbasis)
        eigs = [np.linalg.eig(Z[np.ix_(b, b)]) for b in blocks]
        evals = np.concatenate([e for e, _ in eigs])
        thr = ctx.separation(*np.abs(evals))
        groups = cluster(evals, thr)
        if len(groups) <= 1:
            continue
        bases = []
        for val, _count in groups:
            Q = np.zeros((n, n), dtype=complex)
            width = 0
            for b, (e, v) in zip(blocks, eigs):
                cols = np.abs(e - val) <= thr
                if cols.any():
                    Qb, _ = np.linalg.qr(v[:, cols])
                    Q[b, width:width + Qb.shape[1]] = Qb
                    width += Qb.shape[1]
            Q = Q[:, :width] if S is None else np.linalg.qr(S @ Q[:, :width])[0]
            if invariance_defect(gens, Q) > max_defect:
                break
            bases.append(Q)
        else:
            if sum(b.shape[1] for b in bases) == n:
                return bases
    return None


def _wrap_component(rep, gens_r):
    fam = FamilyDescriptor("component", {"of": rep.family.name})
    if isinstance(rep, So3FiniteRep):
        I1, I2 = gens_r
        return So3FiniteRep(rep.ctx, I1, I2, so3_i3(rep.ctx, I1, I2), fam,
                            {"parent": rep.family})
    K, E, F = gens_r
    return Sl2FiniteRep(rep.ctx, K, np.linalg.inv(K), E, F, fam, {"parent": rep.family})


def decompose(rep, seed: int = DEFAULT_SEED) -> DecompositionReport:
    """Full direct-sum decomposition with oracle evidence.

    Splits recursively along commutant eigenprojections.  If the commutant
    is trivial but the algebra span is not full (indecomposable reducible),
    the invariant-subspace lattice found from orbit seeds is reported with
    is_direct_sum = False.
    """
    n = rep.dim
    rng = np.random.default_rng(seed)
    top_com = commutant(rep)
    cdim = top_com[0]
    irr, bdim = is_irreducible_burnside(rep)

    def recurse(sub, carrier, com=None):
        bases = _split_once(sub, rng, com=com)
        if bases is None:
            return [(carrier, sub)]
        out = []
        for Q in bases:
            part = _wrap_component(rep, [Q.conj().T @ g @ Q for g in _gens(sub)])
            out.extend(recurse(part, carrier @ Q))
        return out

    pieces = recurse(rep, np.eye(n, dtype=complex), com=top_com)
    if len(pieces) == 1:
        if irr:
            return DecompositionReport(
                components=[(np.eye(n, dtype=complex), rep)],
                commutant_dim=cdim, burnside_dim=bdim,
                is_irreducible=True, is_direct_sum=True, combined_condition=1.0)
        # reducible but not split: collect the invariant lattice from seeds
        lattice = _invariant_lattice(rep)
        return DecompositionReport(
            components=[], lattice=lattice, commutant_dim=cdim,
            burnside_dim=bdim, is_irreducible=False, is_direct_sum=False)
    for _, comp in pieces:
        comp.flags["component_irreducible"] = is_irreducible_burnside(comp)[0]
    cond = float(np.linalg.cond(np.column_stack([B for B, _ in pieces])))
    return DecompositionReport(
        components=pieces, commutant_dim=cdim, burnside_dim=bdim,
        is_irreducible=False, is_direct_sum=True, combined_condition=cond)


def _invariant_lattice(rep) -> list[np.ndarray]:
    """Proper invariant subspaces found from I1-eigenvector seeds."""
    n, ctx = rep.dim, rep.ctx
    evals, evecs = np.linalg.eig(_gens(rep)[0])
    seeds = [evecs[:, i] for i in range(n)]
    thr = ctx.separation(*np.abs(evals))
    groups = cluster(evals, thr)
    for val, count in groups:
        if count < 2:
            continue
        cols = [i for i, e in enumerate(evals) if abs(e - val) <= thr]
        sub = evecs[:, cols]
        for t in np.linspace(0, 1, 5)[1:-1]:
            for j in range(len(cols) - 1):
                seeds.append(sub[:, j] * (1 - t) + sub[:, j + 1] * t)
                seeds.append(sub[:, j] * (1 - t) + 1j * t * sub[:, j + 1])
    found: list[np.ndarray] = []
    for seed_vec in seeds:
        B = orbit_span(rep, seed_vec)
        d = B.shape[1]
        # keep proper subspaces whose span is not found already
        if d < n and not any(b.shape[1] == d and
                             np.linalg.norm(b @ (b.conj().T @ B) - B) < ctx.matching()
                             for b in found):
            found.append(B)
    return found
