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

All operations work on a list of generator matrices, so the same machinery
serves both algebra flavors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CtxMismatch, SingularBasisChange
from .repcore import FamilyDescriptor, Sl2FiniteRep, So3FiniteRep

DEFAULT_SEED = 1234
RANK_TOL = 1e-8
DEFAULT_TOL = 1e-9  # for bare generator lists, which carry no context


def _gens(rep) -> list[np.ndarray]:
    if isinstance(rep, So3FiniteRep):
        return [rep.I1, rep.I2]
    if isinstance(rep, Sl2FiniteRep):
        return [rep.K, rep.E, rep.F]
    return list(rep)


def _tol(rep) -> float:
    ctx = getattr(rep, "ctx", None)
    return ctx.tol if ctx is not None else DEFAULT_TOL


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


def _first_eig(g0: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigenvalues and eigenvector matrix of the first generator; the
    matrix is None when the generator is diagonal already."""
    off = np.max(np.abs(g0 - np.diag(np.diag(g0)))) if g0.size else 0.0
    if off <= 1e-12 * max(1.0, np.max(np.abs(g0))):
        return np.diag(g0), None
    return np.linalg.eig(g0)


def _cluster_tol(vals, tol: float) -> float:
    return 10 * tol * max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)


def i1_spectrum(rep: So3FiniteRep) -> list[tuple[complex, int]]:
    """Tolerance-clustered eigenvalue multiset of the first generator."""
    vals, _ = _first_eig(rep.I1)
    return cluster(vals, _cluster_tol(vals, rep.ctx.tol))


def _weight_frame(gens: list[np.ndarray], tol: float):
    """Generators in a weight basis of the first one.

    Returns (generators, eigenvalues, S): S is the eigenvector matrix the
    generators were conjugated by, or None when the first generator is
    diagonal already.  Raises SingularBasisChange when the eigenvectors are
    numerically dependent, i.e. rounding amplified by their condition number
    exceeds the tolerance.
    """
    vals, S = _first_eig(gens[0])
    if S is None:
        return gens, vals, None
    if np.linalg.cond(S) * np.finfo(float).eps > tol:
        raise SingularBasisChange(
            "the first generator has no well-conditioned eigenbasis")
    return [np.linalg.solve(S, g @ S) for g in gens], vals, S


def _blocks(vals, tol: float) -> list[np.ndarray]:
    """Index groups of the clustered eigenvalues of the first generator."""
    return [np.array(idx) for _, idx in _cluster_groups(vals, _cluster_tol(vals, tol))]


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


def orbit_span(rep, seed: np.ndarray, tol: float | None = None) -> np.ndarray:
    """Smallest generator-invariant subspace containing the seed vector.

    Returns an orthonormal basis (columns), grown by repeated generator
    application with re-orthogonalization until the rank stabilizes.
    """
    gens = _gens(rep)
    ctx_tol = tol if tol is not None else _tol(rep)
    n = gens[0].shape[0]
    scale = max(max(np.max(np.abs(g)) for g in gens), 1.0)
    span = _GrowingSpan(n, 100 * ctx_tol * scale)
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
    gens = _gens(rep)
    n = gens[0].shape[0]
    cap = max_rounds if max_rounds is not None else 2 * n * n
    scale = max(max(np.max(np.abs(g)) for g in gens), 1.0)
    tol = _tol(rep)
    gens, vals, _ = _weight_frame(gens, tol)
    blocks = _blocks(vals, tol)
    # reach[k]: (i, G[i-block, k-block]) for each other generator coupling k to i
    reach = [[(i, piece) for g in gens[1:] for i, bi in enumerate(blocks)
              if (piece := g[np.ix_(bi, bk)]).any()] for bk in blocks]
    total, converged = 0, True
    for j, bj in enumerate(blocks):
        mj = len(bj)
        spans = [_GrowingSpan(len(bi) * mj, 1e-10 * scale) for bi in blocks]
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
    gens = _gens(rep)
    n = gens[0].shape[0]
    dim, converged = burnside_dim(rep)
    return (converged and dim == n * n), dim


def _block_solutions(ga, gb, pairs, rank_tol: float) -> list[np.ndarray]:
    """Basis of the X with X A_j = B_j X for the generators after the first,
    where X (nb x na) is zero outside the matched weight blocks: pairs[c] =
    (A indices, B indices) carries the unknown block X[B_c, A_c].

    Block (c, d) of the equation reads X_c A_cd - B_cd X_d = 0; in row-major
    vectorization its coefficients are I (x) A_cd^T and B_cd (x) I, built per
    block.  The rank cut is relative to the largest singular value, floored
    at rank_tol, so near-zero generators count as commuting with everything.
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
    thr = rank_tol * max(float(s[0]) if len(s) else 0.0, 1.0)
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


def commutant(rep, rank_tol: float = RANK_TOL) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of {X : X G = G X for all generators}.

    The basis is orthonormal in the weight basis of the first generator
    (in the caller's basis too when that generator is diagonal).
    """
    tol = _tol(rep)
    gens, vals, S = _weight_frame(_gens(rep), tol)
    basis = _block_solutions(gens, gens, [(b, b) for b in _blocks(vals, tol)], rank_tol)
    basis = _from_frames(basis, S, S)
    return len(basis), basis


def intertwiners(rep_a, rep_b, rank_tol: float = RANK_TOL) -> tuple[int, list[np.ndarray]]:
    """Solutions X of X A_j = B_j X for the generator lists of the two reps.

    The representations must share a context; X maps the space of rep_a to
    that of rep_b.  Unknowns sit only where a weight block of rep_a meets a
    block of rep_b with the same clustered eigenvalue.
    """
    ctx_a, ctx_b = getattr(rep_a, "ctx", None), getattr(rep_b, "ctx", None)
    if ctx_a is not None and ctx_b is not None and abs(ctx_a.s - ctx_b.s) > 1e-12:
        raise CtxMismatch("representations live over different contexts")
    ga, gb = _gens(rep_a), _gens(rep_b)
    if len(ga) != len(gb):
        raise CtxMismatch("generator lists have different shapes")
    tol = _tol(rep_a)
    ga, va, Sa = _weight_frame(ga, tol)
    gb, vb, Sb = _weight_frame(gb, tol)
    na = len(va)
    both = np.concatenate([va, vb])
    pairs = []
    for idx in _blocks(both, tol):
        ia, ib = idx[idx < na], idx[idx >= na] - na
        if len(ia) and len(ib):
            pairs.append((ia, ib))
    basis = _from_frames(_block_solutions(ga, gb, pairs, rank_tol), Sa, Sb)
    return len(basis), basis


def are_equivalent(rep_a, rep_b, seed: int = DEFAULT_SEED) -> bool:
    """Equivalence via an invertible intertwiner.

    Representations of different dimension are rejected; otherwise a random
    combination of the intertwiner basis is tested for invertibility.
    """
    ga, gb = _gens(rep_a), _gens(rep_b)
    if ga[0].shape[0] != gb[0].shape[0]:
        return False
    dim, basis = intertwiners(rep_a, rep_b)
    if dim == 0:
        return False
    rng = np.random.default_rng(seed)
    n = ga[0].shape[0]
    for _ in range(4):
        X = sum(rng.standard_normal() * B for B in basis)
        if np.linalg.matrix_rank(X, tol=1e-8 * max(1e-300, np.linalg.norm(X))) == n:
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
    dim: int
    spectrum: list[tuple[complex, int]]
    trace_i2: complex
    trace_i3: complex

    def diff(self, other: "Fingerprint", tol: float = 1e-6) -> list[str]:
        """Names of the invariants that differ beyond tol times the largest
        of 1, |I1 eigenvalue|, |trace I2| and |trace I3| of self."""
        if self.dim != other.dim:
            return ["dim"]
        scale = max([1.0] + [abs(v) for v, _ in self.spectrum]
                    + [abs(self.trace_i2), abs(self.trace_i3)])
        thr = tol * scale
        differs = {
            "i1_spectrum": not _multiset_close(self.spectrum, other.spectrum, thr),
            "trace_i2": abs(self.trace_i2 - other.trace_i2) > thr,
            "trace_i3": abs(self.trace_i3 - other.trace_i3) > thr,
        }
        return [name for name, d in differs.items() if d]

    def matches(self, other: "Fingerprint", tol: float = 1e-6) -> bool:
        return not self.diff(other, tol)


def fingerprint(rep: So3FiniteRep) -> Fingerprint:
    """Cheap separating invariants: dimension, I1 spectrum, traces."""
    return Fingerprint(rep.dim, i1_spectrum(rep),
                       complex(np.trace(rep.I2)), complex(np.trace(rep.I3)))


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


def _restrict_mats(gens: list[np.ndarray], Q: np.ndarray) -> list[np.ndarray]:
    return [Q.conj().T @ g @ Q for g in gens]


def _invariance_defect(gens, Q) -> float:
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
    gens, tol = _gens(rep), _tol(rep)
    n = gens[0].shape[0]
    scale = max(max(np.max(np.abs(g)) for g in gens), 1.0)
    vals, S = _first_eig(gens[0])
    if S is not None:
        cbasis = [np.linalg.solve(S, X @ S) for X in cbasis]
    blocks = _blocks(vals, tol)
    for _ in range(retries):
        Z = sum(rng.standard_normal() * X for X in cbasis)
        eigs = [np.linalg.eig(Z[np.ix_(b, b)]) for b in blocks]
        evals = np.concatenate([e for e, _ in eigs])
        thr = _cluster_tol(evals, tol)
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
            if _invariance_defect(gens, Q) > 1e4 * tol * scale:
                break
            bases.append(Q)
        else:
            if sum(b.shape[1] for b in bases) == n:
                return bases
    return None


def _wrap_component(rep, gens_r):
    if isinstance(rep, So3FiniteRep):
        from .qscalar import q_pow
        from .repcore import HALF

        rt = q_pow(rep.ctx, HALF)
        I1, I2 = gens_r
        I3 = rt * I1 @ I2 - (1 / rt) * I2 @ I1
        fam = FamilyDescriptor("component", {"of": rep.family.name})
        return So3FiniteRep(rep.ctx, I1, I2, I3, fam, {"parent": rep.family})
    if isinstance(rep, Sl2FiniteRep):
        K, E, F = gens_r
        fam = FamilyDescriptor("component", {"of": rep.family.name})
        return Sl2FiniteRep(rep.ctx, K, np.linalg.inv(K), E, F, fam,
                            {"parent": rep.family})
    return gens_r


def decompose(rep, seed: int = DEFAULT_SEED) -> DecompositionReport:
    """Full direct-sum decomposition with oracle evidence.

    Splits recursively along commutant eigenprojections.  If the commutant
    is trivial but the algebra span is not full (indecomposable reducible),
    the invariant-subspace lattice found from orbit seeds is reported with
    is_direct_sum = False.
    """
    gens = _gens(rep)
    n = gens[0].shape[0]
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
            part = _wrap_component(rep, _restrict_mats(_gens(sub), Q))
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
        lattice = _invariant_lattice(rep, gens, _tol(rep))
        return DecompositionReport(
            components=[], lattice=lattice, commutant_dim=cdim,
            burnside_dim=bdim, is_irreducible=False, is_direct_sum=False)
    components = []
    for B, comp in pieces:
        comp_irr, _ = is_irreducible_burnside(comp)
        if not isinstance(comp, list):
            comp.flags["component_irreducible"] = comp_irr
        components.append((B, comp))
    combined = np.column_stack([B for B, _ in components])
    cond = float(np.linalg.cond(combined))
    return DecompositionReport(
        components=components, commutant_dim=cdim, burnside_dim=bdim,
        is_irreducible=False, is_direct_sum=True, combined_condition=cond)


def _invariant_lattice(rep, gens, tol) -> list[np.ndarray]:
    """Proper invariant subspaces found from I1-eigenvector seeds."""
    n = gens[0].shape[0]
    evals, evecs = np.linalg.eig(gens[0])
    seeds = [evecs[:, i] for i in range(n)]
    thr = _cluster_tol(evals, tol)
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
    dims_seen = set()
    for seed_vec in seeds:
        B = orbit_span(rep, seed_vec, tol)
        d = B.shape[1]
        if d == n:
            continue
        key = d
        if key in dims_seen:
            # keep only subspaces with genuinely different span
            if any(b.shape[1] == d and
                   np.linalg.norm(b @ (b.conj().T @ B) - B) < 1e-6
                   for b in found):
                continue
        found.append(B)
        dims_seen.add(key)
    return found
