"""Spectral analysis, invariant subspaces, irreducibility and equivalence.

Every oracle works in the weight blocks of the first generator (``I1``, or
``K`` on the sl2 side): the index groups of its tolerance-clustered
eigenvalues.  Registered families and the tensor products built through the
localization map have a diagonal first generator; any other input is first
moved to the generator's eigenbasis and the results are mapped back.  This
``WeightFrame`` is computed once per representation and read by every oracle.

- The commutant and the intertwiners vanish between blocks of different
  weight, so their unknowns live only on matched blocks (sum of m_a * m_b
  instead of n_a * n_b); the equations, one per entry of X A - B X for the
  other generators, are filled in one scatter over the unknowns.
- Irreducibility is Norton's spin test (``is_irreducible``): a vector of
  a simple weight is spun under the generators and under their adjoints,
  and a spin that is not full yields the witness, a proper invariant
  subspace.  ``burnside_dim`` (the algebra dimension) is evidence only.
- Decomposition splits first along the eigenvalues of the quadratic
  Casimir (``casimir``), a central element, into pieces that are sums of
  isotypic components, so no commutant spans the whole of a product.
  Inside each piece it splits along eigenprojections of a random commutant
  element, drawn from a fixed-seed generator for reproducibility.  Both
  splits go block by block, so component bases stay weight vectors, and
  only the leaves are spun.  A part with basis Q is Q^H G Q for every
  generator, I3 and K^-1 too, so its residuals show how invariant Q is.

Every oracle takes a finite representation of either flavor (``I1, I2`` or
``K, E, F``) and cuts at levels of its context's tolerance policy: clusters
and rank cuts at ``separation``, spins at ``orbit_drop``, the Burnside span
at ``algebra_drop``, split bases at ``invariance``, fingerprints at ``matching``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CtxMismatch, NoSolution, SingularBasisChange
from .qscalar import QContext
from .repcore import FamilyDescriptor, So3FiniteRep

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


def _cluster_groups(values, tol) -> list[tuple[complex, list[int]]]:
    """Greedy tolerance clustering of complex values into (mean, indices);
    tol is one level, or an array of one level per value."""
    vals = [complex(v) for v in values]
    tols = np.broadcast_to(tol, len(vals)).tolist()
    out: list[list] = []
    for i in sorted(range(len(vals)), key=lambda i: (vals[i].real, vals[i].imag)):
        v = vals[i]
        for g in out:
            if abs(g[0] - v) <= tols[i]:
                g[1].append(i)
                g[0] = g[0] + (v - g[0]) / len(g[1])
                break
        else:
            out.append([v, [i]])
    return [(g[0], g[1]) for g in out]


def cluster(values, tol) -> list[tuple[complex, int]]:
    """Greedy tolerance clustering (``_cluster_groups``) into (value, count)."""
    return [(v, len(idx)) for v, idx in _cluster_groups(values, tol)]


class WeightFrame:
    """What every oracle reads of a finite representation, computed once per
    representation (its ``weight_frame``): the eigenvalues ``vals`` of the
    first generator, their eigenvector matrix ``S`` (None when the generator
    is diagonal already), the clustered ``groups`` (mean, indices), the
    indices in block ``order`` (those of the first group, then of the
    second, and so on), the slices of it that are the ``blocks``, and the
    block ``label`` of each index; ``gens``, ``reach`` and ``adjoint_reach``
    are built on first read.  The generators after the first are held in
    block order (``_ordered``), and the pieces of ``reach`` and
    ``adjoint_reach`` are cut from them."""

    def __init__(self, rep):
        self.ctx, self.caller_gens = rep.ctx, _gens(rep)
        g0 = self.caller_gens[0]
        off = np.max(np.abs(g0 - np.diag(np.diag(g0)))) if g0.size else 0.0
        self.vals, self.S = (np.diag(g0), None) if off <= rep.ctx.floor(np.max(np.abs(g0))) \
            else np.linalg.eig(g0)
        self.groups = _cluster_groups(self.vals, rep.ctx.separation(*np.abs(self.vals)))
        sizes = [len(idx) for _, idx in self.groups]
        ends = list(itertools.accumulate(sizes))
        self._slices = [slice(a, b) for a, b in zip([0, *ends[:-1]], ends)]
        self.order = np.array([i for _, idx in self.groups for i in idx], dtype=int)
        self.blocks = [self.order[sl] for sl in self._slices]
        self.label = np.empty(len(self.order), dtype=int)
        self.label[self.order] = np.repeat(np.arange(len(sizes)), sizes)

    @functools.cached_property
    def gens(self) -> list[np.ndarray]:
        """The generators in the weight basis; SingularBasisChange (on every
        read) when rounding amplified by the condition of S exceeds tol."""
        if self.S is None:
            return self.caller_gens
        if np.linalg.cond(self.S) * np.finfo(float).eps > self.ctx.threshold():
            raise SingularBasisChange(
                "the first generator has no well-conditioned eigenbasis")
        return [np.linalg.solve(self.S, g @ self.S) for g in self.caller_gens]

    @functools.cached_property
    def _couplings(self) -> list[list[tuple[int, int]]]:
        return [_coupled(g, self.label) for g in self.gens[1:]]

    @functools.cached_property
    def _ordered(self) -> list[np.ndarray]:
        """The generators after the first in block order, each permuted once."""
        return [g[self.order[:, None], self.order] for g in self.gens[1:]]

    def _pieces(self, ordered, couplings) -> list[list[tuple[int, np.ndarray]]]:
        """reach lists of the nonzero blocks of block-ordered matrices: each
        piece a contiguous copy of a slice, with the values and the layout
        of a gather G[block i, block k] of the unordered matrix."""
        reach = [[] for _ in self.blocks]
        for g, pairs in zip(ordered, couplings):
            for i, k in pairs:
                reach[k].append((i, g[self._slices[i], self._slices[k]].copy()))
        return reach

    @functools.cached_property
    def reach(self) -> list[list[tuple[int, np.ndarray]]]:
        """reach[k]: (i, G[block i, block k]) for each nonzero block of each
        generator G after the first, by generator and then by i."""
        return self._pieces(self._ordered, self._couplings)

    @functools.cached_property
    def adjoint_reach(self) -> list[list[tuple[int, np.ndarray]]]:
        """``reach`` for the adjoints, whose couplings are the transposes."""
        return self._pieces([g.conj().T for g in self._ordered],
                            [sorted((k, i) for i, k in c) for c in self._couplings])


def i1_spectrum(rep) -> list[tuple[complex, int]]:
    """Tolerance-clustered eigenvalue multiset of the first generator
    (I1, or K on the sl2 side)."""
    return [(v, len(idx)) for v, idx in rep.weight_frame.groups]


def casimir(rep) -> np.ndarray:
    """The quadratic central element C, in the caller's basis.  so3
    (Havlicek-Klimyk-Posta, math/9911130):
    C = q^{1/2} (q - q^-1) I1 I2 I3 - q I1^2 - q^-1 I2^2 - q I3^2;
    sl2: C = E F + (q^-1 K^2 + q K^-2) / (q - q^-1)^2.
    C commutes with every generator, so it is a scalar on each irreducible
    and block-diagonal in the weight blocks of the first generator."""
    q, w = rep.ctx.q, rep.ctx.q_minus_qinv
    if isinstance(rep, So3FiniteRep):
        I1, I2, I3 = rep.I1, rep.I2, rep.I3
        return (rep.ctx.s * w) * I1 @ I2 @ I3 - q * I1 @ I1 - I2 @ I2 / q - q * I3 @ I3
    return rep.E @ rep.F + (rep.K @ rep.K / q + q * rep.Kinv @ rep.Kinv) / w ** 2


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a 1-d vector, with its bits: numpy's own
    formula for a complex vector, sqrt(Re v . Re v + Im v . Im v)."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


class _GrowingSpan:
    """Orthonormal row basis with vectorized (twice-through) projection.
    A candidate (a complex array, read flat) is projected raw and its
    residual norm compared against the drop level of its own norm
    (``level`` maps the norm to the level), so near-zero images are never
    amplified into spurious directions."""

    def __init__(self, ambient: int, level):
        self.rows = np.zeros((ambient, ambient), dtype=complex)
        self.size = 0
        self.level = level

    def add(self, vec: np.ndarray) -> bool:
        if self.size == len(self.rows):  # full: only rounding would be left
            return False
        v = vec.ravel()
        nrm = _norm(v)
        drop = self.level(nrm)
        if self.size:
            Q = self.rows[:self.size]
            for _ in range(2):
                # conj(Q) @ v without copying the basis
                v = v - Q.T @ (Q @ v.conj()).conj()
            nrm = _norm(v)
        if nrm > drop:
            self.rows[self.size] = v / nrm
            self.size += 1
            return True
        return False


def _coupled(g, label) -> list[tuple[int, int]]:
    """Sorted (i, k) with a nonzero block g[blocks[i], blocks[k]], from the
    nonzero entries of g and the block label of each index."""
    rows, cols = (label[idx].tolist() for idx in np.nonzero(g))
    return sorted(set(zip(rows, cols)))


def _grow(reach, blocks, seeds, w: int, level, cap: int):
    """One span per weight block, grown from seeds [(k, block-k matrix with
    w columns)], at most one per block, by left multiplication with the
    pieces of ``reach`` (a frame's ``reach`` or ``adjoint_reach``) for at
    most cap rounds, dropping candidates at ``level`` of their norm; no
    product is formed for a full span.  Returns (spans, converged).
    The frontier holds orthonormalized new directions, which keeps product
    norms bounded by the generator scale."""
    spans = [_GrowingSpan(len(b) * w, level) for b in blocks]
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


def _spin(frame: WeightFrame, v, adjoint: bool = False) -> np.ndarray:
    """Orthonormal columns spanning the smallest subspace with v (in the
    weight basis) invariant under the generators, or their adjoints.  It is
    the sum of its weight components, so each block where v is nonzero seeds
    its own span: I1's spread of magnitudes never multiplies a vector.
    Candidates drop at ``orbit_drop`` of their own norm, so a coupling far
    below the largest generator entry (2.4e-4 next to 4369 in R1_7 at q = 4)
    is kept; one below ``orbit_drop(1)`` counts as zero (R1_l at q = 4 from
    l = 13)."""
    seeds = [(k, v[frame.blocks[k], None])
             for k in sorted(set(frame.label[np.flatnonzero(v)].tolist()))]
    spans, _ = _grow(frame.adjoint_reach if adjoint else frame.reach, frame.blocks,
                     seeds, 1, frame.ctx.orbit_drop, len(v))
    return _block_columns(len(v), frame.blocks, [sp.rows[:sp.size].T for sp in spans])


def _block_columns(n, blocks, cols) -> np.ndarray:
    """n-row matrix with the columns of cols[k] on the rows of blocks[k]."""
    out = np.zeros((n, sum(c.shape[1] for c in cols)), complex)
    at = 0
    for b, c in zip(blocks, cols):
        out[b, at:at + c.shape[1]] = c
        at += c.shape[1]
    return out


def _to_caller(basis, S) -> np.ndarray:
    """Orthonormal columns in the caller's basis from a weight frame's S."""
    return basis if S is None else np.linalg.qr(S @ basis)[0]


def orbit_span(rep, seed: np.ndarray) -> np.ndarray:
    """Orthonormal columns of the smallest invariant subspace with the seed.
    Spins in the weight frame, so it raises SingularBasisChange when the
    first generator has no well-conditioned eigenbasis."""
    f = rep.weight_frame
    v = np.asarray(seed, dtype=complex).ravel() if f.S is None else np.linalg.solve(f.S, seed)
    return _to_caller(_spin(f, v / np.linalg.norm(v)), f.S)


def burnside_dim(rep) -> tuple[int, bool]:
    """(dimension, converged) of the algebra spanned by words in the
    generators: the sum over weight block pairs (i, j) of dim E_i A E_j, each
    grown from E_j for at most 2 n^2 rounds.  Evidence only, read by no
    verdict: its rank decisions fail from about n = 72, where rounding on deep
    frontiers passes ``algebra_drop`` (7922 for ``R1_l`` of dimension 90 at
    q = 1.3), and where a coupling is below ``algebra_drop`` of the largest
    generator entry (401 for R1_10 at q = 4, 181 for R_{+-i} of dimension 20)."""
    frame = rep.weight_frame
    drop = rep.ctx.algebra_drop(_scale(frame.caller_gens))
    total, converged = 0, True
    for j, bj in enumerate(frame.blocks):
        seed = np.eye(len(bj), dtype=complex) / np.sqrt(len(bj))
        spans, done = _grow(frame.reach, frame.blocks, [(j, seed)], len(bj),
                            lambda _: drop, 2 * rep.dim ** 2)
        total += sum(s.size for s in spans)
        converged = converged and done
    return total, converged


def is_irreducible(rep) -> tuple[bool, np.ndarray | None]:
    """Norton's spin test: (irreducible?, witness).  theta, an algebra
    element with a one-line kernel (v on the right, w on the left), is I1
    minus a simple weight (v = w = its weight vector), or else a fixed-seed
    generator combination minus a simple eigenvalue.  A proper invariant
    subspace contains v or has a quotient whose annihilator contains w, so
    the representation is irreducible iff the spin of v under the
    generators and that of w under their adjoints are both full.  Else the
    witness is orthonormal columns of the right spin if proper, or of the
    complement of the left spin.  NoSolution: no simple eigenvalue at all.
    """
    frame, ctx, n = rep.weight_frame, rep.ctx, rep.dim
    simple = [b[0] for b in frame.blocks if len(b) == 1]
    if simple:
        v = w = np.eye(n, dtype=complex)[simple[0]]
    else:
        rng = np.random.default_rng(DEFAULT_SEED)
        theta = sum(rng.standard_normal() * g for g in frame.gens)
        evals = np.linalg.eigvals(theta)
        simple = [idx[0] for _, idx in _cluster_groups(evals, ctx.separation(*np.abs(evals)))
                  if len(idx) == 1]
        if not simple:
            raise NoSolution("no simple eigenvalue to spin from")
        u, _, vh = np.linalg.svd(theta - evals[simple[0]] * np.eye(n))
        v, w = vh[-1].conj(), u[:, -1]
    witness = _spin(frame, v)
    if witness.shape[1] == n:
        left = _spin(frame, w, adjoint=True)
        if left.shape[1] == n:
            return True, None
        witness = np.linalg.qr(left, mode="complete")[0][:, left.shape[1]:]
    return False, _to_caller(witness, frame.S)


def _unknowns(pairs) -> tuple[np.ndarray, np.ndarray]:
    """(r, c) with unknown u the entry X[r_u, c_u]: the blocks X[B_c, A_c]
    of pairs[c] = (A indices, B indices) in turn, each row-major, so every
    index of B_c comes once per index of A_c, and A_c once per index of
    B_c; one repeat and two concatenations over all the blocks."""
    r = np.repeat(np.concatenate([ib for _, ib in pairs]),
                  [len(ia) for ia, ib in pairs for _ in range(len(ib))])
    c = np.concatenate([ia for ia, ib in pairs for _ in range(len(ib))])
    return r, c


def _block_solutions(ga, gb, pairs, ctx: QContext) -> list[np.ndarray]:
    """Basis of the X with X A_j = B_j X for the generators after the first,
    where X (nb x na) is zero outside the matched weight blocks: pairs[c] =
    (A indices, B indices), arrays or lists, carries the unknown block
    X[B_c, A_c].

    Unknown u is X[r_u, c_u], block by block and row-major inside a block.
    In the equation X A_t - B_t X = 0 it has coefficient A_t[c_u, j] in
    entry (r_u, j) and -B_t[i, r_u] in entry (i, c_u); one scatter over all
    unknowns fills one row per entry (t, i, j) with a nonzero coefficient,
    at a matched weight or not.  The rank cut is the separation level of the
    largest singular value (at least 1), so a near-zero generator commutes."""
    if not pairs:
        return []
    r, c = _unknowns(pairs)
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
    # a cell gets at most two terms, summed in order as complex addition would
    cell, coeff = row * len(r) + np.concatenate(unknowns), np.concatenate(coeffs)
    rows = np.zeros((len(entries), len(r)), complex)
    rows.real = np.bincount(cell, coeff.real, rows.size).reshape(rows.shape)
    rows.imag = np.bincount(cell, coeff.imag, rows.size).reshape(rows.shape)
    _, s, vh = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    thr = ctx.separation(*s[:1])  # relative to the largest singular value
    null_count = int(np.sum(s <= thr)) + (len(r) - len(s))
    basis = np.zeros((null_count, nb, na), complex)
    basis[:, r, c] = vh[len(vh) - null_count:][::-1].conj()
    return list(basis)


def _from_frames(basis, Sa, Sb) -> list[np.ndarray]:
    """Map solutions X found between weight frames back to the callers' bases:
    X -> Sb X Sa^-1, where None stands for the identity."""
    if Sa is not None:
        basis = [np.linalg.solve(Sa.T, X.T).T for X in basis]
    if Sb is not None:
        basis = [Sb @ X for X in basis]
    return basis


def commutant(rep) -> tuple[int, list[np.ndarray]]:
    """Dimension and basis of {X : X G = G X for all generators}, orthonormal
    in the weight basis (in the caller's basis too when I1 is diagonal)."""
    f = rep.weight_frame
    basis = _from_frames(_block_solutions(f.gens, f.gens, [(b, b) for b in f.blocks],
                                          rep.ctx), f.S, f.S)
    return len(basis), basis


def intertwiners(rep_a, rep_b) -> tuple[int, list[np.ndarray]]:
    """Solutions X of X A_j = B_j X for the generator lists of the two reps,
    which share a context; X maps the space of rep_a to that of rep_b.
    Unknowns sit only where a weight block of rep_a meets a block of rep_b
    with the same clustered eigenvalue."""
    ctx = rep_a.ctx
    ctx.require_same(rep_b.ctx)
    if type(rep_a) is not type(rep_b):
        raise CtxMismatch("representations of different algebras")
    fa, fb = rep_a.weight_frame, rep_b.weight_frame
    na = len(fa.vals)
    vals = np.concatenate([fa.vals, fb.vals])
    pairs = [([i for i in idx if i < na], [i - na for i in idx if i >= na])
             for _, idx in _cluster_groups(vals, ctx.separation(*np.abs(vals)))]
    pairs = [(ia, ib) for ia, ib in pairs if ia and ib]
    basis = _from_frames(_block_solutions(fa.gens, fb.gens, pairs, ctx), fa.S, fb.S)
    return len(basis), basis


def are_equivalent(rep_a, rep_b) -> bool:
    """Equivalence via an invertible intertwiner.  Representations of
    different dimension are rejected; otherwise up to four random
    combinations of the intertwiner basis are tested for invertibility, and
    one when the basis has one element, of which all are multiples."""
    n = rep_a.dim
    if n != rep_b.dim:
        return False
    dim, basis = intertwiners(rep_a, rep_b)
    if dim == 0:
        return False
    rng = np.random.default_rng(DEFAULT_SEED)
    cut = rep_a.ctx.separation()
    for _ in range(4 if dim > 1 else 1):
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
    burnside_dim: int | None = None
    is_irreducible: bool = False
    is_direct_sum: bool = False
    combined_condition: float | None = None

    @property
    def component_dims(self) -> list[int]:
        return sorted(b.shape[1] for b, _ in self.components)

    @property
    def casimir_values(self) -> list[complex]:
        """Casimir value of each component (trace C / dim, its eigenvalue
        where C is scalar), in ``component_dims`` order."""
        comps = sorted((c for _, c in self.components), key=lambda c: c.dim)
        return [complex(np.trace(casimir(c))) / c.dim for c in comps]


def invariance_defect(gens, Q) -> float:
    """Largest entry of G Q - Q Q^H G Q: zero when the orthonormal columns
    of Q span a subspace invariant under every G."""
    return max(float(np.max(np.abs(g @ Q - Q @ (Q.conj().T @ g @ Q)))) for g in gens)


def _split_along(rep, Z):
    """Orthonormal bases of the eigenvalue clusters of Z, an element of the
    commutant given in the caller's basis, or None when Z has one cluster
    or a cluster basis fails the invariance or dimension-sum check.  Z is
    block-diagonal in the weight blocks; it is eigendecomposed block by block
    and each cluster orthonormalized per block (pairs with no column skipped),
    so every basis column is a weight vector."""
    frame, ctx = rep.weight_frame, rep.ctx
    gens, S, blocks = frame.caller_gens, frame.S, frame.blocks
    n = gens[0].shape[0]
    if S is not None:
        Z = np.linalg.solve(S, Z @ S)
    eigs = [np.linalg.eig(Z[b[:, None], b]) for b in blocks]
    evals = np.concatenate([e for e, _ in eigs])
    thr = ctx.separation(*np.abs(evals))
    groups = cluster(evals, thr)
    if len(groups) <= 1:
        return None
    max_defect = ctx.invariance(_scale(gens))
    bases = []
    for val, _count in groups:
        parts = [(b, v[:, np.abs(e - val) <= thr]) for b, (e, v) in zip(blocks, eigs)]
        parts = [(b, p) for b, p in parts if p.shape[1]]
        Q = _to_caller(_block_columns(n, [b for b, _ in parts],
                                      [np.linalg.qr(p)[0] for _, p in parts]), S)
        if invariance_defect(gens, Q) > max_defect:
            return None
        bases.append(Q)
    return bases if sum(b.shape[1] for b in bases) == n else None


def _split_once(rep, rng, com):
    """One commutant-driven split: the bases of the first of up to five
    random commutant elements that splits, or None."""
    cdim, cbasis = com
    if cdim <= 1:
        return None
    for _ in range(5):  # fresh commutant elements before giving up
        bases = _split_along(rep, sum(rng.standard_normal() * X for X in cbasis))
        if bases is not None:
            return bases
    return None


def _wrap_component(rep, sub, Q):
    """sub (a piece of rep) restricted to the span of Q: Q^H G Q."""
    fam = FamilyDescriptor("component", {"of": rep.family.name})
    Qh = Q.conj().T
    gens = [Qh @ getattr(sub, name) @ Q for name in sub.GENERATORS]
    return type(rep)(rep.ctx, *gens, fam, {"parent": rep.family})


def decompose(rep) -> DecompositionReport:
    """Full direct-sum decomposition with oracle evidence.

    Splits first along the eigenvalue clusters of the Casimir (``casimir``)
    into pieces that are sums of isotypic components; the whole
    representation is the one piece when C is scalar within ``separation``
    (every irreducible and indecomposable family, and roots of unity where
    C does not separate) or its split fails a check.  Each piece is split
    along commutant eigenprojections, depth first, and only the leaves are
    spun (``is_irreducible``).  A split into as many parts as its commutant
    dimension leaves parts of commutant dimension 1 (Wedderburn), which are
    leaves with no solve.  ``commutant_dim`` sums the piece commutant
    dimensions: intertwiners commute with C, so none connects two pieces.
    An unsplit reducible input has is_direct_sum = False and the spin's
    witness as its lattice.  ``burnside_dim`` is the algebra dimension by
    Wedderburn: n^2 if irreducible, sum d_i^2 if every component is
    irreducible with one commutant dimension each, else None."""
    n = rep.dim
    rng = np.random.default_rng(DEFAULT_SEED)
    C = casimir(rep)
    scalar = np.max(np.abs(C - np.trace(C) / n * np.eye(n))) \
        <= rep.ctx.separation(np.max(np.abs(C)))
    split = None if scalar else _split_along(rep, C)
    pieces = [(np.eye(n, dtype=complex), rep)] if split is None \
        else [(Q, _wrap_component(rep, rep, Q)) for Q in split]
    work = [(Q, sub, commutant(sub)) for Q, sub in reversed(pieces)]
    cdim = sum(com[0] for _, _, com in work)
    leaves = []
    while work:  # depth first, so the draws come in a fixed order
        carrier, sub, com = work.pop()
        com = commutant(sub) if com is None else com
        bases = _split_once(sub, rng, com)
        if bases is None:
            leaves.append((carrier, sub))
            continue
        settled = (1, []) if len(bases) == com[0] else None
        work.extend((carrier @ Q, _wrap_component(rep, sub, Q), settled)
                    for Q in reversed(bases))
    if len(leaves) == 1:
        irr, witness = is_irreducible(rep)
        if irr:
            return DecompositionReport(
                components=leaves, commutant_dim=cdim, burnside_dim=n * n,
                is_irreducible=True, is_direct_sum=True, combined_condition=1.0)
        return DecompositionReport(components=[], lattice=[witness], commutant_dim=cdim)
    for _, comp in leaves:
        comp.flags["component_irreducible"] = is_irreducible(comp)[0]
    simple = cdim == len(leaves) and all(c.flags["component_irreducible"] for _, c in leaves)
    cond = float(np.linalg.cond(np.column_stack([B for B, _ in leaves])))
    return DecompositionReport(
        components=leaves, commutant_dim=cdim,
        burnside_dim=sum(c.dim ** 2 for _, c in leaves) if simple else None,
        is_direct_sum=True, combined_condition=cond)
