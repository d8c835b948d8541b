"""Spectral analysis, invariant subspaces, irreducibility and equivalence.

Two independent irreducibility oracles are provided: the dimension of the
algebra generated by the representation operators (full matrix algebra iff
irreducible over C) and the dimension of the commutant (1 iff irreducible).
Decomposition splits along eigenprojections of a random commutant element,
drawn from a fixed-seed generator for reproducibility.  All operations work
on a list of generator matrices, so the same machinery serves both algebra
flavors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CtxMismatch
from .repcore import FamilyDescriptor, Sl2FiniteRep, So3FiniteRep

DEFAULT_SEED = 1234
RANK_TOL = 1e-8


def _gens(rep) -> list[np.ndarray]:
    if isinstance(rep, So3FiniteRep):
        return [rep.I1, rep.I2]
    if isinstance(rep, Sl2FiniteRep):
        return [rep.K, rep.E, rep.F]
    return list(rep)


def cluster(values, tol: float) -> list[tuple[complex, int]]:
    """Greedy tolerance clustering of complex values into (value, count)."""
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    out: list[list] = []
    for v in vals:
        for g in out:
            if abs(g[0] - v) <= tol:
                g[1] += 1
                g[0] = g[0] + (v - g[0]) / g[1]
                break
        else:
            out.append([v, 1])
    return [(g[0], g[1]) for g in out]


def i1_spectrum(rep: So3FiniteRep) -> list[tuple[complex, int]]:
    """Tolerance-clustered eigenvalue multiset of the first generator."""
    I1 = rep.I1
    off = np.max(np.abs(I1 - np.diag(np.diag(I1)))) if I1.size else 0.0
    vals = np.diag(I1) if off <= 1e-12 * max(1.0, np.max(np.abs(I1))) else \
        np.linalg.eigvals(I1)
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    return cluster(vals, 10 * rep.ctx.tol * scale)


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
                v = v - Q.T @ (Q.conj() @ v)
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
    ctx_tol = tol if tol is not None else getattr(rep, "ctx", None).tol
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

    Returns (dimension, converged).  The span grows by left multiplication
    starting from the identity; it stabilizes in at most dim^2 rounds.
    """
    gens = _gens(rep)
    n = gens[0].shape[0]
    cap = max_rounds if max_rounds is not None else 2 * n * n
    scale = max(max(np.max(np.abs(g)) for g in gens), 1.0)
    span = _GrowingSpan(n * n, 1e-10 * scale)
    eye = np.eye(n, dtype=complex)
    span.add(eye / np.sqrt(n))
    # the frontier holds the orthonormalized new directions, which keeps
    # product norms bounded by the generator scale
    frontier = [eye / np.sqrt(n)]
    rounds = 0
    while frontier and rounds < cap:
        rounds += 1
        new = []
        for mat in frontier:
            for g in gens:
                if span.add(g @ mat):
                    new.append(span.rows[span.size - 1].reshape(n, n))
        frontier = new
    return span.size, not frontier


def is_irreducible_burnside(rep) -> tuple[bool, int]:
    """(irreducible?, algebra dimension): irreducible iff the span is full."""
    gens = _gens(rep)
    n = gens[0].shape[0]
    dim, converged = burnside_dim(rep)
    return (converged and dim == n * n), dim


def _nullspace(blocks: list[np.ndarray], width: int, rank_tol: float):
    """Nullspace of the stacked operator; threshold floored at rank_tol
    so that near-zero generator matrices count as commuting with everything."""
    A = np.vstack(blocks)
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    thr = rank_tol * max(float(s[0]) if len(s) else 0.0, 1.0)
    null_count = int(np.sum(s <= thr)) + (width - len(s))
    return null_count, vh


def commutant(rep, rank_tol: float = RANK_TOL) -> tuple[int, list[np.ndarray]]:
    """Dimension and orthonormal basis of {X : X G = G X for all generators}."""
    gens = _gens(rep)
    n = gens[0].shape[0]
    eye = np.eye(n)
    blocks = [np.kron(eye, g.T) - np.kron(g, eye) for g in gens]
    null_count, vh = _nullspace(blocks, n * n, rank_tol)
    basis = [vh[-(i + 1)].conj().reshape(n, n) for i in range(null_count)]
    return null_count, basis


def intertwiners(rep_a, rep_b, rank_tol: float = RANK_TOL) -> tuple[int, list[np.ndarray]]:
    """Solutions X of X A_j = B_j X for the generator lists of the two reps.

    The representations must share a context; X maps the space of rep_a to
    that of rep_b.
    """
    ctx_a, ctx_b = getattr(rep_a, "ctx", None), getattr(rep_b, "ctx", None)
    if ctx_a is not None and ctx_b is not None and abs(ctx_a.s - ctx_b.s) > 1e-12:
        raise CtxMismatch("representations live over different contexts")
    ga, gb = _gens(rep_a), _gens(rep_b)
    if len(ga) != len(gb):
        raise CtxMismatch("generator lists have different shapes")
    na, nb = ga[0].shape[0], gb[0].shape[0]
    blocks = [np.kron(np.eye(nb), A.T) - np.kron(B, np.eye(na))
              for A, B in zip(ga, gb)]
    null_count, vh = _nullspace(blocks, na * nb, rank_tol)
    basis = [vh[-(i + 1)].conj().reshape(nb, na) for i in range(null_count)]
    return null_count, basis


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

    def matches(self, other: "Fingerprint", tol: float = 1e-6) -> bool:
        if self.dim != other.dim:
            return False
        scale = max([1.0] + [abs(v) for v, _ in self.spectrum]
                    + [abs(self.trace_i2), abs(self.trace_i3)])
        thr = tol * scale
        if abs(self.trace_i2 - other.trace_i2) > thr or \
                abs(self.trace_i3 - other.trace_i3) > thr:
            return False
        return _multiset_close(self.spectrum, other.spectrum, thr)


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


def _split_once(gens, tol, rng, retries=5, com=None):
    """One commutant-driven split: returns list of orthonormal bases or None."""
    cdim, cbasis = com if com is not None else commutant(gens)
    if cdim <= 1:
        return None
    n = gens[0].shape[0]
    scale = max(max(np.max(np.abs(g)) for g in gens), 1.0)
    for _ in range(retries):
        Z = sum(rng.standard_normal() * X for X in cbasis)
        evals, evecs = np.linalg.eig(Z)
        thr = 10 * tol * max(1.0, float(np.max(np.abs(evals))))
        groups = cluster(evals, thr)
        if len(groups) <= 1:
            continue
        bases = []
        ok = True
        for val, _count in groups:
            cols = [i for i, e in enumerate(evals) if abs(e - val) <= thr]
            Q, _ = np.linalg.qr(evecs[:, cols])
            if _invariance_defect(gens, Q) > 1e4 * tol * scale:
                ok = False
                break
            bases.append(Q)
        if ok and len(bases) >= 2 and sum(b.shape[1] for b in bases) == n:
            return bases
    return None


def _wrap_component(rep, basis, gens_r):
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
    ctx = getattr(rep, "ctx", None)
    tol = ctx.tol if ctx is not None else 1e-9
    rng = np.random.default_rng(seed)
    top_com = commutant(rep)
    cdim = top_com[0]
    irr, bdim = is_irreducible_burnside(rep)

    def recurse(sub_gens, carrier, com=None):
        bases = _split_once(sub_gens, tol, rng, com=com)
        if bases is None:
            return [(carrier, sub_gens)]
        out = []
        for Q in bases:
            out.extend(recurse(_restrict_mats(sub_gens, Q), carrier @ Q))
        return out

    pieces = recurse(gens, np.eye(n, dtype=complex), com=top_com)
    if len(pieces) == 1:
        if irr:
            return DecompositionReport(
                components=[(np.eye(n, dtype=complex), rep)],
                commutant_dim=cdim, burnside_dim=bdim,
                is_irreducible=True, is_direct_sum=True, combined_condition=1.0)
        # reducible but not split: collect the invariant lattice from seeds
        lattice = _invariant_lattice(rep, gens, tol)
        return DecompositionReport(
            components=[], lattice=lattice, commutant_dim=cdim,
            burnside_dim=bdim, is_irreducible=False, is_direct_sum=False)
    components = []
    for B, sub in pieces:
        comp = _wrap_component(rep, B, sub)
        comp_irr, _ = is_irreducible_burnside(sub)
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
    thr = 10 * tol * max(1.0, float(np.max(np.abs(evals))))
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
