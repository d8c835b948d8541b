"""Representation data model, the band model and relation verifiers.

Finite representations are dense complex matrices acting on column vectors:
G|m> = sum_j c_j |m_j> puts c_j in column index(m), row index(m_j), with
basis labels in ascending order.

Every registered family is described by bands: per generator, coefficient
closures ``diag``, ``up`` and ``down`` of an integer domain coordinate n,
G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>.  The domain is one of four:
an interval, a half-line or the whole line (``BandedRep.n_min``/``n_max``,
None meaning unbounded), or a cycle n_lo..n_hi on which up at n_hi wraps to
n_lo and down at n_lo wraps to n_hi.  Finite constructors call
``materialize``, the one bands-to-dense routine, on their whole interval or
cycle.  Infinite representations (``BandedRep``, labels m = offset + n) are
reached only through truncation windows, which ``band_diagonals`` builds as
diagonals (``Diagonals``) with no dense n x n matrix: windows are verified
and dumped on those diagonals.

Verification is residual-based: each defining relation is evaluated and the
max-entry norm of the defect is scaled by the max-entry norms of the terms,
or by 1 where they sum to less.  The relation formulas are written once and
run on dense matrices below ``DIAGONAL_CROSSOVER`` (56) and on their nonzero
diagonals (``Diagonals``) from it up, where a banded product costs O(n)
instead of O(n^3); the norms are maxima over the same entries either way, so
the definition of a residual does not depend on the path.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EmptyWindow
from .qscalar import HalfInt, QContext, as_complex, ctx_to_json, magnitude_scale, q_pow

CoeffFn = Callable[[int], complex]
HALF = HalfInt(1)  # the half-integer 1/2


@dataclass(frozen=True)
class FamilyDescriptor:
    """Registry key plus the parameter record that built a representation."""

    name: str
    params: dict = field(default_factory=dict)

    def __str__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


@dataclass
class So3FiniteRep:
    ctx: QContext
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray
    family: FamilyDescriptor
    flags: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.I1.shape[0]


@dataclass
class Sl2FiniteRep:
    ctx: QContext
    K: np.ndarray
    Kinv: np.ndarray
    E: np.ndarray
    F: np.ndarray
    family: FamilyDescriptor
    flags: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.K.shape[0]


@dataclass(frozen=True)
class Band:
    """Tridiagonal action of one generator: G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>.

    The coefficients are pure functions of n, and each is memoized: a band
    derived from others (``so3_i3_band``) reuses their values, and a second
    window of a ``BandedRep`` reuses those of the first.
    """

    diag: CoeffFn | None = None
    up: CoeffFn | None = None
    down: CoeffFn | None = None

    def __post_init__(self):
        for part in ("diag", "up", "down"):
            coeff = getattr(self, part)
            if coeff is not None:
                object.__setattr__(self, part, functools.cache(coeff))


@dataclass
class BandedRep:
    """Infinite-dimensional representation on basis labels m = offset + n.

    The domain is n in [n_min, n_max] with None meaning unbounded.  For so3
    flavor ``bands`` holds I1 (diagonal), I2, and the derived I3; for sl2
    flavor it holds K (diagonal), E (up shift), F (down shift).
    """

    ctx: QContext
    flavor: str  # "so3" | "sl2"
    offset: complex
    bands: dict[str, Band]
    family: FamilyDescriptor
    n_min: int | None = None
    n_max: int | None = None
    flags: dict = field(default_factory=dict)


def so3_i3(ctx: QContext, I1: np.ndarray, I2: np.ndarray) -> np.ndarray:
    """The derived generator I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1."""
    rt = q_pow(ctx, HALF)
    return rt * I1 @ I2 - (1 / rt) * I2 @ I1


def so3_i3_band(ctx: QContext, i1: Band, i2: Band) -> Band:
    """I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1 for diagonal I1 and tridiagonal I2."""
    rt = q_pow(ctx, HALF)
    rti = 1 / rt
    g = i1.diag

    def diag(n):
        d = i2.diag(n) if i2.diag else 0
        return d * g(n) * (rt - rti)

    def up(n):
        u = i2.up(n) if i2.up else 0
        return u * (rt * g(n + 1) - rti * g(n))

    def down(n):
        d = i2.down(n) if i2.down else 0
        return d * (rt * g(n - 1) - rti * g(n))

    return Band(diag=diag if i2.diag else None, up=up if i2.up else None,
                down=down if i2.down else None)


@dataclass
class TruncatedRep:
    """Window of a banded representation, each generator as its diagonals.

    ``interior[j]`` marks columns whose relation residuals are exact: every
    index within reach (distance 2) is either inside the window or outside
    the representation's domain.
    """

    ctx: QContext
    labels: np.ndarray
    ns: np.ndarray
    diagonals: dict[str, Diagonals]
    interior: np.ndarray

    @functools.cached_property
    def matrices(self) -> dict[str, np.ndarray]:
        """The window as dense matrices, for callers outside the library."""
        return {name: diags.dense() for name, diags in self.diagonals.items()}


def truncate(rep: BandedRep, lo, hi) -> TruncatedRep:
    """Restrict to basis labels with lo <= Re(m) <= hi; outside images are dropped."""
    off = as_complex(rep.offset).real
    slack = rep.ctx.threshold()
    n_lo = int(np.ceil(as_complex(lo).real - off - slack))
    n_hi = int(np.floor(as_complex(hi).real - off + slack))
    if rep.n_min is not None:
        n_lo = max(n_lo, rep.n_min)
    if rep.n_max is not None:
        n_hi = min(n_hi, rep.n_max)
    if n_hi < n_lo:
        raise EmptyWindow(f"no basis labels in [{lo}, {hi}]")
    return truncate_n(rep, n_lo, n_hi)


def truncate_n(rep: BandedRep, n_lo: int, n_hi: int) -> TruncatedRep:
    """Truncate by domain coordinate n (inclusive)."""
    if rep.n_min is not None:
        n_lo = max(n_lo, rep.n_min)
    if rep.n_max is not None:
        n_hi = min(n_hi, rep.n_max)
    if n_hi < n_lo:
        raise EmptyWindow("empty truncation window")
    ns = np.arange(n_lo, n_hi + 1)
    labels = as_complex(rep.offset) + ns
    # a column within reach (2) of a window end is not interior when the
    # domain goes on past that end
    open_lo = rep.n_min is None or n_lo > rep.n_min
    open_hi = rep.n_max is None or n_hi < rep.n_max
    interior = ~((open_lo & (ns <= n_lo + 1)) | (open_hi & (ns >= n_hi - 1)))
    return TruncatedRep(ctx=rep.ctx, labels=labels, ns=ns, interior=interior,
                        diagonals=band_diagonals(rep.bands, n_lo, n_hi))


# part of a band: its offset in ``Diagonals`` (column minus row of its entries)
_PART_OFFSETS = {"diag": 0, "up": -1, "down": 1}


def band_diagonals(bands: dict[str, Band], n_lo: int,
                   n_hi: int) -> dict[str, Diagonals]:
    """The bands on the interval n_lo..n_hi as diagonals, images outside it
    dropped: the entries of ``materialize``, bit for bit, with no dense
    matrix.  Every part a band has is stored, even where it is 0 on the
    whole window.
    """
    ns = range(n_lo, n_hi + 1)
    n = len(ns)
    out = {}
    for name, band in bands.items():
        rows = np.zeros((3, n), dtype=complex)
        stored = []
        for part, k in _PART_OFFSETS.items():
            coeff = getattr(band, part)
            lo, hi = max(k, 0), n + min(k, 0)  # the columns whose image stays
            if coeff is not None and lo < hi:
                # added to a zero row, so -0.0 folds to 0.0 as in the dense fill
                rows[k + 1, lo:hi] += [coeff(m) for m in ns[lo:hi]]
                stored.append(k)
        stored.sort()
        out[name] = Diagonals(stored, rows[_run([k + 1 for k in stored])])
    return out


def materialize(bands: dict[str, Band], n_lo: int, n_hi: int,
                cyclic: bool = False) -> dict[str, np.ndarray]:
    """Dense matrices of the bands on the domain coordinates n_lo..n_hi.

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
                mat[rows, cols] += [coeff(n) for n in part_ns]
        mats[name] = mat
    return mats


@dataclass
class ResidualReport:
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        """The largest residual, NaN if any residual is NaN."""
        return float(np.max([0.0, *self.residuals.values()]))

    def __str__(self):
        body = ", ".join(f"{k}={v:.3e}" for k, v in self.residuals.items())
        return f"ResidualReport({body}; max={self.max_residual:.3e})"


class Diagonals:
    """A square matrix as its nonzero diagonals, aligned by column.

    Row t of ``rows`` holds the entries (j - offsets[t], j) by column j, and
    0 where that row index leaves the matrix; ``offsets`` is an ascending
    list.  The product of diagonals a and b lands on a + b, so ``@`` costs
    O(d_a d_b n) for d_a and d_b diagonals; sums with |a + b| >= n hold no
    entry and are dropped, so a cyclic wrap needs no special case.  ``+``,
    ``-``, unary ``-`` and scalar ``*`` complete the arithmetic of the
    relation formulas.
    """

    __slots__ = ("offsets", "rows")

    def __init__(self, offsets: list[int], rows: np.ndarray):
        self.offsets, self.rows = offsets, rows

    @classmethod
    def of(cls, mat: np.ndarray) -> "Diagonals":
        """The nonzero diagonals of a dense square matrix."""
        n = mat.shape[0]
        r, c = np.nonzero(mat != 0)
        offsets = sorted(set((c - r).tolist()))
        rows = np.zeros((len(offsets), n), dtype=complex)
        for row, k in zip(rows, offsets):
            row[max(k, 0):n + min(k, 0)] = np.diagonal(mat, k)
        return cls(offsets, rows)

    @property
    def shape(self) -> tuple[int, int]:
        n = self.rows.shape[1]
        return n, n

    def diagonal(self, k: int = 0) -> np.ndarray:
        """The entries (i, i + k) in ``np.diagonal`` order, 0 where k is not stored."""
        n = self.rows.shape[1]
        if k not in self.offsets:
            return np.zeros(n - abs(k), dtype=complex)
        return self.rows[self.offsets.index(k), max(k, 0):n + min(k, 0)]

    def dense(self) -> np.ndarray:
        """The square matrix these diagonals hold."""
        n = self.rows.shape[1]
        mat = np.zeros((n, n), dtype=complex)
        for k, row in zip(self.offsets, self.rows):
            cols = np.arange(max(k, 0), n + min(k, 0))
            mat[cols - k, cols] = row[cols]
        return mat

    def __matmul__(self, other: "Diagonals") -> "Diagonals":
        n = self.rows.shape[1]
        sums = sorted({a + b for a in self.offsets for b in other.offsets})
        at = {k: t for t, k in enumerate(sums)}
        rows = np.zeros((len(sums), n), dtype=complex)
        for b, row in zip(other.offsets, other.rows):
            # entry (m - a, m) of self times (m, j) of other, m = j - b, for
            # the columns j where m is inside the matrix
            lo, hi = max(b, 0), n + min(b, 0)
            rows[_run([at[a + b] for a in self.offsets]), lo:hi] += \
                self.rows[:, lo - b:hi - b] * row[lo:hi]
        inside = [t for t, k in enumerate(sums) if abs(k) < n]
        return Diagonals([sums[t] for t in inside], rows[inside])

    def __add__(self, other: "Diagonals") -> "Diagonals":
        offsets = sorted({*self.offsets, *other.offsets})
        at = {k: t for t, k in enumerate(offsets)}
        rows = np.zeros((len(offsets), self.rows.shape[1]), dtype=complex)
        rows[_run([at[k] for k in self.offsets])] += self.rows
        rows[_run([at[k] for k in other.offsets])] += other.rows
        return Diagonals(offsets, rows)

    def __sub__(self, other: "Diagonals") -> "Diagonals":
        return self + -other

    def __neg__(self) -> "Diagonals":
        return Diagonals(self.offsets, -self.rows)

    def __rmul__(self, scalar: complex) -> "Diagonals":
        return Diagonals(self.offsets, scalar * self.rows)


def _run(positions: list[int]) -> slice | list[int]:
    """Ascending row positions as a slice where they are consecutive, which
    numpy reads and writes without a gather."""
    if positions and positions[-1] - positions[0] == len(positions) - 1:
        return slice(positions[0], positions[-1] + 1)
    return positions


# Dimension from which the relations are evaluated on nonzero diagonals
# instead of with dense products: the smallest measured n at which the
# diagonals won or tied on each input below.  Median ms per call, dense /
# diagonals (numpy 2.4, OpenBLAS on 2 threads, 2-vCPU shared VM):
#     n   R1_l verify_so3  R_ab_lambda verify_so3  T_l verify_sl2  T_l verify_psi
#    24   0.18 / 0.45      0.18 / 0.67             0.19 / 0.38     0.64 / 1.05
#    48   0.52 / 0.53      0.52 / 0.72             0.58 / 0.36     1.64 / 1.78
#    52   0.58 / 0.60      0.58 / 0.84             0.63 / 0.54     2.16 / 2.09
#    56   0.63 / 0.54      0.50 / 0.50             0.59 / 0.54     2.18 / 1.83
#   100   2.15 / 0.78      2.12 / 1.06             2.32 / 0.96     7.68 / 4.06
#   200   15.9 / 1.78      16.7 / 2.22             17.9 / 2.96     40.0 / 16.8
DIAGONAL_CROSSOVER = 56


def relation_operands(*mats: np.ndarray | Diagonals) -> list:
    """The matrices (dense or ``Diagonals``) as the relation formulas take
    them: dense below ``DIAGONAL_CROSSOVER``, as ``Diagonals`` from it up."""
    if mats[0].shape[0] < DIAGONAL_CROSSOVER:
        return [m.dense() if isinstance(m, Diagonals) else m for m in mats]
    return [m if isinstance(m, Diagonals) else Diagonals.of(m) for m in mats]


def _entries(mat: np.ndarray | Diagonals) -> np.ndarray:
    """The stored entries of a matrix, indexed by column in the last axis."""
    return mat.rows if isinstance(mat, Diagonals) else mat


def _maxabs(mat: np.ndarray | Diagonals) -> float:
    entries = _entries(mat)
    return float(np.abs(entries).max()) if entries.size else 0.0


def _scaled_defect(terms: list, cols: np.ndarray | None = None) -> float:
    """Max-entry norm of the sum of the terms (dense or ``Diagonals``),
    scaled by the term norms but never by less than 1
    (``magnitude_scale``), so that a numerically zero representation scores
    its absolute rounding defect.

    ``cols`` (a column mask or index array) restricts the defect to those
    columns (window interiors).
    """
    defect = _entries(functools.reduce(operator.add, terms))
    if cols is not None:
        defect = defect[:, cols]
    return _maxabs(defect) / magnitude_scale(sum(_maxabs(t) for t in terms))


def so3_relation_residuals(ctx: QContext, I1, I2, I3, cols=None) -> dict[str, float]:
    q = ctx.q
    nu = q + 1 / q
    rt = q_pow(ctx, HALF)
    I1, I2, I3 = relation_operands(I1, I2, I3)
    I12, I21 = I1 @ I2, I2 @ I1
    rels = {
        "i3_consistency": [rt * I12, -(1 / rt) * I21, -I3],
        "cubic_1": [I12 @ I2, -nu * (I21 @ I2), I2 @ I21, I1],
        "cubic_2": [I21 @ I1, -nu * (I1 @ I21), I1 @ I12, I2],
    }
    return {name: _scaled_defect(terms, cols) for name, terms in rels.items()}


def sl2_relation_residuals(ctx: QContext, K, Kinv, E, F, cols=None) -> dict[str, float]:
    q = ctx.q
    w = q - 1 / q
    eye = Diagonals([0], np.ones((1, K.shape[0]), dtype=complex))
    K, Kinv, E, F, eye = relation_operands(K, Kinv, E, F, eye)
    rels = {
        "k_kinv": [K @ Kinv, -eye],
        "kek": [K @ E @ Kinv, -q * E],
        "kfk": [K @ F @ Kinv, -(1 / q) * F],
        "ef_commutator": [E @ F, -F @ E, -(1 / w) * (K @ K - Kinv @ Kinv)],
    }
    return {name: _scaled_defect(terms, cols) for name, terms in rels.items()}


def verify_so3(rep: So3FiniteRep | BandedRep, window: int = 20) -> ResidualReport:
    """Residuals of the cyclic q-commutation relations.

    For banded representations the relations are evaluated on a truncation
    with margin and only interior columns are scored, which makes the
    reported residuals exact for the infinite operator.
    """
    if isinstance(rep, So3FiniteRep):
        return ResidualReport(so3_relation_residuals(rep.ctx, rep.I1, rep.I2, rep.I3))
    tr = _verify_window(rep, window)
    d = tr.diagonals
    res = so3_relation_residuals(rep.ctx, d["I1"], d["I2"], d["I3"], cols=tr.interior)
    return ResidualReport(res)


def verify_sl2(rep: Sl2FiniteRep | BandedRep, window: int = 20) -> ResidualReport:
    if isinstance(rep, Sl2FiniteRep):
        return ResidualReport(
            sl2_relation_residuals(rep.ctx, rep.K, rep.Kinv, rep.E, rep.F))
    tr = _verify_window(rep, window)
    d = tr.diagonals
    Kinv = Diagonals([0], (1 / d["K"].diagonal())[None])
    res = sl2_relation_residuals(rep.ctx, d["K"], Kinv, d["E"], d["F"], cols=tr.interior)
    return ResidualReport(res)


def _verify_window(rep: BandedRep, window: int) -> TruncatedRep:
    margin = 3
    n_lo = -window - margin if rep.n_min is None else rep.n_min
    n_hi = window + margin if rep.n_max is None else rep.n_max
    if rep.n_min is not None:
        n_hi = rep.n_min + 2 * window + margin
    if rep.n_max is not None and rep.n_min is None:
        n_lo = rep.n_max - 2 * window - margin
    return truncate_n(rep, n_lo, n_hi)


def _pairs(values: np.ndarray) -> list:
    """[re, im] float pairs of a 1-d complex array, in one ``tolist()``."""
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


def _matrix_diagonals(mat: np.ndarray | Diagonals) -> dict:
    """A square matrix as its nonzero diagonals: diagonal k (offsets ascending)
    holds mat[i, i + k] in ``np.diagonal`` order.  An all-zero stored
    diagonal is left out, so the offsets are those of ``Diagonals.of``."""
    diags = mat if isinstance(mat, Diagonals) else Diagonals.of(mat)
    offsets = [k for k, row in zip(diags.offsets, diags.rows) if row.any()]
    return {"dim": diags.shape[0], "offsets": offsets,
            "diagonals": [_pairs(diags.diagonal(k)) for k in offsets]}


def matrix_from_json(entry: dict) -> np.ndarray:
    """The dense complex matrix of one dumped ``{"dim", "offsets", "diagonals"}``
    entry of ``rep_to_json``; entries off the stored diagonals are 0."""
    n = entry["dim"]
    mat = np.zeros((n, n), dtype=complex)
    for k, diagonal in zip(entry["offsets"], entry["diagonals"]):
        i = np.arange(n - abs(k))
        mat[i + max(-k, 0), i + max(k, 0)] = np.array(diagonal, dtype=float).view(complex)[:, 0]
    return mat


def _param_json(value):
    if isinstance(value, (HalfInt, FamilyDescriptor)):
        return str(value)
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (list, tuple)):
        return [_param_json(v) for v in value]
    return value


def rep_to_json(rep: So3FiniteRep | Sl2FiniteRep | TruncatedRep,
                family: FamilyDescriptor | None = None) -> dict:
    """JSON-ready dump: family, params, ctx, and each matrix as its nonzero
    diagonals (``matrix_from_json`` reads one back); a truncation adds its
    labels as [re, im] pairs."""
    if isinstance(rep, TruncatedRep):
        fam, mats, flags = family or FamilyDescriptor("truncation"), rep.diagonals, {}
    else:
        names = ("I1", "I2", "I3") if isinstance(rep, So3FiniteRep) else ("K", "Kinv", "E", "F")
        fam, mats, flags = family or rep.family, {k: getattr(rep, k) for k in names}, rep.flags
    out = {
        "family": fam.name,
        "params": {k: _param_json(v) for k, v in fam.params.items()},
        "ctx": ctx_to_json(rep.ctx),
    }
    if isinstance(rep, TruncatedRep):
        out["truncated"] = True
        out["labels"] = _pairs(rep.labels)
    out["matrices"] = {k: _matrix_diagonals(v) for k, v in mats.items()}
    if flags:
        out["flags"] = {k: _param_json(v) for k, v in flags.items()
                        if isinstance(v, (bool, int, float, str, complex, list, tuple))}
    return out
