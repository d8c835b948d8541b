"""Representation data model, the band model and relation verifiers.

Finite representations are dense complex matrices acting on column vectors:
G|m> = sum_j c_j |m_j> puts c_j in column index(m), row index(m_j), with
basis labels in ascending order.

Every registered family is described by bands: per generator, coefficient
closures ``diag``, ``up`` and ``down`` of an integer domain coordinate n,
G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>.  The domain is one of four:
an interval, a half-line or the whole line (``BandedRep.n_min``/``n_max``,
None meaning unbounded), or a cycle n_lo..n_hi on which up at n_hi wraps to
n_lo and down at n_lo wraps to n_hi.  ``materialize`` is the one place that
turns bands into dense matrices: finite constructors call it on their whole
interval or cycle, and infinite representations (``BandedRep``, labels
m = offset + n) reach it only through truncation windows.

Verification is residual-based: each defining relation is evaluated and the
max-entry norm of the defect is scaled by the max-entry norms of the terms,
or by 1 where they sum to less.
"""

from __future__ import annotations

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
    """Tridiagonal action of one generator: G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>."""

    diag: CoeffFn | None = None
    up: CoeffFn | None = None
    down: CoeffFn | None = None


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

    def label(self, n: int) -> complex:
        return as_complex(self.offset) + n

    def in_domain(self, n: int) -> bool:
        if self.n_min is not None and n < self.n_min:
            return False
        if self.n_max is not None and n > self.n_max:
            return False
        return True


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
    """Dense window of a banded representation.

    ``interior[j]`` marks columns whose relation residuals are exact: every
    index within reach (distance 2) is either inside the window or outside
    the representation's domain.
    """

    ctx: QContext
    labels: np.ndarray
    ns: np.ndarray
    matrices: dict[str, np.ndarray]
    interior: np.ndarray


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
    labels = np.array([rep.label(int(n)) for n in ns])
    interior = np.array([
        all(n_lo <= m <= n_hi or not rep.in_domain(m)
            for m in range(int(n) - 2, int(n) + 3))
        for n in ns
    ])
    return TruncatedRep(ctx=rep.ctx, labels=labels, ns=ns, interior=interior,
                        matrices=materialize(rep.bands, n_lo, n_hi))


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
        return max(self.residuals.values()) if self.residuals else 0.0

    def __str__(self):
        body = ", ".join(f"{k}={v:.3e}" for k, v in self.residuals.items())
        return f"ResidualReport({body}; max={self.max_residual:.3e})"


def _maxabs(mat: np.ndarray) -> float:
    return float(np.max(np.abs(mat))) if mat.size else 0.0


def _scaled_defect(terms: list[np.ndarray], cols: np.ndarray | None = None) -> float:
    """Max-entry norm of sum(terms), scaled by the term norms but never by
    less than 1 (``magnitude_scale``), so that a numerically zero
    representation scores its absolute rounding defect.

    ``cols`` restricts the defect to the given columns (window interiors).
    """
    defect = sum(terms)
    if cols is not None:
        defect = defect[:, cols]
    return _maxabs(defect) / magnitude_scale(sum(_maxabs(t) for t in terms))


def so3_relation_residuals(ctx: QContext, I1, I2, I3, cols=None) -> dict[str, float]:
    q = ctx.q
    nu = q + 1 / q
    rt = q_pow(ctx, HALF)
    rels = {
        "i3_consistency": [rt * I1 @ I2, -(1 / rt) * I2 @ I1, -I3],
        "cubic_1": [I1 @ I2 @ I2, -nu * I2 @ I1 @ I2, I2 @ I2 @ I1, I1],
        "cubic_2": [I2 @ I1 @ I1, -nu * I1 @ I2 @ I1, I1 @ I1 @ I2, I2],
    }
    return {name: _scaled_defect(terms, cols) for name, terms in rels.items()}


def sl2_relation_residuals(ctx: QContext, K, Kinv, E, F, cols=None) -> dict[str, float]:
    q = ctx.q
    w = q - 1 / q
    eye = np.eye(K.shape[0], dtype=complex)
    rels = {
        "k_kinv": [K @ Kinv, -eye],
        "kek": [K @ E @ Kinv, -q * E],
        "kfk": [K @ F @ Kinv, -(1 / q) * F],
        "ef_commutator": [E @ F, -F @ E, -(K @ K - Kinv @ Kinv) / w],
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
    cols = np.where(tr.interior)[0]
    res = so3_relation_residuals(rep.ctx, tr.matrices["I1"], tr.matrices["I2"],
                                 tr.matrices["I3"], cols=cols)
    return ResidualReport(res)


def verify_sl2(rep: Sl2FiniteRep | BandedRep, window: int = 20) -> ResidualReport:
    if isinstance(rep, Sl2FiniteRep):
        return ResidualReport(
            sl2_relation_residuals(rep.ctx, rep.K, rep.Kinv, rep.E, rep.F))
    tr = _verify_window(rep, window)
    cols = np.where(tr.interior)[0]
    K = tr.matrices["K"]
    dk = np.diag(K)
    Kinv = np.diag(1 / dk)
    res = sl2_relation_residuals(rep.ctx, K, Kinv, tr.matrices["E"],
                                 tr.matrices["F"], cols=cols)
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


def _matrix_diagonals(mat: np.ndarray) -> dict:
    """A square matrix as its nonzero diagonals: diagonal k (offsets ascending)
    holds mat[i, i + k] in ``np.diagonal`` order; any memory layout."""
    rows, cols = np.nonzero(mat)
    offsets = np.unique(cols - rows).tolist()
    return {"dim": mat.shape[0], "offsets": offsets,
            "diagonals": [_pairs(np.diagonal(mat, k)) for k in offsets]}


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
        fam, mats, flags = family or FamilyDescriptor("truncation"), rep.matrices, {}
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
