"""Representation data model, the band model and relation verifiers.

Finite representations are dense complex matrices acting on column vectors:
G|m> = sum_j c_j |m_j> puts c_j in column index(m), row index(m_j), with
basis labels in ascending order.

Every registered family is described by bands: per generator, coefficient
closures ``diag``, ``up`` and ``down`` of the integer domain coordinate n,
G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>.  A closure takes an integer
array of coordinates and returns the coefficients there as an array (or as
one number that holds at all of them), so a whole window is evaluated in
one call per part; point cases such as n == 0 are masked assignments, and
every complex product and quotient goes through ``qscalar.c_mul`` and
``qscalar.c_div``, so each coefficient has the bits of the same formula
evaluated by Python on one coordinate.  A part keeps its values on the
last window it was evaluated on (``Band``).  An so3 family is I1 and I2
alone: ``so3_i3_diagonals`` forms I3 on every window's diagonals and every
finite representation's.  The domain is one of four:
an interval, a half-line or the whole line (``BandedRep.n_min``/``n_max``,
None meaning unbounded), or a cycle n_lo..n_hi on which up at n_hi wraps to
n_lo and down at n_lo wraps to n_hi.  One evaluator, ``band_diagonals``,
turns bands into diagonals (``Diagonals``).  A finite representation takes
each generator as a dense matrix or as its diagonals and makes the other
form on its first read, once: the dense field with ``Diagonals.dense``, the
one diagonals-to-dense writer, and the diagonals view (``view``) with
``Diagonals.of``.  The sl2 and so3 constructors, the coproduct
(``Diagonals.kron``) and the localization map hand over diagonals at every
dimension, so construct, verify and dump make no dense n x n matrix on
them.  Infinite representations (``BandedRep``, labels m = offset + n) are
reached only through truncation windows, which it builds with no dense
n x n matrix: windows are verified and dumped on those diagonals.

Verification is residual-based: each defining relation is evaluated and the
max-entry norm of the defect is scaled by the max-entry norms of the terms,
or by 1 where they sum to less.  The relation formulas are written once and
run on nonzero diagonals (``Diagonals``) where every operand was handed
over as diagonals, at every dimension, and on dense matrices otherwise; the
norms are maxima over the same entries either way, so the definition of a
residual does not depend on the path.  The choice is made here alone, in
``relation_operands``, which never converts a dense matrix into diagonals:
a generator given dense may fill all of them, where a banded product costs
more than a dense one.  A finite representation's relations read its
generators in the form they were given (``given``).
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EmptyWindow
from .qscalar import (HalfInt, QContext, as_complex, c_mul, ctx_to_json, magnitude_scale,
                      q_pow)

# integer coordinates -> the coefficients there (an array, or one number for all)
CoeffFn = Callable[[np.ndarray], "np.ndarray | complex"]
HALF = HalfInt(1)  # the half-integer 1/2


@dataclass(frozen=True)
class FamilyDescriptor:
    """Registry key plus the parameter record that built a representation."""

    name: str
    params: dict = field(default_factory=dict)

    def __str__(self):
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


class _FiniteRep:
    """What is derived once from the generators of a frozen finite
    representation and kept: the finite classes are frozen, so no generator
    can be swapped under it.  Each generator is given as a dense array or
    as its ``Diagonals``, and ``given`` maps its name to that form, the one
    its relations are verified in (on diagonals where all are, at any
    dimension).  A generator given as diagonals is its view (``view``), and
    its dense field is made with ``Diagonals.dense`` on the first read and
    kept.  A dense field, given (held as a view, not a copy) or made, is
    read-only, and so are the rows of every view, given (held as a
    read-only view of the given rows) or made by ``Diagonals.of``, so every
    reader sees the same generators.  The weight frame the structure oracles
    read (``structure.WeightFrame``) is computed on first use.  A copy made
    with ``dataclasses.replace`` reads the dense fields and keeps no view."""

    GENERATORS: tuple[str, ...]

    def __post_init__(self):
        given = {name: self.__dict__.pop(name) for name in self.GENERATORS}
        for name, gen in given.items():
            if isinstance(gen, Diagonals):
                given[name] = Diagonals(gen.offsets, _read_only(gen.rows))
            else:
                given[name] = gen = _read_only(np.asarray(gen))
                object.__setattr__(self, name, gen)
        object.__setattr__(self, "given", given)
        object.__setattr__(self, "_views", {name: gen for name, gen in given.items()
                                            if isinstance(gen, Diagonals)})

    def __getattr__(self, name: str):
        # reached only for a generator given as diagonals and not yet read dense
        diags = self.__dict__.get("_views", {}).get(name)
        if diags is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        mat = diags.dense()
        mat.flags.writeable = False
        object.__setattr__(self, name, mat)
        return mat

    @property
    def dim(self) -> int:
        return self.given[self.GENERATORS[0]].shape[0]

    @functools.cached_property
    def weight_frame(self):
        from .structure import WeightFrame  # structure imports this module
        return WeightFrame(self)

    def view(self, name: str) -> "Diagonals":
        """Generator ``name`` as its diagonals: as given to the constructor
        (which may store an all-zero diagonal), else ``Diagonals.of`` of the
        dense field, made on first read and kept."""
        diags = self._views.get(name)
        if diags is None:
            diags = Diagonals.of(getattr(self, name))
            diags.rows.flags.writeable = False
            self._views[name] = diags
        return diags


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr."""
    view = arr.view()
    view.flags.writeable = False
    return view


def is_diagonal(mat: np.ndarray | Diagonals) -> bool:
    """Whether every entry of a dense matrix or ``Diagonals`` off the main
    diagonal is 0."""
    if isinstance(mat, Diagonals):
        return not any(k and row.any() for k, row in zip(mat.offsets, mat.rows))
    return np.count_nonzero(mat) == np.count_nonzero(mat.diagonal())


@dataclass(frozen=True)
class So3FiniteRep(_FiniteRep):
    ctx: QContext
    I1: np.ndarray | Diagonals
    I2: np.ndarray | Diagonals
    I3: np.ndarray | Diagonals
    family: FamilyDescriptor
    flags: dict = field(default_factory=dict)

    GENERATORS = ("I1", "I2", "I3")


@dataclass(frozen=True)
class Sl2FiniteRep(_FiniteRep):
    ctx: QContext
    K: np.ndarray | Diagonals
    Kinv: np.ndarray | Diagonals
    E: np.ndarray | Diagonals
    F: np.ndarray | Diagonals
    family: FamilyDescriptor
    flags: dict = field(default_factory=dict)

    GENERATORS = ("K", "Kinv", "E", "F")

    @functools.cached_property
    def extendability(self) -> tuple[bool, tuple | None]:
        """``uqsl2.is_extendable`` of this representation, decided on first
        read and kept, so composing and checking the map scan once."""
        from . import uqsl2  # uqsl2 imports this module
        return uqsl2.is_extendable(self)


@dataclass(frozen=True)
class Band:
    """Tridiagonal action of one generator: G|n> = up(n)|n+1> + diag(n)|n> + down(n)|n-1>.

    Each part maps an integer array of coordinates to the coefficients
    there, elementwise: the value at n depends on n alone, so any window
    or any single coordinate gives the same bits.  A part may return one
    number for all coordinates; the band's part returns a read-only complex
    array of the coordinates' shape either way.  Each part keeps its values
    on the last run of consecutive coordinates it was evaluated on and
    reads a call inside that run from them (``_window_cache``), so a
    window inside the last one (a dump after a verification) is not
    evaluated again.
    """

    diag: CoeffFn | None = None
    up: CoeffFn | None = None
    down: CoeffFn | None = None

    def __post_init__(self):
        for part in ("diag", "up", "down"):
            coeff = getattr(self, part)
            if coeff is not None:
                object.__setattr__(self, part, _window_cache(coeff))


def _window_cache(coeff: CoeffFn) -> Callable[[np.ndarray], np.ndarray]:
    """``coeff`` returning read-only complex arrays of the coordinates'
    shape, and keeping its values on the last run of consecutive
    coordinates it was evaluated on: parts that read one window of it
    (``psihom.compose``'s of K) and a later window inside it reuse them."""
    kept = [0, None]  # the run's first coordinate, the values on it

    def part(ns: np.ndarray) -> np.ndarray:
        first, values = kept
        if values is not None and ns.size:
            at = ns - first
            if at.min() >= 0 and at.max() < len(values):
                return values[at]
        out = np.asarray(coeff(ns), dtype=complex)
        if out.shape != ns.shape:
            out = np.full(ns.shape, out)
        out.flags.writeable = False
        if ns.size and ns[-1] - ns[0] == ns.size - 1 and (ns[1:] - ns[:-1] == 1).all():
            kept[:] = int(ns[0]), out
        return out
    return part


def masked(where: np.ndarray, value, other=0.0) -> np.ndarray:
    """Coefficients that are ``value`` where ``where`` holds and ``other``
    elsewhere (each a number or an array over the same coordinates): the
    point cases of a band part, such as n == 0 or the end of a cycle."""
    return np.asarray(np.where(where, value, other), dtype=complex)


@dataclass
class BandedRep:
    """Infinite-dimensional representation on basis labels m = offset + n.

    The domain is n in [n_min, n_max] with None meaning unbounded.  For so3
    flavor ``bands`` holds I1 (diagonal) and I2 only, and a window forms I3
    from them (``so3_i3_diagonals``); for sl2 flavor it holds K (diagonal),
    E (up shift), F (down shift).
    """

    ctx: QContext
    flavor: str  # "so3" | "sl2"
    offset: complex
    bands: dict[str, Band]
    family: FamilyDescriptor
    n_min: int | None = None
    n_max: int | None = None
    flags: dict = field(default_factory=dict)


def so3_i3_diagonals(ctx: QContext, I1: Diagonals, I2: Diagonals) -> Diagonals:
    """I3 = q^{1/2} I1 I2 - q^{-1/2} I2 I1 for a diagonal I1, on I2's
    offsets.  I3_ij = (q^{1/2} g_i) I2_ij - (q^{-1/2} I2_ij) g_j, for g the
    diagonal of I1 and i = (j - k) mod n on offset k, has the bits of
    Python's complex products; adding it to zero rows folds -0.0 into 0.0.
    The entry reads only g_i, g_j and I2_ij, so on a truncation window it
    is the window of the infinite operator's I3."""
    n = I2.shape[0]
    rt, g = q_pow(ctx, HALF), I1.diagonal()
    g_rows = g[(np.arange(n) - np.array(I2.offsets, dtype=int)[:, None]) % n]
    i3 = np.zeros_like(I2.rows)
    i3 += c_mul(c_mul(rt, g_rows), I2.rows) - c_mul(c_mul(1 / rt, I2.rows), g)
    return Diagonals(I2.offsets, i3)


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
    diagonals = band_diagonals(rep.bands, n_lo, n_hi)
    if rep.flavor == "so3":
        diagonals["I3"] = so3_i3_diagonals(rep.ctx, diagonals["I1"], diagonals["I2"])
    return TruncatedRep(rep.ctx, labels, ns, diagonals, interior)


# part of a band: its offset in ``Diagonals`` (column minus row of its entries)
_PART_OFFSETS = {"diag": 0, "up": -1, "down": 1}


def band_diagonals(bands: dict[str, Band], n_lo: int, n_hi: int,
                   cyclic: bool = False) -> dict[str, Diagonals]:
    """The bands on the domain coordinates n_lo..n_hi as diagonals, the one
    evaluator of ``Band`` coefficients.

    On an interval, images outside n_lo..n_hi are dropped; on a cycle, up at
    n_hi lands on n_lo (offset n - 1) and down at n_lo on n_hi (offset
    1 - n).  Each part is called once, on the array of the columns it has
    an entry in (none where it has no column), and the parts are added in
    the order diag, up, down to zero rows: -0.0 folds to 0.0, and where a
    cycle of length 1 or 2 puts two links on one entry they add up in that
    order.  Every part a band has is stored, even where it is 0.
    """
    ns = np.arange(n_lo, n_hi + 1)
    n = len(ns)
    out = {}
    for name, band in bands.items():
        runs = []  # (offset, first column, end column, values)
        for part, k in _PART_OFFSETS.items():
            coeff = getattr(band, part)
            if coeff is None:
                continue
            lo, hi = max(k, 0), n + min(k, 0)  # the columns whose image stays inside
            c0, c1 = (0, n) if cyclic else (lo, hi)  # the columns evaluated
            if c0 >= c1:
                continue
            values = coeff(ns[c0:c1])
            wrap = [(k + n, hi, n) if k < 0 else (k - n, 0, lo)] if cyclic and k else []
            runs += [(j, a, b, values[a - c0:b - c0]) for j, a, b in [(k, lo, hi), *wrap]
                     if a < b]
        offsets = sorted({run[0] for run in runs})
        rows = np.zeros((len(offsets), n), dtype=complex)
        for k, a, b, values in runs:
            rows[offsets.index(k), a:b] += values
        out[name] = Diagonals(offsets, rows)
    return out


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
    entry and are dropped, so a cyclic wrap needs no special case.  A
    product with a diagonal factor scales rows or columns and a sum of equal
    offsets adds the rows, each entry with the bits of the general loops up
    to the sign of a zero.  ``+``, ``-``, unary ``-`` and scalar ``*``
    complete the arithmetic of the relation formulas.
    """

    __slots__ = ("offsets", "rows")

    def __init__(self, offsets: list[int], rows: np.ndarray):
        self.offsets, self.rows = offsets, rows

    @classmethod
    def of(cls, mat: np.ndarray) -> "Diagonals":
        """The diagonals of a dense square matrix at the offsets of its
        nonzero entries."""
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
        """The square matrix these diagonals hold.  Entry (j - k, j) sits at
        j (n + 1) - k n of the flat matrix, so each diagonal is written
        through one strided view."""
        n = self.rows.shape[1]
        mat = np.zeros((n, n), dtype=complex)
        flat = mat.reshape(-1)
        for k, row in zip(self.offsets, self.rows):
            lo, hi = max(k, 0), n + min(k, 0)
            start = lo * (n + 1) - k * n
            flat[start:start + (hi - lo) * (n + 1):n + 1] = row[lo:hi]
        return mat

    def __matmul__(self, other: "Diagonals") -> "Diagonals":
        if self.offsets == [0] or other.offsets == [0]:
            return self._scaled(other)
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
        inside = [t for t, k in enumerate(sums) if abs(k) < n]   # consecutive
        return Diagonals([sums[t] for t in inside], rows[_run(inside)])

    def _scaled(self, other: "Diagonals") -> "Diagonals":
        """The product with a factor d whose only offset is 0: each in-range
        entry of the other factor x times d_i on the left (d * x) or d_j on
        the right (x * d), the general loop's products with no add to zero
        rows; slots outside the matrix stay 0 (the loop's 0 * d_j there is
        NaN for an infinite d_j)."""
        n = self.rows.shape[1]
        left = self.offsets == [0]
        d, x = (self.rows[0], other) if left else (other.rows[0], self)
        rows = np.zeros(x.rows.shape, dtype=complex)
        for row, k, xk in zip(rows, x.offsets, x.rows):
            lo, hi = max(k, 0), n + min(k, 0)
            row[lo:hi] = d[lo - k:hi - k] * xk[lo:hi] if left else xk[lo:hi] * d[lo:hi]
        return Diagonals(x.offsets, rows)

    def kron(self, other: "Diagonals") -> "Diagonals":
        """The Kronecker product, with index (i, i') at i m + i' for m the
        dimension of ``other``: diagonals a of self and b of other land on
        a m + b as their outer product.  No two pairs (a, b) share an entry
        (pairs that share an offset, as a cyclic wrap makes, fill different
        columns and are added), and the product is broadcast as ``np.kron``
        broadcasts it, a stride-0 factor against a contiguous row of m, so
        each entry has the bits of ``np.kron``'s one complex multiply
        (``np.multiply.outer`` takes another path on 1 x 1 inputs); an
        offset with one pair keeps its zero signs too."""
        m = other.rows.shape[1]
        parts = {}
        for a, row_a in zip(self.offsets, self.rows):
            for b, row_b in zip(other.offsets, other.rows):
                parts.setdefault(a * m + b, []).append(
                    np.multiply(row_a[:, None], row_b[None, :]).ravel())
        sums = sorted(parts)
        rows = np.empty((len(sums), self.rows.shape[1] * m), dtype=complex)
        for t, k in enumerate(sums):
            rows[t] = functools.reduce(operator.add, parts[k])
        return Diagonals(sums, rows)

    def __add__(self, other: "Diagonals") -> "Diagonals":
        if self.offsets == other.offsets:
            return Diagonals(self.offsets, self.rows + other.rows)
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

    def __truediv__(self, scalar: complex) -> "Diagonals":
        return Diagonals(self.offsets, self.rows / scalar)


def _run(positions: list[int]) -> slice | list[int]:
    """Ascending row positions as a slice where they are consecutive, which
    numpy reads and writes without a gather."""
    if positions and positions[-1] - positions[0] == len(positions) - 1:
        return slice(positions[0], positions[-1] + 1)
    return positions


def relation_operands(*mats: np.ndarray | Diagonals) -> list:
    """The matrices (dense or ``Diagonals``) as the relation formulas take
    them: as given where every one is ``Diagonals``, all dense otherwise.
    A dense matrix is never converted into diagonals."""
    dense = not all(isinstance(m, Diagonals) for m in mats)
    return [m.dense() if dense and isinstance(m, Diagonals) else m for m in mats]


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
        return ResidualReport(so3_relation_residuals(rep.ctx, *rep.given.values()))
    tr = _verify_window(rep, window)
    d = tr.diagonals
    res = so3_relation_residuals(rep.ctx, d["I1"], d["I2"], d["I3"], cols=tr.interior)
    return ResidualReport(res)


def verify_sl2(rep: Sl2FiniteRep | BandedRep, window: int = 20) -> ResidualReport:
    if isinstance(rep, Sl2FiniteRep):
        return ResidualReport(sl2_relation_residuals(rep.ctx, *rep.given.values()))
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
    rows = np.zeros((len(entry["offsets"]), n), dtype=complex)
    for row, k, diagonal in zip(rows, entry["offsets"], entry["diagonals"]):
        row[max(k, 0):n + min(k, 0)] = np.array(diagonal, dtype=float).view(complex)[:, 0]
    return Diagonals(entry["offsets"], rows).dense()


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
        fam, flags = family or rep.family, rep.flags
        mats = {k: rep.view(k) for k in rep.GENERATORS}
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
