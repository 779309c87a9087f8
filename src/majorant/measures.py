"""Compactly supported probability measures and the spread order on them.

A measure is point masses plus uniform pieces, which keeps every
quantity needed here (moments, tail integrals, quantiles) in closed
form, so order tests are limited only by round-off, never by quadrature
error.  It is stored once, as the float columns of its atoms and pieces,
and its ``atoms`` and ``pieces`` tuples are read from them.  From the
columns it builds its breakpoint grid (the distinct atom locations and
piece ends, the atom mass at each, the density and mass of each gap),
which survivor, tails, support and quantiles read, and the suffix sums
of the closed-form tails.  ``majorize_measure`` decides the spread order
by three routes that must agree: two read closed-form tails from the
grid; ``convex_family`` integrates the hinges against the columns by
two-point Gauss quadrature, so it shares no formula with them.  A
decision only locates its thresholds in these tables; it rebuilds no
table and parses no tuple.  It avoids NumPy's Python-level wrappers
(``np.sort``, ``np.searchsorted``, ``np.all``, ``np.append``,
``np.clip``) for the array methods and ufuncs that give the same bits:
on arrays of a hundred entries a wrapper's dispatch costs as much as
the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Sequence

import numpy as np

from ._tol import DECISION, ROUND_OFF
from .eigenlists import _evaluate, _is_integer, _readonly_copy
from .errors import InvalidInput
from .horn import MatrixLike, as_hermitian


def _suffix(v: np.ndarray) -> np.ndarray:
    """Sums of ``v`` from each index to the end, then 0 for past the end."""
    return np.append(np.cumsum(v[::-1])[::-1], 0.0)


class _Rows:
    """``atoms`` or ``pieces``: the rows of the named columns, built on first access and
    kept on the instance; a non-data descriptor, so they can be replaced there."""

    def __init__(self, *columns: str):
        self.columns = columns

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return ()  # the field's default
        rows = tuple(zip(*(getattr(obj, c)[:, 0].tolist() for c in self.columns)))
        object.__setattr__(obj, self.name, rows)
        return rows


def _columns(rows, width: int, what: str) -> np.ndarray:
    """``rows`` as a fresh (k, width) float array of finite data with positive masses last."""
    try:
        arr = np.array(rows, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"each {what} must be {width} numbers: {exc}") from exc
    if arr.shape != (0,) and (arr.ndim != 2 or arr.shape[1] != width):
        raise InvalidInput(f"each {what} must be {width} numbers, not an array of shape {arr.shape}")
    arr = arr.reshape(-1, width)
    if not np.isfinite(arr).all():
        raise InvalidInput(f"{what} data must be finite")
    if not (arr[:, -1] > 0.0).all():
        raise InvalidInput(f"{what} masses must be positive")
    return arr


@dataclass(frozen=True, eq=False)
class CompactMeasure:
    """Probability measure = atoms + uniform pieces, compact support.

    ``atoms``: (location, mass) pairs; ``pieces``: (a, b, mass) triples,
    each spreading its mass uniformly over [a, b]; either also as a (k, 2)
    or (k, 3) array.  Total mass must be 1.  They are kept only as the k x 1
    columns ``_atom_x``, ``_atom_w``, ``_piece_a``, ``_piece_b``, ``_piece_w``
    (read back as tuples); the grid and tail tables are built from these.
    """

    atoms: tuple = _Rows("_atom_x", "_atom_w")
    pieces: tuple = _Rows("_piece_a", "_piece_b", "_piece_w")

    def __post_init__(self):
        atoms, pieces = _columns(self.atoms, 2, "atom"), _columns(self.pieces, 3, "piece")
        object.__delattr__(self, "atoms")  # the columns replace the rows, which are read back from them
        object.__delattr__(self, "pieces")
        if not (pieces[:, 0] < pieces[:, 1]).all():
            raise InvalidInput("piece needs a < b (use an atom for a point)")
        if not atoms.size and not pieces.size:
            raise InvalidInput("measure needs at least one atom or piece")
        (atom_x, atom_w), (piece_a, piece_b, piece_w) = atoms.T, pieces.T
        # correctly rounded, so the error does not grow with the number of masses
        total = math.fsum(np.concatenate([atom_w, piece_w]).tolist())
        if abs(total - 1.0) > ROUND_OFF:
            raise InvalidInput(f"total mass {total!r} differs from 1")

        # the breakpoint grid x_0 < ... < x_K with the atom mass at each;
        # gap j is (x_{j-1}, x_j), gaps 0 and K + 1 are the empty ones below
        # and above the support, and _above[j] is the mass at or above x_j
        x, where = np.unique(np.concatenate([atom_x, piece_a, piece_b]), return_inverse=True)
        atom = np.bincount(where[: atom_x.size], atom_w, x.size)
        dens = np.zeros(x.size + 1)
        for lo, hi, d in zip(*where[atom_x.size :].reshape(2, -1), piece_w / (piece_b - piece_a)):
            dens[lo + 1 : hi + 1] += d
        cell = np.zeros_like(dens)
        cell[1:-1] = dens[1:-1] * (x[1:] - x[:-1])
        above = _suffix(atom + cell[1:])

        # the tail tables: suffix sums of w (x - centre) over the atoms and
        # whole gaps above each x_j, about a centre of the support so that a
        # measure far from 0 loses no more digits than its width costs; suffix
        # sums of the survivor's integral over each gap, which is affine there,
        # so width times the survivor at the midpoint is exact; and the atom
        # and piece columns, against a row of thresholds
        centre = 0.5 * (x[0] + x[-1])
        mids = 0.5 * (x[:-1] + x[1:])
        first = _suffix(atom * (x - centre) + np.append(cell[1:-1] * (mids - centre), 0.0))
        whole = _suffix(np.append(np.diff(x) * (above[1:-1] + 0.5 * cell[1:-1]), 0.0))
        object.__setattr__(self, "_centre", centre)
        tables = {
            "_x": x, "_atom": atom, "_dens": dens, "_cell": cell, "_above": above,
            "_first": first, "_whole": whole,
            "_atom_x": atom_x[:, None], "_atom_w": atom_w[:, None],
            "_piece_a": piece_a[:, None], "_piece_b": piece_b[:, None], "_piece_w": piece_w[:, None],
        }
        for name, arr in tables.items():
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # -- constructors ---------------------------------------------------

    @classmethod
    def point(cls, x: float) -> "CompactMeasure":
        return cls(atoms=((x, 1.0),))

    @classmethod
    def uniform(cls, a: float, b: float) -> "CompactMeasure":
        return cls(pieces=((a, b, 1.0),))

    @classmethod
    def from_points(cls, values: Iterable[float]) -> "CompactMeasure":
        """Equal-weight empirical measure of a finite list, ties merged."""
        arr = np.asarray(values if isinstance(values, np.ndarray) else list(values), dtype=float)
        if arr.size == 0:
            raise InvalidInput("need at least one point")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("points must be finite")
        locs, counts = np.unique(arr, return_counts=True)
        return cls(atoms=np.stack([locs, counts / arr.size], axis=1))

    # -- basic descriptors ----------------------------------------------

    def support_bounds(self) -> tuple[float, float]:
        return float(self._x[0]), float(self._x[-1])

    def breakpoints(self) -> np.ndarray:
        """Sorted locations where the tail integrals change analytic form."""
        return self._x

    def mean(self) -> float:
        return moment(self, 1)

    def shifted(self, offset: float) -> "CompactMeasure":
        """Translate the whole measure by ``offset``."""
        return CompactMeasure(
            atoms=np.hstack([self._atom_x + offset, self._atom_w]),
            pieces=np.hstack([self._piece_a + offset, self._piece_b + offset, self._piece_w]),
        )

    def survivor(self, s: float) -> float:
        """Mass at or above ``s``."""
        s = float(s)
        if not math.isfinite(s):
            raise InvalidInput("threshold must be finite")
        j, h, dens = _locate(self, s)
        return float(self._above[j] + dens * h)

    # -- serialization ---------------------------------------------------

    def to_jsonable(self) -> dict:
        return {
            "atoms": [{"x": x, "mass": w} for x, w in self.atoms],
            "pieces": [{"a": a, "b": b, "mass": w} for a, b, w in self.pieces],
        }

    @classmethod
    def from_jsonable(cls, data) -> "CompactMeasure":
        if not isinstance(data, dict) or not ("atoms" in data or "pieces" in data):
            raise InvalidInput('measure JSON must be an object with an "atoms" or a "pieces" list')
        try:
            atoms = list(map(itemgetter("x", "mass"), data.get("atoms", [])))
            pieces = list(map(itemgetter("a", "b", "mass"), data.get("pieces", [])))
        except (TypeError, KeyError) as exc:
            raise InvalidInput(f"malformed measure JSON: {exc}") from exc
        return cls(atoms=atoms, pieces=pieces)


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Real step function on [0, 1] with N equal cells.

    Cell k (0-based) covers [k/N, (k+1)/N) and carries values[k].  This
    is the desk model of a bounded measurable function on the unit
    interval: only the value multiset and cell masses matter.
    """

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise InvalidInput("step function needs at least one cell")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("step function values must be finite")
        object.__setattr__(self, "values", _readonly_copy(arr))

    @property
    def cells(self) -> int:
        return int(self.values.size)

    def to_jsonable(self) -> dict:
        return {"N": self.cells, "values": [float(v) for v in self.values]}

    @classmethod
    def from_jsonable(cls, data) -> "StepFunction":
        if not isinstance(data, dict) or "values" not in data:
            raise InvalidInput('step function JSON must be {"N": n, "values": [...]}')
        out = cls(np.asarray(data["values"], dtype=float))
        n = data.get("N", out.cells)
        if type(n) is not int:  # a JSON integer; bool is a subclass of int
            raise InvalidInput("declared N must be an integer")
        if n != out.cells:
            raise InvalidInput("declared N does not match the number of values")
        return out


# -- moments ------------------------------------------------------------


def moment(m: CompactMeasure, k: int) -> float:
    """k-th moment, in closed form (exact power-sum integrals on pieces)."""
    if not _is_integer(k) or k < 0:
        raise InvalidInput("moment order must be a nonnegative integer")
    k = int(k)
    try:
        total = sum(w * x**k for x, w in m.atoms)
        for a, b, w in m.pieces:
            # (b^(k+1) - a^(k+1)) / ((k+1)(b-a)) without the cancellation on a narrow piece
            total += w * sum(a**j * b ** (k - j) for j in range(k + 1)) / (k + 1)
    except OverflowError:  # a float power out of range; a sum reaches inf without raising
        total = math.inf
    if not math.isfinite(total):
        raise InvalidInput(f"moment of order {k} overflows float64")
    return float(total)


def from_matrix(matrix: MatrixLike) -> CompactMeasure:
    """Spectral distribution of a self-adjoint matrix.

    Mass 1/n at each eigenvalue, repeated eigenvalues merged, so that
    the k-th moment of the result equals the normalized trace of A^k.
    """
    A = as_hermitian(matrix)
    return CompactMeasure.from_points(np.linalg.eigvalsh(A.entries))


def from_step_function(f: StepFunction) -> CompactMeasure:
    """Value distribution of a step function on [0, 1]."""
    return CompactMeasure.from_points(f.values)


# -- tail integrals -----------------------------------------------------


def _locate(m: CompactMeasure, t):
    """j with x_{j-1} < t <= x_j (K + 1 above the support), h = x_j - t
    (0 above the support) and the density on gap j, for each threshold t;
    the survivor at t is ``m._above[j] + dens * h``."""
    j = m._x.searchsorted(t)
    h = np.maximum(m._x.take(j, mode="clip") - t, 0.0)
    return j, h, m._dens[j]


def _hinge_tail(m: CompactMeasure, t):
    # atoms and whole gaps above t from the first-moment suffix, then t's own gap
    j, h, dens = _locate(m, t)
    return m._first[j] - (t - m._centre) * m._above[j] + 0.5 * dens * h * h


def _survivor_tail(m: CompactMeasure, t):
    # whole gaps above t from the survivor suffix, then t's own gap
    j, h, dens = _locate(m, t)
    return m._whole[j] + h * (m._above[j] + 0.5 * dens * h)


def tail_integral(m: CompactMeasure, t: float, mode: str = "hinge") -> float:
    """Tail integral at threshold ``t``.

    ``hinge`` integrates max(x - t, 0) against the measure; ``survivor``
    integrates the mass function m([s, oo)) over s >= t.  Integration by
    parts makes the two equal.  Both are read in closed form from the
    measure's breakpoint grid by different formulas (suffix sums of first
    moments for ``hinge``, gap widths times midpoint survivors for
    ``survivor``), so they agree to round-off and cross-check each other.
    """
    if not np.isfinite(t):
        raise InvalidInput("threshold must be finite")
    if mode == "hinge":
        return float(_hinge_tail(m, float(t)))
    if mode == "survivor":
        return float(_survivor_tail(m, float(t)))
    raise InvalidInput(f"unknown mode {mode!r}; expected 'hinge' or 'survivor'")


# -- integration of explicit test functions ------------------------------

_GL_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre nodes on a unit cell

#: atom and piece rows times thresholds per block of the ``convex_family`` route
BLOCK_ENTRIES = 1 << 16


def integrate_function(m: CompactMeasure, f: Callable[[float], float], kinks: Sequence[float] = ()) -> float:
    """Integral of ``f`` against the measure.

    Atoms are summed directly; each uniform piece is split at the given
    kink locations and handled with two-point Gauss quadrature per
    subinterval, which is exact whenever f is linear between kinks (in
    particular for every hinge max(x - t, 0) with t listed in ``kinks``).
    A test function that fails or is not finite at a point raises
    ``InvalidInput``.  Sums run left to right, in the order of the rows.
    """
    total = sum((m._atom_w[:, 0] * _evaluate(f, m._atom_x[:, 0].tolist())).tolist())
    for a, b, w in m.pieces:
        cuts = sorted({a, b, *(float(t) for t in kinks if a < t < b)})
        cells = [(hi - lo, 0.5 * (lo + hi)) for lo, hi in zip(cuts[:-1], cuts[1:])]
        nodes = [x for h, mid in cells for x in (mid - h * _GL_OFFSET, mid + h * _GL_OFFSET)]
        acc = 0.0
        for (h, _), (left, right) in zip(cells, _evaluate(f, nodes).reshape(-1, 2).tolist()):
            acc += 0.5 * h * (left + right)
        total += w * acc / (b - a)
    return float(total)


def _quadrature_tail(m: CompactMeasure, t: np.ndarray) -> np.ndarray:
    """``integrate_function``'s rule for the hinges max(x - t, 0), kink at t,
    at every threshold of the array ``t``.

    Rows are the atoms, then the pieces, in the measure's own order; each
    piece is split at t clamped into [a, b] (a part of zero width gives
    exactly 0) and each part gets the two Gauss nodes.  Summing the rows
    down the first axis adds them in the order ``integrate_function`` does.
    Only the row blocks the measure has are built.  The thresholds are
    split into column blocks of two columns or more, each under twice
    BLOCK_ENTRIES entries or at most three columns wide, so memory is
    bounded; time stays rows times thresholds.  NumPy sums one column
    pairwise but wider blocks row by row, so no tail depends on the budget.
    """
    blocks = min(t.size // 2, t.size * (m._atom_x.size + m._piece_a.size) // BLOCK_ENTRIES)
    if blocks > 1:
        return np.concatenate([_quadrature_tail(m, part) for part in np.array_split(t, blocks)])

    def gauss(lo, hi):
        h = hi - lo
        mid = 0.5 * (lo + hi)
        nodes = np.maximum(mid - h * _GL_OFFSET - t, 0.0) + np.maximum(mid + h * _GL_OFFSET - t, 0.0)
        return 0.5 * h * nodes

    rows = []
    if m._atom_x.size:
        rows.append(m._atom_w * np.maximum(m._atom_x - t, 0.0))
    if m._piece_a.size:
        a, b = m._piece_a, m._piece_b
        cut = np.minimum(np.maximum(t, a), b)
        rows.append(m._piece_w * (gauss(a, cut) + gauss(cut, b)) / (b - a))
    return (rows[0] if len(rows) == 1 else np.concatenate(rows)).sum(axis=0)


# -- the spread order -----------------------------------------------------


def _decisive_thresholds(m: CompactMeasure, n: CompactMeasure) -> np.ndarray:
    """Thresholds sufficient to decide sup_t gap(t) <= 0.

    A tail integral has derivative minus the survivor, so the gap of two
    tails is piecewise quadratic with breaks at the union breakpoints and,
    inside a union segment, slope minus the survivor difference, which is
    affine there.  Its sup is attained at a break or where that difference
    crosses zero; the first break is at or below both supports, where each
    tail is the mean minus the threshold.  A pair with no piece has no
    density, so its gap is piecewise linear and is decided on the union grid.
    """
    x = np.concatenate([m._x, n._x])
    x.sort()
    x = x[np.concatenate(([True], x[1:] != x[:-1]))]
    if not (m._piece_a.size or n._piece_a.size):
        return x
    mids = 0.5 * (x[:-1] + x[1:])
    (jm, hm, dm), (jn, hn, dn) = _locate(m, mids), _locate(n, mids)
    diff = m._above[jm] + dm * hm - n._above[jn] - dn * hn
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = mids + diff / (dm - dn)
    thresholds = np.concatenate([x, vertex[(x[:-1] < vertex) & (vertex < x[1:])]])
    thresholds.sort()
    return thresholds


_ROUTES = {"hinge": _hinge_tail, "survivor": _survivor_tail, "convex_family": _quadrature_tail}


def majorize_measure(m: CompactMeasure, n: CompactMeasure, method: str = "hinge") -> bool:
    """Is ``m`` dominated by ``n`` in the spread (convex) order?

    True when the first moments agree and every tail integral of m is at
    most that of n.  ``method`` selects the computational route:

    * ``hinge``     - closed-form hinge tails (authoritative),
    * ``survivor``  - closed-form survivor-function integration,
    * ``convex_family`` - direct integrals of explicit convex test
      functions (hinges at the decisive thresholds, the lowest of which
      is affine on both supports) by ``integrate_function``'s piecewise
      Gauss rule, batched over all thresholds; exact for hinges, and
      independent of the two closed forms.

    All three routes check one shared decisive threshold set and therefore
    return identical verdicts; the gap at the lowest is the moment gap.  A
    pair with no piece, such as any two measures from matrices, lists or step
    functions, is decided on its union grid, where its tails have their kinks.
    Gaps are compared at the decision level times the largest magnitude of
    an end of either support, so the verdict does not depend on units.
    """
    if not isinstance(m, CompactMeasure) or not isinstance(n, CompactMeasure):
        raise InvalidInput("majorize_measure expects two CompactMeasure values")
    if not isinstance(method, str) or method not in _ROUTES:
        raise InvalidInput(f"unknown method {method!r}")

    tail = _ROUTES[method]
    thresholds = _decisive_thresholds(m, n)
    # sorted, so the largest magnitude is at one of its ends, those of the supports
    tol = DECISION * max(abs(thresholds[0]), abs(thresholds[-1]))
    gaps = tail(m, thresholds) - tail(n, thresholds)
    return bool(abs(gaps[0]) <= tol and (gaps <= tol).all())


# -- quantiles and transport ----------------------------------------------


def _quantiles(m: CompactMeasure, probs: np.ndarray) -> np.ndarray:
    """Left-continuous generalized inverse CDF at the given probabilities."""
    # masses in grid order: atom at x_0, gap (x_0, x_1), atom at x_1, ...
    mass = np.empty(2 * m._x.size - 1)
    mass[0::2], mass[1::2] = m._atom, m._cell[1:-1]
    cum = np.cumsum(mass)
    cum[-1] = np.inf  # the top atom also takes round-off stragglers
    # p falls in the first entry whose cumulative mass reaches p
    k, in_gap = np.divmod(np.searchsorted(cum, probs), 2)
    gap = in_gap == 1
    out = m._x[k]
    out[gap] += (probs[gap] - cum[2 * k[gap]]) / m._dens[k[gap] + 1]
    return out


def quantile_transport(m: CompactMeasure, cells: int) -> StepFunction:
    """Push Lebesgue measure on [0, 1] onto ``m``: a step function model.

    Cell k receives the quantile of m at the cell midpoint (k + 1/2)/N,
    so the result is nondecreasing and its value distribution converges
    to m as N grows; it reproduces m exactly when m is atomic with all
    masses integer multiples of 1/N.
    """
    if not _is_integer(cells) or cells < 1:
        raise InvalidInput("cell count must be a positive integer")
    probs = (np.arange(int(cells)) + 0.5) / int(cells)
    return StepFunction(_quantiles(m, probs))
