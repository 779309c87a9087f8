"""Compactly supported probability measures and the spread order on them.

A measure is stored as point masses plus uniform pieces, which keeps
every quantity needed here (moments, tail integrals, quantiles) in
closed form, so order tests are limited only by round-off and never by
quadrature error.  ``majorize_measure`` decides whether one measure is
dominated by another in the convex/spread sense; three routes to the
same verdict are provided and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .eigenlists import _readonly_copy
from .errors import InvalidInput
from .horn import MatrixLike, as_hermitian

#: probability-mass defect allowed at construction
MASS_TOL = 1e-12

#: tolerance for first-moment agreement and tail-integral comparisons
ORDER_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class CompactMeasure:
    """Probability measure = atoms + uniform pieces, compact support.

    ``atoms`` is a sequence of (location, mass) pairs and ``pieces`` a
    sequence of (a, b, mass) triples, each spreading its mass uniformly
    over [a, b].  Total mass must be 1.
    """

    atoms: tuple = ()
    pieces: tuple = ()

    def __post_init__(self):
        atoms = tuple((float(x), float(w)) for x, w in self.atoms)
        pieces = tuple((float(a), float(b), float(w)) for a, b, w in self.pieces)
        total = 0.0
        for x, w in atoms:
            if not (np.isfinite(x) and np.isfinite(w)):
                raise InvalidInput("atom data must be finite")
            if w <= 0.0:
                raise InvalidInput("atom masses must be positive")
            total += w
        for a, b, w in pieces:
            if not (np.isfinite(a) and np.isfinite(b) and np.isfinite(w)):
                raise InvalidInput("piece data must be finite")
            if not a < b:
                raise InvalidInput("piece needs a < b (use an atom for a point)")
            if w <= 0.0:
                raise InvalidInput("piece masses must be positive")
            total += w
        if not atoms and not pieces:
            raise InvalidInput("measure needs at least one atom or piece")
        if abs(total - 1.0) > MASS_TOL:
            raise InvalidInput(f"total mass {total!r} differs from 1")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", pieces)

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
        arr = np.asarray(list(values), dtype=float)
        if arr.size == 0:
            raise InvalidInput("need at least one point")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("points must be finite")
        locs, counts = np.unique(arr, return_counts=True)
        n = arr.size
        return cls(atoms=tuple((float(x), int(c) / n) for x, c in zip(locs, counts)))

    # -- basic descriptors ----------------------------------------------

    def support_bounds(self) -> tuple[float, float]:
        xs = [x for x, _ in self.atoms] + [e for a, b, _ in self.pieces for e in (a, b)]
        return min(xs), max(xs)

    def breakpoints(self) -> np.ndarray:
        """Sorted locations where the tail integrals change analytic form."""
        xs = [x for x, _ in self.atoms]
        for a, b, _ in self.pieces:
            xs.extend((a, b))
        return np.unique(np.asarray(xs, dtype=float))

    def mean(self) -> float:
        return moment(self, 1)

    def shifted(self, offset: float) -> "CompactMeasure":
        """Translate the whole measure by ``offset``."""
        return CompactMeasure(
            atoms=tuple((x + offset, w) for x, w in self.atoms),
            pieces=tuple((a + offset, b + offset, w) for a, b, w in self.pieces),
        )

    def survivor(self, s: float) -> float:
        """Mass at or above ``s``."""
        out = sum(w for x, w in self.atoms if x >= s)
        for a, b, w in self.pieces:
            out += w * min(1.0, max(0.0, (b - s) / (b - a)))
        return out

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
            atoms = tuple((d["x"], d["mass"]) for d in data.get("atoms", []))
            pieces = tuple((d["a"], d["b"], d["mass"]) for d in data.get("pieces", []))
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
        if "N" in data and int(data["N"]) != out.cells:
            raise InvalidInput("declared N does not match the number of values")
        return out


# -- moments ------------------------------------------------------------


def moment(m: CompactMeasure, k: int) -> float:
    """k-th moment, in closed form (exact power-sum integrals on pieces)."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise InvalidInput("moment order must be a nonnegative integer")
    k = int(k)
    total = sum(w * x**k for x, w in m.atoms)
    for a, b, w in m.pieces:
        total += w * (b ** (k + 1) - a ** (k + 1)) / ((k + 1) * (b - a))
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


def _hinge_tail(m: CompactMeasure, t: float) -> float:
    total = sum(w * (x - t) for x, w in m.atoms if x > t)
    for a, b, w in m.pieces:
        if t <= a:
            total += w * (0.5 * (a + b) - t)
        elif t < b:
            total += w * (b - t) ** 2 / (2.0 * (b - a))
    return float(total)


def _survivor_tail(m: CompactMeasure, t: float) -> float:
    # integrate the survivor function s -> m([s, oo)) from t upward;
    # it is affine between breakpoints, so the midpoint rule is exact
    bps = m.breakpoints()
    bps = np.concatenate(([t], bps[bps > t]))
    total = 0.0
    for u, v in zip(bps[:-1], bps[1:]):
        total += (v - u) * m.survivor(0.5 * (u + v))
    return float(total)


def tail_integral(m: CompactMeasure, t: float, mode: str = "hinge") -> float:
    """Tail integral at threshold ``t``.

    ``hinge`` integrates max(x - t, 0) against the measure; ``survivor``
    integrates the mass function m([s, oo)) over s >= t.  Integration by
    parts makes the two equal, and both are computed in closed form, so
    they agree to round-off; the pair acts as a built-in cross-check.
    """
    if not np.isfinite(t):
        raise InvalidInput("threshold must be finite")
    if mode == "hinge":
        return _hinge_tail(m, float(t))
    if mode == "survivor":
        return _survivor_tail(m, float(t))
    raise InvalidInput(f"unknown mode {mode!r}; expected 'hinge' or 'survivor'")


# -- integration of explicit test functions ------------------------------

_GL_OFFSET = 0.5 / np.sqrt(3.0)  # 2-point Gauss-Legendre nodes on a unit cell


def integrate_function(m: CompactMeasure, f: Callable[[float], float], kinks: Sequence[float] = ()) -> float:
    """Integral of ``f`` against the measure.

    Atoms are summed directly; each uniform piece is split at the given
    kink locations and handled with two-point Gauss quadrature per
    subinterval, which is exact whenever f is linear between kinks (in
    particular for every hinge max(x - t, 0) with t listed in ``kinks``).
    """
    total = sum(w * float(f(x)) for x, w in m.atoms)
    for a, b, w in m.pieces:
        cuts = sorted({a, b, *(float(t) for t in kinks if a < t < b)})
        acc = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            h = hi - lo
            mid = 0.5 * (lo + hi)
            acc += 0.5 * h * (float(f(mid - h * _GL_OFFSET)) + float(f(mid + h * _GL_OFFSET)))
        total += w * acc / (b - a)
    return float(total)


# -- the spread order -----------------------------------------------------


def _candidate_thresholds(m: CompactMeasure, n: CompactMeasure, gap: Callable[[float], float]) -> np.ndarray:
    """Thresholds sufficient to decide sup_t gap(t) <= 0.

    The gap of two tail integrals is piecewise quadratic with breaks at
    the union of both measures' breakpoints; its sup over the reals is
    attained either at a break or at an interior vertex of one of the
    quadratic segments, so those finitely many points are decisive.
    """
    bps = np.unique(np.concatenate([m.breakpoints(), n.breakpoints()]))
    cands = list(bps)
    for u, v in zip(bps[:-1], bps[1:]):
        mid = 0.5 * (u + v)
        h = 0.5 * (v - u)
        gu, gm, gv = gap(u), gap(mid), gap(v)
        curve = gu - 2.0 * gm + gv  # = 2*a2*h^2 for a quadratic segment
        if abs(curve) <= 1e-15 * max(1.0, abs(gu), abs(gv)):
            continue
        vertex = mid - h * (gv - gu) / (2.0 * curve)
        if u < vertex < v:
            cands.append(vertex)
    return np.asarray(sorted(cands))


def majorize_measure(m: CompactMeasure, n: CompactMeasure, method: str = "hinge") -> bool:
    """Is ``m`` dominated by ``n`` in the spread (convex) order?

    True when the first moments agree and every tail integral of m is at
    most that of n.  ``method`` selects the computational route:

    * ``hinge``     - closed-form hinge tails (authoritative),
    * ``survivor``  - closed-form survivor-function integration,
    * ``convex_family`` - direct integrals of explicit convex test
      functions (affine functions plus hinges at the decisive
      thresholds) via generic piecewise quadrature.

    All three routes check the same finite decisive threshold set and
    therefore return identical verdicts.
    """
    if not isinstance(m, CompactMeasure) or not isinstance(n, CompactMeasure):
        raise InvalidInput("majorize_measure expects two CompactMeasure values")
    if method not in ("hinge", "survivor", "convex_family"):
        raise InvalidInput(f"unknown method {method!r}")

    if method == "hinge":
        def gap(t: float) -> float:
            return _hinge_tail(m, t) - _hinge_tail(n, t)
        moment_gap = moment(m, 1) - moment(n, 1)
    elif method == "survivor":
        def gap(t: float) -> float:
            return _survivor_tail(m, t) - _survivor_tail(n, t)
        lo = min(m.support_bounds()[0], n.support_bounds()[0]) - 1.0
        moment_gap = (_survivor_tail(m, lo) + lo) - (_survivor_tail(n, lo) + lo)
    else:
        def gap(t: float) -> float:
            f = lambda x: max(x - t, 0.0)
            return integrate_function(m, f, kinks=(t,)) - integrate_function(n, f, kinks=(t,))
        ident = lambda x: x
        moment_gap = integrate_function(m, ident) - integrate_function(n, ident)

    if abs(moment_gap) > ORDER_TOL:
        return False
    thresholds = _candidate_thresholds(m, n, gap)
    return all(gap(t) <= ORDER_TOL for t in thresholds)


# -- quantiles and transport ----------------------------------------------


def _quantiles(m: CompactMeasure, probs: np.ndarray) -> np.ndarray:
    """Left-continuous generalized inverse CDF at sorted probabilities."""
    bps = m.breakpoints()
    atom_mass = {float(x): 0.0 for x, _ in m.atoms}
    for x, w in m.atoms:
        atom_mass[float(x)] += w
    # uniform density on each gap between consecutive breakpoints
    dens = np.zeros(bps.size - 1)
    for a, b, w in m.pieces:
        lo = np.searchsorted(bps, a)
        hi = np.searchsorted(bps, b)
        dens[lo:hi] += w / (b - a)

    out = np.empty(probs.size)
    idx = 0
    cum = 0.0
    for k, x in enumerate(bps):
        w = atom_mass.get(float(x), 0.0)
        if w > 0.0:
            new_cum = cum + w
            hi = np.searchsorted(probs, new_cum, side="right")
            out[idx:hi] = x
            idx = hi
            cum = new_cum
        if k + 1 < bps.size and dens[k] > 0.0:
            x_next = bps[k + 1]
            new_cum = cum + dens[k] * (x_next - x)
            hi = np.searchsorted(probs, new_cum, side="right")
            out[idx:hi] = x + (probs[idx:hi] - cum) / dens[k]
            idx = hi
            cum = new_cum
        if idx == probs.size:
            break
    out[idx:] = bps[-1]  # round-off stragglers at the top
    return out


def quantile_transport(m: CompactMeasure, cells: int) -> StepFunction:
    """Push Lebesgue measure on [0, 1] onto ``m``: a step function model.

    Cell k receives the quantile of m at the cell midpoint (k + 1/2)/N,
    so the result is nondecreasing and its value distribution converges
    to m as N grows; it reproduces m exactly when m is atomic with all
    masses integer multiples of 1/N.
    """
    if not isinstance(cells, (int, np.integer)) or cells < 1:
        raise InvalidInput("cell count must be a positive integer")
    probs = (np.arange(int(cells)) + 0.5) / int(cells)
    return StepFunction(_quantiles(m, probs))
