"""Decreasing eigenvalue lists and classical majorization predicates.

The basic object is a finite list of reals sorted in decreasing order.
``check_majorization`` implements the prefix-sum comparison between two
such lists, ``reduce_to_equality`` lowers a dominating list until the
totals agree, and ``hlp_convex_check`` is the Hardy-Littlewood-Polya
convex-function side of the same order, kept as an independent
corroboration of the prefix test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from ._tol import DECISION as DEFAULT_TOL, ROUND_OFF, WITNESS, scaled
from .errors import InvalidInput, MajorizationViolation, TraceMismatch


def _readonly_copy(arr: np.ndarray) -> np.ndarray:
    """Copy of ``arr`` that no caller can write to, for frozen value types."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def _to_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidInput("expected a nonempty 1-d sequence of reals")
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("list entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class EigenList:
    """A finite real list sorted in decreasing order, up to round-off of its largest entry."""

    values: np.ndarray

    def __post_init__(self):
        arr = _to_array(self.values)
        if arr.size > 1 and np.any(arr[:-1] < arr[1:] - scaled(ROUND_OFF, arr)):
            raise InvalidInput("list must be nonincreasing (use normalize_list to sort)")
        object.__setattr__(self, "values", _readonly_copy(arr))

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self):
        return iter(self.values)

    def total(self) -> float:
        return float(self.values.sum())

    def padded(self, n: int) -> np.ndarray:
        """Raw values zero-padded on the right to length ``n``."""
        if n < len(self):
            raise InvalidInput("cannot pad to a shorter length")
        out = np.zeros(n)
        out[: len(self)] = self.values
        return out

    def to_jsonable(self) -> dict:
        return {"values": [float(v) for v in self.values]}

    @classmethod
    def from_jsonable(cls, data) -> "EigenList":
        if not isinstance(data, dict) or "values" not in data:
            raise InvalidInput('eigenvalue list JSON must be {"values": [...]}')
        return cls(data["values"])


ListLike = Union[EigenList, Sequence[float], np.ndarray]


def as_eigenlist(values: ListLike) -> EigenList:
    """Coerce a raw sequence to :class:`EigenList`, validating order."""
    if isinstance(values, EigenList):
        return values
    return EigenList(values)


@dataclass(frozen=True, eq=False)
class MajorizationReport:
    """Outcome of a prefix-sum comparison.

    ``slack[k-1]`` is (sum of the k largest of lambda) minus (sum of the
    k largest of p); ``trace_gap`` is the difference of the totals, i.e.
    the last slack entry.  ``first_violation`` is the 1-based length of
    the first violated prefix, or None when the comparison holds.
    """

    holds: bool
    first_violation: Optional[int]
    slack: np.ndarray
    trace_gap: float

    def __post_init__(self):
        object.__setattr__(self, "slack", _readonly_copy(np.asarray(self.slack, dtype=float)))

    def to_jsonable(self) -> dict:
        return {
            "holds": bool(self.holds),
            "first_violation": self.first_violation,
            "slack": [float(s) for s in self.slack],
            "trace_gap": float(self.trace_gap),
        }


def _padded_pair(p: ListLike, lam: ListLike) -> tuple[np.ndarray, np.ndarray]:
    pe, le = as_eigenlist(p), as_eigenlist(lam)
    n = max(len(pe), len(le))
    return pe.padded(n), le.padded(n)


def normalize_list(raw: Iterable[float]) -> EigenList:
    """Sort raw values into a decreasing list; the multiset is preserved."""
    return EigenList(np.sort(np.asarray(list(raw), dtype=float))[::-1])


def check_majorization(
    p: ListLike,
    lam: ListLike,
    mode: str = "equality",
    tol: float = DEFAULT_TOL,
) -> MajorizationReport:
    """Compare prefix sums of ``p`` against those of ``lam``.

    In ``dominance`` mode the report holds when every prefix sum of p is
    at most the matching prefix sum of lam (within ``tol`` times the
    largest entry of either list); ``equality`` mode additionally requires
    the totals to agree within that slack.
    Shorter input is zero-padded, which is exact for eigenvalue lists of
    positive compact operators.
    """
    if mode not in ("equality", "dominance"):
        raise InvalidInput(f"unknown mode {mode!r}; expected 'equality' or 'dominance'")
    if not tol >= 0.0:
        raise InvalidInput("tol must be nonnegative")
    pv, lv = _padded_pair(p, lam)
    slack = np.cumsum(lv) - np.cumsum(pv)
    trace_gap = float(slack[-1])
    tol = scaled(tol, pv, lv)
    violated = np.nonzero(slack < -tol)[0]
    holds = violated.size == 0
    first_violation: Optional[int] = None
    if not holds:
        first_violation = int(violated[0]) + 1
    elif mode == "equality" and abs(trace_gap) > tol:
        holds = False
        first_violation = int(slack.size)
    return MajorizationReport(holds, first_violation, slack, trace_gap)


def reduce_to_equality(p: ListLike, lam: ListLike, tol: float = DEFAULT_TOL) -> EigenList:
    """Lower a dominating list until its total matches ``p``'s.

    Given nonnegative decreasing p and lam whose prefix sums dominate
    p's, returns a decreasing mu with 0 <= mu_k <= lam_k, prefix sums of
    mu still dominating p's, and sum(mu) = sum(p) up to round-off.

    The construction is inductive: having solved the length k-1 problem
    with an exact total, append a zero, and take the convex combination
    with lam itself whose total hits the length-k target.  Both endpoints
    satisfy all order and cap constraints, and those constraints cut out
    a convex set, so every point on the segment satisfies them too.
    """
    pv, lv = _padded_pair(p, lam)
    if np.any(pv < 0.0) or np.any(lv < 0.0):
        raise InvalidInput("reduce_to_equality requires nonnegative lists")
    if not check_majorization(pv, lv, "dominance", tol).holds:
        raise MajorizationViolation("prefix sums of p must be dominated by those of lam")
    n = pv.size
    # buf[:k] is the length-k iterate; buf[k - 1] is still the appended zero
    buf = np.zeros(n)
    buf[0] = pv[0]
    target = float(pv[0])  # Python floats: the same IEEE arithmetic as NumPy scalars
    for k, pk in enumerate(pv[1:].tolist(), start=2):
        x = buf[:k]
        y = lv[:k]
        target += pk
        fx, fy = float(x.sum()), float(y.sum())
        if fy <= fx:
            s = 0.0
        else:
            s = min(1.0, max(0.0, (target - fx) / (fy - fx)))
        x *= 1.0 - s
        x += s * y
    return EigenList(buf)


def hlp_convex_check(
    p: ListLike,
    lam: ListLike,
    family: Iterable[Callable[[float], float]],
    tol: float = DEFAULT_TOL,
) -> bool:
    """Convex-function form of the majorization order.

    Returns True when sum f(p_k) <= sum f(lam_k) + tol for every convex
    f in ``family``; that slack is absolute, since only f knows the units
    of its values.  Requires equal totals (the order is only defined
    then) within max(tol, witness level) times the largest entry;
    raises ``TraceMismatch`` otherwise.
    """
    pv, lv = _padded_pair(p, lam)
    if abs(pv.sum() - lv.sum()) > scaled(max(tol, WITNESS), pv, lv):
        raise TraceMismatch("lists must have equal totals for the convex-function test")
    family = list(family)
    if not family:
        raise InvalidInput("family of test functions must be nonempty")
    for f in family:
        fp = sum(float(f(v)) for v in pv)
        fl = sum(float(f(v)) for v in lv)
        if fp > fl + tol:
            return False
    return True


def hinge(t: float) -> Callable[[float], float]:
    """The convex generator x -> max(x - t, 0)."""
    return lambda x: max(x - t, 0.0)


def hinge_family(*lists: ListLike) -> list[Callable[[float], float]]:
    """Hinges anchored at every entry of the given lists.

    For finite lists with equal totals this family is decisive: the
    difference of the two hinge sums is piecewise linear in the anchor,
    so its sign is determined by the values at the entries themselves.
    """
    anchors: set[float] = set()
    for lst in lists:
        anchors.update(float(v) for v in as_eigenlist(lst).values)
    return [hinge(t) for t in sorted(anchors)]
