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


def _is_integer(v) -> bool:
    """A Python or NumPy integer, and not a bool (which ``int`` would admit as 0 or 1)."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _require_finite(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise InvalidInput("test function is not finite at every point")
    return vals


def _evaluate(f: Callable[[float], float], points: Iterable[float]) -> np.ndarray:
    """``f`` at each point, in order; a non-finite value or a failing ``f`` is ``InvalidInput``."""
    try:
        return _require_finite(np.array([float(f(x)) for x in points], dtype=float))
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInput(f"test function is not defined at every point: {exc}") from exc


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


def _nonnegative(values: np.ndarray, what: str) -> None:
    """Reject an entry below 0 by more than round-off of the list's largest entry."""
    if np.min(values, initial=0.0) < -scaled(ROUND_OFF, values):
        raise InvalidInput(f"{what} must be nonnegative")


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
    positive compact operators.  Raises ``InvalidInput`` when a prefix
    sum, or a slack between two of them, overflows float64.
    """
    if mode not in ("equality", "dominance"):
        raise InvalidInput(f"unknown mode {mode!r}; expected 'equality' or 'dominance'")
    if not 0.0 <= tol < np.inf:
        raise InvalidInput("tol must be finite and nonnegative")
    pv, lv = _padded_pair(p, lam)
    with np.errstate(over="ignore", invalid="ignore"):
        slack = np.cumsum(lv) - np.cumsum(pv)
    # an overflowed prefix sum stays infinite (or nan after the difference),
    # and a difference of two finite prefix sums may overflow too
    if not np.isfinite(slack).all():
        raise InvalidInput("prefix sums overflow float64")
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
    mu still dominating p's, and sum(mu) = sum(p) up to round-off.  An
    entry may be below 0 by round-off of its list's largest entry, as in
    ``feasible_diagonal``; it is taken as 0.

    The construction is inductive: having solved the length k-1 problem
    with an exact total, append a zero, and take the convex combination
    with lam itself whose total hits the length-k target.  Both endpoints
    satisfy all order and cap constraints, and those constraints cut out
    a convex set, so every point on the segment satisfies them too.

    The steps are unrolled in closed form, O(r).  With T and Y the prefix
    sums of p and lam, step k >= 2 mixes in lam with weight
    s_k = p_k / (Y_k - T_{k-1}), clipped to [0, 1], and s_k = 0 when that
    gap is not positive; s_1 = 0.  Step k's share survives every later
    step as later_k = prod_{m > k} (1 - s_m), so
    mu_i = lam_i * sum_{k >= i} s_k later_k, plus p_1 later_1 on mu_1.
    The gap is p_k plus the k-th slack of the dominance check.
    """
    pv, lv = _padded_pair(p, lam)
    _nonnegative(pv, "p")
    _nonnegative(lv, "lam")
    pv, lv = np.maximum(pv, 0.0), np.maximum(lv, 0.0)
    report = check_majorization(pv, lv, "dominance", tol)
    if not report.holds:
        raise MajorizationViolation("prefix sums of p must be dominated by those of lam")
    gap = pv + report.slack
    s = np.minimum(np.divide(pv, gap, out=np.zeros_like(pv), where=gap > 0.0), 1.0)
    s[0] = 0.0
    later = np.append(np.cumprod(1.0 - s[:0:-1])[::-1], 1.0)
    mu = lv * np.cumsum((s * later)[::-1])[::-1]
    mu[0] += pv[0] * later[0]
    return EigenList(mu)


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
    raises ``TraceMismatch`` otherwise.  A test function that fails or
    is not finite at an entry raises ``InvalidInput``.
    """
    if not 0.0 <= tol < np.inf:
        raise InvalidInput("tol must be finite and nonnegative")
    pv, lv = _padded_pair(p, lam)
    if abs(pv.sum() - lv.sum()) > scaled(max(tol, WITNESS), pv, lv):
        raise TraceMismatch("lists must have equal totals for the convex-function test")
    family = list(family)
    if not family:
        raise InvalidInput("family of test functions must be nonempty")
    for f in family:
        # left-to-right sums, as a loop over the entries adds them
        if sum(_evaluate(f, pv).tolist()) > sum(_evaluate(f, lv).tolist()) + tol:
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
