"""Independent oracles used across the test suite.

These deliberately avoid the library's own computational paths: raw
prefix-sum arithmetic, direct singular values, brute-force constraint
checks, tail integrals summed over a measure's atoms and pieces, the
reduction loop on freshly appended arrays, and plane rotations applied
by gathering and scattering whole rows and columns, so that every
construction is judged by something it did not itself compute.  The
pinching sweep is judged by its trial-at-a-time form, and the
``convex_family`` spread-order route by its threshold-at-a-time form.
The three tails a spread-order decision reads are also kept in the form
that rebuilds every suffix sum and parses the atoms and pieces on each
call, to judge the tables a measure builds once, and its thresholds in
the form that searches for gap vertices on every pair.
"""

import math

import numpy as np

from majorant._tol import DECISION, scaled
from majorant.measures import _GL_OFFSET, _locate, integrate_function
from majorant.pinching import WITNESS_TOL, _draw_family, _family_table, _pinch_witnesses
from majorant.sampling import random_hermitian


def prefix_dominates(upper, lower, tol=1e-12):
    """Every prefix sum of ``upper`` >= matching prefix sum of ``lower``."""
    upper, lower = np.asarray(upper, float), np.asarray(lower, float)
    return bool(np.all(np.cumsum(upper) >= np.cumsum(lower) - tol))


def validate_reduction(p, lam, mu, tol=1e-11):
    """All four constraints a reduced list must satisfy.

    decreasing; squeezed into [0, lam_k]; prefix sums dominating p's;
    total equal to p's total.
    """
    p, lam, mu = (np.asarray(v, float) for v in (p, lam, mu))
    if mu.shape != lam.shape:
        return False
    if np.any(mu[:-1] < mu[1:] - tol):
        return False
    if np.any(mu < -tol) or np.any(mu > lam + tol):
        return False
    if not prefix_dominates(mu, p, tol):
        return False
    return abs(mu.sum() - p.sum()) <= tol


def reference_reduce_to_equality(p, lam):
    """The reduction's inductive loop on freshly appended arrays.

    Both lists are zero-padded to a common length; each step appends a
    zero to the previous iterate and moves it towards lam[:k] until the
    total hits p's length-k total.
    """
    p, lam = np.asarray(p, float), np.asarray(lam, float)
    n = max(p.size, lam.size)
    pv, lv = np.pad(p, (0, n - p.size)), np.pad(lam, (0, n - lam.size))
    mu = np.array([pv[0]])
    target = pv[0]
    for k in range(2, n + 1):
        x = np.append(mu, 0.0)
        y = lv[:k]
        target += pv[k - 1]
        fx, fy = x.sum(), y.sum()
        if fy <= fx:
            s = 0.0
        else:
            s = min(1.0, max(0.0, (target - fx) / (fy - fx)))
        mu = (1.0 - s) * x + s * y
    return mu


def apply_chain(start, chain):
    """Fold the mixing recurrence x -> t*x + (1-t)*(x with i,j swapped)."""
    x = np.asarray(start, float).copy()
    for step in chain:
        swapped = x.copy()
        swapped[[step.i, step.j]] = swapped[[step.j, step.i]]
        x = step.t * x + (1.0 - step.t) * swapped
    return x


def reference_chain(lam, p):
    """The pivot rule by full rescans: (i, j, t) of every mixing step.

    Each step rescans x - p for the first coordinate above its target
    (beyond the snap tolerance) and the first later one below it; t is
    clamped to [0, 1] as ``TTransform`` clamps it.
    """
    x = np.asarray(lam, float).copy()
    pv = np.asarray(p, float)
    snap = 1e-12 * max(1.0, float(np.max(np.abs(x))))
    steps = []
    for _ in range(x.size - 1):
        diff = x - pv
        above = np.nonzero(diff > snap)[0]
        if above.size == 0:
            break
        i = int(above[0])
        below = np.nonzero(diff[i + 1 :] < -snap)[0]
        if below.size == 0:
            break
        j = int(below[0]) + i + 1
        delta = min(x[i] - pv[i], pv[j] - x[j])
        t = 1.0 - delta / (x[i] - x[j])
        steps.append((i, j, float(min(1.0, max(0.0, t)))))
        x[i] -= delta
        x[j] += delta
        if abs(x[i] - pv[i]) <= snap:
            x[i] = pv[i]
        if abs(x[j] - pv[j]) <= snap:
            x[j] = pv[j]
    return steps


def reference_rotate(a, transform):
    """One mixing step by fancy-indexed gathers and scatters of rows and columns i, j.

    Conjugates ``a`` in place (a complex copy when a real ``a`` needs the
    phase) and returns it with the 2 x 2 block, as ``horn._rotate`` does.
    """
    i, j, t = transform.i, transform.j, transform.t
    c = math.sqrt(t)
    s = math.sqrt(max(0.0, 1.0 - t))
    aij = a[i, j]
    if s == 0.0 or aij == 0:
        block = np.array([[c, s], [-s, c]])
    else:
        z = 1j * np.conj(aij) / abs(aij)
        block = np.array([[z * c, s], [-z * s, c]])
        a = a.astype(complex, copy=False)
    idx = [i, j]
    a[idx, :] = block @ a[idx, :]
    a[:, idx] = a[:, idx] @ block.conj().T
    return a, block


def trace_norm(m):
    """Sum of singular values."""
    return float(np.linalg.svd(np.asarray(m), compute_uv=False).sum())


def op_norm(m):
    return float(np.linalg.norm(np.asarray(m), 2))


def hinge_sum(values, t):
    """Direct hinge average of a finite list: mean of max(v - t, 0)."""
    values = np.asarray(values, float)
    return float(np.maximum(values - t, 0.0).mean())


def hinge_tail(m, t):
    """Integral of max(x - t, 0) against a CompactMeasure, atom by atom and piece by piece."""
    total = sum(w * (x - t) for x, w in m.atoms if x > t)
    for a, b, w in m.pieces:
        if t <= a:
            total += w * (0.5 * (a + b) - t)
        elif t < b:
            total += w * (b - t) ** 2 / (2.0 * (b - a))
    return float(total)


def reference_convex_family_gap(m, n, t):
    """Tail gap of m over n at ``t``: a fresh hinge closure, integrated against
    each measure by ``integrate_function`` with t as its kink."""
    f = lambda x: max(x - t, 0.0)
    return integrate_function(m, f, kinks=(t,)) - integrate_function(n, f, kinks=(t,))


def reference_decisive_thresholds(m, n):
    """The union grid of (m, n) and every vertex of the tail gap inside a union
    segment, searched on every pair, with or without pieces: where the densities
    are both zero the vertex is infinite or nan and the strict mask drops it."""
    x = np.sort(np.concatenate([m._x, n._x]))
    x = x[np.append(True, x[1:] != x[:-1])]
    mids = 0.5 * (x[:-1] + x[1:])
    (jm, hm, dm), (jn, hn, dn) = _locate(m, mids), _locate(n, mids)
    diff = m._above[jm] + dm * hm - n._above[jn] - dn * hn
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = mids + diff / (dm - dn)
    return np.sort(np.concatenate([x, vertex[(x[:-1] < vertex) & (vertex < x[1:])]]))


def reference_convex_family(m, n):
    """``majorize_measure(m, n, "convex_family")`` one threshold at a time,
    stopping at the first gap above the decision slack."""
    thresholds = reference_decisive_thresholds(m, n)
    tol = scaled(DECISION, thresholds)
    gap = lambda t: reference_convex_family_gap(m, n, t)
    return abs(gap(thresholds[0])) <= tol and all(gap(t) <= tol for t in thresholds[1:])


def _suffix_from_scratch(v):
    return np.append(np.cumsum(v[::-1])[::-1], 0.0)


def reference_hinge_tail(m, t):
    """``hinge`` tails at the array ``t``, first-moment suffix sums rebuilt on each call."""
    centre = 0.5 * (m._x[0] + m._x[-1])
    mids = 0.5 * (m._x[:-1] + m._x[1:])
    first = _suffix_from_scratch(
        m._atom * (m._x - centre) + np.append(m._cell[1:-1] * (mids - centre), 0.0))
    j, h, dens = _locate(m, t)
    return first[j] - (t - centre) * m._above[j] + 0.5 * dens * h * h


def reference_survivor_tail(m, t):
    """``survivor`` tails at the array ``t``, gap-integral suffix sums rebuilt on each call."""
    gaps = np.diff(m._x) * (m._above[1:-1] + 0.5 * m._cell[1:-1])
    whole = _suffix_from_scratch(np.append(gaps, 0.0))
    j, h, dens = _locate(m, t)
    return whole[j] + h * (m._above[j] + 0.5 * dens * h)


def reference_quadrature_tail(m, t):
    """``convex_family`` tails at the array ``t``, parsing ``atoms`` and ``pieces`` on each call
    and always building both row blocks."""
    x, w = (col[:, None] for col in np.array(m.atoms, dtype=float).reshape(-1, 2).T)
    a, b, v = (col[:, None] for col in np.array(m.pieces, dtype=float).reshape(-1, 3).T)

    def gauss(lo, hi):
        h = hi - lo
        mid = 0.5 * (lo + hi)
        nodes = np.maximum(mid - h * _GL_OFFSET - t, 0.0) + np.maximum(mid + h * _GL_OFFSET - t, 0.0)
        return 0.5 * h * nodes

    cut = np.clip(t, a, b)
    parts = gauss(a, cut) + gauss(cut, b)
    return np.concatenate([w * np.maximum(x - t, 0.0), v * parts / (b - a)]).sum(axis=0)


REFERENCE_TAILS = {
    "hinge": reference_hinge_tail,
    "survivor": reference_survivor_tail,
    "convex_family": reference_quadrature_tail,
}


def reference_gaps(m, n, method):
    """The decisive thresholds of (m, n) and the tail gaps ``method`` reads there."""
    thresholds = reference_decisive_thresholds(m, n)
    tail = REFERENCE_TAILS[method]
    return thresholds, tail(m, thresholds) - tail(n, thresholds)


def reference_majorize_measure(m, n, method):
    """``majorize_measure`` from the reference tails and the policy's ``scaled`` slack."""
    thresholds, gaps = reference_gaps(m, n, method)
    tol = scaled(DECISION, thresholds)
    return bool(abs(gaps[0]) <= tol and np.all(gaps <= tol))


def top_k_tail_formula(values, k, t):
    """(v_1 + ... + v_k - k*t) / n for a decreasing list."""
    values = np.asarray(values, float)
    return float((values[:k].sum() - k * t) / values.size)


def decreasing_grid_lists(length, grid):
    """All nonincreasing lists of the given length over a value grid."""
    grid = sorted(grid, reverse=True)
    out = []

    def extend(prefix, start):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for idx in range(start, len(grid)):
            extend(prefix + [grid[idx]], idx)

    extend([], 0)
    return out


def reference_pinch_experiment(n, trials, seed, record=None):
    """``pinch_experiment`` one trial at a time: one matrix, one family, one
    eigendecomposition and one product per trial, folded into the report.
    Each trial's witness row is appended to ``record`` when one is given."""
    rng = np.random.default_rng(seed)
    min_pos = min_convex = math.inf
    convex_checks = 0
    for _ in range(trials):
        a = random_hermitian(rng, n)
        params = _draw_family(rng)
        witnesses = _pinch_witnesses(a, lambda p: _family_table(params, p))
        if record is not None:
            record.append(witnesses)
        min_pos = min(min_pos, float(witnesses[0]))
        min_convex = min(min_convex, float(witnesses[1:].min()))
        convex_checks += len(witnesses) - 1
    overall = min(min_pos, min_convex)
    return {
        "seed": seed,
        "n": n,
        "trials": trials,
        "checks": {
            "positive_part": {"count": trials, "min_witness": min_pos},
            "convex_family": {"count": convex_checks, "min_witness": min_convex},
        },
        "min_witness": overall,
        "max_violation": max(0.0, -overall),
        "holds": bool(overall >= -WITNESS_TOL),
    }
