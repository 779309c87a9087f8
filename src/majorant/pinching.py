"""Diagonal compression in M_n with normalized trace, and its inequalities.

Zeroing the off-diagonal entries of a matrix is the trace-preserving
conditional expectation onto the diagonal subalgebra.  This module
checks the two convexity facts that compression obeys (the positive
part grows, and f(E(A)) <= E(f(A)) for convex f), the resulting
spread-order relation between the diagonal's distribution and the
spectrum's distribution, and the cell-alignment counterpart for step
functions on [0, 1].
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._tol import ROUND_OFF, WITNESS as WITNESS_TOL, scaled
from .eigenlists import check_majorization, hinge, normalize_list
from .errors import DistributionMismatch, InvalidInput
from .horn import HermitianMatrix, MatrixLike, _check_self_adjoint, as_hermitian
from .measures import StepFunction, from_matrix, majorize_measure
from .sampling import _hermitian_entries

#: matrix entries per block of pinch_experiment trials: 20 trials at n = 20
BLOCK_ENTRIES = 8192


def pinch_diag(matrix):
    """Keep the diagonal, zero the rest; the trace is untouched.

    Accepts a HermitianMatrix or a plain square array and returns the
    same kind.  On plain arrays no self-adjointness is required, which
    is what makes the bimodule identity E(D1 A D2) = D1 E(A) D2 testable
    for arbitrary diagonal factors.
    """
    if isinstance(matrix, HermitianMatrix):
        return HermitianMatrix._adopt(np.diag(np.diag(matrix.entries)))
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidInput("expected a square matrix")
    return np.diag(np.diag(arr))


def _require_finite(vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)):
        raise InvalidInput("test function is not finite on the spectral interval")
    return vals


def _evaluate(f: Callable[[float], float], points: np.ndarray) -> np.ndarray:
    try:
        return _require_finite(np.array([float(f(x)) for x in points], dtype=float))
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise InvalidInput(f"test function is not defined on the spectral interval: {exc}") from exc


def matrix_function(matrix: MatrixLike, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a scalar function through the spectral decomposition; the result is adopted."""
    A = as_hermitian(matrix)
    vals, vecs = np.linalg.eigh(A.entries)
    out = (vecs * _evaluate(f, vals)) @ vecs.conj().T
    return HermitianMatrix._adopt(0.5 * (out + out.conj().T))


def positive_part(matrix: MatrixLike) -> HermitianMatrix:
    """Spectral positive part: negative eigenvalues replaced by zero."""
    return matrix_function(matrix, hinge(0.0))


def _pinch_witnesses(A: HermitianMatrix | np.ndarray, table: Callable) -> np.ndarray:
    """min over k of (f(A))_kk - f(a_kk) for each row f of ``table``, a map
    from the points [eigenvalues, diagonal] to one row of values per test
    function.  With A = V diag(vals) V*, (f(A))_kk = sum_m |V_km|^2 f(vals_m),
    so all witnesses come from one eigendecomposition and one product.
    ``A`` may also be a validated stack of entries (..., n, n): one stacked
    eigh and one batched product give each matrix's witnesses bit for bit.
    """
    entries = A.entries if isinstance(A, HermitianMatrix) else A
    vals, vecs = np.linalg.eigh(entries)
    n = vals.shape[-1]
    F = table(np.concatenate([vals, np.diagonal(entries, 0, -2, -1).real], axis=-1))
    return np.min(np.abs(vecs) ** 2 @ F[..., :n].swapaxes(-1, -2) - F[..., n:].swapaxes(-1, -2), axis=-2)


def convex_pinch_check(matrix: MatrixLike, f: Callable[[float], float]) -> tuple[bool, float]:
    """Verify f(E(A)) <= E(f(A)) for a convex scalar function f.

    Both sides live in the diagonal subalgebra, so the operator
    inequality reduces to entrywise comparison: the witness returned is
    the smallest eigenvalue of E(f(A)) - f(E(A)), i.e. the minimum over
    k of (f(A))_kk - f(a_kk).  For convex f it is nonnegative up to
    round-off; ``holds`` applies the standard slack.
    """
    (witness,) = _pinch_witnesses(as_hermitian(matrix), lambda p: _evaluate(f, p)[None])
    return bool(witness >= -WITNESS_TOL), float(witness)


def schur_distribution_check(matrix: MatrixLike) -> bool:
    """Is the diagonal's distribution dominated by the spectrum's?

    Always true for self-adjoint input; exposed as a check so the
    statement stays executable.  Equivalent, entry for entry, to the
    classical prefix-sum comparison between the sorted diagonal and the
    eigenvalue list.
    """
    A = as_hermitian(matrix)
    return majorize_measure(from_matrix(pinch_diag(A)), from_matrix(A), "hinge")


def classical_schur_check(matrix: MatrixLike, tol: float = WITNESS_TOL) -> bool:
    """Prefix-sum form of the same statement, for cross-checking."""
    A = as_hermitian(matrix)
    diag = normalize_list(A.diagonal())
    return check_majorization(diag, A.eigenvalues(), "equality", tol).holds


def align_step_functions(
    f: StepFunction, g: StepFunction, eps: float
) -> tuple[tuple[int, ...], float]:
    """Cell permutation bringing f as close to g as sorting allows.

    Requires both functions to share the cell count and their sorted
    value lists to differ by at most ``eps`` entrywise.  Returns
    (perm, achieved) where perm[k] is the f-cell matched to g-cell k and
    achieved = max_k |f[perm[k]] - g[k]| <= 2*eps.  Matching sorted
    positions realizes the sorted-gap bound; ties keep original cell
    order.  The permutation is the cell-model analog of conjugating by
    a unitary: it is measure preserving on equal-mass cells.
    """
    if not isinstance(f, StepFunction) or not isinstance(g, StepFunction):
        raise InvalidInput("align_step_functions expects two StepFunction values")
    if f.cells != g.cells:
        raise InvalidInput("step functions must share the same cell count")
    if not (np.isfinite(eps) and eps > 0):
        raise InvalidInput("eps must be positive")
    order_f = np.argsort(-f.values, kind="stable")
    order_g = np.argsort(-g.values, kind="stable")
    sorted_gap = float(np.max(np.abs(f.values[order_f] - g.values[order_g])))
    if sorted_gap > eps + scaled(ROUND_OFF, f.values, g.values):
        raise DistributionMismatch(
            f"sorted values differ by {sorted_gap:.3e} at some entry, beyond eps={eps:.3e}"
        )
    perm = np.empty(f.cells, dtype=int)
    perm[order_g] = order_f
    achieved = float(np.max(np.abs(f.values[perm] - g.values)))
    return tuple(int(k) for k in perm), achieved


# -- randomized experiment runner ------------------------------------------


def _draw_family(rng: np.random.Generator) -> tuple:
    """Parameters of the convex test family: hinge anchors ts, and a, b, rs,
    cs of the cone element a + b*x + sum c_k * max(x - r_k, 0)."""
    ts = rng.uniform(-2.0, 2.0, size=3)
    a, b = rng.normal(size=2)
    return ts, float(a), float(b), rng.uniform(-2.0, 2.0, size=3), rng.uniform(0.0, 2.0, size=3)


def default_convex_family(rng: np.random.Generator) -> list[Callable[[float], float]]:
    """Convex test functions: square, absolute value, exp, three random hinges,
    and one random element of the cone a + b*x + sum c_k * max(x - r_k, 0)."""
    ts, a, b, rs, cs = _draw_family(rng)
    return [
        lambda x: x * x,
        abs,
        math.exp,
        *(hinge(float(t)) for t in ts),
        lambda x: a + b * x + sum(c * max(x - r, 0.0) for r, c in zip(rs, cs)),
    ]


def _family_table(params: tuple, points: np.ndarray) -> np.ndarray:
    """Rows: hinge(0), then default_convex_family's functions in order, on
    points (..., P); leading trial axes of points and params broadcast."""
    ts, a, b, rs, cs = (np.asarray(v) for v in params)
    anchors = np.concatenate([np.zeros_like(ts[..., :1]), ts, rs], axis=-1)
    hinged = np.maximum(points[..., None, :] - anchors[..., None], 0.0)
    h = ts.shape[-1] + 1
    cone = a[..., None] + b[..., None] * points + (cs[..., None] * hinged[..., h:, :]).sum(axis=-2)
    rows = [hinged[..., 0, :], points * points, np.abs(points), np.exp(points)]
    return _require_finite(np.stack([*rows, *(hinged[..., k, :] for k in range(1, h)), cone], axis=-2))


def pinch_experiment(n: int, trials: int, seed: int) -> dict:
    """Randomized sweep of the compression inequalities.

    Draws ``trials`` random self-adjoint n x n matrices and records the
    worst witness of (a) the positive-part inequality E(A)_+ <= E(A_+)
    and (b) the convexity inequality over a per-trial test family.  (a)
    is (b) for the hinge max(x, 0).  The family is drawn as by
    ``default_convex_family`` but evaluated on arrays.  Trials run in blocks
    of max(1, BLOCK_ENTRIES // n**2) in trial-by-trial draw order; a block
    costs one validation, one stacked eigh, one table and one batched
    product, so memory is bounded whatever ``trials`` is, and reports equal
    the trial-by-trial sweep's bit for bit.  The report is a plain dict
    ready for JSON emission; ``min_witness`` staying above -1e-9 passes.
    """
    if not all(isinstance(v, (int, np.integer)) for v in (n, trials, seed)):
        raise InvalidInput("n, trials and seed must be integers")
    if n < 1 or trials < 1:
        raise InvalidInput("need n >= 1 and trials >= 1")
    if not 0 <= seed < 2**64:
        raise InvalidInput("seed must fit in an unsigned 64-bit integer")
    rng = np.random.default_rng(int(seed))
    min_pos = min_convex = math.inf
    per_block = max(1, BLOCK_ENTRIES // (n * n))
    for start in range(0, trials, per_block):
        size = min(per_block, trials - start)
        block = np.empty((size, n, n), dtype=complex)
        params = ts, a, b, rs, cs = (np.empty((size, 3)), *np.empty((2, size)), *np.empty((2, size, 3)))
        for k in range(size):
            block[k] = _hermitian_entries(rng, n)
            ts[k], a[k], b[k], rs[k], cs[k] = _draw_family(rng)
        _check_self_adjoint(block)
        witnesses = _pinch_witnesses(block, lambda p: _family_table(params, p))
        min_pos = min(min_pos, float(witnesses[:, 0].min()))
        min_convex = min(min_convex, float(witnesses[:, 1:].min()))
    overall = min(min_pos, min_convex)
    return {
        "seed": int(seed),
        "n": int(n),
        "trials": int(trials),
        "checks": {
            "positive_part": {"count": int(trials), "min_witness": min_pos},
            "convex_family": {"count": int(trials) * (witnesses.shape[-1] - 1), "min_witness": min_convex},
        },
        "min_witness": overall,
        "max_violation": max(0.0, -overall),
        "holds": bool(overall >= -WITNESS_TOL),
    }
