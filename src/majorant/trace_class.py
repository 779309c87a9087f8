"""Finite truncations of summable-spectrum (trace-class) statements.

Infinite lists with summable entries are represented by their finitely
supported truncations; every operation below works at a user-chosen
matrix size N.  Tail remainders of a summable list go to zero in trace
norm, so conclusions at large N approximate the untruncated statements;
the truncation size is the caller's accuracy knob.
"""

from __future__ import annotations

import numpy as np

from ._tol import DECISION, ROUND_OFF, scaled
from .eigenlists import (
    EigenList, ListLike, _is_integer, _nonnegative, as_eigenlist, check_majorization, reduce_to_equality,
)
from .errors import InvalidInput, TraceMismatch
from .horn import HermitianMatrix, MatrixLike, _frame, _mixing_steps, as_hermitian, eigh_desc, horn_construct


def feasible_diagonal(p: ListLike, lam: ListLike, tol: float = DECISION) -> bool:
    """Can a positive operator with spectrum list ``lam`` have diagonal ``p``?

    True exactly when every prefix sum of p is at most that of lam and
    the totals agree, within ``tol`` times the largest entry.  Lists are
    zero-padded, which is exact for eigenvalue lists of positive operators.
    """
    pe, le = as_eigenlist(p), as_eigenlist(lam)
    _nonnegative(pe.values, "diagonal list")
    _nonnegative(le.values, "spectrum list")
    return check_majorization(pe, le, "equality", tol).holds


def _pad_to(values: EigenList, n: int, what: str) -> EigenList:
    if len(values) > n:
        if np.max(np.abs(values.values[n:])) > scaled(ROUND_OFF, values.values):
            raise InvalidInput(f"truncation size {n} too small to hold the support of {what}")
        return EigenList(values.values[:n])
    return EigenList(values.padded(n))


def realize_finite_rank(lam: ListLike, p: ListLike, n: int, tol: float = DECISION) -> HermitianMatrix:
    """Positive n x n matrix with spectrum ``lam`` (zero-padded) and diagonal ``p``.

    For finitely supported spectra the realization is exact: pad both
    lists with zeros to length n and run the prescribed-diagonal
    construction.
    """
    if not _is_integer(n) or n < 1:
        raise InvalidInput("truncation size must be a positive integer")
    pe, le = as_eigenlist(p), as_eigenlist(lam)
    _nonnegative(pe.values, "diagonal list")
    _nonnegative(le.values, "spectrum list")
    pe, le = _pad_to(pe, int(n), "p"), _pad_to(le, int(n), "lam")
    return horn_construct(le, pe, tol)


def contraction_diagonal(matrix: MatrixLike, p: ListLike, tol: float = DECISION) -> np.ndarray:
    """Contraction L with diag(L* A L) = (p_1, ..., p_r, 0, ..., 0).

    A must be positive semidefinite and the prefix sums of p must be
    dominated by the prefix sums of A's top-r eigenvalues (no equality
    of totals needed).  The witness is built in three moves: reduce the
    top eigenvalues to a list mu with matching total, realize mu with
    diagonal p inside the top-r eigenspace, then shrink each column so
    the quadratic form lands exactly on p.  The realization's eigenframe
    is the product of its chain's rotations, so the only eigensolve is
    the one of A, and none when A is a construction (``eigh_desc``).
    All of it runs in the dtype of A, so L is real for a real A.
    """
    A = as_hermitian(matrix)
    pe = as_eigenlist(p)
    _nonnegative(pe.values, "target diagonal")
    r = len(pe)
    if r > A.dim:
        raise InvalidInput("target diagonal longer than the matrix dimension")
    evals, evecs = eigh_desc(A)
    if evals[-1] < -scaled(DECISION, evals):
        raise InvalidInput("matrix must be positive semidefinite")
    lam_top = EigenList(np.maximum(evals[:r], 0.0))
    mu = reduce_to_equality(pe, lam_top, tol)
    # horn_construct(mu, p) is Q diag(mu) Q^T for the real orthogonal product Q
    # of its chain's rotations (horn_frame, minus the check of a pair that
    # reduce_to_equality just made): Q's orthonormal rows give p against diag(mu)
    V = evecs[:, :r] @ _frame(r, _mixing_steps(mu, pe, tol)).T
    quad = np.real(np.einsum("ij,ij->j", V.conj(), A.entries @ V))
    floor = scaled(ROUND_OFF, evals)
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(quad > floor, pe.values / np.maximum(quad, floor), 0.0)
    weights = np.clip(weights, 0.0, 1.0)
    L = np.zeros((A.dim, A.dim), dtype=V.dtype)
    L[:, :r] = V * np.sqrt(weights)[None, :]
    return L


def projection_with_diagonal(p: ListLike, rank: int, n: int, tol: float = DECISION) -> HermitianMatrix:
    """Rank-``rank`` orthogonal projection on C^n with diagonal ``p``.

    Entries of p must lie in [0, 1] and their total must equal ``rank``
    (an integer trace).  Those two conditions are the whole feasibility
    story: prefix sums of p are then automatically dominated by the
    prefix sums of (1, ..., 1, 0, ..., 0).
    """
    pe = as_eigenlist(p)
    if not _is_integer(rank) or rank < 1:
        raise InvalidInput("rank must be a positive integer")
    if not _is_integer(n) or n < rank:
        raise InvalidInput("need rank <= n")
    values = pe.values
    if np.min(values) < -ROUND_OFF or np.max(values) > 1.0 + ROUND_OFF:
        raise InvalidInput("projection diagonal entries must lie in [0, 1]")
    pe = _pad_to(EigenList(np.clip(values, 0.0, 1.0)), int(n), "p")
    if abs(pe.total() - rank) > DECISION:
        raise TraceMismatch(
            f"diagonal total {pe.total()!r} must equal the integer rank {rank}"
        )
    lam = EigenList(np.concatenate([np.ones(int(rank)), np.zeros(int(n) - int(rank))]))
    return horn_construct(lam, pe, max(tol, DECISION))


def eigenlist_l1_distance(lam: ListLike, mu: ListLike) -> float:
    """Entrywise l1 distance of two lists after zero padding.

    This is a lower bound for the trace-norm distance between any two
    positive operators carrying these spectra.
    """
    le, me = as_eigenlist(lam), as_eigenlist(mu)
    n = max(len(le), len(me))
    return float(np.abs(le.padded(n) - me.padded(n)).sum())
