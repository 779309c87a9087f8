"""Hermitian matrices with prescribed spectrum and diagonal.

The construction is Horn's (Amer. J. Math. 76, 1954, "Doubly stochastic
matrices and the diagonal of a rotation matrix"): a chain of two-coordinate
mixing steps carries the spectrum list onto the target diagonal, and each
step is realized by a plane rotation.  Each step pins one of its two
coordinates at its target and no step rotates a pinned one, so the
submatrix on the unpinned coordinates stays diagonal, a_ij == 0 whenever
(i, j) is rotated, and every construction is real orthogonal.  Both
pivots of the chain only move right, so before a step (i, j) no row or
column past j has been rotated and, off the diagonal, they are still
exactly 0.  Rotating the leading block a[: j + 1, : j + 1] alone is
therefore exact: the full rotation would recompute the rest of rows and
columns i and j from those zeros as the same zeros.  The rotation
blocks of a chain are built once, in one vectorized pass over its
weights, and each step then costs two products on strided views.  The
product of a chain's rotations is an eigenframe of its construction
(``horn_frame``); a construction keeps its spectrum and chain, so
``eigh_desc`` of it takes no eigensolve.  Input is validated once: a unitary
similarity of a validated matrix, or its diagonal, is self-adjoint by
construction, so ``HermitianMatrix._adopt`` keeps it read-only and uncopied,
checked only for finiteness.  Also provides top-k eigenvalue sums (the trace
maximum over rank-k projections) and alignment of close spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence, Union

import numpy as np

from ._tol import DECISION, ROUND_OFF, scaled
from .eigenlists import EigenList, ListLike, _readonly_copy, as_eigenlist, check_majorization
from .errors import DistributionMismatch, InvalidInput, MajorizationViolation


def _check_self_adjoint(arr: np.ndarray) -> None:
    """Finite, and self-adjoint up to round-off of its largest entry; ``arr`` may be a stack."""
    if not np.all(np.isfinite(arr)):
        raise InvalidInput("matrix entries must be finite")
    if np.max(np.abs(arr - arr.conj().swapaxes(-1, -2))) > scaled(ROUND_OFF, arr):
        raise InvalidInput("matrix is not self-adjoint within tolerance")


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense self-adjoint matrix: float64 entries for real input, complex128 otherwise."""

    entries: np.ndarray
    #: a construction's spectrum and rotation chain, set only by ``horn_construct``
    _chain: tuple[np.ndarray, _Chain] | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=complex if np.iscomplexobj(self.entries) else float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise InvalidInput("matrix must be square and nonempty")
        _check_self_adjoint(arr)
        object.__setattr__(self, "entries", _readonly_copy(arr))

    @classmethod
    def _adopt(cls, arr: np.ndarray, chain: tuple | None = None) -> "HermitianMatrix":
        """Own ``arr``, self-adjoint by construction: checked finite, made read-only, not copied."""
        if not np.isfinite(arr).all():
            raise InvalidInput("matrix entries must be finite")
        arr.flags.writeable = False
        matrix = object.__new__(cls)
        vars(matrix).update(entries=arr, _chain=chain)
        return matrix

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def diagonal(self) -> np.ndarray:
        """Real diagonal (imaginary round-off discarded)."""
        return np.diag(self.entries).real.copy()

    def eigenvalues(self) -> EigenList:
        """Spectrum in decreasing order."""
        return EigenList(np.linalg.eigvalsh(self.entries)[::-1])

    @classmethod
    def from_diagonal(cls, values: ListLike) -> "HermitianMatrix":
        return cls._adopt(np.diag(as_eigenlist(values).values))

    def to_jsonable(self) -> dict:
        return matrix_to_jsonable(self.entries)

    @classmethod
    def from_jsonable(cls, data) -> "HermitianMatrix":
        return cls(matrix_from_jsonable(data))


MatrixLike = Union[HermitianMatrix, Sequence, np.ndarray]


def as_hermitian(matrix: MatrixLike) -> HermitianMatrix:
    if isinstance(matrix, HermitianMatrix):
        return matrix
    return HermitianMatrix(matrix)


def matrix_to_jsonable(arr: np.ndarray) -> dict:
    """JSON form shared by all square complex matrices (unitaries, contractions)."""
    arr = np.asarray(arr, dtype=complex)
    return {
        "dim": arr.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in arr],
    }


def matrix_from_jsonable(data) -> np.ndarray:
    if not isinstance(data, dict) or "dim" not in data or "entries" not in data:
        raise InvalidInput('matrix JSON must be {"dim": n, "entries": [[[re,im],...],...]}')
    n = data["dim"]
    rows = data["entries"]
    try:
        arr = np.array(
            [[complex(cell[0], cell[1]) for cell in row] for row in rows], dtype=complex
        )
    except (TypeError, IndexError, ValueError) as exc:
        raise InvalidInput(f"malformed matrix entries: {exc}") from exc
    if arr.ndim != 2 or arr.shape != (n, n):
        raise InvalidInput("matrix entries do not match the declared dimension")
    return arr


def eigh_desc(matrix: MatrixLike) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition with eigenvalues sorted in decreasing order.

    A construction gives its spectrum and chain frame; any other matrix takes ``eigh``.
    """
    A = as_hermitian(matrix)
    if A._chain is not None:
        lam, chain = A._chain
        return lam.copy(), _frame(A.dim, chain)
    vals, vecs = np.linalg.eigh(A.entries)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


@dataclass(frozen=True)
class TTransform:
    """One mixing step: transposition (i, j) with weight t in [0, 1].

    Applied to a vector x it produces t*x + (1-t)*(x with coordinates
    i and j swapped).  Indices are 0-based.
    """

    i: int
    j: int
    t: float

    def __post_init__(self):
        i, j, t = self.i, self.j, self.t
        if not (isinstance(i, (int, np.integer)) and isinstance(j, (int, np.integer))):
            raise InvalidInput("transposition indices must be integers")
        if not 0 <= i < j:
            raise InvalidInput("need 0 <= i < j")
        if not (math.isfinite(t) and -ROUND_OFF <= t <= 1.0 + ROUND_OFF):
            raise InvalidInput("mixing weight t must lie in [0, 1]")
        # normalize in place only what is not yet a Python int or a float in
        # (0, 1]: NumPy scalars, t clamped into [0, 1], and -0.0 -> 0.0
        if type(i) is not int or type(j) is not int:
            object.__setattr__(self, "i", int(i))
            object.__setattr__(self, "j", int(j))
        if type(t) is not float or not 0.0 < t <= 1.0:
            object.__setattr__(self, "t", float(min(1.0, max(0.0, t))))

    def apply_to_vector(self, x: np.ndarray) -> np.ndarray:
        """The mixing recurrence on a raw coordinate vector."""
        x = np.asarray(x, dtype=float)
        if self.j >= x.size:
            raise InvalidInput("transposition index out of range")
        swapped = x.copy()
        swapped[[self.i, self.j]] = swapped[[self.j, self.i]]
        return self.t * x + (1.0 - self.t) * swapped

    def to_jsonable(self) -> dict:
        return {"i": self.i, "j": self.j, "t": self.t}


def _feasible(lam: ListLike, p: ListLike, tol: float) -> tuple[EigenList, EigenList]:
    """``lam`` and ``p`` as lists, checked: equal lengths, p majorized by lam with equal totals."""
    le, pe = as_eigenlist(lam), as_eigenlist(p)
    if len(le) != len(pe):
        raise InvalidInput("lists must have equal length")
    if not check_majorization(pe, le, "equality", tol).holds:
        raise MajorizationViolation("p must be majorized by lam with equal totals")
    return le, pe


def _mixing_steps(le: EigenList, pe: EigenList, tol: float) -> tuple[list[int], list[int], np.ndarray]:
    """Pivots i < j and weights t of the mixing chain carrying a checked pair ``le`` onto ``pe``.

    The rule of ``t_transform_chain``, with each t clamped into [0, 1]
    as ``TTransform`` clamps it.  A scan that runs off the end before
    n - 1 steps must leave x within ``tol`` (scaled to the lists) of p.
    """
    x = le.values.tolist()
    pv = pe.values.tolist()
    n = len(x)
    snap = scaled(ROUND_OFF, le.values)
    pivots_i: list[int] = []
    pivots_j: list[int] = []
    weights: list[float] = []
    i = j = 0
    for _ in range(n - 1):
        while i < n and x[i] - pv[i] <= snap:
            i += 1
        j = max(j, i + 1)
        while j < n and x[j] - pv[j] >= -snap:
            j += 1
        if j >= n:
            residual = max(abs(a - b) for a, b in zip(x, pv))
            if residual > scaled(tol, le.values, pe.values):
                raise MajorizationViolation(f"mixing chain stopped {residual:.3e} away from p")
            break
        delta = min(x[i] - pv[i], pv[j] - x[j])
        pivots_i.append(i)
        pivots_j.append(j)
        weights.append(1.0 - delta / (x[i] - x[j]))
        x[i] -= delta
        x[j] += delta
        # pin the coordinate that just reached its target, so later
        # pivots never revisit it
        if abs(x[i] - pv[i]) <= snap:
            x[i] = pv[i]
        if abs(x[j] - pv[j]) <= snap:
            x[j] = pv[j]
    t = np.array(weights, dtype=float)
    if not np.all(t >= -ROUND_OFF):
        raise InvalidInput("mixing weight t must lie in [0, 1]")
    return pivots_i, pivots_j, np.minimum(1.0, np.maximum(0.0, t))


def t_transform_chain(lam: ListLike, p: ListLike, tol: float = DECISION) -> list[TTransform]:
    """Mixing chain carrying the list ``lam`` onto the list ``p``.

    Requires p to be majorized by lam with equal totals.  Uses the
    classical pivot rule: locate the first coordinate still above its
    target and the first later coordinate below its target, and transfer
    as much as one of them needs.  Each step finalizes at least one
    coordinate, so at most n-1 steps are produced.  A step moves only x_i
    and x_j, each towards its target, so both pivots only move right.
    """
    pivots_i, pivots_j, t = _mixing_steps(*_feasible(lam, p, tol), tol)
    return list(map(TTransform, pivots_i, pivots_j, t.tolist()))


class _Step(NamedTuple):
    """One rotation: rows and columns i < j and the 2 x 2 block acting on them."""

    i: int
    j: int
    block: np.ndarray


def _rotation_blocks(t: np.ndarray) -> np.ndarray:
    """Blocks [[c, s], [-s, c]], c = sqrt(t) and s = sqrt(1 - t), for every t in [0, 1].

    ``np.sqrt`` is correctly rounded, so each block equals the one built
    from ``math.sqrt`` bit for bit.
    """
    c = np.sqrt(t)
    s = np.sqrt(1.0 - t)
    return np.stack([c, s, -s, c], axis=1).reshape(-1, 2, 2)


#: a mixing chain: pivots i < j and the (m, 2, 2) array of its rotation blocks
_Chain = tuple[list[int], list[int], np.ndarray]


def _chain_steps(le: EigenList, pe: EigenList, tol: float) -> _Chain:
    """The rotations of the mixing chain of a checked pair, every block built in one pass."""
    pivots_i, pivots_j, t = _mixing_steps(le, pe, tol)
    return pivots_i, pivots_j, _rotation_blocks(t)


def _frame(n: int, chain: _Chain) -> np.ndarray:
    """The product of the chain's rotations, each applied to the n x n identity row by row.

    Rows and columns past j are still the identity's before a step (i, j).
    """
    q = np.eye(n)
    for i, j, block in zip(*chain):
        rows = q[i : j + 1 : j - i, : j + 1]
        rows[...] = block @ rows
    return q


def _rotate(a: np.ndarray, step: _Step) -> None:
    """Conjugate ``a`` in place, rows and columns i and j only, by ``step.block``."""
    i, j, block = step
    rows = a[i : j + 1 : j - i]
    rows[...] = block @ rows
    cols = a[:, i : j + 1 : j - i]
    cols[...] = cols @ block.conj().T


def apply_t_transform(matrix: MatrixLike, transform: TTransform) -> tuple[np.ndarray, HermitianMatrix]:
    """Conjugate by the plane rotation realizing one mixing step.

    Returns (U, U A U*) where U is unitary, equal to the identity except
    in rows/columns i and j, and the diagonal of the result is the mixed
    diagonal t*d + (1-t)*(d with entries i, j swapped).  Both keep A's dtype unless
    the rotation needs a complex phase: a phase z with z * a_ij purely
    imaginary, needed only when a_ij != 0, makes the cross terms drop out
    of the diagonal.
    """
    A = as_hermitian(matrix)
    i, j, t = transform.i, transform.j, transform.t
    if j >= A.dim:
        raise InvalidInput("transposition index out of range for this matrix")
    c = math.sqrt(t)
    s = math.sqrt(max(0.0, 1.0 - t))
    aij = A.entries[i, j]
    if s == 0.0 or aij == 0:
        block = np.array([[c, s], [-s, c]])
        result = A.entries.copy()
    else:
        z = 1j * np.conj(aij) / abs(aij)
        block = np.array([[z * c, s], [-z * s, c]])
        result = A.entries.astype(complex)
    _rotate(result, _Step(i, j, block))
    U = np.eye(A.dim, dtype=result.dtype)
    U[i : j + 1 : j - i, i : j + 1 : j - i] = block
    return U, HermitianMatrix._adopt(result)


def horn_construct(lam: ListLike, p: ListLike, tol: float = DECISION) -> HermitianMatrix:
    """Real symmetric matrix with spectrum ``lam`` and diagonal ``p``.

    Feasible exactly when p is majorized by lam with equal totals.
    Starts from the diagonal matrix of lam and conjugates along the
    mixing chain; every step is a similarity, so the spectrum never
    moves while the diagonal walks to p.  Only the input is validated; the
    finished matrix is adopted.  It keeps ``lam`` and the chain, for ``eigh_desc``.
    """
    le, pe = _feasible(lam, p, tol)
    chain = _chain_steps(le, pe, tol)
    a = np.diag(le.values)
    for step in map(_Step, *chain):
        # rows and columns past j are still 0 off the diagonal, and a_ij == 0
        # keeps the rotation real, so it works in place on the leading block
        _rotate(a[: step.j + 1, : step.j + 1], step)
    return HermitianMatrix._adopt(a, (le.values, chain))


def horn_frame(lam: ListLike, p: ListLike, tol: float = DECISION) -> np.ndarray:
    """Real orthogonal Q with Q diag(lam) Q^T = ``horn_construct(lam, p)`` up to round-off.

    Q is the product of the chain's rotations, so column k of Q is an
    eigenvector of the construction for lam_k, without an eigensolve.
    """
    le, pe = _feasible(lam, p, tol)
    return _frame(len(le), _chain_steps(le, pe, tol))


def ky_fan_sum(matrix: MatrixLike, k: int) -> float:
    """Sum of the k largest eigenvalues.

    Equals the maximum of trace(A P) over rank-k orthogonal projections
    P, attained by projecting onto k top eigenvectors.
    """
    A = as_hermitian(matrix)
    if not isinstance(k, (int, np.integer)) or not 1 <= k <= A.dim:
        raise InvalidInput("k must satisfy 1 <= k <= dim")
    vals = np.linalg.eigvalsh(A.entries)
    return float(vals[::-1][:k].sum())


def approx_conjugate(a: MatrixLike, b: MatrixLike, eps: float) -> np.ndarray:
    """Unitary W aligning A with B when their sorted spectra are eps-close.

    Matches the two eigenbases in sorted order; the conjugated matrix
    then differs from B by a diagonal of eigenvalue gaps, so the operator
    norm of W A W* - B is at most max_k |alpha_k - beta_k| <= 2*eps.
    """
    A, B = as_hermitian(a), as_hermitian(b)
    if A.dim != B.dim:
        raise InvalidInput("matrices must have equal dimension")
    if not (np.isfinite(eps) and eps > 0):
        raise InvalidInput("eps must be positive")
    avals, avecs = eigh_desc(A)
    bvals, bvecs = eigh_desc(B)
    worst = float(np.max(np.abs(avals - bvals)))
    if worst > eps + scaled(ROUND_OFF, avals, bvals):
        raise DistributionMismatch(
            f"sorted spectra differ by {worst:.3e} at some entry, beyond eps={eps:.3e}"
        )
    return bvecs @ avecs.conj().T
