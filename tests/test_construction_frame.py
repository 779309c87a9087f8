"""A construction keeps its chain, so its eigendecomposition takes no eigensolve.

``horn_construct``, and so ``realize_finite_rank`` and
``projection_with_diagonal``, keeps its spectrum and its mixing chain;
``eigh_desc`` returns that spectrum and the product of the chain's
rotations.  Every other matrix, a rewrap of a construction's entries
included, goes to ``np.linalg.eigh``.
"""

import numpy as np
import pytest

from majorant import (
    InvalidInput,
    approx_conjugate,
    contraction_diagonal,
    eigh_desc,
    horn_construct,
    projection_with_diagonal,
    realize_finite_rank,
)
from majorant.sampling import haar_unitary, random_dominance_pair

from oracles import op_norm


@pytest.fixture
def solver_calls(monkeypatch):
    """Live counts of ``np.linalg.eigh`` and ``eigvalsh`` calls."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _solver=solver, _name=name, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def schur_diagonal(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Sorted diagonal of a Haar conjugate of diag(lam), which lam majorizes."""
    u = haar_unitary(rng, lam.size)
    return np.sort(np.einsum("ij,j,ij->i", u, lam, u.conj()).real)[::-1]


def spectrum(kind: str, rng: np.random.Generator, n: int) -> np.ndarray:
    if kind == "random":
        values = rng.normal(size=n)
    elif kind == "graded":
        values = np.logspace(0.0, -12.0, n)
    else:
        values = 1.0 + 1e-9 * rng.uniform(-1.0, 1.0, n)
    return np.sort(values)[::-1]


def constructions(rng: np.random.Generator):
    """(name, positive construction, contraction target) for each of the three builders."""
    n = 40
    pc, lam = random_dominance_pair(rng, n, r=15)
    yield "horn_construct", horn_construct(lam, np.full(n, lam.total() / n)), pc.values
    pc, lam = random_dominance_pair(rng, 25, r=10)
    yield "realize_finite_rank", realize_finite_rank(lam, np.full(n, lam.total() / n), n), pc.values
    rank = 16
    yield (
        "projection_with_diagonal",
        projection_with_diagonal(np.full(n, rank / n), rank, n),
        np.sort(rng.uniform(0.2, 0.9, 12))[::-1],
    )


def test_contraction_of_a_construction_takes_no_eigensolve(solver_calls):
    rng = np.random.default_rng(61)
    for name, a, pc in constructions(rng):
        solver_calls.update(eigh=0, eigvalsh=0)
        contraction_diagonal(a, pc)
        assert solver_calls == {"eigh": 0, "eigvalsh": 0}, name


def test_contraction_witnesses_of_constructions_meet_criterion_07():
    rng = np.random.default_rng(67)
    for _ in range(5):
        for name, a, pc in constructions(rng):
            L = contraction_diagonal(a, pc)
            got = np.diag(L.T @ a.entries @ L)
            target = np.pad(pc, (0, a.dim - pc.size))
            scale = float(np.max(np.abs(a.entries)))
            assert op_norm(L) <= 1 + 1e-12, name
            assert np.max(np.abs(got - target)) <= 1e-10 * scale, name


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("kind", ["random", "graded", "clustered"])
@pytest.mark.parametrize("n", [1, 2, 3, 60, 200])
def test_eigh_desc_of_a_construction_is_its_chain_frame(solver_calls, n, kind, scale):
    rng = np.random.default_rng([n, len(kind)])
    lam = spectrum(kind, rng, n) * scale
    a = horn_construct(lam, schur_diagonal(rng, lam))
    vals, vecs = eigh_desc(a)
    assert solver_calls == {"eigh": 0, "eigvalsh": 0}
    assert vals.tobytes() == lam.tobytes()
    assert vecs.dtype == np.float64 and vecs.shape == (n, n)
    assert op_norm(vecs.T @ vecs - np.eye(n)) <= 1e-13
    assert op_norm(a.entries @ vecs - vecs * vals) <= 1e-12 * float(np.max(np.abs(lam)))


def test_approx_conjugate_of_two_constructions_stays_within_two_eps(solver_calls):
    rng = np.random.default_rng(71)
    for n in (2, 5, 30, 100):
        eps = float(rng.uniform(0.05, 0.5))
        alpha = np.sort(rng.normal(size=n))[::-1]
        beta = np.sort(alpha + rng.uniform(-eps, eps, n))[::-1]
        a = horn_construct(alpha, schur_diagonal(rng, alpha))
        b = horn_construct(beta, schur_diagonal(rng, beta))
        w = approx_conjugate(a, b, eps)
        assert op_norm(w @ a.entries @ w.T - b.entries) <= 2 * eps
    assert solver_calls == {"eigh": 0, "eigvalsh": 0}


def test_eigh_desc_rejects_a_raw_matrix_that_is_not_self_adjoint():
    with pytest.raises(InvalidInput, match="self-adjoint"):
        eigh_desc(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_eigh_desc_rejects_a_raw_matrix_with_nan():
    with pytest.raises(InvalidInput, match="finite"):
        eigh_desc(np.array([[1.0, np.nan], [0.0, 1.0]]))
