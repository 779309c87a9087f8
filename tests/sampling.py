"""Random instances for property sweeps: matrices, list pairs, measures.

Everything takes an explicit ``numpy.random.Generator`` so each sweep is
reproducible from a single seed.  These are test fixtures; the package
itself draws only ``pinch_experiment``'s matrices
(``majorant.sampling._hermitian_entries``), and ``random_hermitian`` at
scale 1 draws the same bits as that helper.
"""

import numpy as np

from majorant import CompactMeasure, EigenList, HermitianMatrix, InvalidInput, normalize_list


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a complex Gaussian."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 1.0) -> HermitianMatrix:
    """Self-adjoint matrix (z + z*) * scale / (2 sqrt n), with spectrum of order ``scale`` for any n."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return HermitianMatrix((z + z.conj().T) * (scale / (2.0 * np.sqrt(n))))


def random_psd(rng: np.random.Generator, n: int, scale: float = 1.0) -> HermitianMatrix:
    """Positive semidefinite matrix with eigenvalues of order ``scale``."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = (z @ z.conj().T) * (scale / (2.0 * n))
    return HermitianMatrix(h)


def random_majorizing_pair(rng: np.random.Generator, n: int) -> tuple[EigenList, EigenList]:
    """(p, lam) with p majorized by lam and equal totals.

    lam is a random decreasing list; p is the sorted diagonal of a
    random conjugate of diag(lam), which satisfies the prefix
    inequalities with exactly matching totals.

    It draws a dense n x n Haar unitary, so memory and time grow as n**2
    and n**3: at n = 10**4 that was enough to get a process killed for
    memory.  Tests on long lists use ``random_dominance_pair``, which is
    linear in n.
    """
    lam = normalize_list(rng.normal(size=n))
    u = haar_unitary(rng, n)
    conj = (u * lam.values) @ u.conj().T
    p = normalize_list(np.diag(conj).real)
    return p, lam


def random_dominance_pair(
    rng: np.random.Generator, n: int, r: int | None = None
) -> tuple[EigenList, EigenList]:
    """(p, lam) nonnegative with prefix sums of p dominated by lam's.

    p is built by mixing lam with random permutations of itself (which
    preserves totals and prefix domination) and then shrinking by a
    random factor, so domination is typically strict.  ``r`` truncates
    p to its first r entries; prefixes of a dominated list stay
    dominated by the matching prefixes of lam.
    """
    lam = normalize_list(rng.uniform(0.0, 2.0, size=n))
    mix = np.zeros(n)
    weights = rng.dirichlet(np.ones(4))
    for w in weights:
        mix += w * rng.permutation(lam.values)
    p = np.sort(mix)[::-1] * rng.uniform(0.3, 1.0)
    if r is not None:
        p = p[:r]
    return EigenList(p), lam


def random_measure(
    rng: np.random.Generator,
    max_atoms: int = 4,
    max_pieces: int = 2,
    span: float = 2.0,
) -> CompactMeasure:
    """Random mixture of atoms and uniform pieces with total mass one; atoms only if max_pieces is 0."""
    if max_atoms < 1 and max_pieces < 1:
        raise InvalidInput("a random measure needs max_atoms or max_pieces of at least 1")
    n_atoms = int(rng.integers(0 if max_pieces > 0 else 1, max_atoms + 1))
    n_pieces = int(rng.integers(0 if n_atoms else 1, max_pieces + 1))
    w = rng.dirichlet(np.ones(n_atoms + n_pieces))
    xs = rng.uniform(-span, span, n_atoms)
    ends = rng.uniform((-span, 0.1), span, (n_pieces, 2))  # a, then b - a, piece by piece
    ends[:, 1] += ends[:, 0]
    w /= sum(w[:n_atoms].tolist()) + sum(w[n_atoms:].tolist())
    return CompactMeasure(atoms=np.column_stack([xs, w[:n_atoms]]),
                          pieces=np.column_stack([ends, w[n_atoms:]]))


def concentrate_measure(rng: np.random.Generator, m: CompactMeasure) -> CompactMeasure:
    """Sweep some mass toward its barycenter; the result is dominated by m.

    Replacing a lump of mass by a point mass at its mean lowers every
    convex integral while keeping the first moment, so the output sits
    below the input in the spread order.
    """
    atoms = list(m.atoms)
    pieces = list(m.pieces)
    if pieces and (not atoms or rng.random() < 0.5):
        a, b, w = pieces.pop(int(rng.integers(len(pieces))))
        atoms.append((0.5 * (a + b), w))
    elif len(atoms) >= 2:
        i, j = rng.choice(len(atoms), size=2, replace=False)
        (x1, w1), (x2, w2) = atoms[i], atoms[j]
        merged = ((w1 * x1 + w2 * x2) / (w1 + w2), w1 + w2)
        atoms = [a for k, a in enumerate(atoms) if k not in (i, j)] + [merged]
    return CompactMeasure(atoms=tuple(atoms), pieces=tuple(pieces))


def spread_measure(rng: np.random.Generator, m: CompactMeasure) -> CompactMeasure:
    """Spread some mass symmetrically about its location; dominates m.

    Splitting an atom into a balanced pair (or smearing it into a
    centered uniform piece) raises every convex integral while keeping
    the first moment.
    """
    atoms = list(m.atoms)
    pieces = list(m.pieces)
    if atoms:
        x, w = atoms.pop(int(rng.integers(len(atoms))))
        d = float(rng.uniform(0.1, 1.0))
        if rng.random() < 0.5:
            atoms.extend([(x - d, 0.5 * w), (x + d, 0.5 * w)])
        else:
            pieces.append((x - d, x + d, w))
    else:
        a, b, w = pieces.pop(int(rng.integers(len(pieces))))
        widen = float(rng.uniform(0.1, 1.0))
        pieces.append((a - widen, b + widen, w))
    return CompactMeasure(atoms=tuple(atoms), pieces=tuple(pieces))


def random_ordered_pair(
    rng: np.random.Generator, steps: int = 2
) -> tuple[CompactMeasure, CompactMeasure]:
    """(m, n) with m dominated by n in the spread order, by construction."""
    base = random_measure(rng)
    lower = base
    upper = base
    for _ in range(int(rng.integers(1, steps + 1))):
        lower = concentrate_measure(rng, lower)
    for _ in range(int(rng.integers(1, steps + 1))):
        upper = spread_measure(rng, upper)
    return lower, upper
