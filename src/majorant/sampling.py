"""The seeded draw of ``pinch_experiment``: one random self-adjoint matrix.

It takes an explicit ``numpy.random.Generator`` so a sweep's report is
reproducible from its seed.
"""

from __future__ import annotations

import numpy as np


def _hermitian_entries(rng: np.random.Generator, n: int) -> np.ndarray:
    """Entries (z + z*) / (2 sqrt n) of a complex Gaussian z: exactly self-adjoint,
    with spectrum of order one for any n."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) * (1.0 / (2.0 * np.sqrt(n)))
