"""The constructions' bits, pinned: SHA-256 of every output of the rotation chain.

Constructions are bit-identical from release to release (README
"Numerical conventions"), so a change to how a chain's steps are
computed must reproduce these digests exactly.  Each digest covers one
kind of output over seeded inputs at n = 2, 3, 17, 50, 128, 129 and 200.
"""

import hashlib

import numpy as np
import pytest

from majorant import (
    TTransform,
    apply_t_transform,
    contraction_diagonal,
    eigh_desc,
    horn_construct,
    projection_with_diagonal,
    realize_finite_rank,
)
from majorant.horn import horn_frame

SIZES = (2, 3, 17, 50, 128, 129, 200)

DIGESTS = {
    "horn_construct": "347fd8edb14a467d6f09a3362bdd5b4407f8114c5dcbd4e97396cc62c23ff9d7",
    "horn_frame": "6283ca51a689cf0c06dc3425cdcf2279f32d9e5566a6c3e0958f366d69f837c8",
    "eigh_desc": "2b08eda0b4ac6f3f4c6e8b30efc827d672b5aa44d589368d6595a6feb32c801d",
    "realize_finite_rank": "f67947a2a22f2597ca6ae42e45f1513185dc6913dfe9fb85f15f0071f82d915c",
    "projection_with_diagonal": "cac11ec81293c8d8ae59cc916458a0b2106c013c465fa6ed130cea9c641127ac",
    "contraction_diagonal": "924c212b4e4ee76ed5db0140beecb5643005511550b5ea49e5223bbba9dcb706",
    "apply_t_transform_real": "b69a1943da0d313e6d0d3404e28ef6d1bcec110505a878b8aee132764ee8c66b",
    "apply_t_transform_phase": "cf700ab2a3371bafa67d244ca601f4850b6a4332cb739e5d2c463b1f42a02b7d",
}


def _mix(rng, values):
    """A sorted mix of four random permutations of ``values``: majorized by them."""
    weights = rng.dirichlet(np.ones(4))
    return np.sort(sum(w * rng.permutation(values) for w in weights))[::-1]


def _outputs(n):
    rng = np.random.default_rng([2054, n])
    lam = np.sort(rng.uniform(0.5, 1.5, n) / np.arange(1, n + 1) ** 2)[::-1]
    p = _mix(rng, lam)
    a = horn_construct(lam, p)
    lam_r = lam[: max(1, 3 * n // 4)]
    rank = max(1, 2 * n // 5)
    ones = (np.arange(n) < rank).astype(float)
    real = apply_t_transform(np.diag(lam), TTransform(0, n - 1, 0.3))
    phase = apply_t_transform(a, TTransform(0, n - 1, 0.3))
    assert real[1].entries.dtype == np.float64 and phase[1].entries.dtype == np.complex128
    return {
        "horn_construct": [a.entries],
        "horn_frame": [horn_frame(lam, p)],
        "eigh_desc": list(eigh_desc(a)),
        "realize_finite_rank": [
            realize_finite_rank(lam_r, _mix(rng, np.pad(lam_r, (0, n - lam_r.size))), n).entries
        ],
        "projection_with_diagonal": [
            projection_with_diagonal(np.clip(_mix(rng, ones), 0.0, 1.0), rank, n).entries
        ],
        "contraction_diagonal": [contraction_diagonal(a, 0.8 * _mix(rng, lam[: max(1, n // 2)]))],
        "apply_t_transform_real": [real[0], real[1].entries],
        "apply_t_transform_phase": [phase[0], phase[1].entries],
    }


@pytest.fixture(scope="module")
def outputs():
    return {n: _outputs(n) for n in SIZES}


@pytest.mark.parametrize("kind", sorted(DIGESTS))
def test_digest(outputs, kind):
    h = hashlib.sha256()
    for n in SIZES:
        for arr in outputs[n][kind]:
            h.update(f"{arr.dtype}{arr.shape}".encode())
            h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == DIGESTS[kind]
