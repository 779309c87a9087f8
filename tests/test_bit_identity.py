"""The constructions' bits, pinned: SHA-256 of every output of the rotation chain.

A construction's bits move only when a change says so (README
"Numerical conventions"), so a change to how a chain's steps are
computed must reproduce these digests exactly or name each one it
moves.  Each digest covers one kind of output over seeded inputs at
n = 2, 3, 17, 50, 128, 129 and 200.
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
    "horn_construct": "4cc93364dee4e439df57ba0e6ea9550b16aa41bb29f8ed2bdeaa80934c9d84a8",
    "horn_frame": "6283ca51a689cf0c06dc3425cdcf2279f32d9e5566a6c3e0958f366d69f837c8",
    "eigh_desc": "2b08eda0b4ac6f3f4c6e8b30efc827d672b5aa44d589368d6595a6feb32c801d",
    "realize_finite_rank": "2d3acf0bd78c8681dc0e1ca52a477c5fc2dd048e904bfe819e8073fe7ba36d44",
    "projection_with_diagonal": "e0b6b16f7c472b25542ad64b0880e6350d3ac40ec2e7c208b70f9ac2f01a2767",
    "contraction_diagonal": "c80dfc1381482302b40f27e63d3393910746b4b46ccd05702ee89c8bb5100e4f",
    "apply_t_transform_real": "b69a1943da0d313e6d0d3404e28ef6d1bcec110505a878b8aee132764ee8c66b",
    "apply_t_transform_phase": "3184b5e49b4fa04643a6fa48e09a0bc71e1bd11c90e7f4acc5ffbc9b994956a6",
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


@pytest.mark.parametrize("kind", ["horn_construct", "realize_finite_rank", "projection_with_diagonal"])
def test_constructions_are_exactly_symmetric(outputs, kind):
    for n in SIZES:
        (entries,) = outputs[n][kind]
        assert entries.tobytes() == np.ascontiguousarray(entries.T).tobytes()
