"""Property tests: the Horn kernel against the gather-and-scatter rotation oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from majorant import TTransform, apply_t_transform, horn_construct, t_transform_chain
from majorant.sampling import random_hermitian, random_majorizing_pair

from oracles import reference_rotate

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def assert_bits_equal(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def majorizing_pairs(draw):
    """(lam, p): random pairs, zero-padded spectra, and 0/1 spectra against tied targets."""
    n = draw(st.integers(2, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "zero_padded", "projection"]))
    if kind == "random":
        p, lam = random_majorizing_pair(rng, n)
        return lam.values, p.values
    if kind == "zero_padded":
        r = draw(st.integers(1, n))
        lam = np.sort(rng.uniform(0.5, 1.5, r) / np.arange(1, r + 1) ** 2)[::-1]
        lam = np.pad(lam, (0, n - r))
        mix = sum(w * rng.permutation(lam) for w in rng.dirichlet(np.ones(4)))
        return lam, np.sort(mix)[::-1]
    rank = draw(st.integers(1, n - 1))
    ones = (np.arange(n) < rank).astype(float)
    s = draw(st.sampled_from([0.0, 0.25, 0.5]))
    return ones, s * ones + (1.0 - s) * rank / n


@SETTINGS
@given(majorizing_pairs())
def test_construct_matches_reference_rotations_on_full_matrix(pair):
    lam, p = pair
    want = np.diag(lam)
    for step in t_transform_chain(lam, p):
        want, _ = reference_rotate(want, step)
    assert_bits_equal(horn_construct(lam, p).entries, want)


@SETTINGS
@given(
    n=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    t=st.floats(0.0, 1.0, exclude_max=True),
)
def test_apply_t_transform_matches_reference_on_phase_branch(n, seed, t):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, n)
    i, j = sorted(int(k) for k in rng.choice(n, size=2, replace=False))
    step = TTransform(i, j, t)
    assert a.entries[i, j] != 0
    u, result = apply_t_transform(a, step)
    want, block = reference_rotate(a.entries.copy(), step)
    assert want.dtype == np.complex128 and block.dtype == np.complex128
    assert_bits_equal(result.entries, want)
    assert_bits_equal(u[np.ix_([i, j], [i, j])], block)
