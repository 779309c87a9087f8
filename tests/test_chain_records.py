"""The step records of a mixing chain, field by field, against a full-rescan replay.

A chain keeps one record (i, j, t, x_i, x_j, stay) per step.  A
construction reads x_i and x_j for its corner entries and its diagonal,
and stay for the row each corner entry goes into, so every field is
checked here against a replay that rescans x - p at every step (the
rule of ``oracles.reference_chain``, with the package's snap of
round-off times the largest spectrum entry).
"""

import numpy as np
import pytest

from majorant import (
    EigenList,
    eigh_desc,
    horn_construct,
    projection_with_diagonal,
    realize_finite_rank,
    reduce_to_equality,
)
from majorant.horn import _mixing_steps

from oracles import reference_chain


def replay(lam, p):
    """Records (i, j, t, x_i, x_j, stay) of the chain from ``lam`` to ``p`` by full rescans.

    stay is the pivot the step leaves unpinned, or j when the step pins both.
    """
    x = np.array(lam, dtype=float)
    pv = np.asarray(p, dtype=float)
    snap = 1e-12 * float(np.max(np.abs(x)))
    records = []
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
        xi, xj = float(x[i]), float(x[j])
        delta = min(xi - pv[i], pv[j] - xj)
        t = 1.0 - delta / (xi - xj)
        x[i], x[j] = xi - delta, xj + delta
        pinned = [abs(x[k] - pv[k]) <= snap for k in (i, j)]
        assert any(pinned), "every step pins a pivot"
        for k, pin in zip((i, j), pinned):
            if pin:
                x[k] = pv[k]
        records.append((i, j, min(1.0, max(0.0, t)), xi, xj, j if pinned[0] else i))
    return records


def records(chain):
    return list(zip(chain.i, chain.j, chain.t.tolist(), chain.x_i.tolist(), chain.x_j.tolist(), chain.stay))


def check_chain(chain, lam, p):
    want = replay(lam, p)
    assert records(chain) == want
    if np.max(np.abs(lam)) >= 1.0:
        # there the reference's snap, 1e-12 * max(1, max |lam|), is the package's
        assert [r[:3] for r in want] == reference_chain(lam, p)


def mix_down(rng, values):
    """Sorted convex combination of four random permutations of ``values``: majorized by them."""
    weights = rng.dirichlet(np.ones(4))
    return np.sort(sum(w * rng.permutation(values) for w in weights))[::-1]


def summable(rng, n):
    return np.sort(rng.uniform(0.5, 1.5, n) / np.arange(1, n + 1) ** 2)[::-1]


@pytest.mark.parametrize("n", [2, 3, 17, 40, 200])
def test_records_of_the_four_construct_chains(n):
    # the inputs of one trace-class construct job: horn_construct, a zero-padded
    # realize_finite_rank, a projection with a [0, 1] diagonal, and the chain
    # inside contraction_diagonal, which starts from reduce_to_equality's mu
    rng = np.random.default_rng([29, n])
    for _ in range(3):
        lam = summable(rng, n)
        p = mix_down(rng, lam)
        a = horn_construct(lam, p)
        check_chain(a._chain[1], lam, p)

        lam_r = np.pad(summable(rng, max(1, 3 * n // 4)), (0, n - max(1, 3 * n // 4)))
        p_r = mix_down(rng, lam_r)
        check_chain(realize_finite_rank(lam_r, p_r, n)._chain[1], lam_r, p_r)

        rank = max(1, 2 * n // 5)
        ones = (np.arange(n) < rank).astype(float)
        q = np.clip(mix_down(rng, ones), 0.0, 1.0)
        proj = projection_with_diagonal(q, rank, n)
        check_chain(proj._chain[1], ones, q)

        pc = EigenList(mix_down(rng, lam[: max(1, n // 2)]) * rng.uniform(0.5, 0.95))
        mu = reduce_to_equality(pc, EigenList(np.maximum(eigh_desc(a)[0][: len(pc)], 0.0)))
        check_chain(_mixing_steps(mu, pc, 1e-10), mu.values, pc.values)


@pytest.mark.parametrize("n, rank", [(2, 1), (5, 2), (20, 8), (200, 80)])
@pytest.mark.parametrize("s", [0.0, 0.25, 0.5])
def test_records_of_projection_pairs_with_ties(n, rank, s):
    # a flat target ties many coordinates, so steps pin both pivots at once
    ones = (np.arange(n) < rank).astype(float)
    q = s * ones + (1.0 - s) * rank / n
    chain = projection_with_diagonal(q, rank, n)._chain[1]
    check_chain(chain, ones, q)


def test_records_of_tie_heavy_integer_pairs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        lam = np.sort(rng.integers(-2, 3, n).astype(float))[::-1]
        p = np.sort(rng.permutation(lam) * 0.5 + np.full(n, lam.mean()) * 0.5)[::-1]
        check_chain(horn_construct(lam, p)._chain[1], lam, p)


@pytest.mark.parametrize("lam, p, steps, stays", [
    ((3.0,), (3.0,), 0, []),
    ((1.0, 0.0), (0.7, 0.3), 1, [1]),
    ((2.0, 2.0), (2.0, 2.0), 0, []),
    ((1.0, -1.0), (0.25, -0.25), 1, [1]),
    ((3.0, 1.0), (2.0, 2.0), 1, [1]),
    ((5.0, 3.0, 1.0, -1.0), (4.0, 2.0, 2.0, 0.0), 2, [2, 3]),
    ((3.0, 0.0, 0.0), (1.0, 1.0, 1.0), 2, [0, 2]),
])
def test_records_at_one_and_two_coordinates_and_small_ties(lam, p, steps, stays):
    chain = horn_construct(lam, p)._chain[1]
    check_chain(chain, lam, p)
    assert len(chain.t) == steps
    assert list(chain.stay) == stays


@pytest.mark.parametrize("lam", [(3.0,), (-1.0,), (3.0, 2.0, 1.0), (0.0, 0.0, 0.0, 0.0), (2.0, 2.0)])
def test_p_equal_to_lam_gives_the_empty_chain(lam):
    a = horn_construct(lam, lam)
    chain = a._chain[1]
    assert len(chain.i) == len(chain.j) == len(chain.stay) == 0
    for field in (chain.t, chain.x_i, chain.x_j):
        assert field.dtype == np.float64 and field.shape == (0,)
    np.testing.assert_array_equal(a.entries, np.diag(lam))
