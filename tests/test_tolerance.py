"""The tolerance policy: verdicts and constructions do not depend on units.

Every slack on data is a level times the data's magnitude, so scaling
the input by 10^k must leave each verdict as it is and each construction
as accurate, relative to the data, as at scale 1.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorant.eigenlists as eigenlists
import majorant.horn as horn
from majorant import (
    CompactMeasure,
    EigenList,
    HermitianMatrix,
    MajorizationViolation,
    check_majorization,
    contraction_diagonal,
    feasible_diagonal,
    horn_construct,
    majorize_measure,
    normalize_list,
)
from majorant.eigenlists import as_eigenlist
from majorant.horn import TTransform
from majorant.sampling import random_majorizing_pair, random_ordered_pair, random_psd, spread_measure

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
METHODS = ("hinge", "survivor", "convex_family")
EXPONENTS = st.integers(-8, 8)


def rescaled(m: CompactMeasure, c: float) -> CompactMeasure:
    return CompactMeasure(
        atoms=tuple((x * c, w) for x, w in m.atoms),
        pieces=tuple((a * c, b * c, w) for a, b, w in m.pieces),
    )


def verdicts(m: CompactMeasure, n: CompactMeasure) -> list[bool]:
    return [majorize_measure(m, n, method) for method in METHODS]


def assert_round_trip(lam: np.ndarray, p: np.ndarray) -> None:
    """Criterion 01's bounds (1e-10 on the diagonal, 1e-8 on the spectrum) times the scale."""
    a = horn_construct(lam, p)
    scale = float(np.max(np.abs(lam)))
    assert np.max(np.abs(a.diagonal() - p)) <= 1e-10 * scale
    assert np.max(np.abs(np.linalg.eigvalsh(a.entries)[::-1] - lam)) <= 1e-8 * scale


# integer lists: every exact prefix slack is 0 or at least 1 in magnitude,
# so the verdict at scale 1 is exact and rounding under 10^k cannot reach it
integer_lists = st.lists(st.integers(-20, 20), min_size=1, max_size=8)


@SETTINGS
@given(integer_lists, integer_lists, st.sampled_from(["equality", "dominance"]), EXPONENTS)
def test_check_majorization_verdict_is_scale_free(p, lam, mode, k):
    p, lam = sorted(p, reverse=True), sorted(lam, reverse=True)
    want = check_majorization(p, lam, mode).holds
    c = 10.0**k
    assert check_majorization(np.multiply(p, c), np.multiply(lam, c), mode).holds == want


@SETTINGS
@given(st.integers(2, 40), st.integers(0, 2**32 - 1), EXPONENTS)
def test_check_majorization_verdict_is_scale_free_on_majorizing_pairs(n, seed, k):
    p, lam = random_majorizing_pair(np.random.default_rng(seed), n)
    c = 10.0**k
    assert check_majorization(p.values * c, lam.values * c).holds
    # reversed, the pair holds only when the two lists coincide
    want = check_majorization(lam, p).holds
    assert check_majorization(lam.values * c, p.values * c).holds == want


@SETTINGS
@given(
    st.lists(st.integers(0, 20), min_size=1, max_size=8),
    st.lists(st.integers(0, 20), min_size=1, max_size=8),
    EXPONENTS,
)
def test_feasible_diagonal_verdict_is_scale_free(p, lam, k):
    p, lam = sorted(p, reverse=True), sorted(lam, reverse=True)
    c = 10.0**k
    assert feasible_diagonal(np.multiply(p, c), np.multiply(lam, c)) == feasible_diagonal(p, lam)


@SETTINGS
@given(st.integers(0, 2**32 - 1), EXPONENTS)
def test_measure_verdicts_are_scale_free(seed, k):
    lower, upper = random_ordered_pair(np.random.default_rng(seed))
    c = 10.0**k
    for m, n in ((lower, upper), (upper, lower)):
        want = verdicts(m, n)
        assert len(set(want)) == 1
        assert verdicts(rescaled(m, c), rescaled(n, c)) == want


@SETTINGS
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), EXPONENTS)
def test_construction_round_trip_is_scale_free(n, seed, k):
    p, lam = random_majorizing_pair(np.random.default_rng(seed), n)
    c = 10.0**k
    assert_round_trip(lam.values * c, p.values * c)


@SETTINGS
@given(st.integers(0, 2**32 - 1))
def test_spread_order_is_reflexive_and_transitive(seed):
    rng = np.random.default_rng(seed)
    lower, middle = random_ordered_pair(rng)
    upper = spread_measure(rng, middle)
    for m in (lower, middle, upper):
        assert all(verdicts(m, m))
    assert all(verdicts(lower, middle)) and all(verdicts(middle, upper))
    assert all(verdicts(lower, upper))


# -- one regression test per unit-dependent verdict -------------------------


@pytest.mark.parametrize("scale", [1e4, 1e6])
def test_rescaled_constructions_succeed(scale):
    for seed in range(20):
        p, lam = random_majorizing_pair(np.random.default_rng(seed), 100)
        assert_round_trip(lam.values * scale, p.values * scale)


def test_tiny_lists_are_compared_at_their_own_scale():
    assert not check_majorization((2e-11, 0), (1e-11, 1e-11)).holds
    assert check_majorization((1e-11, 1e-11), (2e-11, 0)).holds


def test_large_matrix_with_round_off_asymmetry_is_accepted():
    a = HermitianMatrix([[1e8, 1], [1 + 1e-8, 0]])
    assert a.dim == 2


@pytest.mark.parametrize("scale", [1e-12, 1e6])
def test_measure_verdicts_match_scale_one(scale):
    rng = np.random.default_rng(0)
    for _ in range(200):
        lower, upper = random_ordered_pair(rng)
        for m, n in ((lower, upper), (upper, lower)):
            assert verdicts(rescaled(m, scale), rescaled(n, scale)) == verdicts(m, n)


def test_contraction_of_a_small_matrix_lands_on_its_target():
    # an absolute floor on the quadratic form would zero columns whose form is below 1e-12
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = random_psd(rng, 12, scale=1e-12)
        p = np.sort(a.eigenvalues().values[:6] * rng.uniform(0.3, 0.9, 6))[::-1]
        L = contraction_diagonal(a, p)
        got = np.diag(L.conj().T @ a.entries @ L).real
        assert np.max(np.abs(got[:6] - p)) <= 1e-10 * p[0]


# -- checked stops and single validation ------------------------------------


def test_mixing_chain_that_runs_off_the_end_raises(monkeypatch):
    monkeypatch.setattr(horn, "check_majorization", lambda *args: types.SimpleNamespace(holds=True))
    with pytest.raises(MajorizationViolation, match="stopped"):
        horn_construct((1, 1), (2, 0))


def test_residual_within_the_decision_tolerance_is_accepted():
    a = horn_construct((1, 0, 0), (0.5, 0.5 - 5e-11, 0))
    assert np.max(np.abs(a.diagonal() - (0.5, 0.5, 0))) <= 1e-10


def test_raw_lists_are_validated_once(monkeypatch):
    calls = []
    original = eigenlists._to_array

    def spy(values):
        calls.append(values)
        return original(values)

    monkeypatch.setattr(eigenlists, "_to_array", spy)
    for build in (
        lambda: as_eigenlist([3.0, 2.0, 1.0]),
        lambda: EigenList.from_jsonable({"values": [3.0, 2.0, 1.0]}),
        lambda: normalize_list([1.0, 3.0, 2.0]),
    ):
        calls.clear()
        build()
        assert len(calls) == 1


def test_eigenlist_has_no_settable_tolerance():
    with pytest.raises(TypeError):
        EigenList([2.0, 1.0], tolerance=1e-3)
    # solver output off-monotone by round-off of the largest entry is accepted
    EigenList([1e6, 1e6 * (1 + 1e-15)])


# -- permutation and translation ---------------------------------------------
# No pair below sits on the edge of the decision slack: every prefix slack
# of two integer lists is 0 or at least 1 in magnitude, and a pair built by
# a mixing chain holds with its total slack exactly 0 in exact arithmetic.

MODES = st.sampled_from(["equality", "dominance"])
equal_length_pairs = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*[st.lists(st.integers(-20, 20), min_size=n, max_size=n)] * 2)
)


def chain_pair(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(p, lam), unsorted and nonnegative: p is lam carried through 2n random mixing steps."""
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.0, 2.0, n)
    p = lam
    for _ in range(2 * n):
        i, j = sorted(rng.choice(n, 2, replace=False).tolist())
        p = TTransform(i, j, float(rng.uniform())).apply_to_vector(p)
    return p, lam


def raw_verdicts(p, lam, mode: str = "equality") -> tuple[bool, bool]:
    """check_majorization of the sorted raw lists, and feasible_diagonal of their magnitudes."""
    return (
        check_majorization(normalize_list(p), normalize_list(lam), mode).holds,
        feasible_diagonal(normalize_list(np.abs(p)), normalize_list(np.abs(lam))),
    )


@SETTINGS
@given(integer_lists, integer_lists, MODES, st.randoms(use_true_random=False))
def test_verdicts_are_permutation_free(p, lam, mode, random):
    want = raw_verdicts(p, lam, mode)
    random.shuffle(p)
    random.shuffle(lam)
    assert raw_verdicts(p, lam, mode) == want


@SETTINGS
@given(equal_length_pairs, st.integers(-(10**6), 10**6))
def test_equality_verdicts_are_translation_free(pair, c):
    p, lam = (np.sort(v)[::-1] for v in pair)
    want = check_majorization(p, lam).holds
    assert check_majorization(p + c, lam + c).holds == want
    p, lam = np.abs(p), np.abs(lam)
    want = feasible_diagonal(normalize_list(p), normalize_list(lam))
    assert feasible_diagonal(normalize_list(p + abs(c)), normalize_list(lam + abs(c))) == want


@SETTINGS
@given(
    st.integers(2, 40),
    st.integers(0, 2**32 - 1),
    st.floats(-1e6, 1e6),
    st.randoms(use_true_random=False),
)
def test_chain_pairs_hold_under_permutation_and_translation(n, seed, c, random):
    p, lam = chain_pair(seed, n)
    order = random.sample(range(n), n)
    assert raw_verdicts(p, lam) == raw_verdicts(p[order], lam[order]) == (True, True)
    assert raw_verdicts(p + abs(c), lam + abs(c)) == (True, True)
    assert check_majorization(normalize_list(p + c), normalize_list(lam + c)).holds
