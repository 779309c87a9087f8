"""Lists, prefix-sum comparisons and the reduction construction."""

import numpy as np
import pytest

from majorant import (
    EigenList,
    InvalidInput,
    MajorizationViolation,
    TraceMismatch,
    check_majorization,
    hinge_family,
    hlp_convex_check,
    normalize_list,
    reduce_to_equality,
)
from majorant.sampling import random_dominance_pair, random_hermitian, random_majorizing_pair

from oracles import reference_reduce_to_equality, validate_reduction


class TestNormalize:
    def test_sorts_decreasing(self):
        np.testing.assert_array_equal(normalize_list((1, 3, 2)).values, [3, 2, 1])

    def test_singleton(self):
        np.testing.assert_array_equal(normalize_list((5,)).values, [5])

    def test_ties_preserved(self):
        np.testing.assert_array_equal(
            normalize_list((0.5, 0.5, 0.5)).values, [0.5, 0.5, 0.5]
        )

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            normalize_list(())

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            normalize_list((1.0, float("nan")))
        with pytest.raises(InvalidInput):
            normalize_list((1.0, float("inf")))


class TestEigenListType:
    def test_unsorted_rejected(self):
        with pytest.raises(InvalidInput):
            EigenList(np.array([1.0, 2.0]))

    def test_solver_jitter_tolerated(self):
        EigenList(np.array([1.0, 1.0 + 5e-13]))  # within default slack

    def test_values_read_only(self):
        lst = normalize_list((3, 1, 2))
        with pytest.raises(ValueError):
            lst.values[0] = 0.0

    def test_json_round_trip(self):
        lst = normalize_list((3, 2, 1))
        again = EigenList.from_jsonable(lst.to_jsonable())
        np.testing.assert_array_equal(lst.values, again.values)


class TestCheckMajorization:
    def test_equality_example(self):
        report = check_majorization((2, 2), (3, 1), "equality")
        assert report.holds
        np.testing.assert_allclose(report.slack, [1.0, 0.0])
        assert report.first_violation is None
        assert report.trace_gap == 0.0

    def test_identity_case(self):
        assert check_majorization((1, 1, 1), (1, 1, 1), "equality").holds

    def test_dominance_violation_reported(self):
        report = check_majorization((3, 1), (2, 2), "dominance")
        assert not report.holds
        assert report.first_violation == 1

    def test_equality_needs_matching_totals(self):
        report = check_majorization((1, 0), (3, 1), "equality")
        assert not report.holds
        assert report.first_violation == 2
        assert report.trace_gap == pytest.approx(3.0)
        assert check_majorization((1, 0), (3, 1), "dominance").holds

    def test_shorter_list_zero_padded(self):
        report = check_majorization((1,), (2, 1, 0), "dominance")
        assert report.holds
        assert report.slack.shape == (3,)

    def test_slack_is_exact_prefix_difference(self):
        rng = np.random.default_rng(5)
        p = np.sort(rng.normal(size=7))[::-1]
        lam = np.sort(rng.normal(size=7))[::-1]
        report = check_majorization(p, lam, "dominance")
        np.testing.assert_allclose(report.slack, np.cumsum(lam) - np.cumsum(p), atol=0)

    def test_bad_mode_rejected(self):
        with pytest.raises(InvalidInput):
            check_majorization((1,), (1,), "backwards")

    def test_schur_direction_random(self):
        # sorted diagonal of a self-adjoint matrix is majorized by its spectrum
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 21))
            a = random_hermitian(rng, n)
            diag = normalize_list(a.diagonal())
            assert check_majorization(diag, a.eigenvalues(), "equality", 1e-9).holds


class TestReduceToEquality:
    def test_spec_polytope_point_is_feasible(self):
        # (2, 1) is itself a feasible reduction for p=(2,1), lam=(3,1);
        # the construction may return any point of the same polytope
        assert validate_reduction((2, 1), (3, 1), (2, 1))
        mu = reduce_to_equality((2, 1), (3, 1))
        assert validate_reduction((2, 1), (3, 1), mu.values)

    def test_convex_combination_case(self):
        mu = reduce_to_equality((1, 1), (3, 2))
        np.testing.assert_allclose(mu.values, [1.5, 0.5], atol=1e-15)
        assert validate_reduction((1, 1), (3, 2), mu.values)

    def test_equal_lists_fixed(self):
        mu = reduce_to_equality((2, 1, 0.5), (2, 1, 0.5))
        np.testing.assert_allclose(mu.values, [2, 1, 0.5], atol=1e-12)

    def test_requires_dominance(self):
        with pytest.raises(MajorizationViolation):
            reduce_to_equality((3, 1), (2, 2))

    def test_requires_nonnegative(self):
        with pytest.raises(InvalidInput):
            reduce_to_equality((-1.0,), (0.0,))

    def test_random_instances_pass_validator(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            lam = np.sort(rng.uniform(0, 3, size=n))[::-1]
            p = np.sort(rng.uniform(0, 3, size=n))[::-1]
            p *= rng.uniform(0.2, 1.0) * min(
                1.0, (np.cumsum(lam) / np.maximum(np.cumsum(p), 1e-30)).min()
            )
            mu = reduce_to_equality(p, lam)
            assert validate_reduction(p, lam, mu.values)
            # p is majorized by mu with equal totals
            assert check_majorization(p, mu, "equality", 1e-10).holds

    def test_matches_appending_reference_byte_for_byte(self):
        rng = np.random.default_rng(19)
        for n in range(1, 201):
            for r in (None, int(rng.integers(1, n + 1))):
                p, lam = random_dominance_pair(rng, n, r=r)
                mu = reduce_to_equality(p, lam).values
                want = reference_reduce_to_equality(p.values, lam.values)
                assert mu.dtype == want.dtype and mu.shape == want.shape == (n,)
                assert mu.tobytes() == want.tobytes()


class TestHlpConvexCheck:
    def test_square_example(self):
        assert hlp_convex_check((2, 2), (3, 1), [lambda x: x * x])

    def test_identity_case(self):
        assert hlp_convex_check((1, 1), (1, 1), [abs, lambda x: x * x])

    def test_reversed_pair_fails(self):
        assert not hlp_convex_check((3, 1), (2, 2), [lambda x: x * x])

    def test_trace_mismatch_rejected(self):
        with pytest.raises(TraceMismatch):
            hlp_convex_check((1, 1), (3, 1), [abs])

    def test_empty_family_rejected(self):
        with pytest.raises(InvalidInput):
            hlp_convex_check((1, 1), (2, 0), [])

    def test_agrees_with_prefix_test_on_random_pairs(self):
        # hinges anchored at the entries are decisive for finite lists
        rng = np.random.default_rng(23)
        seen = {True: 0, False: 0}
        for _ in range(150):
            n = int(rng.integers(2, 9))
            if rng.random() < 0.5:
                p, lam = random_majorizing_pair(rng, n)
                if rng.random() < 0.5:  # perturb into a likely-false pair
                    bump = np.zeros(n)
                    bump[0] = rng.uniform(0.1, 0.5)
                    bump[-1] = -bump[0]
                    p = normalize_list(p.values + bump)
            else:
                lam = normalize_list(rng.normal(size=n))
                raw = rng.normal(size=n)
                p = normalize_list(raw + (lam.total() - raw.sum()) / n)
            prefix = check_majorization(p, lam, "equality", 1e-9).holds
            convex = hlp_convex_check(p, lam, hinge_family(p, lam), 1e-9)
            assert prefix == convex
            seen[prefix] += 1
        assert min(seen.values()) >= 20
