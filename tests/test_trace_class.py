"""Feasibility and constructions at finite truncation."""

import numpy as np
import pytest

from majorant import (
    HermitianMatrix,
    InvalidInput,
    MajorizationViolation,
    TraceMismatch,
    contraction_diagonal,
    eigenlist_l1_distance,
    feasible_diagonal,
    horn_construct,
    normalize_list,
    projection_with_diagonal,
    realize_finite_rank,
    reduce_to_equality,
)
from majorant.horn import horn_frame
from majorant.sampling import random_dominance_pair, random_psd

from oracles import op_norm, trace_norm


class TestFeasibleDiagonal:
    def test_unit_mass_split_against_rank_one(self):
        # geometric split of one unit of trace across five entries
        assert feasible_diagonal(
            (0.5, 0.25, 0.125, 0.0625, 0.0625), (1, 0, 0, 0, 0)
        )

    def test_identity_case(self):
        assert feasible_diagonal((0.3, 0.2), (0.3, 0.2))

    def test_trace_mismatch_fails(self):
        assert not feasible_diagonal((0.6, 0.6), (1, 0))

    def test_prefix_violation_fails(self):
        assert not feasible_diagonal((0.9, 0.1), (0.8, 0.2))

    def test_negative_entries_rejected(self):
        with pytest.raises(InvalidInput):
            feasible_diagonal((-0.5, -0.5), (1.0,))

    def test_unequal_lengths_padded(self):
        assert feasible_diagonal((0.5, 0.5), (1,))


class TestRealizeFiniteRank:
    def test_rank_one_spread(self):
        a = realize_finite_rank((1, 0, 0, 0), (0.5, 0.25, 0.125, 0.125), 4)
        np.testing.assert_allclose(a.diagonal(), [0.5, 0.25, 0.125, 0.125], atol=1e-10)
        vals = np.linalg.eigvalsh(a.entries)[::-1]
        np.testing.assert_allclose(vals, [1, 0, 0, 0], atol=1e-8)
        assert vals[-1] >= -1e-10  # positive semidefinite

    def test_identity_case(self):
        a = realize_finite_rank((2, 1), (2, 1), 2)
        np.testing.assert_array_equal(a.entries, np.diag([2.0, 1.0]))

    def test_matches_direct_construction(self):
        via_truncation = realize_finite_rank((2, 1, 0), (1, 1, 1), 3)
        direct = horn_construct((2, 1, 0), (1, 1, 1))
        np.testing.assert_array_equal(via_truncation.entries, direct.entries)

    def test_padding_to_larger_size(self):
        a = realize_finite_rank((1,), (0.5, 0.5), 3)
        np.testing.assert_allclose(a.diagonal(), [0.5, 0.5, 0.0], atol=1e-10)

    def test_truncation_too_small(self):
        with pytest.raises(InvalidInput):
            realize_finite_rank((1, 0.5, 0.25), (1, 0.5, 0.25), 2)

    def test_infeasible_rejected(self):
        with pytest.raises(MajorizationViolation):
            realize_finite_rank((1, 0), (0.4, 0.4), 2)

    def test_trace_equals_diagonal_total(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(2, 10))
            lam = normalize_list(rng.uniform(0, 1, size=n))
            a = realize_finite_rank(lam, lam, n + 2)
            assert float(np.trace(a.entries).real) == pytest.approx(
                lam.total(), abs=1e-9
            )


class TestContractionDiagonal:
    def test_halved_rank_one(self):
        L = contraction_diagonal(HermitianMatrix(np.diag([1.0, 0.0])), (0.5,))
        a = np.diag([1.0, 0.0])
        np.testing.assert_allclose(
            np.diag(L.conj().T @ a @ L).real, [0.5, 0.0], atol=1e-12
        )
        assert abs(L[0, 0]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_existing_diagonal_is_attainable(self):
        rng = np.random.default_rng(3)
        a = random_psd(rng, 5)
        p = normalize_list(a.diagonal())
        L = contraction_diagonal(a, p)
        got = np.diag(L.conj().T @ a.entries @ L).real
        np.testing.assert_allclose(got, p.values, atol=1e-10)
        assert op_norm(L) <= 1 + 1e-12

    def test_equal_flat_targets(self):
        a = HermitianMatrix(np.diag([3.0, 1.0]))
        L = contraction_diagonal(a, (2.0, 2.0))
        got = np.diag(L.conj().T @ a.entries @ L).real
        np.testing.assert_allclose(got, [2.0, 2.0], atol=1e-10)
        assert op_norm(L) <= 1 + 1e-12

    def test_short_target_zero_extended(self):
        rng = np.random.default_rng(5)
        a = random_psd(rng, 6)
        p, _ = random_dominance_pair(rng, 6, r=3)
        vals = np.linalg.eigvalsh(a.entries)[::-1][:3]
        scale = min(1.0, float((np.cumsum(vals) / np.cumsum(p.values)).min()))
        p = normalize_list(p.values * scale * 0.9)
        L = contraction_diagonal(a, p)
        got = np.diag(L.conj().T @ a.entries @ L).real
        np.testing.assert_allclose(got[:3], p.values, atol=1e-10)
        np.testing.assert_allclose(got[3:], 0.0, atol=1e-12)

    def test_real_and_complex_matrix_give_valid_witnesses(self):
        rng = np.random.default_rng(11)
        for n, r in ((3, 2), (20, 10), (60, 60)):
            p, lam = random_dominance_pair(rng, n, r=r)
            a = horn_construct(lam, np.full(n, lam.total() / n))
            for entries in (a.entries, a.entries.astype(complex)):
                L = contraction_diagonal(HermitianMatrix(entries), p)
                assert L.dtype == entries.dtype
                got = np.diag(L.conj().T @ entries @ L).real
                assert np.max(np.abs(got - np.pad(p.values, (0, n - r)))) <= 1e-9
                assert op_norm(L) <= 1 + 1e-12

    def test_chain_frame_diagonalizes_the_core(self):
        rng = np.random.default_rng(13)
        for n in (1, 2, 3, 10, 60, 200):
            for r in (n, max(1, n // 3)):
                p, lam = random_dominance_pair(rng, n, r=r)
                mu = reduce_to_equality(p, lam.values[:r])
                q = horn_frame(mu, p)
                assert q.dtype == np.float64 and q.shape == (r, r)
                assert np.max(np.abs(q @ q.T - np.eye(r))) <= 1e-13
                core = horn_construct(mu, p).entries
                scale = float(np.max(np.abs(mu.values)))
                assert np.max(np.abs(q @ np.diag(mu.values) @ q.T - core)) <= 1e-12 * scale

    def test_one_eigensolve_per_contraction(self, monkeypatch):
        calls = {"eigh": 0, "eigvalsh": 0}
        for name in calls:
            solver = getattr(np.linalg, name)

            def counted(*args, _solver=solver, _name=name, **kwargs):
                calls[_name] += 1
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        rng = np.random.default_rng(17)
        p, lam = random_dominance_pair(rng, 30, r=12)
        a = horn_construct(lam, np.full(30, lam.total() / 30))
        for entries in (a.entries, a.entries.astype(complex)):
            matrix = HermitianMatrix(entries)
            calls.update(eigh=0, eigvalsh=0)
            contraction_diagonal(matrix, p)
            assert calls == {"eigh": 1, "eigvalsh": 0}

    def test_dominance_violation_rejected(self):
        with pytest.raises(MajorizationViolation):
            contraction_diagonal(HermitianMatrix(np.diag([1.0, 0.0])), (2.0,))

    def test_non_psd_rejected(self):
        with pytest.raises(InvalidInput):
            contraction_diagonal(HermitianMatrix(np.diag([1.0, -1.0])), (0.5,))


class TestProjectionWithDiagonal:
    def test_balanced_two_by_two(self):
        p = projection_with_diagonal((0.5, 0.5), 1, 2)
        np.testing.assert_allclose(p.diagonal(), [0.5, 0.5], atol=1e-12)
        assert abs(p.entries[0, 1]) == pytest.approx(0.5, abs=1e-12)
        assert op_norm(p.entries @ p.entries - p.entries) <= 1e-12

    def test_zero_one_diagonal(self):
        p = projection_with_diagonal((1, 1, 0), 2, 3)
        np.testing.assert_array_equal(p.entries, np.diag([1.0, 1.0, 0.0]))

    def test_quarter_three_quarter(self):
        p = projection_with_diagonal((0.75, 0.75, 0.25, 0.25), 2, 4)
        np.testing.assert_allclose(p.diagonal(), [0.75, 0.75, 0.25, 0.25], atol=1e-10)
        assert op_norm(p.entries @ p.entries - p.entries) <= 1e-8
        assert float(np.trace(p.entries).real) == pytest.approx(2.0, abs=1e-8)
        vals = np.linalg.eigvalsh(p.entries)
        assert np.all((np.abs(vals) <= 1e-8) | (np.abs(vals - 1) <= 1e-8))

    def test_entries_outside_unit_interval_rejected(self):
        with pytest.raises(InvalidInput):
            projection_with_diagonal((1.5, 0.5), 2, 2)

    def test_non_integer_total_rejected(self):
        with pytest.raises(TraceMismatch):
            projection_with_diagonal((0.7, 0.6), 1, 2)

    def test_rank_too_large_rejected(self):
        with pytest.raises(InvalidInput):
            projection_with_diagonal((1.0, 1.0), 3, 2)


class TestEigenlistL1Distance:
    def test_basic_arithmetic(self):
        assert eigenlist_l1_distance((1, 0), (0.5, 0.5)) == pytest.approx(1.0)

    def test_identity(self):
        assert eigenlist_l1_distance((0.3, 0.2, 0.1), (0.3, 0.2, 0.1)) == 0.0

    def test_padding(self):
        assert eigenlist_l1_distance((1.0,), (0.5, 0.25)) == pytest.approx(0.75)

    def test_lower_bounds_trace_norm_distance(self):
        # list distance never exceeds the trace-norm distance of carriers
        rng = np.random.default_rng(7)
        for _ in range(500):
            n = int(rng.integers(2, 9))
            a, b = random_psd(rng, n), random_psd(rng, n)
            la = normalize_list(np.linalg.eigvalsh(a.entries)[::-1])
            lb = normalize_list(np.linalg.eigvalsh(b.entries)[::-1])
            assert eigenlist_l1_distance(la, lb) <= trace_norm(
                a.entries - b.entries
            ) + 1e-10
