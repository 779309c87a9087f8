"""Diagonal compression, its convexity inequalities, and cell alignment."""

import math
import tracemalloc

import numpy as np
import pytest

from majorant import (
    DistributionMismatch,
    HermitianMatrix,
    InvalidInput,
    StepFunction,
    align_step_functions,
    classical_schur_check,
    convex_pinch_check,
    pinch_diag,
    pinch_experiment,
    positive_part,
    schur_distribution_check,
)
from majorant import pinching
from majorant.eigenlists import hinge
from majorant.pinching import _draw_family, _family_table, _pinch_witnesses

from oracles import default_convex_family, reference_pinch_experiment
from sampling import random_hermitian

FLIP = HermitianMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestPinchDiag:
    def test_zero_diagonal(self):
        np.testing.assert_array_equal(pinch_diag(FLIP).entries, np.zeros((2, 2)))

    def test_idempotent_on_diagonal(self):
        d = HermitianMatrix(np.diag([2.0, -1.0]))
        np.testing.assert_array_equal(pinch_diag(d).entries, d.entries)

    def test_keeps_diagonal_and_trace(self):
        a = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 0.0]]))
        pinched = pinch_diag(a)
        np.testing.assert_array_equal(pinched.entries, np.diag([2.0, 0.0]))
        assert np.trace(pinched.entries) == np.trace(a.entries)

    def test_trace_exactly_preserved_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_hermitian(rng, int(rng.integers(2, 20)))
            assert np.trace(pinch_diag(a).entries) == np.trace(a.entries)

    def test_bimodule_identity(self):
        # E(D1 A D2) = D1 E(A) D2 for diagonal D1, D2
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            d1 = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
            d2 = np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
            lhs = pinch_diag(d1 @ a @ d2)
            rhs = d1 @ pinch_diag(a) @ d2
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rectangular_rejected(self):
        with pytest.raises(InvalidInput):
            pinch_diag(np.zeros((2, 3)))


class TestPositivePart:
    def test_diagonal_case(self):
        out = positive_part(np.diag([1.0, -1.0]))
        np.testing.assert_allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-14)

    def test_psd_fixed(self):
        a = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(positive_part(a).entries, a.entries, atol=1e-13)

    def test_flip_matrix(self):
        np.testing.assert_allclose(
            positive_part(FLIP).entries, 0.5 * np.ones((2, 2)), atol=1e-14
        )

    def test_dominates_zero_and_original(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_hermitian(rng, int(rng.integers(2, 15)))
            plus = positive_part(a)
            assert np.linalg.eigvalsh(plus.entries)[0] >= -1e-10
            assert np.linalg.eigvalsh(plus.entries - a.entries)[0] >= -1e-10


class TestConvexPinchCheck:
    def test_square_on_flip(self):
        holds, witness = convex_pinch_check(FLIP, lambda x: x * x)
        assert holds
        assert witness == pytest.approx(1.0, abs=1e-12)

    def test_equality_on_diagonal_input(self):
        holds, witness = convex_pinch_check(np.diag([3.0, -2.0]), np.exp)
        assert holds
        assert witness == pytest.approx(0.0, abs=1e-12)

    def test_positive_part_hinge_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_hermitian(rng, int(rng.integers(2, 12)))
            holds, witness = convex_pinch_check(a, lambda x: max(x, 0.0))
            assert holds and witness >= -1e-9

    def test_pinched_positive_part_matches_hinge_witness(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = random_hermitian(rng, 8)
            lhs = np.diag(positive_part(pinch_diag(a)).entries).real
            rhs = np.diag(pinch_diag(positive_part(a)).entries).real
            assert float(np.min(rhs - lhs)) >= -1e-9

    def test_undefined_function_rejected(self):
        import math

        with pytest.raises(InvalidInput):
            convex_pinch_check(np.diag([1.0, -4.0]), math.sqrt)

    def test_full_family_random(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            a = random_hermitian(rng, int(rng.integers(2, 10)))
            for f in default_convex_family(rng):
                holds, witness = convex_pinch_check(a, f)
                assert holds, f"witness {witness}"


class TestSchurDistributionCheck:
    def test_flip_matrix(self):
        assert schur_distribution_check(FLIP)

    def test_diagonal_matrix(self):
        assert schur_distribution_check(np.diag([1.0, 2.0, 3.0]))

    def test_always_true_and_matches_classical(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a = random_hermitian(rng, int(rng.integers(2, 25)))
            assert schur_distribution_check(a)
            assert classical_schur_check(a)


class TestAlignStepFunctions:
    def test_equal_multisets_align_exactly(self):
        f = StepFunction(np.array([1.0, 0.0, 1.0, 0.0]))
        g = StepFunction(np.array([1.0, 1.0, 0.0, 0.0]))
        perm, achieved = align_step_functions(f, g, 0.5)
        assert achieved == 0.0
        np.testing.assert_array_equal(f.values[list(perm)], g.values)
        assert sorted(perm) == [0, 1, 2, 3]

    def test_identical_input_identity_permutation(self):
        f = StepFunction(np.array([0.3, 0.1, 0.2]))
        perm, achieved = align_step_functions(f, f, 1.0)
        assert perm == (0, 1, 2)
        assert achieved == 0.0

    def test_eps_perturbation(self):
        eps = 0.25
        f = StepFunction(np.array([1.0, 0.0]))
        g = StepFunction(np.array([1.0 + eps, 0.0]))
        perm, achieved = align_step_functions(f, g, eps)
        assert achieved == pytest.approx(eps, abs=1e-15)
        assert achieved <= 2 * eps

    def test_mismatch_beyond_eps_rejected(self):
        f = StepFunction(np.array([1.0, 0.0]))
        g = StepFunction(np.array([2.0, 0.0]))
        with pytest.raises(DistributionMismatch):
            align_step_functions(f, g, 0.5)

    def test_cell_count_must_match(self):
        with pytest.raises(InvalidInput):
            align_step_functions(
                StepFunction(np.array([1.0])), StepFunction(np.array([1.0, 2.0])), 1.0
            )

    def test_random_matched_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            cells = int(rng.integers(2, 40))
            eps = float(rng.uniform(0.05, 0.5))
            base = rng.normal(size=cells)
            f = StepFunction(base)
            g = StepFunction(rng.permutation(base) + rng.uniform(-eps, eps, size=cells))
            perm, achieved = align_step_functions(f, g, eps)
            assert achieved <= 2 * eps
            assert sorted(perm) == list(range(cells))


class TestPinchExperiment:
    def test_deterministic_given_seed(self):
        a = pinch_experiment(6, 20, seed=42)
        b = pinch_experiment(6, 20, seed=42)
        assert a == b

    def test_report_shape_and_verdict(self):
        report = pinch_experiment(8, 30, seed=7)
        assert report["holds"]
        assert report["min_witness"] >= -1e-9
        assert report["max_violation"] <= 1e-9
        assert report["checks"]["positive_part"]["count"] == 30

    def test_seed_bounds(self):
        with pytest.raises(InvalidInput):
            pinch_experiment(4, 5, seed=2**64)

    def test_witnesses_match_matrix_recomputation(self):
        for n, trials, seed in ((6, 20, 42), (20, 10, 3), (1, 5, 8)):
            report = pinch_experiment(n, trials, seed)
            rng = np.random.default_rng(seed)
            min_pos = min_convex = np.inf
            for _ in range(trials):
                a = random_hermitian(rng, n)
                lhs = np.diag(positive_part(pinch_diag(a)).entries).real
                rhs = np.diag(pinch_diag(positive_part(a)).entries).real
                min_pos = min(min_pos, float(np.min(rhs - lhs)))
                for f in default_convex_family(rng):
                    min_convex = min(min_convex, convex_pinch_check(a, f)[1])
            checks = report["checks"]
            assert checks["positive_part"]["min_witness"] == pytest.approx(min_pos, abs=1e-12)
            assert checks["convex_family"]["min_witness"] == pytest.approx(min_convex, abs=1e-12)

    @pytest.mark.parametrize(
        "n, trials, seed", [(2.5, 3, 1), (3, 2.5, 1), (3, 3, 3.7), (3, 3, "5"), (None, 3, 1)]
    )
    def test_non_integer_arguments_rejected(self, n, trials, seed):
        with pytest.raises(InvalidInput):
            pinch_experiment(n, trials, seed)

    def test_numpy_integers_accepted(self):
        report = pinch_experiment(np.int64(4), np.uint8(3), np.uint64(2**64 - 1))
        assert report == pinch_experiment(4, 3, 2**64 - 1)
        assert type(report["seed"]) is int


class TestFamilyTable:
    """The sweep's array table and default_convex_family's callables are one family."""

    STATES = [(seed, skip) for seed in (0, 1, 29, 2**40 + 3) for skip in (0, 1, 7)]

    @staticmethod
    def _twins(seed, skip):
        rngs = [np.random.default_rng(seed) for _ in range(3)]
        for rng in rngs:
            rng.normal(size=skip)
        return rngs

    @pytest.mark.parametrize("seed, skip", STATES)
    def test_same_draws_in_the_same_order(self, seed, skip):
        helper_rng, family_rng, reference_rng = self._twins(seed, skip)
        ts, a, b, rs, cs = _draw_family(helper_rng)
        default_convex_family(family_rng)
        assert helper_rng.bit_generator.state == family_rng.bit_generator.state
        np.testing.assert_array_equal(ts, reference_rng.uniform(-2.0, 2.0, 3))
        assert [a, b] == list(reference_rng.normal(size=2))
        np.testing.assert_array_equal(rs, reference_rng.uniform(-2.0, 2.0, 3))
        np.testing.assert_array_equal(cs, reference_rng.uniform(0.0, 2.0, 3))
        assert helper_rng.bit_generator.state == reference_rng.bit_generator.state

    @pytest.mark.parametrize("seed, skip", STATES)
    def test_rows_equal_the_callables_point_by_point(self, seed, skip):
        helper_rng, family_rng, _ = self._twins(seed, skip)
        params = _draw_family(helper_rng)
        family = default_convex_family(family_rng)
        ts, a, b, rs, cs = params
        a_matrix = random_hermitian(np.random.default_rng(seed), 12)
        points = np.concatenate(
            [np.linalg.eigvalsh(a_matrix.entries), a_matrix.diagonal(), ts, rs, [0.0, -3.5, 4.25]]
        )
        table = _family_table(params, points)
        assert table.shape == (len(family) + 1, len(points))
        assert table[0].tobytes() == np.array([hinge(0.0)(x) for x in points]).tobytes()
        for k, f in enumerate(family, start=1):
            expected = np.array([f(x) for x in points], dtype=float)
            if f is math.exp:
                np.testing.assert_array_max_ulp(table[k], expected, maxulp=1)
            else:
                assert table[k].tobytes() == expected.tobytes(), f"row {k}"
        # the cone element keeps its affine part a + b*x
        below = points < min(rs)
        np.testing.assert_array_equal(table[-1][below], a + b * points[below])

    def test_overflow_is_rejected_not_returned(self):
        params = _draw_family(np.random.default_rng(3))
        with np.errstate(over="ignore"):
            with pytest.raises(InvalidInput):
                _family_table(params, np.array([0.0, 1000.0]))
            with pytest.raises(InvalidInput):
                _pinch_witnesses(
                    HermitianMatrix(np.diag([800.0, 0.0])), lambda p: _family_table(params, p)
                )


def bits(report):
    """The report with every float spelled out to the bit."""
    if isinstance(report, dict):
        return {key: bits(value) for key, value in report.items()}
    return report.hex() if isinstance(report, float) else report


class TestBlockedSweep:
    """Blocks of trials give the trial-at-a-time reports bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 20, 50])
    @pytest.mark.parametrize("seed", [0, 5, 2**63 + 11])
    def test_reports_equal_the_reference_loop(self, n, seed):
        trials = 12 if n < 50 else 4
        assert bits(pinch_experiment(n, trials, seed)) == bits(
            reference_pinch_experiment(n, trials, seed)
        )

    @pytest.mark.parametrize("n, trials, budget", [(3, 10, 4 * 9), (20, 45, None)])
    def test_every_witness_equals_the_reference_loop(self, monkeypatch, n, trials, budget):
        # reports keep only minima; every trial's witness row must match too
        blocked, reference = [], []
        witnesses = pinching._pinch_witnesses

        def spy(A, table):
            rows = witnesses(A, table)
            blocked.extend(rows)
            return rows

        monkeypatch.setattr(pinching, "_pinch_witnesses", spy)
        if budget is not None:
            monkeypatch.setattr(pinching, "BLOCK_ENTRIES", budget)
        pinch_experiment(n, trials, 4)
        reference_pinch_experiment(n, trials, 4, record=reference)
        assert len(blocked) == trials
        assert np.array(blocked).tobytes() == np.array(reference).tobytes()

    @pytest.mark.parametrize("n, per_block", [(1, 3), (3, 2), (7, 3), (7, 1)])
    def test_trial_counts_around_block_boundaries(self, monkeypatch, n, per_block):
        monkeypatch.setattr(pinching, "BLOCK_ENTRIES", n * n * per_block + n * n - 1)
        around = {1, per_block - 1, per_block, per_block + 1, 2 * per_block, 3 * per_block + 1}
        for trials in sorted(around - {0}):
            for seed in (1, 9):
                assert bits(pinch_experiment(n, trials, seed)) == bits(
                    reference_pinch_experiment(n, trials, seed)
                ), (trials, seed)

    def test_live_memory_does_not_grow_with_trials(self):
        assert pinching.BLOCK_ENTRIES // 20**2 >= 20  # 20 trials at n = 20 make one block
        per_block = pinching.BLOCK_ENTRIES // 4**2
        peaks = []
        for trials in (per_block, 4 * per_block):
            tracemalloc.start()
            pinch_experiment(4, trials, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_non_finite_table_in_a_block_is_rejected(self, monkeypatch):
        # a cone element 1e308 * (1 + x) overflows wherever x > 0
        huge = (np.zeros(3), 1e308, 1e308, np.zeros(3), np.zeros(3))
        monkeypatch.setattr(pinching, "_draw_family", lambda rng: huge)
        with np.errstate(over="ignore"), pytest.raises(InvalidInput):
            pinch_experiment(3, 4, 1)

    def test_non_self_adjoint_matrix_in_a_block_is_rejected(self, monkeypatch):
        monkeypatch.setattr(pinching, "_hermitian_entries", lambda rng, n: np.triu(np.ones((n, n))))
        with pytest.raises(InvalidInput, match="self-adjoint"):
            pinch_experiment(3, 4, 1)


@pytest.mark.parametrize("call, message", [
    (lambda: align_step_functions([1.0, 0.0], StepFunction([1.0, 0.0]), 0.1),
     "align_step_functions expects two StepFunction values"),
    (lambda: align_step_functions(StepFunction([1.0, 0.0]), StepFunction([1.0, 0.0]), 0.0),
     "eps must be positive"),
    (lambda: align_step_functions(StepFunction([1.0, 0.0]), StepFunction([1.0, 0.0]), -0.1),
     "eps must be positive"),
    (lambda: pinch_experiment(0, 5, 1), "need n >= 1 and trials >= 1"),
    (lambda: pinch_experiment(True, True, 0), "n, trials and seed must be integers"),
], ids=["align-not-a-step-function", "align-eps-zero", "align-eps-negative", "pinch-n-zero",
        "pinch-n-trials-true"])
def test_invalid_input_is_rejected(call, message):
    with pytest.raises(InvalidInput) as caught:
        call()
    assert str(caught.value) == message


def test_schur_distribution_check_takes_one_eigensolve(monkeypatch):
    # the diagonal's distribution is read off the diagonal; only A's spectrum is solved for
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    rng = np.random.default_rng(53)
    matrices = [FLIP, np.diag([1.0, 2.0, 3.0]), np.eye(4), [[2.0]]]
    for _ in range(60):
        a = random_hermitian(rng, int(rng.integers(1, 25)))
        matrices += [a, a.entries.real]
    for a in matrices:
        calls.clear()
        verdict = schur_distribution_check(a)
        assert len(calls) == 1
        assert verdict == classical_schur_check(a)
