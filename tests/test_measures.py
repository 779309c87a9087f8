"""Measures, tail integrals, the spread order and quantile transport."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import majorant

from majorant import (
    CompactMeasure,
    InvalidInput,
    StepFunction,
    check_majorization,
    from_matrix,
    from_step_function,
    majorize_measure,
    moment,
    normalize_list,
    quantile_transport,
    tail_integral,
)
from majorant.sampling import (
    concentrate_measure,
    random_hermitian,
    random_majorizing_pair,
    random_measure,
    random_ordered_pair,
)

from oracles import decreasing_grid_lists, hinge_sum, hinge_tail, top_k_tail_formula

HALF_HALF = CompactMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))
METHODS = ("hinge", "survivor", "convex_family")


class TestCompactMeasureType:
    def test_mass_must_be_one(self):
        with pytest.raises(InvalidInput):
            CompactMeasure(atoms=((0.0, 0.5),))

    def test_masses_must_be_positive(self):
        with pytest.raises(InvalidInput):
            CompactMeasure(atoms=((0.0, 1.5), (1.0, -0.5)))

    def test_piece_needs_width(self):
        with pytest.raises(InvalidInput):
            CompactMeasure(pieces=((1.0, 1.0, 1.0),))

    def test_support_must_be_finite(self):
        with pytest.raises(InvalidInput):
            CompactMeasure(atoms=((np.inf, 1.0),))

    def test_json_round_trip(self):
        m = CompactMeasure(atoms=((0.5, 0.25),), pieces=((0.0, 2.0, 0.75),))
        again = CompactMeasure.from_jsonable(m.to_jsonable())
        assert again.atoms == m.atoms and again.pieces == m.pieces


class TestMoment:
    def test_point_mass_powers(self):
        m = CompactMeasure.point(0.7)
        for k in range(7):
            assert moment(m, k) == pytest.approx(0.7**k, abs=1e-15)

    def test_uniform_square(self):
        assert moment(CompactMeasure.uniform(0, 1), 2) == pytest.approx(1 / 3)

    def test_half_half_mean(self):
        assert moment(HALF_HALF, 1) == pytest.approx(0.5)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInput):
            moment(HALF_HALF, -1)

    def test_narrow_piece_far_from_zero(self):
        # (b^2 - a^2) / (2 (b - a)) cancels on a narrow piece far from 0; it
        # can move the mean by 1.8e-10, enough to turn the hinge verdict
        narrow = CompactMeasure.uniform(1000.0, 1000.1)
        assert moment(narrow, 1) == pytest.approx(1000.05, abs=1e-12)
        for method in METHODS:
            assert majorize_measure(CompactMeasure.point(1000.05), narrow, method)


class TestFromMatrix:
    def test_multiplicity_merged(self):
        m = from_matrix(np.diag([1.0, 1.0, 0.0]))
        assert m.atoms == ((0.0, pytest.approx(1 / 3)), (1.0, pytest.approx(2 / 3)))

    def test_zero_matrix(self):
        assert from_matrix(np.zeros((4, 4))).atoms == ((0.0, 1.0),)

    def test_off_diagonal_flip(self):
        m = from_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        locs = [x for x, _ in m.atoms]
        np.testing.assert_allclose(locs, [-1.0, 1.0], atol=1e-12)
        assert all(w == pytest.approx(0.5) for _, w in m.atoms)

    def test_moments_match_normalized_traces(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            n = int(rng.integers(2, 15))
            a = random_hermitian(rng, n)
            m = from_matrix(a)
            power = np.eye(n)
            for k in range(7):
                assert moment(m, k) == pytest.approx(
                    float(np.trace(power).real) / n, abs=1e-9
                )
                power = power @ a.entries


class TestTailIntegral:
    def test_half_half_at_zero(self):
        assert tail_integral(HALF_HALF, 0.0, "survivor") == pytest.approx(0.5)
        assert tail_integral(HALF_HALF, 0.0, "hinge") == pytest.approx(0.5)

    def test_beyond_support_is_zero(self):
        for mode in ("survivor", "hinge"):
            assert tail_integral(HALF_HALF, 1.5, mode) == 0.0

    def test_below_support_is_mean_minus_t(self):
        m = CompactMeasure(atoms=((0.25, 0.5),), pieces=((0.5, 1.0, 0.5),))
        t = -2.0
        for mode in ("survivor", "hinge"):
            assert tail_integral(m, t, mode) == pytest.approx(moment(m, 1) - t, abs=1e-12)

    def test_modes_agree_on_random_input(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            m = random_measure(rng)
            lo, hi = m.support_bounds()
            t = float(rng.uniform(lo - 1.0, hi + 1.0))
            s = tail_integral(m, t, "survivor")
            h = tail_integral(m, t, "hinge")
            assert abs(s - h) <= 1e-12

    def test_grid_tails_match_reference(self):
        # overlapping pieces, a repeated atom location and atoms at piece
        # ends, at breakpoints, inside gaps and outside the support
        rng = np.random.default_rng(41)
        for _ in range(200):
            a0 = float(rng.uniform(-2.0, 0.0))
            b0 = a0 + float(rng.uniform(0.5, 2.0))
            a1 = float(rng.uniform(a0, b0))
            b1 = b0 + float(rng.uniform(0.1, 1.0))
            x = float(rng.uniform(-3.0, 3.0))
            w = rng.dirichlet(np.ones(6))
            m = CompactMeasure(
                atoms=tuple(zip((x, x, b0, a1), w[:4])),
                pieces=((a0, b0, w[4]), (a1, b1, w[5])),
            )
            bps = m.breakpoints()
            lo, hi = m.support_bounds()
            inside = bps[:-1] + rng.uniform(0.0, 1.0, bps.size - 1) * np.diff(bps)
            for t in [*bps, *inside, lo - 1.0, hi + 1.0]:
                for mode in ("survivor", "hinge"):
                    assert abs(tail_integral(m, t, mode) - hinge_tail(m, t)) <= 1e-13

    def test_matches_finite_list_formula(self):
        # for an equal-mass atomic measure and t between consecutive
        # values, the tail integral is (v_1 + ... + v_k - k t) / n
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            values = np.sort(rng.normal(size=n))[::-1]
            m = CompactMeasure.from_points(values)
            k = int(rng.integers(1, n))
            if values[k - 1] - values[k] < 1e-6:
                continue
            t = float(rng.uniform(values[k], values[k - 1]))
            expected = top_k_tail_formula(values, k, t)
            for mode in ("survivor", "hinge"):
                assert tail_integral(m, t, mode) == pytest.approx(expected, abs=1e-12)
            assert hinge_sum(values, t) == pytest.approx(expected, abs=1e-12)


class TestMajorizeMeasure:
    def test_point_below_split(self):
        point = CompactMeasure.point(0.5)
        for method in METHODS:
            assert majorize_measure(point, HALF_HALF, method)

    def test_reflexive(self):
        m = CompactMeasure(atoms=((0.1, 0.4),), pieces=((0.2, 0.9, 0.6),))
        for method in METHODS:
            assert majorize_measure(m, m, method)

    def test_split_not_below_point(self):
        point = CompactMeasure.point(0.5)
        # tail integral of the split at t = 1/2 is 1/4, the point's is 0
        assert tail_integral(HALF_HALF, 0.5, "hinge") == pytest.approx(0.25)
        assert tail_integral(point, 0.5, "hinge") == 0.0
        for method in METHODS:
            assert not majorize_measure(HALF_HALF, point, method)

    def test_interior_gap_between_breakpoints_detected(self):
        # sup of the tail gap sits strictly inside a quadratic segment:
        # at every shared breakpoint the gap vanishes, yet the order fails
        uniform = CompactMeasure.uniform(0.0, 1.0)
        for t in (0.0, 1.0):
            gap = tail_integral(HALF_HALF, t, "hinge") - tail_integral(uniform, t, "hinge")
            assert abs(gap) <= 1e-15
        for method in METHODS:
            assert not majorize_measure(HALF_HALF, uniform, method)
            assert majorize_measure(uniform, HALF_HALF, method)

    def test_interior_gap_near_segment_end_detected(self):
        # on the union segment [0, 1] the tail gap peaks at 31/512, in the
        # segment's first tenth; it is <= 0 at every breakpoint and at the
        # quarter points and midpoint of every segment, so only the exact
        # vertex of the gap reveals that the order fails
        p, top = 1 / 32, 31 / 16
        m = CompactMeasure(atoms=((0.0, p), (1.0, 1 - p)))
        n = CompactMeasure.uniform(0.0, top)
        bps = np.union1d(m.breakpoints(), n.breakpoints())
        for t in [u + f * (v - u) for u, v in zip(bps[:-1], bps[1:]) for f in (0, 0.25, 0.5, 0.75, 1)]:
            assert tail_integral(m, t, "hinge") - tail_integral(n, t, "hinge") <= 0.0
        vertex = p * top
        assert vertex < 0.1
        assert tail_integral(m, vertex, "hinge") - tail_integral(n, vertex, "hinge") > 1e-4
        for method in METHODS:
            assert not majorize_measure(m, n, method)

    def test_first_moment_mismatch_is_false(self):
        for method in METHODS:
            assert not majorize_measure(CompactMeasure.point(0.4), HALF_HALF, method)

    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInput):
            majorize_measure(HALF_HALF, HALF_HALF, "magic")

    def test_methods_agree_on_random_pairs(self):
        rng = np.random.default_rng(19)
        verdicts = {True: 0, False: 0}
        for trial in range(60):
            if trial % 2 == 0:
                m, n = random_ordered_pair(rng)
            else:
                m = random_measure(rng)
                n = random_measure(rng)
                n = n.shifted(moment(m, 1) - moment(n, 1))
            results = {method: majorize_measure(m, n, method) for method in METHODS}
            assert len(set(results.values())) == 1
            verdicts[results["hinge"]] += 1
        assert min(verdicts.values()) >= 10

    def test_transitive_on_nested_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            top = random_measure(rng)
            mid = concentrate_measure(rng, top)
            low = concentrate_measure(rng, mid)
            assert majorize_measure(low, mid, "hinge")
            assert majorize_measure(mid, top, "hinge")
            assert majorize_measure(low, top, "hinge")

    def test_mutual_domination_means_equal_tails(self):
        rng = np.random.default_rng(29)
        m = random_measure(rng)
        while not m.atoms:
            m = random_measure(rng)
        # same distribution written differently: split an atom in two
        x, w = m.atoms[0]
        rewritten = CompactMeasure(
            atoms=((x, w / 2), (x, w / 2)) + m.atoms[1:], pieces=m.pieces
        )
        assert majorize_measure(m, rewritten, "hinge")
        assert majorize_measure(rewritten, m, "hinge")
        for t in np.linspace(*m.support_bounds(), 17):
            assert tail_integral(m, t, "hinge") == pytest.approx(
                tail_integral(rewritten, t, "hinge"), abs=1e-12
            )

    def test_discrete_bridge_random_lists(self):
        # up to length 50: equal-mass measures of two lists with equal
        # totals are ordered exactly when the prefix-sum test holds
        rng = np.random.default_rng(37)
        seen = {True: 0, False: 0}
        for _ in range(100):
            n = int(rng.integers(2, 51))
            if rng.random() < 0.5:
                p, lam = random_majorizing_pair(rng, n)
            else:
                lam = normalize_list(rng.normal(size=n))
                bump = np.zeros(n)
                bump[0], bump[-1] = 0.3, -0.3
                p = normalize_list(lam.values + bump)
            classical = check_majorization(p, lam, "equality", 1e-10).holds
            bridged = majorize_measure(
                CompactMeasure.from_points(p.values),
                CompactMeasure.from_points(lam.values),
                "hinge",
            )
            assert classical == bridged
            seen[classical] += 1
        assert min(seen.values()) >= 20

    def test_discrete_bridge_small_grid(self):
        # equal-mass atomic measures versus the prefix-sum test, all
        # length-3 lists over a rational grid, grouped by total
        lists = decreasing_grid_lists(3, [0.0, 0.5, 1.0, 1.5])
        by_total = {}
        for lst in lists:
            by_total.setdefault(sum(lst), []).append(lst)
        checked = 0
        for group in by_total.values():
            for p in group:
                for lam in group:
                    classical = check_majorization(p, lam, "equality", 1e-12).holds
                    bridged = majorize_measure(
                        CompactMeasure.from_points(p),
                        CompactMeasure.from_points(lam),
                        "hinge",
                    )
                    assert classical == bridged
                    checked += 1
        assert checked >= 40


def test_order_decision_leaves_numpy_ma_unimported():
    # importing numpy.ma costs a CLI process about 15 ms; np.union1d pulls it in
    code = (
        "import sys\n"
        "from majorant import CompactMeasure, majorize_measure\n"
        "m = CompactMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))\n"
        "n = CompactMeasure(atoms=((-1.0, 0.25), (2.0, 0.25)), pieces=((0.0, 1.0, 0.5),))\n"
        "for method in ('hinge', 'survivor', 'convex_family'):\n"
        "    majorize_measure(m, n, method)\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(majorant.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


class TestQuantileTransport:
    def test_half_half_four_cells(self):
        f = quantile_transport(HALF_HALF, 4)
        np.testing.assert_array_equal(f.values, [0.0, 0.0, 1.0, 1.0])

    def test_point_mass_constant(self):
        f = quantile_transport(CompactMeasure.point(0.3), 5)
        np.testing.assert_array_equal(f.values, np.full(5, 0.3))

    def test_uniform_midpoints(self):
        f = quantile_transport(CompactMeasure.uniform(0, 1), 2)
        np.testing.assert_allclose(f.values, [0.25, 0.75], atol=1e-15)

    def test_values_nondecreasing(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = random_measure(rng)
            f = quantile_transport(m, int(rng.integers(1, 40)))
            assert np.all(np.diff(f.values) >= 0)

    def test_exact_for_cell_rational_atomic(self):
        m = CompactMeasure(atoms=((-1.0, 0.3), (0.25, 0.45), (2.0, 0.25)))
        f = quantile_transport(m, 20)
        emp = from_step_function(f)
        assert emp.atoms == m.atoms
        for j in range(7):
            assert moment(emp, j) == pytest.approx(moment(m, j), abs=1e-14)

    def test_moments_converge(self):
        m = CompactMeasure(atoms=((0.0, 1 / np.e),), pieces=((0.3, 1.5, 1 - 1 / np.e),))
        errors = []
        for cells in (100, 1000):
            emp = from_step_function(quantile_transport(m, cells))
            errors.append(
                max(abs(moment(emp, j) - moment(m, j)) for j in range(1, 7))
            )
        assert errors[1] < errors[0] / 3

    def test_cell_count_validated(self):
        with pytest.raises(InvalidInput):
            quantile_transport(HALF_HALF, 0)


class TestStepFunction:
    def test_needs_values(self):
        with pytest.raises(InvalidInput):
            StepFunction(np.array([]))

    def test_json_round_trip(self):
        f = StepFunction(np.array([1.0, 0.5, 0.25]))
        again = StepFunction.from_jsonable(f.to_jsonable())
        np.testing.assert_array_equal(f.values, again.values)

    def test_json_cell_count_checked(self):
        with pytest.raises(InvalidInput):
            StepFunction.from_jsonable({"N": 5, "values": [1.0, 2.0]})

    def test_value_distribution(self):
        m = from_step_function(StepFunction(np.array([1.0, 0.0, 1.0, 0.0])))
        assert m.atoms == ((0.0, 0.5), (1.0, 0.5))
