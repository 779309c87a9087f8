"""Measures, tail integrals, the spread order and quantile transport."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import majorant
import majorant.measures as measures

from majorant import (
    CompactMeasure,
    InvalidInput,
    StepFunction,
    check_majorization,
    from_matrix,
    from_step_function,
    integrate_function,
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

from oracles import (
    decreasing_grid_lists,
    hinge_sum,
    hinge_tail,
    reference_convex_family,
    reference_convex_family_gap,
    reference_decisive_thresholds,
    reference_gaps,
    reference_hinge_tail,
    reference_majorize_measure,
    reference_survivor_tail,
    top_k_tail_formula,
)

HALF_HALF = CompactMeasure(atoms=((0.0, 0.5), (1.0, 0.5)))
METHODS = ("hinge", "survivor", "convex_family")


WIDTH = {"atoms": 2, "pieces": 3}

#: one input per check of CompactMeasure, with the message it raises
INVALID = {
    "nan atom location": ({"atoms": ((np.nan, 1.0),)}, "atom data must be finite"),
    "infinite atom mass": ({"atoms": ((0.0, np.inf),)}, "atom data must be finite"),
    "nan piece start": ({"pieces": ((np.nan, 1.0, 1.0),)}, "piece data must be finite"),
    "infinite piece end": ({"pieces": ((0.0, np.inf, 1.0),)}, "piece data must be finite"),
    "nan piece mass": ({"atoms": ((0.0, 1.0),), "pieces": ((0.0, 1.0, np.nan),)},
                       "piece data must be finite"),
    "zero atom mass": ({"atoms": ((0.0, 1.0), (1.0, 0.0))}, "atom masses must be positive"),
    "negative atom mass": ({"atoms": ((0.0, 1.5), (1.0, -0.5))}, "atom masses must be positive"),
    "zero piece mass": ({"atoms": ((0.0, 1.0),), "pieces": ((0.0, 1.0, 0.0),)},
                        "piece masses must be positive"),
    "negative piece mass": ({"atoms": ((0.0, 1.5),), "pieces": ((0.0, 1.0, -0.5),)},
                            "piece masses must be positive"),
    "piece with a = b": ({"pieces": ((1.0, 1.0, 1.0),)}, "piece needs a < b"),
    "piece with a > b": ({"atoms": ((0.0, 0.5),), "pieces": ((2.0, 1.0, 0.5),)}, "piece needs a < b"),
    "no atoms or pieces": ({}, "needs at least one atom or piece"),
    "empty atoms and pieces": ({"atoms": (), "pieces": ()}, "needs at least one atom or piece"),
    "total below 1": ({"atoms": ((0.0, 0.5),)}, "total mass"),
    "total above 1": ({"atoms": ((0.0, 0.75),), "pieces": ((0.0, 1.0, 0.5),)}, "total mass"),
}

#: rows of the wrong width or of no fixed width; a bare reshape would turn
#: the first into three atoms of total mass 1 and the second into one atom
MALFORMED = {
    "two atoms of three numbers": ({"atoms": ((0.0, 0.25, 1.0), (0.25, 2.0, 0.5))},
                                   "each atom must be 2 numbers"),
    "flat atom": ({"atoms": (0.0, 1.0)}, "each atom must be 2 numbers"),
    "ragged atoms": ({"atoms": ((0.0, 0.5), (1.0,))}, "each atom must be 2 numbers"),
    "atom of no numbers": ({"atoms": ((),)}, "each atom must be 2 numbers"),
    "atom that is not a number": ({"atoms": (("zero", 1.0),)}, "each atom must be 2 numbers"),
    "scalar atoms": ({"atoms": 1.0}, "each atom must be 2 numbers"),
    "piece of two numbers": ({"pieces": ((0.0, 1.0),)}, "each piece must be 3 numbers"),
    "pieces as a k x 2 array": ({"pieces": np.array([[0.0, 1.0], [1.0, 2.0]])},
                                "each piece must be 3 numbers"),
    "ragged pieces": ({"pieces": ((0.0, 1.0, 0.5), (1.0, 2.0))}, "each piece must be 3 numbers"),
}


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

    @pytest.mark.parametrize("form", ["tuples", "arrays"])
    @pytest.mark.parametrize("data, message", INVALID.values(), ids=list(INVALID))
    def test_each_check_holds_for_tuples_and_arrays(self, data, message, form):
        if form == "arrays":
            data = {key: np.array(rows, dtype=float).reshape(-1, WIDTH[key]) for key, rows in data.items()}
        with pytest.raises(InvalidInput, match=message):
            CompactMeasure(**data)

    @pytest.mark.parametrize("data, message", MALFORMED.values(), ids=list(MALFORMED))
    def test_ragged_or_wrong_width_rows_rejected(self, data, message):
        with pytest.raises(InvalidInput, match=message):
            CompactMeasure(**data)

    def test_rows_are_read_from_the_columns_on_first_access(self):
        m = CompactMeasure.from_points(np.random.default_rng(6).normal(size=1000))
        assert "atoms" not in vars(m) and "pieces" not in vars(m)
        assert m.atoms == tuple(zip(m._atom_x[:, 0].tolist(), m._atom_w[:, 0].tolist()))
        assert m.atoms is m.atoms and vars(m)["atoms"] is m.atoms
        assert m.pieces == () and all(type(v) is float for row in m.atoms for v in row)

    def test_many_equal_masses_total_one(self):
        # a left-to-right sum of 10^5 masses 1/n drifts past the round-off level
        rng = np.random.default_rng(5)
        m = CompactMeasure.from_points(rng.normal(size=100_000))
        assert m._x.size == 100_000

    def test_reads_back_its_own_transport(self):
        f = quantile_transport(CompactMeasure.uniform(0.0, 1.0), 100_000)
        m = from_step_function(f)
        assert m.support_bounds() == (f.values[0], f.values[-1])

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


def rescaled(m: CompactMeasure, c: float) -> CompactMeasure:
    return CompactMeasure(
        atoms=tuple((x * c, w) for x, w in m.atoms),
        pieces=tuple((a * c, b * c, w) for a, b, w in m.pieces),
    )


def criterion_09_pairs():
    """The 500 random pairs of acceptance criterion 09, drawn in its order."""
    rng = np.random.default_rng(1009)
    pairs = []
    for trial in range(500):
        if trial % 2 == 0:
            pairs.append(random_ordered_pair(rng))
        else:
            m, n = random_measure(rng), random_measure(rng)
            if trial % 4 == 1:
                n = n.shifted(moment(m, 1) - moment(n, 1))
            pairs.append((m, n))
    return pairs


class TestIntegrateFunction:
    def test_hinge_with_listed_kink_equals_tail(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            m = random_measure(rng)
            lo, hi = m.support_bounds()
            inside = rng.uniform(lo, hi, 3)
            for t in [*m.breakpoints(), *inside, lo - 1.0, hi + 1.0]:
                got = integrate_function(m, lambda x: max(x - t, 0.0), kinks=(t,))
                scale = max(abs(lo), abs(hi), abs(t))
                assert abs(got - tail_integral(m, t, "hinge")) <= 1e-13 * scale

    def test_atoms_only(self):
        m = CompactMeasure(atoms=((-1.0, 0.25), (0.5, 0.25), (2.0, 0.5)))
        assert integrate_function(m, lambda x: x * x) == pytest.approx(moment(m, 2), abs=1e-15)
        assert integrate_function(m, lambda x: max(x - 0.0, 0.0)) == pytest.approx(1.125, abs=1e-15)

    def test_pieces_only(self):
        # two Gauss nodes integrate cubics exactly on each piece
        m = CompactMeasure(pieces=((0.0, 1.0, 0.5), (0.5, 3.0, 0.5)))
        assert integrate_function(m, lambda x: x**3) == pytest.approx(moment(m, 3), abs=1e-14)
        got = integrate_function(m, lambda x: max(x - 0.75, 0.0), kinks=(0.75,))
        assert got == pytest.approx(tail_integral(m, 0.75, "hinge"), abs=1e-15)

    def test_unlisted_kink_inside_a_piece_is_not_exact(self):
        # the split at a listed kink is what makes a hinge exact
        f = lambda x: max(x - 0.5, 0.0)
        uniform = CompactMeasure.uniform(0.0, 1.0)
        assert integrate_function(uniform, f, kinks=(0.5,)) == pytest.approx(0.125, abs=1e-16)
        assert abs(integrate_function(uniform, f) - 0.125) > 1e-2

    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_kink_at_a_piece_end(self, t):
        # t is an end of one piece (no split there) and inside the other
        m = CompactMeasure(atoms=((1.0, 0.2),), pieces=((0.0, 1.0, 0.4), (1.0, 2.0, 0.4)))
        got = integrate_function(m, lambda x: max(x - t, 0.0), kinks=(t,))
        assert got == pytest.approx(hinge_tail(m, t), abs=1e-15)
        assert got == pytest.approx(tail_integral(m, t, "hinge"), abs=1e-15)

    @pytest.mark.parametrize("t", [-5.0, 10.0])
    def test_kink_outside_the_support(self, t):
        m = CompactMeasure(atoms=((0.25, 0.5),), pieces=((0.5, 1.0, 0.5),))
        got = integrate_function(m, lambda x: max(x - t, 0.0), kinks=(t,))
        assert got == pytest.approx(max(moment(m, 1) - t, 0.0), abs=1e-14)


class TestConvexFamilyRoute:
    """``convex_family`` applies integrate_function's rule to every threshold in one pass."""

    @staticmethod
    def batched_gaps(m, n):
        thresholds = measures._decisive_thresholds(m, n)
        gaps = measures._quadrature_tail(m, thresholds) - measures._quadrature_tail(n, thresholds)
        return thresholds, gaps

    def assert_matches_reference(self, m, n):
        thresholds, gaps = self.batched_gaps(m, n)
        expected = [reference_convex_family_gap(m, n, t) for t in thresholds]
        scale = float(np.max(np.abs(thresholds)))
        np.testing.assert_allclose(gaps, expected, rtol=0.0, atol=1e-15 * scale)
        verdicts = {method: majorize_measure(m, n, method) for method in METHODS}
        assert set(verdicts.values()) == {reference_convex_family(m, n)}, verdicts
        return verdicts["convex_family"]

    def test_batched_gaps_match_reference(self):
        rng = np.random.default_rng(47)
        for trial in range(100):
            if trial % 2 == 0:
                m, n = random_ordered_pair(rng)
            else:
                m, n = random_measure(rng), random_measure(rng)
            self.assert_matches_reference(m, n)

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e6])
    def test_verdicts_match_reference_on_criterion_09_pairs(self, scale):
        verdicts = {True: 0, False: 0}
        for m, n in criterion_09_pairs():
            m, n = rescaled(m, scale), rescaled(n, scale)
            got = majorize_measure(m, n, "convex_family")
            assert got == reference_convex_family(m, n)
            assert got == majorize_measure(m, n, "hinge") == majorize_measure(m, n, "survivor")
            verdicts[got] += 1
        assert min(verdicts.values()) >= 100

    def test_decision_calls_no_integrate_function(self, monkeypatch):
        calls = []
        original = measures.integrate_function

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(measures, "integrate_function", counted)
        rng = np.random.default_rng(53)
        for _ in range(5):
            m, n = random_ordered_pair(rng)
            assert majorize_measure(m, n, "convex_family")
        assert not majorize_measure(HALF_HALF, CompactMeasure.point(0.5), "convex_family")
        assert calls == []

    def test_unhashable_method_rejected(self):
        with pytest.raises(InvalidInput):
            majorize_measure(HALF_HALF, HALF_HALF, ["convex_family"])

    def test_point_against_itself(self):
        point = CompactMeasure.point(0.3)
        thresholds, gaps = self.batched_gaps(point, point)
        np.testing.assert_array_equal(thresholds, [0.3])
        np.testing.assert_array_equal(gaps, [0.0])
        assert self.assert_matches_reference(point, point)

    def test_two_point_masses(self):
        a, b = CompactMeasure.point(0.0), CompactMeasure.point(1.0)
        assert not self.assert_matches_reference(a, b)
        assert not self.assert_matches_reference(b, a)

    def test_piece_only_pairs(self):
        inner = CompactMeasure(pieces=((0.0, 1.0, 0.5), (0.25, 0.75, 0.5)))
        outer = CompactMeasure(pieces=((-1.0, 2.0, 0.5), (0.0, 1.0, 0.5)))
        assert self.assert_matches_reference(inner, outer)
        assert not self.assert_matches_reference(outer, inner)

    def test_atoms_on_the_other_measures_piece_ends(self):
        # n spreads the atom at 0 over [-1, 0] and the one at 1 over [1, 2];
        # its tail exceeds m's by (t/2 + 1/2)^2 on [-1, 0], by 1/4 on [0, 1]
        n = CompactMeasure(pieces=((-1.0, 0.0, 0.5), (1.0, 2.0, 0.5)))
        assert self.assert_matches_reference(HALF_HALF, n)
        assert not self.assert_matches_reference(n, HALF_HALF)


def draw_measure(rng, kind: str) -> CompactMeasure:
    """A random measure of one kind: ``atoms``, ``pieces`` or ``mixed``.

    Half the draws put every location on a 1/4 grid, so that atoms land
    on piece ends and pieces share ends.
    """
    n_atoms = int(rng.integers(1, 9)) if kind != "pieces" else 0
    n_pieces = int(rng.integers(1, 5)) if kind != "atoms" else 0
    snap = (lambda v: np.round(4.0 * v) / 4.0) if rng.random() < 0.5 else (lambda v: v)
    w = rng.dirichlet(np.ones(n_atoms + n_pieces))
    xs = snap(rng.uniform(-2.0, 2.0, n_atoms))
    starts = snap(rng.uniform(-2.0, 2.0, n_pieces))
    ends = starts + snap(rng.uniform(0.25, 2.0, n_pieces))
    return CompactMeasure(atoms=tuple(zip(xs, w[:n_atoms])),
                          pieces=tuple(zip(starts, ends, w[n_atoms:])))


def table_test_pairs():
    """1000 random measures in 500 pairs: atom-only, piece-only, mixed, mixed
    shifted by 1e6 and mixed scaled by 1e-12; in every other pair m is n
    with some mass swept to its barycentre, so that both verdicts occur."""
    rng = np.random.default_rng(2015)
    kinds = {
        "atoms": lambda m: m,
        "pieces": lambda m: m,
        "mixed": lambda m: m,
        "shifted": lambda m: m.shifted(1e6),
        "scaled": lambda m: rescaled(m, 1e-12),
    }
    pairs = []
    for kind, move in kinds.items():
        base = "mixed" if kind in ("shifted", "scaled") else kind
        for trial in range(100):
            n = draw_measure(rng, base)
            m = concentrate_measure(rng, n) if trial % 2 else draw_measure(rng, base)
            pairs.append((kind, move(m), move(n)))
    return pairs


TABLES = ("_x", "_atom", "_dens", "_cell", "_above", "_first", "_whole",
          "_atom_x", "_atom_w", "_piece_a", "_piece_b", "_piece_w")


class TestTailTables:
    """Each measure builds its tail tables once; a decision only locates its thresholds."""

    def test_tails_and_gaps_match_references_bit_for_bit(self):
        verdicts = {True: 0, False: 0}
        for kind, m, n in table_test_pairs():
            thresholds = measures._decisive_thresholds(m, n)
            for measure in (m, n):
                for t in (thresholds, measure.breakpoints()):
                    assert (measures._hinge_tail(measure, t).tobytes()
                            == reference_hinge_tail(measure, t).tobytes()), kind
                    assert (measures._survivor_tail(measure, t).tobytes()
                            == reference_survivor_tail(measure, t).tobytes()), kind
            for method, tail in measures._ROUTES.items():
                _, expected = reference_gaps(m, n, method)
                gaps = tail(m, thresholds) - tail(n, thresholds)
                assert gaps.tobytes() == expected.tobytes(), (kind, method)
                got = majorize_measure(m, n, method)
                assert got == reference_majorize_measure(m, n, method), (kind, method)
                verdicts[got] += 1
        assert min(verdicts.values()) >= 300

    def test_scalar_tails_match_references(self):
        rng = np.random.default_rng(2016)
        for kind in ("atoms", "pieces", "mixed"):
            m = draw_measure(rng, kind)
            lo, hi = m.support_bounds()
            for t in [lo - 1.0, lo, *rng.uniform(lo, hi, 5), *m.breakpoints(), hi, hi + 1.0]:
                t = float(t)
                assert tail_integral(m, t, "hinge") == float(reference_hinge_tail(m, t))
                assert tail_integral(m, t, "survivor") == float(reference_survivor_tail(m, t))

    def test_verdicts_match_references_on_criterion_09_pairs(self):
        for m, n in criterion_09_pairs():
            for method in METHODS:
                assert majorize_measure(m, n, method) == reference_majorize_measure(m, n, method)

    def test_decision_rebuilds_no_table_and_parses_no_tuple(self, monkeypatch):
        class Unparsed:
            def refuse(self, *args, **kwargs):
                raise AssertionError("a decision parsed the atoms or pieces")

            __iter__ = __len__ = __getitem__ = __array__ = refuse

        rng = np.random.default_rng(2017)
        built = [(draw_measure(rng, kind), draw_measure(rng, kind)) for kind in ("atoms", "pieces", "mixed")]
        built += [random_ordered_pair(rng) for _ in range(3)]
        expected = [[reference_majorize_measure(m, n, method) for method in METHODS]
                    for m, n in built]
        calls = []
        original = measures._suffix

        def counted(v):
            calls.append(1)
            return original(v)

        monkeypatch.setattr(measures, "_suffix", counted)
        decide = lambda: [[majorize_measure(m, n, method) for method in METHODS] for m, n in built]
        assert decide() == expected
        assert calls == []
        for m, n in built:
            for measure in (m, n):
                object.__setattr__(measure, "atoms", Unparsed())
                object.__setattr__(measure, "pieces", Unparsed())
        assert decide() == expected

    @pytest.mark.parametrize("kind", ["atoms", "pieces", "mixed"])
    def test_tables_are_read_only(self, kind):
        m = draw_measure(np.random.default_rng(2018), kind)
        for name in TABLES:
            with pytest.raises(ValueError):
                getattr(m, name)[...] = 0.0


def schur_pairs():
    """(diagonal, spectrum) distributions of random Hermitian K x K matrices,
    K = 1 to 60, both ways round.  Each K gives a complex matrix and one whose
    last K - K // 2 rows and columns are cut off the rest and given diagonal
    entries in {-1, 0, 1}: those tie on the diagonal, in the spectrum and
    between the two."""
    rng = np.random.default_rng(2026)
    pairs = []
    for k in range(1, 61):
        full = random_hermitian(rng, k).entries
        tied = full.copy()
        tied[k // 2 :, :] = tied[:, k // 2 :] = 0.0
        tied[range(k // 2, k), range(k // 2, k)] = rng.integers(-1, 2, k - k // 2)
        for h in (full, tied):
            d, e = CompactMeasure.from_points(np.diag(h).real), from_matrix(h)
            pairs += [(d, e), (e, d)]
    return pairs


class TestDecisiveThresholds:
    """A pair with no piece is decided on its union grid, with no vertex search."""

    def test_thresholds_match_the_vertex_search_bit_for_bit(self):
        pairs = [(m, n) for _, m, n in table_test_pairs()] + schur_pairs()
        for m, n in pairs:
            got = measures._decisive_thresholds(m, n)
            assert got.tobytes() == reference_decisive_thresholds(m, n).tobytes()

    @pytest.mark.parametrize("kinds, expected", [
        (("atoms", "atoms"), {"hinge": 2, "survivor": 2, "convex_family": 0}),
        (("atoms", "pieces"), {"hinge": 4, "survivor": 4, "convex_family": 2}),
        (("mixed", "atoms"), {"hinge": 4, "survivor": 4, "convex_family": 2}),
        (("pieces", "mixed"), {"hinge": 4, "survivor": 4, "convex_family": 2}),
    ], ids=["atoms-atoms", "atoms-pieces", "mixed-atoms", "pieces-mixed"])
    def test_locate_calls_per_decision(self, monkeypatch, kinds, expected):
        rng = np.random.default_rng(2027)
        m, n = (draw_measure(rng, kind) for kind in kinds)
        calls = []
        original = measures._locate

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(measures, "_locate", counted)
        for method, count in expected.items():
            calls.clear()
            majorize_measure(m, n, method)
            assert len(calls) == count, method


@st.composite
def scaled_pairs(draw):
    """(m, n, k): a pair of one kind, m swept from n in every other draw, and a power of 2."""
    kind = draw(st.sampled_from(["atoms", "pieces", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw_measure(rng, kind)
    m = concentrate_measure(rng, n) if draw(st.booleans()) else draw_measure(rng, kind)
    return m, n, draw(st.integers(-40, 40))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_pairs())
def test_thresholds_gaps_and_verdicts_scale_exactly_by_powers_of_two(case):
    # a power of 2 scales every table, threshold and tail exactly, on the grid
    # path and the vertex path alike, and the slack scales with the thresholds
    m, n, k = case
    c = 2.0**k
    sm, sn = rescaled(m, c), rescaled(n, c)
    t = measures._decisive_thresholds(m, n)
    assert measures._decisive_thresholds(sm, sn).tobytes() == (c * t).tobytes()
    for method, tail in measures._ROUTES.items():
        gaps = tail(m, t) - tail(n, t)
        assert (tail(sm, c * t) - tail(sn, c * t)).tobytes() == (c * gaps).tobytes(), method
        assert majorize_measure(sm, sn, method) == majorize_measure(m, n, method), method


def row_by_row_random_measure(rng, max_atoms=4, max_pieces=2, span=2.0):
    """``random_measure`` as one scalar draw and one Python tuple per atom and piece."""
    n_atoms = int(rng.integers(0, max_atoms + 1))
    n_pieces = int(rng.integers(0 if n_atoms else 1, max_pieces + 1))
    weights = rng.dirichlet(np.ones(max(1, n_atoms + n_pieces)))
    atoms = [(float(rng.uniform(-span, span)), float(weights[k])) for k in range(n_atoms)]
    pieces = []
    for k in range(n_pieces):
        a = float(rng.uniform(-span, span))
        pieces.append((a, a + float(rng.uniform(0.1, span)), float(weights[n_atoms + k])))
    total = sum(w for _, w in atoms) + sum(w for *_, w in pieces)
    return CompactMeasure(atoms=tuple((x, w / total) for x, w in atoms),
                          pieces=tuple((a, b, w / total) for a, b, w in pieces))


class TestColumns:
    """The columns are a measure's only stored form; every constructor builds them."""

    @staticmethod
    def assert_same_measure(got, expected):
        assert got.atoms == expected.atoms and got.pieces == expected.pieces
        for name in TABLES:
            a, b = getattr(got, name), getattr(expected, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name

    def test_tuples_lists_and_arrays_build_bit_identical_tables(self):
        rng = np.random.default_rng(2019)
        for kind in ("atoms", "pieces", "mixed") * 30:
            drawn = draw_measure(rng, kind)
            atoms, pieces = drawn.atoms, drawn.pieces
            from_tuples = CompactMeasure(atoms=atoms, pieces=pieces)
            assert from_tuples.atoms == atoms and from_tuples.pieces == pieces
            for form in (list, lambda rows: [list(row) for row in rows]):
                self.assert_same_measure(CompactMeasure(atoms=form(atoms), pieces=form(pieces)), from_tuples)
            arrays = CompactMeasure(atoms=np.array(atoms).reshape(-1, 2), pieces=np.array(pieces).reshape(-1, 3))
            self.assert_same_measure(arrays, from_tuples)

    def test_from_points_masses_are_the_counts_over_n(self):
        values = np.random.default_rng(2022).integers(-20, 20, size=997).astype(float)
        locs, counts = np.unique(values, return_counts=True)
        expected = tuple((float(x), int(c) / values.size) for x, c in zip(locs, counts))
        for given in (values, values.tolist(), iter(values.tolist())):
            self.assert_same_measure(CompactMeasure.from_points(given), CompactMeasure(atoms=expected))

    def test_shifted_and_json_match_row_by_row_construction(self):
        rng = np.random.default_rng(2023)
        for kind in ("atoms", "pieces", "mixed") * 10:
            m = draw_measure(rng, kind)
            c = float(rng.normal()) * 10.0 ** int(rng.integers(-3, 7))
            by_rows = CompactMeasure(atoms=tuple((x + c, w) for x, w in m.atoms),
                                     pieces=tuple((a + c, b + c, w) for a, b, w in m.pieces))
            self.assert_same_measure(m.shifted(c), by_rows)
            self.assert_same_measure(CompactMeasure.from_jsonable(m.to_jsonable()), m)


    def test_random_measure_draws_as_row_by_row(self):
        for seed in range(300):
            sizes = {"max_atoms": seed % 6, "max_pieces": 1 + seed % 3, "span": 1.0 + seed % 3}
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            self.assert_same_measure(random_measure(rng, **sizes), row_by_row_random_measure(ref, **sizes))
            assert rng.random() == ref.random()

    def test_random_measure_without_pieces_draws_atoms(self):
        counts = set()
        for seed in range(100):
            m = random_measure(np.random.default_rng(seed), 4, 0)
            assert m._piece_a.size == 0
            counts.add(m._atom_x.size)
        assert counts == {1, 2, 3, 4}

    def test_random_measure_needs_an_atom_or_a_piece(self):
        with pytest.raises(InvalidInput, match="max_atoms or max_pieces"):
            random_measure(np.random.default_rng(0), 0, 0)


class TestQuadratureBlocks:
    """``convex_family`` takes its thresholds in blocks under a fixed entry budget."""

    @staticmethod
    def cases():
        rng = np.random.default_rng(2024)
        pairs = [random_ordered_pair(rng) if trial % 2 else (random_measure(rng), random_measure(rng))
                 for trial in range(100)]
        pairs += [(draw_measure(rng, "mixed"), draw_measure(rng, "mixed")) for _ in range(20)]
        for size in (5, 40, 150):
            m = CompactMeasure.from_points(rng.normal(size=size))
            pairs += [(CompactMeasure.point(m.mean()), m), (m, CompactMeasure.point(m.mean()))]
        return pairs

    @staticmethod
    def gaps(m, n):
        t = measures._decisive_thresholds(m, n)
        return measures._quadrature_tail(m, t) - measures._quadrature_tail(n, t)

    @pytest.mark.parametrize("budget", [1, 7, 64, measures.BLOCK_ENTRIES])
    def test_gaps_do_not_depend_on_the_budget(self, monkeypatch, budget):
        cases = self.cases()
        monkeypatch.setattr(measures, "BLOCK_ENTRIES", 1 << 62)
        whole = [self.gaps(m, n) for m, n in cases]
        monkeypatch.setattr(measures, "BLOCK_ENTRIES", budget)
        split = 0
        for (m, n), expected in zip(cases, whole):
            assert self.gaps(m, n).tobytes() == expected.tobytes()
            assert expected.tobytes() == reference_gaps(m, n, "convex_family")[1].tobytes()
            split += min(expected.size // 2, expected.size * (m._atom_x.size + m._piece_a.size) // budget) > 1
        if budget < 100:
            assert split >= 10

    def test_memory_stays_bounded(self):
        # in one block this point against 3000 atoms allocates 137 MiB
        m = CompactMeasure.from_points(np.random.default_rng(2025).uniform(size=3000))
        p = CompactMeasure.point(m.mean())
        tracemalloc.start()
        try:
            verdict = majorize_measure(p, m, "convex_family")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict and majorize_measure(p, m, "hinge")
        assert peak < 4 * 2**20


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
