"""Prescribed spectrum/diagonal constructions and spectral alignment."""

import math

import numpy as np
import pytest

from majorant import (
    DistributionMismatch,
    HermitianMatrix,
    InvalidInput,
    MajorizationViolation,
    TTransform,
    apply_t_transform,
    approx_conjugate,
    horn_construct,
    ky_fan_sum,
    projection_with_diagonal,
    realize_finite_rank,
    t_transform_chain,
)
from majorant import horn as horn_module
from majorant.horn import matrix_to_jsonable
from majorant.serialize import dumps

from oracles import apply_chain, op_norm, reference_chain, reference_rotate
from sampling import haar_unitary, random_hermitian, random_majorizing_pair

EPS = np.finfo(float).eps


def replay(lam, p):
    """Each step of ``t_transform_chain(lam, p)`` with the full matrix it starts from,
    folded from diag(lam) through the gather-and-scatter rotation oracle."""
    a = np.diag(np.asarray(lam, dtype=float))
    for step in t_transform_chain(lam, p):
        yield a, step
        a, _ = reference_rotate(a, step)


class TestHermitianMatrixType:
    def test_rejects_non_selfadjoint(self):
        with pytest.raises(InvalidInput):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidInput):
            HermitianMatrix(np.zeros((2, 3)))

    def test_json_round_trip(self):
        a = HermitianMatrix(np.array([[1.0, 1j], [-1j, 0.0]]))
        b = HermitianMatrix.from_jsonable(a.to_jsonable())
        np.testing.assert_array_equal(a.entries, b.entries)

    def test_dtype_follows_input(self):
        assert HermitianMatrix([[1, 2], [2, 0]]).entries.dtype == np.float64
        assert HermitianMatrix(np.diag([1.0, 0.0])).entries.dtype == np.float64
        assert HermitianMatrix(np.diag([1.0, 0.0]).astype(complex)).entries.dtype == np.complex128
        assert HermitianMatrix.from_diagonal((2.0, 1.0)).entries.dtype == np.float64

    def test_real_json_matches_complex_json_byte_for_byte(self):
        rng = np.random.default_rng(7)
        p, lam = random_majorizing_pair(rng, 12)
        signed_zeros = np.array([[-0.0, 1.5], [1.5, 0.0]])
        for real in (horn_construct(lam, p).entries, signed_zeros):
            assert real.dtype == np.float64
            assert dumps(matrix_to_jsonable(real)) == dumps(
                matrix_to_jsonable(real.astype(complex))
            )


class TestTTransformChain:
    def test_three_point_example(self):
        chain = t_transform_chain((2, 1, 0), (1, 1, 1))
        assert [(c.i, c.j, c.t) for c in chain] == [(0, 2, 0.5)]
        np.testing.assert_allclose(apply_chain((2, 1, 0), chain), [1, 1, 1], atol=1e-12)

    def test_identity_chain_empty(self):
        assert t_transform_chain((3, 2, 1), (3, 2, 1)) == []

    def test_two_point_example(self):
        chain = t_transform_chain((1, 0), (0.7, 0.3))
        assert [(c.i, c.j) for c in chain] == [(0, 1)]
        assert chain[0].t == pytest.approx(0.7, abs=1e-15)
        np.testing.assert_allclose(apply_chain((1, 0), chain), [0.7, 0.3], atol=1e-12)

    def test_matches_rescanning_reference(self):
        rng = np.random.default_rng(37)
        pairs = []
        for n in range(2, 201):
            p, lam = random_majorizing_pair(rng, n)
            pairs.append((lam.values, p.values))
        for n, r in ((6, 3), (40, 30), (200, 150)):
            # zero-padded spectra, as realize_finite_rank builds them
            lam = np.sort(rng.uniform(0.5, 1.5, r) / np.arange(1, r + 1) ** 2)[::-1]
            lam = np.pad(lam, (0, n - r))
            mix = sum(w * rng.permutation(lam) for w in rng.dirichlet(np.ones(4)))
            pairs.append((lam, np.sort(mix)[::-1]))
        for n, rank in ((2, 1), (5, 2), (20, 8), (200, 80)):
            # 0/1 projection spectra against targets with ties
            ones = (np.arange(n) < rank).astype(float)
            for s in (0.0, 0.25, 0.5):
                pairs.append((ones, s * ones + (1.0 - s) * rank / n))
        for lam, p in pairs + [(v, v) for v in (np.array([3.0, 2.0, 1.0]), np.zeros(4))]:
            got = [(c.i, c.j, c.t) for c in t_transform_chain(lam, p)]
            assert got == reference_chain(lam, p)

    def test_requires_majorization(self):
        with pytest.raises(MajorizationViolation):
            t_transform_chain((1, 1), (2, 0))

    # The edges of the pivot scan, against the rescanning reference.  Every
    # list has max |x| >= 1, where the reference's snap equals the code's.

    @pytest.mark.parametrize("lam, p, steps", [
        ((3, 1), (2, 2), 1),
        ((1, -1), (0, 0), 1),
        ((4, 2, 2, 0), (3, 2, 2, 1), 1),
        ((5, 3, 1, -1), (4, 2, 2, 0), 2),
    ])
    def test_exact_tie_pins_both_coordinates_in_one_step(self, lam, p, steps):
        # x_i - p_i == p_j - x_j: delta reaches both targets at once
        chain = t_transform_chain(lam, p)
        assert [(c.i, c.j, c.t) for c in chain] == reference_chain(lam, p)
        assert len(chain) == steps
        np.testing.assert_array_equal(apply_chain(lam, chain), p)

    #: snap is 1e-12 times the largest entry; this largest entry makes it the power of two H
    H = 2.0**-39
    M = H / 1e-12

    @pytest.mark.parametrize("lam, p, want", [
        # i skips a coordinate at +snap, then j skips one at -snap
        ((M, 4 * H, 2 * H, -2 * H, -4 * H), (M, 3 * H, 0, -H, -2 * H), [(2, 4, 1 - 2 / 6)]),
        # a coordinate starts at +snap, and the step leaves x_j at -snap, which pins it
        ((M, 4 * H, 3.75 * H, 0.5 * H), (M, 2.75 * H, 2.75 * H, 2.75 * H), [(1, 3, 1 - 1.25 / 3.5)]),
    ])
    def test_coordinates_exactly_at_snap_count_as_done(self, lam, p, want):
        assert 1e-12 * self.M == self.H
        got = [(c.i, c.j, c.t) for c in t_transform_chain(lam, p)]
        assert got == reference_chain(lam, p) == want

    @pytest.mark.parametrize("lam, p, steps", [
        ((3,), (3,), 0),
        ((-1,), (-1,), 0),
        ((1, 0), (0.7, 0.3), 1),
        ((2, 2), (2, 2), 0),
        ((1, 0), (1, 0), 0),
        ((1, -1), (0.25, -0.25), 1),
    ])
    def test_one_and_two_coordinates(self, lam, p, steps):
        got = [(c.i, c.j, c.t) for c in t_transform_chain(lam, p)]
        assert got == reference_chain(lam, p)
        assert len(got) == steps

    def test_random_chains_end_at_target(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            p, lam = random_majorizing_pair(rng, n)
            chain = t_transform_chain(lam, p)
            assert len(chain) <= n - 1
            end = apply_chain(lam.values, chain)
            assert np.max(np.abs(end - p.values)) <= 1e-10


class TestTTransform:
    def test_chain_steps_are_already_normalized(self):
        rng = np.random.default_rng(47)
        for n in (2, 5, 30, 200):
            p, lam = random_majorizing_pair(rng, n)
            for step in t_transform_chain(lam, p):
                assert (type(step.i), type(step.j), type(step.t)) == (int, int, float)
                again = TTransform(step.i, step.j, step.t)
                assert (again.i, again.j, again.t) == (step.i, step.j, step.t)
                assert math.copysign(1.0, again.t) == math.copysign(1.0, step.t)

    def test_normalization(self):
        step = TTransform(np.int64(2), np.int64(5), np.float64(0.25))
        assert (type(step.i), type(step.j), type(step.t)) == (int, int, float)
        assert (step.i, step.j, step.t) == (2, 5, 0.25)
        for t, want in ((-1e-13, 0.0), (-0.0, 0.0), (0.0, 0.0), (1 + 1e-13, 1.0), (1, 1.0)):
            got = TTransform(0, 1, t).t
            assert type(got) is float and got == want
            assert math.copysign(1.0, got) == 1.0

    def test_rejections(self):
        for i, j, t in (
            (0, 1, 1.5),
            (0, 1, float("nan")),
            (0, 1, float("inf")),
            (0, 1, -1e-11),
            (1, 1, 0.5),
            (2, 1, 0.5),
            (-1, 1, 0.5),
            (0.0, 1, 0.5),
        ):
            with pytest.raises(InvalidInput):
                TTransform(i, j, t)


class TestApplyTTransform:
    def test_half_mixing_of_rank_one(self):
        a = HermitianMatrix(np.diag([1.0, 0.0]))
        u, result = apply_t_transform(a, TTransform(0, 1, 0.5))
        np.testing.assert_allclose(
            result.entries, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=1e-15
        )
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)

    def test_weight_one_is_identity(self):
        a = HermitianMatrix(np.array([[2.0, 1 + 1j], [1 - 1j, 0.0]]))
        u, result = apply_t_transform(a, TTransform(0, 1, 1.0))
        np.testing.assert_array_equal(u, np.eye(2))
        np.testing.assert_array_equal(result.entries, a.entries)

    def test_weight_zero_swaps_diagonal(self):
        a = HermitianMatrix(np.array([[2.0, 1 + 1j], [1 - 1j, -1.0]]))
        _, result = apply_t_transform(a, TTransform(0, 1, 0.0))
        np.testing.assert_allclose(result.diagonal(), [-1.0, 2.0], atol=1e-14)

    def test_real_input_promoted_only_for_the_phase(self):
        a = HermitianMatrix(np.array([[2.0, 0.0, 1.0], [0.0, -1.0, 0.5], [1.0, 0.5, 0.0]]))
        # a_01 == 0, and t == 1: no phase, real in and out
        for step in (TTransform(0, 1, 0.3), TTransform(0, 2, 1.0)):
            u, result = apply_t_transform(a, step)
            assert u.dtype == result.entries.dtype == np.float64
        step = TTransform(0, 2, 0.3)
        u, result = apply_t_transform(a, step)
        assert u.dtype == result.entries.dtype == np.complex128
        assert np.max(np.abs(u @ a.entries @ u.conj().T - result.entries)) < 1e-14
        np.testing.assert_allclose(
            result.diagonal(), step.apply_to_vector(a.diagonal()), atol=1e-14
        )

    def test_out_of_range_index(self):
        a = HermitianMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(InvalidInput):
            apply_t_transform(a, TTransform(0, 5, 0.5))

    def test_invalid_weight(self):
        with pytest.raises(InvalidInput):
            TTransform(0, 1, 1.5)
        with pytest.raises(InvalidInput):
            TTransform(1, 1, 0.5)

    def test_diagonal_recurrence_and_spectrum_on_random_input(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            a = random_hermitian(rng, n)
            i, j = sorted(rng.choice(n, size=2, replace=False))
            t = float(rng.uniform())
            tt = TTransform(int(i), int(j), t)
            u, result = apply_t_transform(a, tt)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)
            assert np.max(np.abs(u @ a.entries @ u.conj().T - result.entries)) < 1e-12
            np.testing.assert_allclose(
                result.diagonal(), tt.apply_to_vector(a.diagonal()), atol=1e-12
            )
            np.testing.assert_allclose(
                np.linalg.eigvalsh(result.entries),
                np.linalg.eigvalsh(a.entries),
                atol=1e-10,
            )
            # off-block entries outside rows/cols i, j are untouched
            mask = np.ones(n, dtype=bool)
            mask[[i, j]] = False
            np.testing.assert_array_equal(
                result.entries[np.ix_(mask, mask)], a.entries[np.ix_(mask, mask)]
            )


class TestHornConstruct:
    def test_two_by_two_closed_form(self):
        a = horn_construct((1, 0), (0.7, 0.3))
        np.testing.assert_allclose(a.diagonal(), [0.7, 0.3], atol=1e-14)
        assert abs(a.entries[0, 1]) ** 2 == pytest.approx(0.21, abs=1e-12)

    def test_fixed_point_is_diagonal(self):
        a = horn_construct((2, 1, 0.5), (2, 1, 0.5))
        np.testing.assert_array_equal(a.entries, np.diag([2, 1, 0.5]))

    def test_flat_diagonal_with_spread_spectrum(self):
        a = horn_construct((2, 1, 0), (1, 1, 1))
        np.testing.assert_allclose(a.diagonal(), [1, 1, 1], atol=1e-12)
        np.testing.assert_allclose(
            np.linalg.eigvalsh(a.entries), [0, 1, 2], atol=1e-10
        )

    def test_infeasible_rejected(self):
        with pytest.raises(MajorizationViolation):
            horn_construct((1, 1), (2, 0))

    def test_overflowing_spread_rejected(self):
        # x_i - x_j overflows to inf, so t = 1 and every step would do nothing
        for build in (horn_construct, t_transform_chain, horn_module.horn_frame):
            with pytest.raises(InvalidInput, match="spread of lam overflows float64"):
                build([1e308, -1e308], [0, 0])

    def test_infinite_tol_rejected(self):
        # it would pass the feasibility test and build the identity, whose diagonal is (1, 1)
        with pytest.raises(InvalidInput, match="tol must be finite and nonnegative"):
            horn_construct([1, 1], [2, 0], tol=math.inf)

    def test_random_round_trips(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            n = int(rng.integers(2, 30))
            p, lam = random_majorizing_pair(rng, n)
            a = horn_construct(lam, p)
            assert np.max(np.abs(a.diagonal() - p.values)) <= 1e-10
            spectrum = np.linalg.eigvalsh(a.entries)[::-1]
            assert np.max(np.abs(spectrum - lam.values)) <= 1e-8

    def test_chain_rotates_only_uncoupled_pairs(self):
        rng = np.random.default_rng(43)
        pairs = []
        for n in (2, 3, 10, 50, 120):
            p, lam = random_majorizing_pair(rng, n)
            pairs.append((lam.values, p.values))
        # the padded pairs that realize_finite_rank and projection_with_diagonal build
        pairs.append(((1.0, 0.5, 0.25, 0.0, 0.0, 0.0), (0.5, 0.5, 0.25, 0.25, 0.25, 0.0)))
        pairs.append(((1.0, 1.0, 1.0, 0.0, 0.0, 0.0), (0.75, 0.75, 0.5, 0.5, 0.25, 0.25)))
        couplings = []
        for lam, p in pairs:
            rotated, previous = set(), ()
            for a, step in replay(lam, p):
                pivots = (step.i, step.j)
                couplings.append(a[pivots])
                # at most one pivot has been rotated, at the step before: the
                # carry; the other is fresh, its row still 0 off the diagonal
                carried = rotated.intersection(pivots)
                assert len(carried) <= 1 and carried <= set(previous)
                for k in set(pivots) - carried:
                    assert not np.delete(a[k], k).any()
                rotated.update(pivots)
                previous = pivots
        assert len(couplings) > 100
        assert all(aij == 0 for aij in couplings)
        built = [horn_construct(lam, p) for lam, p in pairs[:-2]]
        built.append(realize_finite_rank((1.0, 0.5, 0.25), (0.5, 0.5, 0.25, 0.25, 0.25), 6))
        built.append(projection_with_diagonal((0.75, 0.75, 0.5, 0.5, 0.25, 0.25), 3, 6))
        assert all(m.entries.dtype == np.float64 for m in built)

    def test_rows_and_columns_past_j_are_zero_before_each_step(self):
        # what lets a step stop at j: the chain has not reached past it yet
        rng = np.random.default_rng(53)
        pairs = []
        for n in (2, 3, 10, 60):
            p, lam = random_majorizing_pair(rng, n)
            pairs.append((lam.values, p.values))
        lam_r = np.pad(np.sort(rng.uniform(0.5, 1.5, 9))[::-1], (0, 6))
        mix = sum(w * rng.permutation(lam_r) for w in rng.dirichlet(np.ones(3)))
        pairs.append((lam_r, np.sort(mix)[::-1]))
        pairs.append(((np.arange(12) < 4).astype(float), np.pad(np.full(8, 0.5), (0, 4))))
        for lam, p in pairs:
            steps = 0
            for a, step in replay(lam, p):
                off = a - np.diag(np.diag(a))
                assert not off[step.j + 1 :].any() and not off[:, step.j + 1 :].any()
                steps += 1
            assert steps

    def test_vectorized_blocks_equal_math_sqrt_blocks(self):
        rng = np.random.default_rng(59)
        t = np.concatenate([[0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0], rng.uniform(size=1000)])
        blocks = horn_module._rotation_blocks(t)
        assert blocks.shape == (t.size, 2, 2) and blocks.dtype == np.float64
        for tk, block in zip(t.tolist(), blocks):
            c, s = math.sqrt(tk), math.sqrt(max(0.0, 1.0 - tk))
            assert block.tobytes() == np.array([[c, s], [-s, c]]).tobytes()

    def test_matches_folded_apply_t_transform_within_n_eps_of_max_lam(self):
        rng = np.random.default_rng(31)
        for n in (2, 3, 5, 8, 13, 21, 34, 60):
            for _ in range(3):
                p, lam = random_majorizing_pair(rng, n)
                folded = HermitianMatrix.from_diagonal(lam)
                for step in t_transform_chain(lam, p):
                    _, folded = apply_t_transform(folded, step)
                gap = np.max(np.abs(horn_construct(lam, p).entries - folded.entries))
                assert gap <= n * EPS * np.max(np.abs(lam.values))


class TestKyFanSum:
    def test_diagonal_example(self):
        assert ky_fan_sum(np.diag([3.0, 2.0, 1.0]), 2) == pytest.approx(5.0)

    def test_full_sum_is_trace(self):
        a = random_hermitian(np.random.default_rng(1), 6)
        assert ky_fan_sum(a, 6) == pytest.approx(float(np.trace(a.entries).real), abs=1e-12)

    def test_rank_one_projection(self):
        assert ky_fan_sum(np.full((2, 2), 0.5), 1) == pytest.approx(1.0, abs=1e-12)

    def test_k_out_of_range(self):
        a = HermitianMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(InvalidInput):
            ky_fan_sum(a, 0)
        with pytest.raises(InvalidInput):
            ky_fan_sum(a, 3)

    def test_trace_maximum_over_random_frames(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n + 1))
            a = random_hermitian(rng, n)
            best = ky_fan_sum(a, k)
            for _ in range(50):
                q, _ = np.linalg.qr(rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)))
                assert float(np.trace(q.conj().T @ a.entries @ q).real) <= best + 1e-9
            vals, vecs = np.linalg.eigh(a.entries)
            top = vecs[:, ::-1][:, :k]
            achieved = float(np.trace(top.conj().T @ a.entries @ top).real)
            assert achieved == pytest.approx(best, abs=1e-10)


class TestApproxConjugate:
    def test_same_spectrum_aligns_exactly(self):
        a = np.diag([1.0, 0.0])
        b = np.full((2, 2), 0.5)
        w = approx_conjugate(a, b, 0.5)
        assert op_norm(w @ a @ w.conj().T - b) <= 1e-12

    def test_identity_on_equal_input(self):
        a = random_hermitian(np.random.default_rng(2), 5)
        w = approx_conjugate(a, a, 1e-3)
        np.testing.assert_allclose(w, np.eye(5), atol=1e-12)

    def test_half_eps_perturbation(self):
        eps = 0.2
        a = np.diag([1.0, 0.0])
        b = np.diag([1.0 + eps / 2, 0.0])
        w = approx_conjugate(a, b, eps)
        assert op_norm(w @ a @ w.conj().T - b) == pytest.approx(eps / 2, abs=1e-12)

    def test_mismatch_rejected(self):
        with pytest.raises(DistributionMismatch):
            approx_conjugate(np.diag([1.0, 0.0]), np.diag([2.0, 0.0]), 0.5)

    def test_random_matched_pairs_within_bound(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            eps = float(rng.uniform(0.05, 0.5))
            a = random_hermitian(rng, n)
            vals = np.linalg.eigvalsh(a.entries)
            jitter = rng.uniform(-eps, eps, size=n)
            v = haar_unitary(rng, n)
            b = HermitianMatrix((v * (vals + np.sort(jitter))) @ v.conj().T)
            w = approx_conjugate(a, b, eps)
            np.testing.assert_allclose(w @ w.conj().T, np.eye(n), atol=1e-12)
            assert op_norm(w @ a.entries @ w.conj().T - b.entries) <= 2 * eps


@pytest.mark.parametrize("call, message", [
    (lambda: horn_module.matrix_from_jsonable([[1.0]]),
     'matrix JSON must be {"dim": n, "entries": [[[re,im],...],...]}'),
    (lambda: horn_module.matrix_from_jsonable({"dim": 1, "entries": [[[1.0]]]}),
     "malformed matrix entries: list index out of range"),
    (lambda: horn_module.matrix_from_jsonable({"dim": True, "entries": [[[1, 0]]]}),
     "declared dim must be an integer"),
    (lambda: horn_module.matrix_from_jsonable({"dim": 2.0, "entries": [[[1, 0], [0, 0]]] * 2}),
     "declared dim must be an integer"),
    (lambda: horn_module.matrix_from_jsonable({"dim": None, "entries": [[[1, 0]]]}),
     "declared dim must be an integer"),
    (lambda: TTransform(0, 3, 0.5).apply_to_vector([1.0, 2.0, 3.0]),
     "transposition index out of range"),
    (lambda: approx_conjugate(np.eye(2), np.eye(3), 0.1), "matrices must have equal dimension"),
    (lambda: approx_conjugate(np.eye(2), np.eye(2), 0.0), "eps must be positive"),
    (lambda: approx_conjugate(np.eye(2), np.eye(2), -0.1), "eps must be positive"),
    (lambda: TTransform(True, 2, 0.5), "transposition indices must be integers"),
    (lambda: ky_fan_sum(np.eye(2), True), "k must satisfy 1 <= k <= dim"),
], ids=["matrix-json-not-a-dict", "matrix-json-short-cell", "matrix-json-dim-true",
        "matrix-json-dim-float", "matrix-json-dim-null", "apply-j-out-of-range",
        "conjugate-unequal-dims", "conjugate-eps-zero", "conjugate-eps-negative",
        "transform-i-true", "ky-fan-k-true"])
def test_invalid_input_is_rejected(call, message):
    with pytest.raises(InvalidInput) as caught:
        call()
    assert str(caught.value) == message
