"""Acceptance suite: every exit criterion at its stated count and tolerance.

Each test prints one pass/fail line; run with ``pytest -s`` (or read the
captured output) to see the sweep statistics.
"""

import numpy as np
import pytest

from majorant import (
    CompactMeasure,
    approx_conjugate,
    check_majorization,
    contraction_diagonal,
    from_matrix,
    from_step_function,
    horn_construct,
    ky_fan_sum,
    majorize_measure,
    moment,
    normalize_list,
    pinch_diag,
    positive_part,
    projection_with_diagonal,
    quantile_transport,
    reduce_to_equality,
    schur_distribution_check,
    t_transform_chain,
    tail_integral,
)
from majorant.horn import HermitianMatrix, apply_t_transform
from majorant.measures import StepFunction
from majorant.pinching import align_step_functions, convex_pinch_check

from oracles import decreasing_grid_lists, op_norm, validate_reduction
from sampling import (
    haar_unitary,
    random_hermitian,
    random_majorizing_pair,
    random_measure,
    random_ordered_pair,
    random_psd,
)

METHODS = ("hinge", "survivor", "convex_family")


def report(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_horn_round_trip():
    rng = np.random.default_rng(1001)
    worst_diag = worst_spec = 0.0
    for n in range(2, 51):
        for _ in range(200):
            p, lam = random_majorizing_pair(rng, n)
            chain = t_transform_chain(lam, p)
            assert len(chain) <= n - 1
            a = HermitianMatrix.from_diagonal(lam)
            for step in chain:
                _, a = apply_t_transform(a, step)
            worst_diag = max(worst_diag, float(np.max(np.abs(a.diagonal() - p.values))))
            spectrum = np.linalg.eigvalsh(a.entries)[::-1]
            worst_spec = max(worst_spec, float(np.max(np.abs(spectrum - lam.values))))
    ok = worst_diag <= 1e-10 and worst_spec <= 1e-8
    report(1, "horn round trip", ok,
           f"9800 pairs, max diag err {worst_diag:.2e}, max spectrum err {worst_spec:.2e}")


def test_criterion_02_schur_direction():
    rng = np.random.default_rng(1002)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 21))
        a = random_hermitian(rng, n)
        rep = check_majorization(normalize_list(a.diagonal()), a.eigenvalues(),
                                 "equality", 1e-9)
        worst = min(worst, float(rep.slack.min()))
        if not rep.holds:
            break
    ok = worst >= -1e-9
    report(2, "schur direction", ok, f"1000 matrices, min prefix slack {worst:.2e}")


def test_criterion_03_two_by_two_closed_form():
    a = horn_construct((1, 0), (0.7, 0.3))
    off = float(abs(a.entries[0, 1]) ** 2)
    ok = abs(off - 0.21) <= 1e-12
    report(3, "2x2 closed form", ok, f"|offdiag|^2 = {off!r}")


def test_criterion_04_ky_fan():
    rng = np.random.default_rng(1004)
    worst_excess = -np.inf
    worst_eigenframe_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 13))
        k = int(rng.integers(1, n + 1))
        a = random_psd(rng, n)
        best = ky_fan_sum(a, k)
        for _ in range(200):
            g = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            q, _ = np.linalg.qr(g)
            worst_excess = max(
                worst_excess, float(np.trace(q.conj().T @ a.entries @ q).real) - best
            )
        vals, vecs = np.linalg.eigh(a.entries)
        top = vecs[:, ::-1][:, :k]
        achieved = float(np.trace(top.conj().T @ a.entries @ top).real)
        worst_eigenframe_gap = max(worst_eigenframe_gap, abs(achieved - best))
    ok = worst_excess <= 1e-9 and worst_eigenframe_gap <= 1e-10
    report(4, "ky fan maximum", ok,
           f"20000 frames, max excess {worst_excess:.2e}, "
           f"eigenframe gap {worst_eigenframe_gap:.2e}")


def test_criterion_05_reduction():
    rng = np.random.default_rng(1005)
    worst_total = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        lam = normalize_list(rng.uniform(0.0, 3.0, size=n))
        raw = np.sort(rng.uniform(0.0, 3.0, size=n))[::-1]
        head = min(1.0, float((np.cumsum(lam.values) / np.cumsum(raw)).min()))
        p = normalize_list(raw * head * rng.uniform(0.2, 1.0))
        mu = reduce_to_equality(p, lam)
        assert validate_reduction(p.values, lam.values, mu.values, tol=1e-11)
        worst_total = max(worst_total, abs(mu.total() - p.total()))
    ok = worst_total <= 1e-11
    report(5, "reduction to equal totals", ok,
           f"1000 pairs, max total gap {worst_total:.2e}")


def test_criterion_06_projection_diagonals():
    rng = np.random.default_rng(1006)
    worst_idem = worst_diag = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        u = rng.uniform(size=n)
        m = int(np.clip(round(u.sum()), 1, n - 1))
        if u.sum() >= m:
            u *= m / u.sum()
        else:
            u = 1.0 - (1.0 - u) * (n - m) / (n - u.sum())
        p = normalize_list(u)
        proj = projection_with_diagonal(p, m, n)
        worst_idem = max(worst_idem, op_norm(proj.entries @ proj.entries - proj.entries))
        worst_diag = max(worst_diag, float(np.max(np.abs(proj.diagonal() - p.values))))
    ok = worst_idem <= 1e-8 and worst_diag <= 1e-10
    report(6, "projection diagonals", ok,
           f"100 projections, max |P^2-P| {worst_idem:.2e}, max diag err {worst_diag:.2e}")


def test_criterion_07_contraction():
    rng = np.random.default_rng(1007)
    worst_norm = worst_diag = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, n + 1))
        a = random_psd(rng, n)
        top = np.linalg.eigvalsh(a.entries)[::-1][:r]
        mix = np.zeros(r)
        for w in rng.dirichlet(np.ones(3)):
            mix += w * rng.permutation(top)
        p = normalize_list(np.maximum(np.sort(mix)[::-1], 0.0) * rng.uniform(0.2, 1.0))
        L = contraction_diagonal(a, p)
        worst_norm = max(worst_norm, op_norm(L))
        got = np.diag(L.conj().T @ a.entries @ L).real
        target = np.concatenate([p.values, np.zeros(n - r)])
        worst_diag = max(worst_diag, float(np.max(np.abs(got - target))))
    ok = worst_norm <= 1 + 1e-12 and worst_diag <= 1e-10
    report(7, "contraction diagonals", ok,
           f"500 instances, max |L| {worst_norm:.15f}, max diag err {worst_diag:.2e}")


def test_criterion_08_tail_integral_identity():
    rng = np.random.default_rng(1008)
    worst = 0.0
    for _ in range(1000):
        m = random_measure(rng)
        lo, hi = m.support_bounds()
        t = float(rng.uniform(lo - 1.0, hi + 1.0))
        gap = abs(tail_integral(m, t, "survivor") - tail_integral(m, t, "hinge"))
        worst = max(worst, gap)
    ok = worst <= 1e-12
    report(8, "tail integral identity", ok, f"1000 pairs, max mode gap {worst:.2e}")


def test_criterion_09_order_equivalence():
    rng = np.random.default_rng(1009)
    verdicts = {True: 0, False: 0}
    agree = True
    for trial in range(500):
        if trial % 2 == 0:
            m, n = random_ordered_pair(rng)
        else:
            m = random_measure(rng)
            n = random_measure(rng)
            if trial % 4 == 1:  # match the means, order still unlikely
                n = n.shifted(moment(m, 1) - moment(n, 1))
        results = [majorize_measure(m, n, method) for method in METHODS]
        agree = agree and len(set(results)) == 1
        verdicts[results[0]] += 1

    bridge_ok = True
    bridge_pairs = 0
    grid = [0.0, 0.5, 1.0, 1.5]
    for length in range(2, 7):
        by_total = {}
        for lst in decreasing_grid_lists(length, grid):
            by_total.setdefault(round(sum(lst), 6), []).append(lst)
        for group in by_total.values():
            for p in group:
                mp = CompactMeasure.from_points(p)
                for lam in group:
                    classical = check_majorization(p, lam, "equality", 1e-12).holds
                    bridged = majorize_measure(mp, CompactMeasure.from_points(lam), "hinge")
                    bridge_ok = bridge_ok and classical == bridged
                    bridge_pairs += 1
    ok = agree and verdicts[True] >= 100 and verdicts[False] >= 100 and bridge_ok
    report(9, "order equivalence", ok,
           f"500 random pairs ({verdicts[True]} true / {verdicts[False]} false), "
           f"methods agree: {agree}; discrete bridge over {bridge_pairs} grid pairs: "
           f"{bridge_ok}")


def test_criterion_10_pinching_inequalities():
    rng = np.random.default_rng(1010)
    min_witness = np.inf
    checks = 0
    for _ in range(200):
        n = int(rng.integers(2, 16))
        a = random_hermitian(rng, n)
        family = [lambda x: x * x, abs, np.exp]
        family += [(lambda x, t=t: max(x - t, 0.0)) for t in rng.uniform(-2, 2, size=20)]
        coeffs = rng.uniform(0, 1, size=3)
        anchors = rng.uniform(-2, 2, size=3)
        aff = rng.normal(size=2)
        family.append(
            lambda x, a0=aff[0], b0=aff[1], cs=coeffs, ts=anchors: a0 + b0 * x
            + sum(c * max(x - t, 0.0) for c, t in zip(cs, ts))
        )
        for f in family:
            _, witness = convex_pinch_check(a, f)
            min_witness = min(min_witness, witness)
            checks += 1
    min_pos = np.inf
    for _ in range(1000):
        a = random_hermitian(rng, int(rng.integers(2, 16)))
        lhs = np.diag(positive_part(pinch_diag(a)).entries).real
        rhs = np.diag(pinch_diag(positive_part(a)).entries).real
        min_pos = min(min_pos, float(np.min(rhs - lhs)))
    ok = min_witness >= -1e-9 and min_pos >= -1e-9
    report(10, "pinching inequalities", ok,
           f"{checks} convex checks, min witness {min_witness:.2e}; "
           f"1000 positive-part trials, min witness {min_pos:.2e}")


def test_criterion_11_schur_distributions():
    rng = np.random.default_rng(1011)
    all_true = True
    coincide = True
    for _ in range(1000):
        n = int(rng.integers(2, 31))
        a = random_hermitian(rng, n)
        distributional = schur_distribution_check(a)
        classical = check_majorization(normalize_list(a.diagonal()), a.eigenvalues(),
                                       "equality", 1e-9).holds
        all_true = all_true and distributional
        coincide = coincide and distributional == classical
    ok = all_true and coincide
    report(11, "schur theorem for distributions", ok,
           f"1000 matrices, all true: {all_true}, matches classical: {coincide}")


def test_criterion_12_transport_convergence():
    m = CompactMeasure(atoms=((0.0, 1 / np.e),), pieces=((0.3, 1.5, 1 - 1 / np.e),))
    sizes = (100, 1000, 10000)
    errors = []
    for cells in sizes:
        emp = from_step_function(quantile_transport(m, cells))
        errors.append(max(abs(moment(emp, j) - moment(m, j)) for j in range(1, 7)))
    x = np.log10(sizes)
    y = np.log10(errors)
    slope = float(np.polyfit(x, y, 1)[0])

    atomic = CompactMeasure(atoms=((-1.0, 0.3), (0.25, 0.45), (2.0, 0.25)))
    exact = from_step_function(quantile_transport(atomic, 20))
    exact_err = max(
        abs(moment(exact, j) - moment(atomic, j)) for j in range(0, 7)
    )
    ok = -1.3 <= slope <= -0.7 and exact_err <= 1e-13
    report(12, "transport convergence", ok,
           f"moment errors {['%.2e' % e for e in errors]}, slope {slope:.3f}; "
           f"cell-rational atomic error {exact_err:.2e}")


def test_criterion_13_alignment():
    rng = np.random.default_rng(1013)
    step_ok = True
    for _ in range(500):
        cells = int(rng.integers(2, 50))
        eps = float(rng.uniform(0.05, 0.5))
        base = rng.normal(size=cells)
        f = StepFunction(base)
        g = StepFunction(rng.permutation(base) + rng.uniform(-eps, eps, size=cells))
        _, achieved = align_step_functions(f, g, eps)
        step_ok = step_ok and achieved <= 2 * eps
        _, exact = align_step_functions(f, StepFunction(rng.permutation(base)), eps)
        step_ok = step_ok and exact == 0.0

    matrix_ok = True
    worst_ratio = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        eps = float(rng.uniform(0.05, 0.5))
        a = random_hermitian(rng, n)
        vals = np.linalg.eigvalsh(a.entries)
        v = haar_unitary(rng, n)
        b = HermitianMatrix((v * (vals + rng.uniform(-eps, eps, size=n))) @ v.conj().T)
        w = approx_conjugate(a, b, eps)
        norm = op_norm(w @ a.entries @ w.conj().T - b.entries)
        worst_ratio = max(worst_ratio, norm / (2 * eps))
        matrix_ok = matrix_ok and norm <= 2 * eps
    ok = step_ok and matrix_ok
    report(13, "alignment within 2*eps", ok,
           f"500 step pairs ok: {step_ok}; 500 matrix pairs ok: {matrix_ok}, "
           f"worst norm/(2 eps) {worst_ratio:.3f}")
