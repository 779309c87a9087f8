"""Validate once: matrices the package builds are adopted, not re-checked.

Input is checked where it enters.  A unitary similarity of a checked
matrix, or its diagonal, is self-adjoint by construction, so the package
takes it over with ``HermitianMatrix._adopt``: read-only, uncopied, and
checked only for finiteness.  These tests pin both halves of that rule.
"""

import numpy as np
import pytest

import majorant.eigenlists as eigenlists
import majorant.horn as horn
import majorant.trace_class as trace_class
from majorant import (
    HermitianMatrix,
    InvalidInput,
    MajorizationViolation,
    apply_t_transform,
    contraction_diagonal,
    horn_construct,
    matrix_function,
    pinch_diag,
    positive_part,
    projection_with_diagonal,
    realize_finite_rank,
    t_transform_chain,
)
from majorant.horn import TTransform, as_hermitian, eigh_desc, horn_frame, matrix_to_jsonable

from sampling import random_hermitian, random_majorizing_pair

#: scale 1 and every scale tests/test_tolerance.py rescales data by
SCALES = sorted({1.0, 1e-12, 1e4, 1e6, *(10.0**k for k in range(-8, 9))})


def assert_adopted(matrix: HermitianMatrix) -> None:
    """Passes the public check, and its entries are read-only."""
    HermitianMatrix(matrix.entries)
    assert not matrix.entries.flags.writeable
    with pytest.raises(ValueError):
        matrix.entries[0, 0] = 0.0


# -- the public constructors still check everything -------------------------

BAD = [
    pytest.param([[1.0, 2.0, 3.0], [2.0, 1.0, 0.0]], "square", id="not-square"),
    pytest.param(np.zeros((0, 0)), "square", id="empty"),
    pytest.param([[1.0, np.nan], [np.nan, 1.0]], "finite", id="nan"),
    pytest.param([[np.inf, 0.0], [0.0, 1.0]], "finite", id="inf"),
    pytest.param([[1.0, 2.0], [0.0, 1.0]], "self-adjoint", id="asymmetric"),
    pytest.param([[1j, 0.0], [0.0, 1.0]], "self-adjoint", id="imaginary-diagonal"),
    pytest.param([[1.0, 1j], [1j, 1.0]], "self-adjoint", id="not-conjugate"),
]
PUBLIC = {
    "HermitianMatrix": HermitianMatrix,
    "as_hermitian": as_hermitian,
    "from_jsonable": lambda a: HermitianMatrix.from_jsonable(matrix_to_jsonable(a)),
    "apply_t_transform": lambda a: apply_t_transform(a, TTransform(0, 1, 0.5)),
    "matrix_function": lambda a: matrix_function(a, abs),
    "contraction_diagonal": lambda a: contraction_diagonal(a, [0.5]),
    "eigh_desc": eigh_desc,
}


@pytest.mark.parametrize("name", PUBLIC)
@pytest.mark.parametrize("raw, why", BAD)
def test_public_entry_points_reject_bad_matrices(name, raw, why):
    # a JSON matrix declares its dimension, so a wrong shape fails on that
    if name == "from_jsonable" and why == "square":
        why = "dimension"
    with pytest.raises(InvalidInput, match=why):
        PUBLIC[name](np.asarray(raw))


def test_from_diagonal_rejects_bad_lists():
    for bad in ([1.0, np.nan], [np.inf], [1.0, 2.0], []):
        with pytest.raises(InvalidInput):
            HermitianMatrix.from_diagonal(bad)


# -- every adopt site hands out a matrix the public check accepts -----------


@pytest.mark.parametrize("scale", SCALES)
def test_constructions_pass_the_public_check(scale):
    rng = np.random.default_rng(61)
    for n in (2, 5, 30):
        p, lam = random_majorizing_pair(rng, n)
        assert_adopted(horn_construct(lam.values * scale, p.values * scale))
    lam_r = np.array([1.0, 0.5, 0.25]) * scale
    p_r = np.array([0.5, 0.5, 0.25, 0.25, 0.25]) * scale
    assert_adopted(realize_finite_rank(lam_r, p_r, 6))
    assert_adopted(HermitianMatrix.from_diagonal(lam.values * scale))


def test_projections_pass_the_public_check():
    # a projection's spectrum is 0 and 1 whatever the units
    assert_adopted(projection_with_diagonal((0.75, 0.75, 0.5, 0.5, 0.25, 0.25), 3, 6))
    assert_adopted(projection_with_diagonal(np.full(40, 0.25), 10, 40))


@pytest.mark.parametrize("scale", SCALES)
def test_t_transforms_pass_the_public_check_on_both_branches(scale):
    rng = np.random.default_rng(67)
    n = 12
    p, lam = random_majorizing_pair(rng, n)
    chain = t_transform_chain(lam, p)
    start = {
        # uncoupled pairs: the real rotation
        "real": HermitianMatrix.from_diagonal(lam.values * scale),
        # coupled pairs of a complex matrix: the phase branch
        "phase": random_hermitian(rng, n, scale),
    }
    for kind, a in start.items():
        phases = 0
        for step in chain:
            phases += bool(a.entries[step.i, step.j] != 0)
            before = a
            _, a = apply_t_transform(a, step)
            assert_adopted(a)
            assert not np.shares_memory(a.entries, before.entries)
        assert (phases > 0) == (kind == "phase")
        assert a.entries.dtype == (np.float64 if kind == "real" else np.complex128)


@pytest.mark.parametrize("scale", SCALES)
def test_pinchings_and_functions_pass_the_public_check(scale):
    rng = np.random.default_rng(71)
    construction = horn_construct(np.array([3.0, 1.0, 0.0]) * scale, np.array([2.0, 1.0, 1.0]) * scale)
    for a in (random_hermitian(rng, 9, scale), construction):
        pinched = pinch_diag(a)
        assert_adopted(pinched)
        assert not np.shares_memory(pinched.entries, a.entries)
        assert_adopted(positive_part(a))
        assert_adopted(matrix_function(a, lambda x: x * x))


def test_matrix_function_that_overflows_still_raises():
    # f is finite on the spectrum, but the symmetrized product reaches inf
    for a in (random_hermitian(np.random.default_rng(73), 4), HermitianMatrix.from_diagonal((2.0, 1.0))):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(InvalidInput, match="finite"):
            matrix_function(a, lambda x: 1.5e308)


def test_adopt_rejects_non_finite_arrays():
    for bad in (np.diag([1.0, np.inf]), np.diag([np.nan, 0.0]).astype(complex)):
        with pytest.raises(InvalidInput, match="finite"):
            HermitianMatrix._adopt(bad)


# -- one check per input, none per output ------------------------------------


@pytest.fixture
def checks(monkeypatch):
    """Count ``_check_self_adjoint`` calls and ``check_majorization`` calls by mode."""
    counts = {"self_adjoint": 0, "equality": 0, "dominance": 0}
    self_adjoint = horn._check_self_adjoint
    majorization = eigenlists.check_majorization

    def count_self_adjoint(arr):
        counts["self_adjoint"] += 1
        return self_adjoint(arr)

    def count_majorization(p, lam, mode="equality", tol=eigenlists.DEFAULT_TOL):
        counts[mode] += 1
        return majorization(p, lam, mode, tol)

    monkeypatch.setattr(horn, "_check_self_adjoint", count_self_adjoint)
    for module in (eigenlists, horn, trace_class):
        monkeypatch.setattr(module, "check_majorization", count_majorization)
    return counts


def test_the_counters_see_the_checks(checks):
    HermitianMatrix([[1.0, 0.0], [0.0, 1.0]])
    eigenlists.reduce_to_equality((1.0,), (2.0,))
    assert checks == {"self_adjoint": 1, "equality": 0, "dominance": 1}


def test_constructions_check_each_chain_once(checks):
    rng = np.random.default_rng(79)
    p, lam = random_majorizing_pair(rng, 40)
    lam_pos = lam.values - lam.values[-1]
    p_pos = p.values - lam.values[-1]
    builds = {
        "horn_construct": lambda: horn_construct(lam_pos, p_pos),
        "realize_finite_rank": lambda: realize_finite_rank(lam_pos, p_pos, 50),
        "projection_with_diagonal": lambda: projection_with_diagonal(np.full(20, 0.4), 8, 20),
        "t_transform_chain": lambda: t_transform_chain(lam, p),
        "horn_frame": lambda: horn_frame(lam, p),
    }
    for name, build in builds.items():
        for key in checks:
            checks[key] = 0
        build()
        assert checks == {"self_adjoint": 0, "equality": 1, "dominance": 0}, name


def test_contraction_of_a_construction_checks_its_chain_once(checks):
    rng = np.random.default_rng(83)
    p, lam = random_majorizing_pair(rng, 30)
    shift = lam.values[-1]
    a = horn_construct(lam.values - shift, p.values - shift)
    target = (p.values[:12] - shift) * 0.7
    checks["equality"] = 0
    L = contraction_diagonal(a, target)
    # reduce_to_equality's dominance check is the only one: the pair it
    # makes is majorizing by construction, so its chain is not checked again
    assert checks == {"self_adjoint": 0, "equality": 0, "dominance": 1}
    got = np.diag(L.T @ a.entries @ L)[:12]
    assert np.max(np.abs(got - target)) <= 1e-10 * float(np.max(np.abs(lam.values - shift)))


def test_public_chain_entry_points_still_refuse_infeasible_pairs():
    for build in (t_transform_chain, horn_construct, horn_frame):
        with pytest.raises(MajorizationViolation):
            build((1.0, 1.0), (2.0, 0.0))
        with pytest.raises(InvalidInput, match="equal length"):
            build((2.0, 1.0, 0.0), (1.5, 1.5))
