"""The package namespace: public names resolved from their defining modules on first use."""

import ast
import sys
import tokenize
from pathlib import Path

import pytest

import majorant

#: the public names of version 0.1.0, in ``__all__`` order
PUBLIC = (
    "CompactMeasure DistributionMismatch EigenList HermitianMatrix InvalidInput MajorantError"
    " MajorizationReport MajorizationViolation StepFunction TTransform TraceMismatch"
    " align_step_functions apply_t_transform approx_conjugate check_majorization"
    " classical_schur_check contraction_diagonal convex_pinch_check eigenlist_l1_distance"
    " eigh_desc feasible_diagonal from_matrix from_step_function hinge hinge_family"
    " hlp_convex_check horn_construct integrate_function ky_fan_sum majorize_measure"
    " matrix_function moment normalize_list pinch_diag pinch_experiment positive_part"
    " projection_with_diagonal quantile_transport realize_finite_rank reduce_to_equality"
    " schur_distribution_check t_transform_chain tail_integral"
).split()


def test_all_lists_the_public_names():
    assert majorant.__all__ == PUBLIC
    assert len(PUBLIC) == 43


def test_each_name_is_the_defining_modules_object():
    for name in PUBLIC:
        obj = getattr(majorant, name)
        assert obj.__module__.startswith("majorant.")
        assert getattr(sys.modules[obj.__module__], name) is obj
        # kept in the namespace: later lookups are plain attribute reads
        assert vars(majorant)[name] is obj


def test_dir_and_star_import_cover_every_name():
    assert set(PUBLIC) <= set(dir(majorant))
    namespace: dict = {}
    exec("from majorant import *", namespace)
    assert set(PUBLIC) <= namespace.keys()


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        majorant.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from majorant import no_such_name  # noqa: F401


def test_tolerance_literals_live_only_in_the_policy_module():
    """No float literal in (0, 1e-6) outside ``_tol.py``: every slack goes through it."""
    found = []
    for path in sorted(Path(majorant.__file__).parent.glob("*.py")):
        if path.name == "_tol.py":
            continue
        with path.open("rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NUMBER:
                    value = ast.literal_eval(tok.string)
                    if isinstance(value, float) and 0.0 < value < 1e-6:
                        found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert not found, "tolerance literals outside majorant._tol: " + ", ".join(found)
