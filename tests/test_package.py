"""The package namespace: public names resolved from their defining modules on first use."""

import ast
import re
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


def test_readme_layout_lists_every_module():
    package = Path(majorant.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\S+\.py) ", block, re.M))
    assert listed == {path.name for path in package.glob("*.py")}


def test_readme_operations_table_lists_every_public_function():
    readme = (Path(majorant.__file__).parents[2] / "README.md").read_text()
    table = readme.split("Key operations by module:", 1)[1].split("\n\n")[1]
    listed = set(re.findall(r"`(\w+)`", table))
    assert {name for name in majorant.__all__ if name.islower()} <= listed


def test_every_module_level_definition_is_used_by_the_package():
    """Each module-level def and class of ``src/majorant`` is public, named in
    the README's operations table, or used by package code outside its own
    definition; test fixtures and references belong in ``tests/``."""
    package = Path(majorant.__file__).parent
    readme = (package.parents[1] / "README.md").read_text()
    table = readme.split("Key operations by module:", 1)[1].split("\n\n")[1]
    listed = set(re.findall(r"`(\w+)`", table))
    defined = []  # (module file, name, defining node)
    users: dict = {}  # name -> the top-level nodes that use it
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((path.name, node.name, node))
            for sub in ast.walk(node):
                if isinstance(sub, (ast.Name, ast.Attribute)):
                    name = sub.id if isinstance(sub, ast.Name) else sub.attr
                    users.setdefault(name, set()).add(node)
    unused = [
        f"{module}:{name}"
        for module, name, node in defined
        if name not in majorant.__all__
        and name not in listed
        and not users.get(name, set()) - {node}
    ]
    assert not unused, "defined in src/majorant but used only outside it: " + ", ".join(unused)


def test_eigenlist_iterates_over_its_stored_floats_in_order():
    values = list(majorant.EigenList([3, 1, 1]))
    assert values == [3.0, 1.0, 1.0]
    assert all(isinstance(v, float) for v in values)
