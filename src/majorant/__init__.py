"""majorant: prescribed-spectrum constructions and majorization checks.

Decides and constructs solutions to the prescribed spectrum/diagonal
problem for self-adjoint matrices, extends the feasibility tests to
summable spectra at finite truncation, and models spectral
distributions of matrices (and step functions on [0, 1]) together with
the spread order and diagonal-compression inequalities they obey.

Each public name is imported from its defining module on first use
(PEP 562) and then kept here, so ``import majorant`` loads no submodule
and a process pays only for the modules it touches.
"""

__version__ = "0.1.0"

#: public names, by defining module
_PUBLIC = {
    "eigenlists": "EigenList MajorizationReport check_majorization hinge hinge_family"
    " hlp_convex_check normalize_list reduce_to_equality",
    "errors": "DistributionMismatch InvalidInput MajorantError MajorizationViolation TraceMismatch",
    "horn": "HermitianMatrix TTransform apply_t_transform approx_conjugate eigh_desc"
    " horn_construct ky_fan_sum t_transform_chain",
    "measures": "CompactMeasure StepFunction from_matrix from_step_function integrate_function"
    " majorize_measure moment quantile_transport tail_integral",
    "pinching": "align_step_functions classical_schur_check convex_pinch_check matrix_function"
    " pinch_diag pinch_experiment positive_part schur_distribution_check",
    "trace_class": "contraction_diagonal eigenlist_l1_distance feasible_diagonal"
    " projection_with_diagonal realize_finite_rank",
}
_ORIGIN = {name: module for module, names in _PUBLIC.items() for name in names.split()}

__all__ = sorted(_ORIGIN)


def __getattr__(name: str):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    return sorted({*globals(), *__all__})
