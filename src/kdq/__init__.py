"""Complex joint quasi-probabilities of non-commuting observables.

Core objects: the Kirkwood-Dirac transform of a density operator over two
orthonormal bases, its exact inverse, complex conditional probabilities
(weak values), a mechanical audit of the marginal / eigenstate /
orthogonality requirements for candidate joint-probability
representations, a discrete Wigner baseline that fails the orthogonality
requirement, and a von Neumann pointer simulation that recovers the
complex conditionals operationally.
"""

import importlib

# submodule -> the public names it defines.  A submodule is imported on the
# first access to one of its names, so a caller pays only for what it uses.
_MODULES = {
    "errors": (
        "BadEpsilonError",
        "BadRankError",
        "BadSampleCountError",
        "BadSlitsError",
        "DegeneratePostselectionError",
        "DimMismatchError",
        "EvenDimensionError",
        "KdqError",
        "NotNormalizedError",
        "SingularOverlapError",
        "ValidationError",
        "ZeroCouplingError",
    ),
    "hilbert": (
        "TOL",
        "TOL_PSD",
        "DensityOperator",
        "LinearOperator",
        "OrthonormalBasis",
        "StateVector",
        "basis_state",
        "computational_basis",
        "fourier_basis",
        "make_pure_density",
        "maximally_mixed",
        "overlap",
        "product_trace",
        "random_basis",
        "random_density",
        "random_state",
    ),
    "kd": (
        "TOL_OVERLAP",
        "KDDistribution",
        "Ordering",
        "conditional_weak_value",
        "kd_inverse",
        "kd_marginal_a",
        "kd_marginal_b",
        "kd_operator",
        "kd_transform",
        "total_probability",
    ),
    "audit": (
        "AuditReport",
        "QuasiProbRep",
        "SpanResidual",
        "check_condition1",
        "check_condition2",
        "check_condition3",
        "check_span",
        "evaluate",
        "kd_rep",
        "make_condition2_violator",
        "mixed_rep",
        "span_residual",
    ),
    "pointer": (
        "PointerConfig",
        "PointerReadout",
        "SweepPoint",
        "coupling_sweep",
        "simulate_weak_measurement",
        "weak_value_estimate",
    ),
    "wigner": (
        "WignerTable",
        "condition3_violation_report",
        "discrete_wigner",
        "double_slit_state",
        "momentum_basis",
        "phase_point_operator",
        "position_marginal",
        "wigner_as_rep",
    ),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:  # e.g. `kdq.audit` before anything has imported it
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})
