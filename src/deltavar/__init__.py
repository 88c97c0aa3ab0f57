"""deltavar: stationary trajectories of composite variational functionals
H(integral f1, ..., integral fn) on bounded time scales, with isoperimetric
constraints, natural boundary conditions, and independent verification
oracles.

The names of :mod:`deltavar.solver` (the Newton search, its classification
and refinement) and of :mod:`deltavar.oracle` (scans, difference gradients
and pencils) load on first access, through the module ``__getattr__`` below
(PEP 562): ``verify`` checks a stored trajectory with the residual module
alone, and ``scan`` needs the oracle but not the solver, so neither command
compiles or imports code it never runs, nor SciPy, which only the solver
uses.  ``from deltavar import X`` works for every name in ``__all__``.
"""
import importlib

__version__ = "0.1.0"

from .timescale import (
    TimeScale,
    RegularityReport,
    make_timescale,
    delta_derivative,
    delta_integral,
    FewerThanThreePoints,
    NonPositiveStep,
    QNotGreaterThanOne,
    PointNotFound,
)
from .expr import (
    Expr,
    parse,
    evaluate,
    differentiate,
    to_text,
    ExprError,
    ExprSyntaxError,
    UnknownVariable,
    UnknownFunction,
    NonIntegerExponent,
    DivisionByZero,
    DomainError,
    NestingTooDeep,
)
from .functional import (
    CompositeFunctional,
    Trajectory,
    BoundarySpec,
    DenominatorVanished,
    ScaleMismatch,
    inner_values,
    value,
    c1rd_distance,
)
from .euler_lagrange import (
    ProblemSpec,
    SolveOptions,
    IsoConstraint,
    ResidualReport,
    EndpointNotFree,
    BothMultipliersZero,
    decision_indices,
    embed_decision,
    extract_decision,
    el_residual,
    natural_bc_left,
    natural_bc_right,
    functional_gradient,
    constraint_gradient,
    dubois_reymond_quantity,
    isoperimetric_residual,
    residual_report,
)
from .problemfile import ProblemFile, ProblemFileError, load_problem, parse_problem_text

# Names of the modules that load on first access (see the module docstring).
_LAZY = {
    **dict.fromkeys((
        "StationaryPoint", "NoStationaryPointFound", "ConstraintInfeasible",
        "solve_unconstrained", "solve_isoperimetric", "classify", "refine_study",
        "functional_hessian", "constraint_hessian",
    ), "solver"),
    **dict.fromkeys((
        "fd_gradient", "scan_low_dim", "quadratic_form_matrix", "rayleigh_pencil",
        "TooManyDecisionVariables", "ScanBudgetExhausted",
    ), "oracle"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


__all__ = [
    "__version__",
    # timescale
    "TimeScale", "RegularityReport", "make_timescale", "delta_derivative",
    "delta_integral", "FewerThanThreePoints", "NonPositiveStep",
    "QNotGreaterThanOne", "PointNotFound",
    # expr
    "Expr", "parse", "evaluate", "differentiate", "to_text", "ExprError",
    "ExprSyntaxError", "UnknownVariable", "UnknownFunction",
    "NonIntegerExponent", "DivisionByZero", "DomainError", "NestingTooDeep",
    # functional
    "CompositeFunctional", "Trajectory", "BoundarySpec",
    "DenominatorVanished", "ScaleMismatch", "inner_values", "value",
    "c1rd_distance",
    # euler_lagrange
    "ProblemSpec", "SolveOptions", "IsoConstraint", "ResidualReport",
    "EndpointNotFree", "BothMultipliersZero", "decision_indices", "embed_decision",
    "extract_decision", "el_residual", "natural_bc_left", "natural_bc_right",
    "functional_gradient", "constraint_gradient",
    "dubois_reymond_quantity", "isoperimetric_residual", "residual_report",
    # solver and oracle
    *_LAZY,
    # problem files
    "ProblemFile", "ProblemFileError", "load_problem", "parse_problem_text",
]
