"""deltavar: stationary trajectories of composite variational functionals
H(integral f1, ..., integral fn) on bounded time scales, with isoperimetric
constraints, natural boundary conditions, and independent verification
oracles."""

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
from .solver import (
    SolveOptions,
    StationaryPoint,
    NoStationaryPointFound,
    ConstraintInfeasible,
    solve_unconstrained,
    solve_isoperimetric,
    classify,
    refine_study,
    functional_hessian,
    constraint_hessian,
)
from .oracle import (
    fd_gradient,
    scan_low_dim,
    quadratic_form_matrix,
    rayleigh_pencil,
    TooManyDecisionVariables,
    ScanBudgetExhausted,
)
from .problemfile import ProblemFile, ProblemFileError, load_problem, parse_problem_text

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
    "ProblemSpec", "IsoConstraint", "ResidualReport", "EndpointNotFree",
    "BothMultipliersZero", "decision_indices", "embed_decision",
    "extract_decision", "el_residual", "natural_bc_left", "natural_bc_right",
    "functional_gradient", "constraint_gradient",
    "dubois_reymond_quantity", "isoperimetric_residual", "residual_report",
    # solver
    "SolveOptions", "StationaryPoint", "NoStationaryPointFound",
    "ConstraintInfeasible", "solve_unconstrained", "solve_isoperimetric",
    "classify", "refine_study", "functional_hessian", "constraint_hessian",
    # oracle
    "fd_gradient", "scan_low_dim", "quadratic_form_matrix", "rayleigh_pencil",
    "TooManyDecisionVariables", "ScanBudgetExhausted",
    # problem files
    "ProblemFile", "ProblemFileError", "load_problem", "parse_problem_text",
]
