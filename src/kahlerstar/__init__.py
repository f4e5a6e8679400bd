"""Star products with separation of variables on a Kähler chart, to third order.

The package evaluates the bidifferential operators of the standard product
with separation of variables (and its regular third-order modification)
from covariant formulas, constructs the same operators independently
through the left-multiplication recursion, and verifies the identities
relating them numerically at user-chosen points.
"""

from .expressions import (
    EvaluationError,
    Expr,
    ExpressionError,
    HolomorphyClass,
    classify,
    eval_jet,
    eval_value,
    formal_conjugate,
    parse,
    parse_complex,
    substitute,
    to_source,
)
from .geometry import (
    ChartContext,
    CurvatureData,
    SingularMetricError,
    build_chart,
    covariant_derivative_jets,
    curvature,
    jacobi_residual,
)
from .jets import Jet, MultiIndex, jet_matrix_inverse, solve_linear_system
from .operators import (
    NuPolynomial,
    OperatorBreakdown,
    PoissonCheck,
    StarVariant,
    c1,
    c2,
    c2_expanded,
    c3,
    c3_tilde,
    operator_breakdown,
    poisson_antisymmetry,
    star_product,
    star_product_jets,
)
from .oracle import FormalOperator, OracleConsistencyError, build_left_mult, oracle_cr
from .presets import PRESET_NAMES, preset_potential
from .verify import (
    CheckResult,
    RandomChartSpec,
    check_associativity,
    check_covariance,
    check_gauge,
    random_polynomial,
    random_potential,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "Jet",
    "MultiIndex",
    "solve_linear_system",
    "jet_matrix_inverse",
    "Expr",
    "ExpressionError",
    "EvaluationError",
    "HolomorphyClass",
    "parse",
    "parse_complex",
    "to_source",
    "eval_jet",
    "eval_value",
    "substitute",
    "classify",
    "formal_conjugate",
    "ChartContext",
    "CurvatureData",
    "SingularMetricError",
    "build_chart",
    "curvature",
    "covariant_derivative_jets",
    "jacobi_residual",
    "StarVariant",
    "NuPolynomial",
    "OperatorBreakdown",
    "PoissonCheck",
    "c1",
    "c2",
    "c2_expanded",
    "c3",
    "c3_tilde",
    "operator_breakdown",
    "star_product",
    "star_product_jets",
    "poisson_antisymmetry",
    "FormalOperator",
    "OracleConsistencyError",
    "build_left_mult",
    "oracle_cr",
    "PRESET_NAMES",
    "preset_potential",
    "CheckResult",
    "RandomChartSpec",
    "random_polynomial",
    "random_potential",
    "check_associativity",
    "check_covariance",
    "check_gauge",
    "run_suite",
    "__version__",
]
