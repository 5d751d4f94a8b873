"""Invariant skew-symmetric phase-space metrics for non-Hamiltonian systems.

The library classifies dynamical systems as Hamiltonian or not via the
closedness of the contracted 1-form, evolves a phase-space metric so that
it becomes an integral of motion (exponential series, Strang splitting and
flow pullback), builds the closed-form invariant metric for linear-friction
systems, and evaluates generalized Poisson brackets with the evolved
metric.
"""

from .exprlang import (
    CoordinateChart,
    DomainError,
    Expr,
    ExprError,
    ExprSyntaxError,
    UnknownIdentifierError,
    differentiate,
    evaluate,
    parse,
    simplify,
    to_string,
)
from .phasespace import (
    ConstantMetric,
    DegenerateMetricWarning,
    ExprMetric,
    MetricDeterminant,
    MetricError,
    MetricField,
    PhasePoint,
    SingularMetricError,
    canonical_metric,
    inverse_metric,
    jacobi_residual,
    jacobi_residuals,
    metric_determinant,
    metric_eval,
)
from .dynamics import (
    FlowSegment,
    IntegrationError,
    IntegrationStats,
    IntegratorOptions,
    StepSizeUnderflowError,
    VectorFieldSpec,
    compressibility,
    compressibility_flow,
    integrate_flow,
)
from .helmholtz import HelmholtzReport, canonical_helmholtz, classify, helmholtz_residual, helmholtz_residuals
from .evolution import (
    EvolutionError,
    ExpressionSizeError,
    SeriesDivergenceWarning,
    SeriesMetric,
    SeriesPropagator,
    SplitMetric,
    TransportedMetric,
    congruence,
    invariance_residual,
    invariance_residuals,
    pullback_metric,
)
from .brackets import (
    BracketFrame,
    LeibnizDefect,
    Observable,
    bracket_jacobi_residual,
    leibniz_defect,
    poisson_bracket,
)
from .friction import (
    ApplicabilityError,
    ApplicabilityResult,
    ApplicabilityWarning,
    FrictionAnalyticMetric,
    FrictionError,
    FrictionSystem,
    analytic_metric,
    applicability_check,
    determinant_factor,
)

__version__ = "0.1.0"
