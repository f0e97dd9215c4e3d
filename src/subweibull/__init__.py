"""Tail-aware concentration tools for heavy-tailed high-dimensional data.

Orlicz norm machinery for stretched-exponential tails, closed-form
deviation thresholds, covariance and restricted-isometry diagnostics,
penalised regression with theory-driven penalties, and Gaussian
approximation plus multiplier bootstrap for max statistics.
"""

__version__ = "0.1.0"

from .orlicz import (
    BoundConstants,
    Family,
    NormEstimate,
    OrliczSpec,
    empirical_norm,
    eval_function,
    eval_inverse,
    gbo_moment_norm,
    gbo_tail_threshold,
    maximal_threshold,
    moment_growth_norm,
)
from .tailbounds import (
    SumBoundReport,
    TailCurve,
    bernstein_subexp_tail,
    kernel_deviation_threshold,
    max_average_threshold,
    product_norm,
    variance_sum_bound,
    weighted_sum_bound,
)
from .samplers import (
    DataMatrix,
    Exponential,
    Gaussian,
    IidCoordinates,
    Pareto,
    RegressionData,
    RngStream,
    SymmetricWeibull,
    draw_matrix,
    make_regression,
)
from .covariance import (
    QuarterNet,
    ReReport,
    RipResult,
    RsConvexityParams,
    centered_cov,
    cone_min_oracle,
    delta_bound,
    gram,
    hard_threshold,
    max_elementwise_error,
    quarter_net,
    re_check,
    rip_exact,
    rip_net,
    rsc_lower,
    upsilon_estimate,
    upsilon_iid,
    xi_bound,
)
from .lasso import (
    EmpiricalOracle,
    FixedLambda,
    LassoFit,
    LassoProblem,
    TheoryPoly,
    TheorySubWeibull,
    cone_membership,
    error_bound_subweibull,
    lambda_theory_poly,
    lambda_theory_subweibull,
    oracle_inequality_bound,
    solve,
)
from .hdclt import (
    BootstrapResult,
    bootstrap_error_bound,
    data_max_sample,
    gaussian_analog_sample,
    hdclt_bound,
    max_statistic,
    multiplier_bootstrap,
    multiplier_draws,
    rho_rectangle_proxy,
)
from .experiments import (
    ConfigError,
    ExperimentConfig,
    InvariantViolation,
    RunManifest,
    fit_loglog,
    list_experiments,
    parse_config,
    run,
)
