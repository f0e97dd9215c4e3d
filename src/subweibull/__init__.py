"""Tail-aware concentration tools for heavy-tailed high-dimensional data.

Orlicz norm machinery for stretched-exponential tails, a closed-form
deviation threshold for maxima of averages, covariance and
restricted-isometry diagnostics, penalised regression with
theory-driven penalties, and Gaussian approximation plus multiplier
bootstrap for max statistics.
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
)
from .tailbounds import max_average, max_average_threshold
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
    RsConvexityParams,
    centered_cov,
    cone_min_oracle,
    delta_bound,
    gram,
    max_elementwise_error,
    quarter_net,
    re_check,
    rip_exact,
    rip_net,
    upsilon_iid,
    xi_bound,
)
from .lasso import (
    LassoFit,
    cone_membership,
    lambda_empirical,
    lambda_theory_poly,
    lambda_theory_subweibull,
    solve,
)
from .hdclt import (
    data_max_sample,
    gaussian_analog_sample,
    hdclt_bound,
    max_statistic,
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
