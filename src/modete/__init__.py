"""Mode treatment effect estimation.

Two routes estimate the difference between the modes of the treated and
untreated potential-outcome distributions: a pure kernel estimator built on
locally weighted conditional densities, and a cross-fitted estimator built on
Neyman-orthogonal scores that tolerates regularized first-step learners.
Both come with sandwich variance estimation and confidence intervals at the
nonstandard ``sqrt(n * h**3)`` rate, plus a Monte Carlo harness that checks
the asymptotic claims empirically.
"""

from .density import (
    DensityCurve,
    KernelArmFit,
    Sample,
    cond_density_at,
    default_grid,
    marginal_arm_fit,
    marginal_density_curve,
)
from .dml import (
    DMLConfig,
    FoldPartition,
    NuisanceBundle,
    OracleNuisance,
    Perturbation,
    dml_density_curve,
    dml_variance_components,
    estimate_dml_mte,
    fit_nuisances,
    make_folds,
    orthogonal_score,
    orthogonality_check,
)
from .errors import (
    ConfigurationError,
    ConstantCovariateError,
    ConvergenceError,
    CurveShapeWarning,
    DegenerateLocalityError,
    EstimationError,
    InvalidCurveError,
    MonteCarloError,
    NoDataError,
    NoOverlapError,
    RateConditionWarning,
    StratificationError,
    UnimodalityViolationError,
)
from .kernels import (
    EPANECHNIKOV,
    GAUSSIAN,
    KernelConstants,
    KernelSpec,
    default_bandwidth,
    eval_kernel,
    kernel_constants,
    product_kernel,
    scaled_kernel,
)
from .kernel_mte import (
    estimate_kernel_mte,
    kernel_variance_components,
    robust_scale,
    standardize_covariates,
)
from .learners import (
    PropensityFit,
    SmoothedOutcomeFit,
    clip_propensity,
    fit_propensity,
    fit_smoothed_outcome,
)
from .modes import ModeLocation, argmax_on_grid, mode_of_curve, refine_mode
from .results import Diagnostics, MTEResult
from .simulation import (
    DGPSpec,
    LogNormalLaw,
    MixtureLaw,
    MonteCarloReport,
    NormalLaw,
    builtin_dgps,
    generate,
    numeric_mode,
    oracle_nuisances,
    run_monte_carlo,
    true_mode,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
