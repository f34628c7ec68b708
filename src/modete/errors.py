"""Exceptions and warning categories shared across the estimation pipeline."""


class EstimationError(Exception):
    """Base class for failures raised while fitting or evaluating estimators."""

    def __reduce__(self):
        # Pickle the message and the fields, not the constructor's arguments,
        # which differ from the message in the subclasses that format one.
        return _rebuild, (type(self), self.args, self.__dict__)


def _rebuild(cls, args, fields):
    exc = cls.__new__(cls)
    exc.args = args
    exc.__dict__.update(fields)
    return exc


class DegenerateLocalityError(EstimationError):
    """A query point carries no effective kernel mass in the requested arm.

    Signals that ``x`` lies outside the effective support of that arm's
    covariate distribution (the local denominator underflowed to zero).
    """

    def __init__(self, arm, x, index=None):
        self.arm = arm
        self.x = x
        self.index = index
        where = f" (observation {index})" if index is not None else ""
        super().__init__(
            f"zero kernel denominator for arm {arm} at x={_fmt(x)}{where}"
        )


class ConstantCovariateError(EstimationError):
    """A covariate column has zero sample variance and cannot be standardized."""

    def __init__(self, column):
        self.column = column
        super().__init__(f"covariate column {column} is constant")


class NoOverlapError(EstimationError):
    """A (sub)sample contains only one treatment arm."""


class NoDataError(EstimationError):
    """An operation received an empty subset."""


class ConvergenceError(EstimationError):
    """An iterative fit did not reach its tolerance."""

    def __init__(self, message, iterations):
        self.iterations = iterations
        super().__init__(f"{message} after {iterations} iterations")


class InvalidCurveError(EstimationError):
    """A density curve contains non-finite values."""


class UnimodalityViolationError(EstimationError):
    """A marginal density that must be unimodal has more than one peak."""


class ConfigurationError(EstimationError):
    """Mismatched configuration between fitted components and a request."""


class StratificationError(EstimationError):
    """Fold splitting repeatedly produced auxiliary samples missing an arm."""


class MonteCarloError(EstimationError):
    """Too many replications failed for the report to be trustworthy."""


class CurveShapeWarning(UserWarning):
    """The estimated density curve is flat or has several competing peaks."""


class RateConditionWarning(UserWarning):
    """The requested configuration strains the estimator's rate conditions."""


def _fmt(x):
    try:
        return "[" + ", ".join(f"{v:.4g}" for v in x) + "]"
    except TypeError:
        return repr(x)
