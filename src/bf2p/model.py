"""Core data types for two-group binomial experiments.

Everything downstream works with the types defined here: observed counts,
the log-odds coordinates (grand mean, log odds ratio) of the quadrature
engine's mode, the logistic sigmoid that maps log odds to rates, prior
configurations, and the ``EvidenceResult`` record that every Bayes
factor routine returns.

All types are immutable value objects and safe to share across threads.
Marginal likelihoods and Bayes factors are carried in natural-log space
throughout; conversion to the linear scale happens only at serialization
or display time.
"""

from __future__ import annotations

import enum
import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """Observed counts or a hyperparameter value violate an invariant."""


class ConfigError(ValueError):
    """Inconsistent or mismatched prior/model configuration."""


class DomainError(ValueError):
    """A function was evaluated outside its mathematical domain."""


class UnsupportedFeatureError(NotImplementedError):
    """Requested combination has no implemented (closed-form or numeric) route."""


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to converge.

    ``last_iterate`` carries whatever state the procedure reached, for
    diagnosis; it is not a usable result.
    """

    def __init__(self, message: str, last_iterate=None):
        super().__init__(message)
        self.last_iterate = last_iterate


class WidePriorWarning(UserWarning):
    """A prior scale outside the recommended range was accepted."""


class Hypothesis(enum.Enum):
    H0 = "h0"
    H1 = "h1"


class Method(enum.Enum):
    """How a marginal likelihood was computed."""

    ANALYTIC = "analytic"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class TwoByTwoData:
    """Counts (y1, n1, y2, n2) of a two-group binomial experiment."""

    y1: int
    n1: int
    y2: int
    n2: int

    def __post_init__(self):
        validate_data(self)

    @property
    def pooled(self) -> tuple[int, int]:
        """(y1+y2, n1+n2), the counts under a shared-rate model."""
        return self.y1 + self.y2, self.n1 + self.n2

    def swapped(self) -> "TwoByTwoData":
        return TwoByTwoData(self.y2, self.n2, self.y1, self.n1)


def validate_data(d: TwoByTwoData) -> TwoByTwoData:
    """Check count invariants, returning ``d`` if they hold.

    A count is an integer: a Python or numpy integer (``operator.index``),
    stored as a plain ``int`` so downstream arithmetic stays exact; floats,
    bools and other numbers are rejected, integral or not.  Raises
    ``ValidationError`` naming the offending field otherwise.
    """
    for name in ("y1", "n1", "y2", "n2"):
        v = getattr(d, name)
        try:
            if isinstance(v, bool):
                raise TypeError
            object.__setattr__(d, name, operator.index(v))
        except TypeError:
            raise ValidationError(f"{name} must be an integer, got {v!r}") from None
    if d.n1 < 1:
        raise ValidationError(f"n1 must be >= 1, got n1={d.n1}")
    if d.n2 < 1:
        raise ValidationError(f"n2 must be >= 1, got n2={d.n2}")
    if not 0 <= d.y1 <= d.n1:
        raise ValidationError(f"need 0 <= y1 <= n1, got y1={d.y1}, n1={d.n1}")
    if not 0 <= d.y2 <= d.n2:
        raise ValidationError(f"need 0 <= y2 <= n2, got y2={d.y2}, n2={d.n2}")
    return d


@dataclass(frozen=True)
class LogitCoords:
    """Log-odds coordinates: grand mean ``beta`` and log odds ratio ``psi``.

    logit(theta1) = beta - psi/2 and logit(theta2) = beta + psi/2, so psi
    is the group-2-minus-group-1 difference in log odds.
    """

    beta: float
    psi: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and math.isfinite(self.psi)):
            raise ValidationError("beta and psi must be finite")


def expit(x):
    """The logistic sigmoid 1 / (1 + e^-x), elementwise, within 2 ulp in both tails.

    Both branches divide by 1 + e^-|x|, which cannot overflow, so rates
    near 0 keep their digits down to the subnormal range.
    """
    e = np.exp(-np.abs(x))
    return np.where(np.greater_equal(x, 0), 1.0, e) / (1.0 + e)


def expit_pair(x: float) -> tuple[float, float]:
    """(sigma(x), sigma(-x)) of a float by ``math.exp``, in :func:`expit`'s arithmetic.

    The Newton steps of the quadrature engine take one or two of these
    per iteration, where a numpy call costs more than the arithmetic.
    """
    e = math.exp(-abs(x))
    hi, lo = 1.0 / (1.0 + e), e / (1.0 + e)
    return (hi, lo) if x >= 0 else (lo, hi)


# --------------------------------------------------------------------------
# Prior configurations
# --------------------------------------------------------------------------

#: Prior scales above this value induce anti-correlated rates and are
#: accepted only with a warning.
PSI_SCALE_WARN_THRESHOLD = 2.0


@dataclass(frozen=True)
class IBPrior:
    """Independent Beta(a, a) priors assigned directly to each rate.

    ``a < 1`` is rejected: it puts an undefined prior density at rate 0
    or 1, which breaks model selection when a rate is truly extreme.
    """

    a: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 1.0):
            raise ValidationError(f"IB prior requires a >= 1, got a={self.a!r}")


class BetaPriorKind(enum.Enum):
    GAUSSIAN = "gaussian"
    LOGISTIC = "logistic"


@dataclass(frozen=True)
class LTPrior:
    """Gaussian priors on the log-odds coordinates (beta, psi).

    ``beta_prior`` selects the nuisance prior on beta: the default
    zero-mean Gaussian with scale ``sigma_beta``, or a logistic
    distribution with that scale (with scale 1 the induced prior on a
    single rate is then uniform, matching the IB setup with a = 1 under
    the null).
    """

    sigma_beta: float = 1.0
    sigma_psi: float = 1.0
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN

    def __post_init__(self):
        if not (math.isfinite(self.sigma_beta) and self.sigma_beta > 0):
            raise ValidationError(f"sigma_beta must be > 0, got {self.sigma_beta!r}")
        if not (math.isfinite(self.sigma_psi) and self.sigma_psi > 0):
            raise ValidationError(f"sigma_psi must be > 0, got {self.sigma_psi!r}")
        if not isinstance(self.beta_prior, BetaPriorKind):
            object.__setattr__(self, "beta_prior", BetaPriorKind(self.beta_prior))
        if self.sigma_psi > PSI_SCALE_WARN_THRESHOLD:
            warnings.warn(
                f"sigma_psi={self.sigma_psi} > {PSI_SCALE_WARN_THRESHOLD} makes the "
                "two rates a priori anti-correlated",
                WidePriorWarning,
                stacklevel=3,
            )


@dataclass(frozen=True)
class DepIBPrior:
    """Truncated-Gaussian priors on (eta, zeta) with clamped rate mapping.

    ``eta`` ~ N(0, sigma_eta) truncated to (-1, 1); ``zeta`` ~
    N(zeta_center, sigma_zeta) truncated to (0, 1).  The rates are
    theta1 = clamp(zeta - eta/2), theta2 = clamp(zeta + eta/2), which can
    place prior point mass exactly at 0 and 1.

    ``zeta_center`` defaults to 1/2 (zeta prior centered in the unit
    interval); 0.0 selects the alternative reading where the zeta kernel
    is centered at zero before truncation.
    """

    sigma_eta: float = 0.2
    sigma_zeta: float = 0.5
    zeta_center: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.sigma_eta) and self.sigma_eta > 0):
            raise ValidationError(f"sigma_eta must be > 0, got {self.sigma_eta!r}")
        if not (math.isfinite(self.sigma_zeta) and self.sigma_zeta > 0):
            raise ValidationError(f"sigma_zeta must be > 0, got {self.sigma_zeta!r}")
        if not 0.0 <= self.zeta_center <= 1.0:
            raise ValidationError(f"zeta_center must lie in [0, 1], got {self.zeta_center!r}")


PriorConfig = IBPrior | LTPrior | DepIBPrior


# --------------------------------------------------------------------------
# Evidence
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EvidenceResult:
    """Log marginal likelihoods under H0/H1 and the implied log Bayes factor.

    ``log_bf01`` is constrained to equal ``log_ml_h0 - log_ml_h1``
    exactly; construct via :meth:`from_log_marginals` to get that for
    free.  ``abs_error_estimate`` bounds the numerical error of the log
    Bayes factor and is exactly 0 for analytic results.
    """

    log_ml_h0: float
    log_ml_h1: float
    log_bf01: float
    abs_error_estimate: float
    method_tag: Method

    def __post_init__(self):
        if not isinstance(self.method_tag, Method):
            object.__setattr__(self, "method_tag", Method(self.method_tag))
        if self.log_bf01 != self.log_ml_h0 - self.log_ml_h1:
            raise ValidationError("log_bf01 must equal log_ml_h0 - log_ml_h1 exactly")
        if not self.abs_error_estimate >= 0.0:
            raise ValidationError("abs_error_estimate must be >= 0")
        if self.method_tag is Method.ANALYTIC and self.abs_error_estimate != 0.0:
            raise ValidationError("analytic results must carry a zero error estimate")

    @classmethod
    def from_log_marginals(
        cls,
        log_ml_h0: float,
        log_ml_h1: float,
        abs_error_estimate: float,
        method_tag: Method,
    ) -> "EvidenceResult":
        return cls(
            log_ml_h0=log_ml_h0,
            log_ml_h1=log_ml_h1,
            log_bf01=log_ml_h0 - log_ml_h1,
            abs_error_estimate=abs_error_estimate,
            method_tag=method_tag,
        )

    @classmethod
    def from_hypotheses(cls, log_ml, d: TwoByTwoData, prior, method_tag: Method) -> "EvidenceResult":
        """Assemble from a family's ``log_ml(d, hypothesis, prior) -> (value, error)``.

        The error estimate is the sum of the two marginals' estimates.
        """
        ml0, err0 = log_ml(d, Hypothesis.H0, prior)
        ml1, err1 = log_ml(d, Hypothesis.H1, prior)
        return cls.from_log_marginals(ml0, ml1, err0 + err1, method_tag)

    @property
    def bf01(self) -> float:
        return math.exp(self.log_bf01)

    @property
    def bf10(self) -> float:
        return math.exp(-self.log_bf01)

    @property
    def log_bf10(self) -> float:
        return -self.log_bf01


def evidence_label(bf01: float) -> str:
    """Verbal category for a Bayes factor, directed at the favored hypothesis.

    Conventional reading: 1-3 weak, 3-10 moderate, above 10 strong.  The
    label is interpretive shorthand; the Bayes factor itself is the
    continuous quantity of interest.
    """
    if not bf01 > 0.0 or math.isnan(bf01):
        raise DomainError(f"Bayes factor must be positive, got {bf01!r}")
    favored = "H0" if bf01 >= 1.0 else "H1"
    b = bf01 if bf01 >= 1.0 else 1.0 / bf01
    if b <= 3.0:
        strength = "weak"
    elif b <= 10.0:
        strength = "moderate"
    else:
        strength = "strong"
    return f"{strength} evidence for {favored}"
