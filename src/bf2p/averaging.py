"""Model-averaged Bayes factors over the four {IB, LT} x {H0, H1} models,
and :func:`evidence`, the one map from a prior config to its test.

Averaging across the two prior families is legitimate arithmetic but
statistically delicate: the two approaches give the nuisance grand mean
different distributions (logistic-flavored under IB, Gaussian under LT),
so their absolute marginal likelihoods differ even when both nulls
"mean the same thing".  Whenever a ratio mixes approaches across its
numerator and denominator, a :class:`MixedApproachWarning` is emitted;
passing ``beta_prior=logistic`` to the LT side removes the null-model
discrepancy exactly.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from . import dep_ib, ib, lt
from .model import (
    ConfigError,
    DepIBPrior,
    EvidenceResult,
    Hypothesis,
    IBPrior,
    LTPrior,
    Method,
    PriorConfig,
    TwoByTwoData,
)

__all__ = [
    "Approach",
    "ModelId",
    "M0_IB",
    "M1_IB",
    "M0_LT",
    "M1_LT",
    "ALL_MODELS",
    "ApproachParams",
    "MixedApproachWarning",
    "evidence",
    "validate_weights",
    "equal_weights",
    "log_ml",
    "bf_avg01",
    "cross_model_ratio",
]


class MixedApproachWarning(UserWarning):
    """A ratio compares marginals across prior families with unlike nuisance priors."""


class Approach(enum.Enum):
    IB = "ib"
    LT = "lt"


@dataclass(frozen=True)
class ModelId:
    approach: Approach
    hypothesis: Hypothesis

    def __str__(self):
        return f"M{0 if self.hypothesis is Hypothesis.H0 else 1}^{self.approach.value.upper()}"


M0_IB = ModelId(Approach.IB, Hypothesis.H0)
M1_IB = ModelId(Approach.IB, Hypothesis.H1)
M0_LT = ModelId(Approach.LT, Hypothesis.H0)
M1_LT = ModelId(Approach.LT, Hypothesis.H1)
ALL_MODELS = (M0_IB, M1_IB, M0_LT, M1_LT)

WEIGHT_SUM_TOL = 1e-12

#: Each prior family's module, whose ``_log_ml(d, hypothesis, prior)``
#: gives (log marginal, error estimate), its method tag, and the config
#: fields that only its H1 marginal reads.
_FAMILIES = {
    IBPrior: (ib, Method.ANALYTIC, ()),
    LTPrior: (lt, Method.QUADRATURE, ("sigma_psi",)),
    DepIBPrior: (dep_ib, Method.QUADRATURE, ("sigma_eta",)),
}


def _family(prior):
    try:
        return _FAMILIES[type(prior)]
    except KeyError:
        raise ConfigError(f"expected a prior config, got {prior!r}") from None


def _marginal(d: TwoByTwoData, hypothesis: Hypothesis, prior) -> tuple[float, float]:
    """(log marginal, error estimate) under one hypothesis of ``prior``'s family."""
    return _family(prior)[0]._log_ml(d, hypothesis, prior)


def _memoised_marginal():
    """A :func:`_marginal` that remembers every value it returns.

    The null model is keyed without the fields only H1 reads, so priors
    that differ only there (an LT ``sigma_psi`` grid, say) share one H0
    fit.  The memo lives as long as the returned function; errors are
    not remembered.
    """
    memo = {}

    def marginal(d, hypothesis, prior):
        key = (d, hypothesis, prior)
        if hypothesis is Hypothesis.H0:
            h1_only = _family(prior)[2]
            key = (d, hypothesis, type(prior)) + tuple(
                getattr(prior, f.name) for f in fields(prior) if f.name not in h1_only
            )
        if key not in memo:
            memo[key] = _marginal(d, hypothesis, prior)
        return memo[key]

    return marginal


def evidence(d: TwoByTwoData, prior: PriorConfig, log_ml=_marginal) -> EvidenceResult:
    """Bayes factor of ``d`` under the test that the type of ``prior`` selects.

    ``IBPrior``: closed-form independent Beta; ``LTPrior``: logit
    transformation; ``DepIBPrior``: the dependent variant.  ``log_ml``
    gives the two marginals, ``(d, hypothesis, prior) -> (log marginal,
    error estimate)``; a sweep passes a memo of them.
    """
    method_tag = _family(prior)[1]
    return EvidenceResult.from_hypotheses(log_ml, d, prior, method_tag)


@dataclass(frozen=True)
class ApproachParams:
    """One prior configuration per approach; models dispatch on their tag."""

    ib: IBPrior = IBPrior()
    lt: LTPrior = LTPrior()

    def __post_init__(self):
        if not isinstance(self.ib, IBPrior):
            raise ConfigError(f"ib slot needs an IBPrior, got {type(self.ib).__name__}")
        if not isinstance(self.lt, LTPrior):
            raise ConfigError(f"lt slot needs an LTPrior, got {type(self.lt).__name__}")


def validate_weights(weights: Mapping[ModelId, float]) -> dict[ModelId, float]:
    """Check nonnegativity and unit sum; unknown models are rejected."""
    clean = {}
    for model, w in weights.items():
        if model not in ALL_MODELS:
            raise ConfigError(f"unknown model {model!r}")
        if not (math.isfinite(w) and w >= 0.0):
            raise ConfigError(f"weight for {model} must be finite and >= 0, got {w!r}")
        clean[model] = float(w)
    total = sum(clean.values())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"model prior weights must sum to 1, got {total!r}")
    return clean


def equal_weights() -> dict[ModelId, float]:
    return {m: 0.25 for m in ALL_MODELS}


def log_ml(model: ModelId, d: TwoByTwoData, params: ApproachParams) -> float:
    """Log marginal likelihood of one model under its approach's prior.

    All four marginals include the shared binomial coefficients, so
    cross-approach ratios are ratios of true data probabilities.
    """
    return _log_ml(model, d, params)[0]


def _log_ml(model, d, params, log_ml=_marginal) -> tuple[float, float]:
    """(log marginal, error estimate) of one model; IB is exact."""
    if not isinstance(model, ModelId):
        raise ConfigError(f"expected a ModelId, got {model!r}")
    if not isinstance(params, ApproachParams):
        raise ConfigError(f"expected ApproachParams, got {type(params).__name__}")
    return log_ml(d, model.hypothesis, getattr(params, model.approach.value))


def _warn_if_mixed(num_models, den_models):
    num_app = {m.approach for m in num_models}
    den_app = {m.approach for m in den_models}
    if num_app != den_app:
        warnings.warn(
            "numerator and denominator weight different prior families; their "
            "nuisance priors on the grand mean differ, so this ratio is "
            "sensitive to that choice",
            MixedApproachWarning,
            stacklevel=3,
        )


def bf_avg01(
    d: TwoByTwoData,
    weights: Mapping[ModelId, float],
    params: ApproachParams | None = None,
    log_ml=_marginal,
) -> EvidenceResult:
    """Model-averaged Bayes factor: weighted nulls over weighted alternatives.

    log BF = logsumexp over null models of (log w + log ml) minus the same
    over alternative models.  Degenerate weights recover the pure tests.
    ``log_ml`` gives each marginal, as in :func:`evidence`.
    """
    params = params if params is not None else ApproachParams()
    weights = validate_weights(weights)
    num = [(m, w) for m, w in weights.items() if m.hypothesis is Hypothesis.H0 and w > 0]
    den = [(m, w) for m, w in weights.items() if m.hypothesis is Hypothesis.H1 and w > 0]
    if not num:
        raise ConfigError("all null-model weights are zero")
    if not den:
        raise ConfigError("all alternative-model weights are zero")
    _warn_if_mixed([m for m, _ in num], [m for m, _ in den])

    mls = {m: _log_ml(m, d, params, log_ml) for m, _ in num + den}
    log_num = lt._logsumexp(np.array([math.log(w) + mls[m][0] for m, w in num]))
    log_den = lt._logsumexp(np.array([math.log(w) + mls[m][0] for m, w in den]))
    any_lt = any(m.approach is Approach.LT for m, _ in num + den)
    return EvidenceResult.from_log_marginals(
        log_ml_h0=log_num,
        log_ml_h1=log_den,
        # a log marginal moves its weighted log-sum by at most its own error
        abs_error_estimate=sum(err for _, err in mls.values()),
        method_tag=Method.QUADRATURE if any_lt else Method.ANALYTIC,
    )


def cross_model_ratio(
    d: TwoByTwoData,
    m_num: ModelId,
    m_den: ModelId,
    params: ApproachParams | None = None,
) -> float:
    """Ratio of two model marginals, p(D | m_num) / p(D | m_den)."""
    params = params if params is not None else ApproachParams()
    _warn_if_mixed([m_num], [m_den])
    return math.exp(log_ml(m_num, d, params) - log_ml(m_den, d, params))
