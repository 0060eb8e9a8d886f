"""Brute-force Monte Carlo estimators used to validate every marginal.

These estimators are deliberately naive: prior draws, log-mean-exp, and
(for the sequential decomposition) self-normalized importance sampling
with the prior as proposal.  No adaptation, no variance tricks.  Their
only job is to provide unbiased, assumption-free numbers against which
the analytic and quadrature routines are checked at a few standard
errors, on desk-scale data.

The sequential estimator implements the two-stage reading of the joint
marginal: marginal of group 1, times the posterior predictive of group 2
given group 1.  For the independent-rates alternative the group-1
likelihood does not involve the group-2 rate at all, so the posterior
predictive collapses to the prior predictive exactly; the code preserves
that identity bit-for-bit rather than re-deriving it by importance
weighting.

All randomness flows through explicitly seeded counter-based generators
(Philox); nothing touches global RNG state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bf2p.averaging import Approach, ApproachParams, ModelId, M1_IB
from bf2p.ib import log_binomial_coeff
from bf2p.lt import _logsumexp
from bf2p.priors import _draw_rates
from bf2p.model import DepIBPrior, Hypothesis, TwoByTwoData

__all__ = [
    "MCEstimate",
    "mc_log_marginal",
    "mc_log_marginal_depib",
    "group2_log_predictive",
    "sequential_log_marginal",
]

MIN_DRAWS = 100_000
ESS_WARN_THRESHOLD = 100.0


@dataclass(frozen=True)
class MCEstimate:
    """A log-scale Monte Carlo estimate with a delta-method standard error."""

    log_value: float
    std_error: float
    n_draws: int
    seed: int
    ess: float | None = None
    warning: str | None = None


def _rng_streams(seed: int, n_streams: int):
    seqs = np.random.SeedSequence(seed).spawn(n_streams)
    return [np.random.Generator(np.random.Philox(s)) for s in seqs]


def _log_group_lik(y: int, n: int, theta: np.ndarray) -> np.ndarray:
    """Binomial log pmf at array of rates, exact at clamped endpoints.

    A term whose count is 0 is 0, even at a rate of 0 or 1.
    """
    out = np.full(np.shape(theta), log_binomial_coeff(n, y))
    with np.errstate(divide="ignore"):
        if y:
            out += y * np.log(theta)
        if n - y:
            out += (n - y) * np.log1p(-theta)
    return out


def _checked(params: ApproachParams | None, n_draws: int) -> ApproachParams:
    """Validate one estimator call; ``params`` defaults to ``ApproachParams()``."""
    if n_draws < MIN_DRAWS:
        raise ValueError(f"n_draws must be at least {MIN_DRAWS}, got {n_draws}")
    return params if params is not None else ApproachParams()


def _model_rates(model: ModelId, params: ApproachParams, n: int, rng):
    """(theta1, theta2) arrays drawn from the model's prior."""
    cfg = params.ib if model.approach is Approach.IB else params.lt
    return _draw_rates(cfg, model.hypothesis, n, rng)


def _mc_estimate(d: TwoByTwoData, rates, n_draws: int, seed: int) -> MCEstimate:
    """Plain Monte Carlo log marginal over prior draws ``rates = (theta1, theta2)``."""
    t1, t2 = rates
    ll = _log_group_lik(d.y1, d.n1, t1) + _log_group_lik(d.y2, d.n2, t2)
    log_val, se = _log_mean_exp_with_se(ll)
    return MCEstimate(log_value=log_val, std_error=se, n_draws=n_draws, seed=seed)


def _log_mean_exp_with_se(log_terms: np.ndarray) -> tuple[float, float]:
    m = float(np.max(log_terms))
    w = np.exp(log_terms - m)
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / (mean * math.sqrt(w.size)))
    return m + math.log(mean), se


def mc_log_marginal(
    model: ModelId,
    d: TwoByTwoData,
    params: ApproachParams | None = None,
    n_draws: int = MIN_DRAWS,
    seed: int = 0,
) -> MCEstimate:
    """Plain Monte Carlo estimate of a model's log marginal likelihood."""
    params = _checked(params, n_draws)
    (rng,) = _rng_streams(seed, 1)
    return _mc_estimate(d, _model_rates(model, params, n_draws, rng), n_draws, seed)


def mc_log_marginal_depib(
    d: TwoByTwoData,
    cfg: DepIBPrior,
    hypothesis: Hypothesis,
    n_draws: int = MIN_DRAWS,
    seed: int = 0,
) -> MCEstimate:
    """Monte Carlo oracle for the clamped truncated-Gaussian variant."""
    _checked(None, n_draws)
    rates = _draw_rates(cfg, hypothesis, n_draws, np.random.Generator(np.random.Philox(seed)))
    return _mc_estimate(d, rates, n_draws, seed)


def _snis_log_mean_with_se(lw: np.ndarray, lv: np.ndarray):
    """log of sum(w v)/sum(w) plus a delta-method SE and the weight ESS."""
    log_num = _logsumexp(lw + lv)
    log_den = _logsumexp(lw)
    log_val = log_num - log_den
    wn = np.exp(lw - log_den)  # normalized weights
    v = np.exp(lv - log_val)  # v / estimate, keeps the variance sum stable
    var = float(np.sum((wn * (v - 1.0)) ** 2))
    ess = 1.0 / float(np.sum(wn * wn))
    return log_val, math.sqrt(var), ess


def group2_log_predictive(
    model: ModelId,
    d: TwoByTwoData,
    params: ApproachParams | None = None,
    n_draws: int = MIN_DRAWS,
    seed: int = 0,
    condition_on_group1: bool = True,
) -> MCEstimate:
    """ln p(D2 | D1, model) (or ln p(D2 | model) when unconditioned).

    Conditioning is realized by importance-weighting prior draws with the
    group-1 likelihood.  Under the independent-rates alternative those
    weights are constant in the group-2 rate, so both settings of
    ``condition_on_group1`` are the same estimator, by construction.
    """
    params = _checked(params, n_draws)
    _, rng = _rng_streams(seed, 2)
    t1, t2 = _model_rates(model, params, n_draws, rng)
    lv = _log_group_lik(d.y2, d.n2, t2)
    if model == M1_IB or not condition_on_group1:
        log_val, se = _log_mean_exp_with_se(lv)
        return MCEstimate(log_value=log_val, std_error=se, n_draws=n_draws, seed=seed)
    lw = _log_group_lik(d.y1, d.n1, t1)
    log_val, se, ess = _snis_log_mean_with_se(lw, lv)
    warning = (
        f"effective sample size {ess:.1f} below {ESS_WARN_THRESHOLD:g}"
        if ess < ESS_WARN_THRESHOLD
        else None
    )
    return MCEstimate(
        log_value=log_val, std_error=se, n_draws=n_draws, seed=seed,
        ess=ess, warning=warning,
    )


def sequential_log_marginal(
    model: ModelId,
    d: TwoByTwoData,
    params: ApproachParams | None = None,
    n_draws: int = MIN_DRAWS,
    seed: int = 0,
) -> MCEstimate:
    """Two-stage estimate: group-1 marginal plus group-2 posterior predictive.

    Algebraically identical to the joint marginal; estimated from two
    independent sub-streams so the quoted standard error is the
    quadrature sum of the two stages' errors.
    """
    params = _checked(params, n_draws)
    rng_a, _ = _rng_streams(seed, 2)
    t1, _unused = _model_rates(model, params, n_draws, rng_a)
    log_z1, se_z1 = _log_mean_exp_with_se(_log_group_lik(d.y1, d.n1, t1))
    pred = group2_log_predictive(
        model, d, params, n_draws, seed, condition_on_group1=True
    )
    return MCEstimate(
        log_value=log_z1 + pred.log_value,
        std_error=math.sqrt(se_z1**2 + pred.std_error**2),
        n_draws=n_draws,
        seed=seed,
        ess=pred.ess,
        warning=pred.warning,
    )
