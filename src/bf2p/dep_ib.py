"""Dependent independent-Beta variant: truncated-Gaussian priors on the
rate difference and grand mean, with a clamped rate mapping.

This setup exists to separate two stories about why logit-based and
direct-rate priors disagree: it keeps the rates on their natural scale
(no logit transform) while making them strongly dependent a priori.
The difference ``eta`` gets N(0, sigma_eta) truncated to (-1, 1), the
grand mean ``zeta`` gets a Gaussian truncated to (0, 1), and

    theta1 = min(max(zeta - eta/2, 0), 1)
    theta2 = min(max(zeta + eta/2, 0), 1)

so the prior places point mass exactly at rates 0 and 1.  The null model
pins eta = 0 and keeps the same zeta prior, mirroring the shared-rate
construction of the other two tests.

Marginal likelihoods use the quadrature engine of ``bf2p.lt`` in
log-odds coordinates, where each rate's Jacobian theta (1 - theta)
turns its counts into (y + 1, n + 2) and the truncated-Gaussian priors
are pulled back through the rates.  Under H0 the engine integrates over
the shared rate's log odds.  Under H1 the domain splits along the clamp
boundaries: on the core, where both rates are interior, the engine
integrates over LT's (beta, psi); a clamped wedge, where one rate sits
on 0 or 1, carries likelihood only when that group's count sits on the
same bound, and its prior eta integral is a difference of two normal
CDFs, leaving a 1-D tanh-sinh integral over the free rate's log odds.
The error estimate sums the engine's estimates for H0, the core and the
wedges, each weighted by its share of its marginal.

Prior draws and the prior correlation come from ``bf2p.priors``, which
samples every family; the functions here delegate to it.
"""

from __future__ import annotations

import math

import numpy as np

from .lt import (
    DEFAULT_REL_TOL,
    _LOGITS,
    _binom_grad_curv,
    _empirical_logit,
    _laplace_gh,
    _log_binom_lik,
    _log_coeffs,
    _logsumexp,
    _newton,
    _tanhsinh_opts,
    _to_beta_psi,
)
from .model import (
    DepIBPrior,
    EvidenceResult,
    Hypothesis,
    Method,
    NumericalError,
    ProportionPair,
    TwoByTwoData,
    expit,
    expit_pair,
)
from .priors import _draw_rates, prior_correlation
from .special import _log_gaussian_mass, log_density_truncated_gaussian

__all__ = [
    "clamped_rates",
    "log_ml_h0_depib",
    "log_ml_h1_depib",
    "bf01_depib",
    "sample_prior_depib",
    "prior_correlation_depib",
]

def clamped_rates(eta: float, zeta: float) -> ProportionPair:
    """Map (eta, zeta) to rates, clamping each into [0, 1]."""
    return ProportionPair(
        min(max(zeta - 0.5 * eta, 0.0), 1.0),
        min(max(zeta + 0.5 * eta, 0.0), 1.0),
    )


def _log_prior_zeta(z, cfg: DepIBPrior):
    return log_density_truncated_gaussian(z, cfg.sigma_zeta, 0.0, 1.0, center=cfg.zeta_center)


def _log_ml_h0(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) with eta = 0, over the shared rate's log odds."""
    y, n = d.pooled
    zc, sz2 = cfg.zeta_center, cfg.sigma_zeta**2

    def logf(v):
        return _log_binom_lik(y + 1, n + 2, v[..., 0]) + _log_prior_zeta(expit(v[..., 0]), cfg)

    def grad_hess(v):
        t, c = expit_pair(v[0])
        dt = t * c
        b = -(t - zc) / sz2  # d log p(zeta) / d zeta
        g, w = _binom_grad_curv(y + 1, n + 2, v[0])
        return np.array([g + b * dt]), np.array([[b * dt * (c - t) - dt * dt / sz2 - w]])

    what = "dep-IB H0 marginal"
    mode, cov = _newton(logf, grad_hess, [_empirical_logit(y + 1, n + 2)], what)
    val, err = _laplace_gh(logf, mode, cov, DEFAULT_REL_TOL, what)
    return _log_coeffs(d) + val, err


def _core(d: TwoByTwoData, cfg: DepIBPrior):
    """(log f, gradient and Hessian, Newton start) of the H1 core in (beta, psi)."""
    ys, ns = np.array([[d.y1 + 1, d.y2 + 1], [d.n1 + 2, d.n2 + 2]], dtype=float)
    zc, se2, sz2 = cfg.zeta_center, cfg.sigma_eta**2, cfg.sigma_zeta**2
    # Hessian of the log prior in the rates, eta = t2 - t1, zeta = (t1 + t2)/2
    diag, off = -1.0 / se2 - 0.25 / sz2, 1.0 / se2 - 0.25 / sz2
    h_theta = np.array([[diag, off], [off, diag]])

    def logf(v):
        x = v @ _LOGITS.T
        t = expit(x)
        return (
            np.sum(_log_binom_lik(ys, ns, x), axis=-1)
            + log_density_truncated_gaussian(t[..., 1] - t[..., 0], cfg.sigma_eta, -1.0, 1.0)
            + _log_prior_zeta(0.5 * (t[..., 0] + t[..., 1]), cfg)
        )

    def grad_hess(v):
        x = _LOGITS @ v
        t, c = np.array([expit_pair(xi) for xi in x]).T
        dt = t * c
        a = -(t[1] - t[0]) / se2  # d log p(eta) / d eta
        b = -(0.5 * (t[0] + t[1]) - zc) / sz2  # d log p(zeta) / d zeta
        g_theta = np.array([0.5 * b - a, 0.5 * b + a])
        g, w = _binom_grad_curv(ys, ns, x)
        h = h_theta * np.outer(dt, dt) + np.diag(g_theta * dt * (c - t) - w)
        return _to_beta_psi(g + g_theta * dt, h)

    x1, x2 = _empirical_logit(ys, ns)
    return logf, grad_hess, [0.5 * (x1 + x2), x2 - x1]


def _log_wedge(y: int, n: int, center: float, cfg: DepIBPrior, log_scale: float):
    """(log integral, relative error) over one clamped wedge.

    The free rate u is measured from its partner's bound (theta at 0,
    1 - theta at 1), as are its counts (y, n) and the zeta prior's
    ``center``.  Given u, e = |eta| runs over (u, min(2u, 1)) with
    zeta = u - e/2, and the product of the two priors is Gaussian in e.
    """
    from scipy.integrate import tanhsinh

    se, sz = cfg.sigma_eta, cfg.sigma_zeta
    s_w = math.hypot(sz, 0.5 * se)  # sd of u - center, marginal over e
    s_e = se * sz / s_w  # sd of e given u
    log_norm = _log_gaussian_mass(-1.0, 1.0, 0.0, se) + _log_gaussian_mass(0.0, 1.0, center, sz)
    log_norm += math.log(s_w) + 0.5 * math.log(2.0 * math.pi)

    def logf(x):
        u = expit(x)
        w = u - center  # the mean of e given u is proportional to w
        log_mass = _log_gaussian_mass(u, np.minimum(2.0 * u, 1.0), 0.5 * (se / s_w) ** 2 * w, s_e)
        return _log_binom_lik(y + 1, n + 2, x) - 0.5 * (w / s_w) ** 2 + log_mass - log_norm

    # the e window's upper end has a kink at u = 1/2, i.e. x = 0; at large n
    # the likelihood peak near x_hat is too narrow for one tanh-sinh half
    edges = sorted({0.0, _empirical_logit(y + 1, n + 2)})
    opts = _tanhsinh_opts(log_scale, DEFAULT_REL_TOL / 100.0)
    res = tanhsinh(logf, [-np.inf, *edges], [*edges, np.inf], **opts)
    if np.any(res.status != 0):
        raise NumericalError(f"dep-IB clamped wedge did not converge to {DEFAULT_REL_TOL}")
    val = _logsumexp(res.integral)
    return val, math.exp(_logsumexp(res.error) - val)


def _log_ml_h1(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) of the free-(eta, zeta) model."""
    what = "dep-IB H1 marginal"
    logf, grad_hess, x0 = _core(d, cfg)
    mode, cov = _newton(logf, grad_hess, x0, what)
    parts = [_laplace_gh(logf, mode, cov, DEFAULT_REL_TOL, what)]
    zc = cfg.zeta_center
    wedges = (
        (d.y1 == 0, d.y2, d.n2, zc),  # theta1 clamped to 0
        (d.y2 == d.n2, d.n1 - d.y1, d.n1, 1.0 - zc),  # theta2 clamped to 1
        (d.y2 == 0, d.y1, d.n1, zc),  # theta2 clamped to 0
        (d.y1 == d.n1, d.n2 - d.y2, d.n2, 1.0 - zc),  # theta1 clamped to 1
    )
    # wedge tolerances are judged against the core, a lower bound of the total
    parts += [_log_wedge(y, n, c, cfg, parts[0][0]) for on, y, n, c in wedges if on]
    total = _logsumexp(np.array([v for v, _ in parts]))
    err = sum(e * math.exp(v - total) for v, e in parts)
    return _log_coeffs(d) + total, err


def _log_ml(d: TwoByTwoData, hypothesis: Hypothesis, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) under one hypothesis."""
    return (_log_ml_h0 if hypothesis is Hypothesis.H0 else _log_ml_h1)(d, cfg)


def log_ml_h0_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal with eta = 0: a single rate zeta under its truncated prior."""
    return _log_ml_h0(d, cfg)[0]


def log_ml_h1_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal of the free-(eta, zeta) model: core plus clamped wedges."""
    return _log_ml_h1(d, cfg)[0]


def bf01_depib(d: TwoByTwoData, cfg: DepIBPrior | None = None) -> EvidenceResult:
    """Bayes factor for eta = 0 under the clamped truncated-Gaussian prior."""
    cfg = cfg if cfg is not None else DepIBPrior()
    return EvidenceResult.from_hypotheses(_log_ml, d, cfg, Method.QUADRATURE)


def sample_prior_depib(
    cfg: DepIBPrior, n_draws: int, seed: int, hypothesis_null: bool = False
):
    """Seeded draws of (theta1, theta2) under the clamped prior.

    Inverse-CDF sampling from a counter-based generator, so streams are
    reproducible and independent of draw order.
    """
    hypothesis = Hypothesis.H0 if hypothesis_null else Hypothesis.H1
    return _draw_rates(cfg, hypothesis, n_draws, np.random.Generator(np.random.Philox(seed)))


def prior_correlation_depib(cfg: DepIBPrior, n_draws: int = 1_000_000, seed: int = 0) -> float:
    """Pearson correlation of the two rates under the clamped prior (Monte Carlo)."""
    return prior_correlation(cfg, n_draws, seed)
