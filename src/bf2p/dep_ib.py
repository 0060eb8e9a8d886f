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

Under H0 the marginal integrates over the shared rate.  Under H1 the
domain splits along the clamp boundaries: on the core both rates are
interior; a clamped wedge, where one rate sits on 0 or 1, carries
likelihood only when that group's count sits on the same bound, and
its prior eta integral is a difference of two normal CDFs, leaving a
1-D integral over the free rate on ``bf2p.special``'s tanh-sinh rule.

H0 and the core are integrated in the rates, with no Jacobian
(eta = t2 - t1, zeta = (t1 + t2)/2), by Gauss-Jacobi rules whose
weights are the binomial kernels t^y (1 - t)^(n - y): what is left to
integrate is the smooth product of the two truncated-Gaussian
densities, however large n is.  Each takes a ladder of two rules
(``RATE_NODES``, 20 and 40 nodes per rate) under the stop test and
error floor of ``bf2p.lt``'s engine; the rules are cached per group
count, so a sweep builds a study's rules once for its whole prior
grid.  Where the two do not agree (a narrow eta prior's ridge along
t1 = t2, which no polynomial in the rates follows), the engine takes
over in log-odds coordinates, where each rate's Jacobian
theta (1 - theta) turns its counts into (y + 1, n + 2): H0 over the
shared rate's log odds, the core over LT's (beta, psi).  The error
estimate sums the estimates for H0 and the core and the rule's 1e-12
for each wedge, each weighted by its share of its marginal.

Prior draws and the prior correlation come from ``bf2p.priors``, which
samples every family; ``prior_correlation_depib`` delegates to it.
"""

from __future__ import annotations

import math

import numpy as np

from .lt import (
    _ROUNDING,
    _binom_grad_curv,
    _empirical_logit,
    _first_agreement,
    _integrate,
    _log_binom_lik,
    _log_coeffs,
    _logsumexp,
)
from .model import (
    DepIBPrior,
    EvidenceResult,
    Hypothesis,
    Method,
    ProportionPair,
    TwoByTwoData,
    expit,
    expit_pair,
)
from .priors import prior_correlation
from .special import (
    _LN_SQRT_2PI,
    _TS_REL_TOL,
    _jacobi_rule,
    _log_gaussian_mass,
    _log_truncation_mass,
    _tanh_sinh,
    log_density_truncated_gaussian,
)

__all__ = [
    "clamped_rates",
    "log_ml_h0_depib",
    "log_ml_h1_depib",
    "bf01_depib",
    "prior_correlation_depib",
]

#: Gauss-Jacobi nodes per rate of the coarse and fine rules over H0 and the
#: H1 core; the fine rule's value stands when the two agree.
RATE_NODES = (20, 40)


def clamped_rates(eta: float, zeta: float) -> ProportionPair:
    """Map (eta, zeta) to rates, clamping each into [0, 1]."""
    return ProportionPair(
        min(max(zeta - 0.5 * eta, 0.0), 1.0),
        min(max(zeta + 0.5 * eta, 0.0), 1.0),
    )


def _log_prior_zeta(z, cfg: DepIBPrior):
    return log_density_truncated_gaussian(z, cfg.sigma_zeta, 0.0, 1.0, center=cfg.zeta_center)


def _kernel_rule(y: int, n: int, m: int):
    """The m-point Gauss-Jacobi rule whose weight is the binomial kernel t^y (1 - t)^(n - y)."""
    return _jacobi_rule(n - y, y, m)


def _log_h0_rates(d: TwoByTwoData, cfg: DepIBPrior, m: int) -> float:
    """Log integral of H0 over the shared rate by the m-point rule of the pooled counts."""
    t, log_mass, lw = _kernel_rule(*d.pooled, m)
    return log_mass + _logsumexp(lw + _log_prior_zeta(t, cfg))


def _log_core_rates(d: TwoByTwoData, cfg: DepIBPrior, m: int) -> float:
    """Log integral of the H1 core over the rates' unit square by the m x m tensor rule.

    In (t1, t2) the core is the two binomial kernels, which the rules'
    weights carry, times the eta and zeta densities, with no Jacobian
    (eta = t2 - t1, zeta = (t1 + t2)/2).
    """
    t1, log_mass1, lw1 = _kernel_rule(d.y1, d.n1, m)
    t2, log_mass2, lw2 = _kernel_rule(d.y2, d.n2, m)
    t1, t2 = t1[:, None], t2[None, :]
    logf = (
        (lw1[:, None] + lw2[None, :])
        + log_density_truncated_gaussian(t2 - t1, cfg.sigma_eta, -1.0, 1.0)
        + _log_prior_zeta(0.5 * (t1 + t2), cfg)
    )
    return (log_mass1 + log_mass2) + _logsumexp(logf.ravel())


def _h0(d: TwoByTwoData, cfg: DepIBPrior):
    """(log f, gradient and Hessian, Newton start) of H0 in the shared rate's log odds.

    log f takes the log odds x, a float or an array, as ``lt._lt_problem``'s do.
    """
    y, n = d.pooled
    zc, sz = cfg.zeta_center, cfg.sigma_zeta

    def logf(x):
        return _log_binom_lik(y + 1, n + 2, x) + _log_prior_zeta(expit(x), cfg)

    def grad_hess(v):
        t, c = expit_pair(v[0])
        dt = t * c
        b = -(t - zc) / sz / sz  # d log p(zeta) / d zeta
        g, w = _binom_grad_curv(y + 1, n + 2, v[0])
        return (g + b * dt,), (b * dt * (c - t) - dt * dt / sz / sz - w,)

    return logf, grad_hess, [_empirical_logit(y + 1, n + 2)]


def _log_ml_h0(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) with eta = 0.

    The ``RATE_NODES`` rules of the pooled counts come first, as for the
    H1 core; the engine takes H0 over the shared rate's log odds when
    they do not agree.
    """
    found = _first_agreement(_log_h0_rates(d, cfg, m) for m in RATE_NODES)
    val, err = found if found is not None else _integrate(*_h0(d, cfg), "dep-IB H0")[2:]
    return _log_coeffs(d) + val, err


def _core(d: TwoByTwoData, cfg: DepIBPrior):
    """(log f, gradient and Hessian, Newton start) of the H1 core in (beta, psi).

    log f takes beta and psi, floats or arrays, as ``lt._lt_problem``'s do.
    """
    (y1, n1), (y2, n2) = (d.y1 + 1, d.n1 + 2), (d.y2 + 1, d.n2 + 2)
    zc, se, sz = cfg.zeta_center, cfg.sigma_eta, cfg.sigma_zeta
    # Hessian of the log prior in the rates, eta = t2 - t1, zeta = (t1 + t2)/2
    diag, off = -1.0 / se / se - 0.25 / sz / sz, 1.0 / se / se - 0.25 / sz / sz

    def logf(beta, psi):
        x1, x2 = beta - 0.5 * psi, beta + 0.5 * psi
        t1, t2 = expit(x1), expit(x2)
        return (
            (_log_binom_lik(y1, n1, x1) + _log_binom_lik(y2, n2, x2))
            + log_density_truncated_gaussian(t2 - t1, se, -1.0, 1.0)
            + _log_prior_zeta(0.5 * (t1 + t2), cfg)
        )

    def grad_hess(v):
        beta, psi = v
        x1, x2 = beta - 0.5 * psi, beta + 0.5 * psi
        (t1, c1), (t2, c2) = expit_pair(x1), expit_pair(x2)
        dt1, dt2 = t1 * c1, t2 * c2
        a = -(t2 - t1) / se / se  # d log p(eta) / d eta
        b = -(0.5 * (t1 + t2) - zc) / sz / sz  # d log p(zeta) / d zeta
        g1, w1 = _binom_grad_curv(y1, n1, x1)
        g2, w2 = _binom_grad_curv(y2, n2, x2)
        # gradient and Hessian in (x1, x2), then carried over to (beta, psi)
        g1, g2 = g1 + (0.5 * b - a) * dt1, g2 + (0.5 * b + a) * dt2
        h11 = diag * (dt1 * dt1) + ((0.5 * b - a) * dt1 * (c1 - t1) - w1)
        h22 = diag * (dt2 * dt2) + ((0.5 * b + a) * dt2 * (c2 - t2) - w2)
        h12 = off * (dt1 * dt2)
        hess = ((h11 + h12) + (h12 + h22), 0.5 * ((h12 + h22) - (h11 + h12)), 0.25 * ((h11 - h12) + (h22 - h12)))
        return (g1 + g2, 0.5 * (g2 - g1)), hess

    x1, x2 = _empirical_logit(y1, n1), _empirical_logit(y2, n2)
    return logf, grad_hess, [0.5 * (x1 + x2), x2 - x1]


def _log_core(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log integral, error estimate) of the H1 core, both rates interior.

    The ``RATE_NODES`` rules are a ladder under ``lt._first_agreement``;
    where they do not agree (a narrow eta prior's ridge along t1 = t2,
    which no polynomial in the rates follows), the engine takes the core
    in log odds.
    """
    found = _first_agreement(_log_core_rates(d, cfg, m) for m in RATE_NODES)
    return found if found is not None else _integrate(*_core(d, cfg), "dep-IB H1 core")[2:]


def _log_wedge(y: int, n: int, center: float, cfg: DepIBPrior, log_scale: float):
    """(log integral, relative error) over one clamped wedge.

    The free rate u is measured from its partner's bound (theta at 0,
    1 - theta at 1), as are its counts (y, n) and the zeta prior's
    ``center``.  Given u, e = |eta| runs over (u, min(2u, 1)) with
    zeta = u - e/2, and the product of the two priors is Gaussian in e.
    Pieces of u that do not matter next to exp(``log_scale``) stop early.
    """
    se, sz = cfg.sigma_eta, cfg.sigma_zeta
    s_w = math.hypot(sz, 0.5 * se)  # sd of u - center, marginal over e
    s_e = se * sz / s_w  # sd of e given u
    log_norm = _log_truncation_mass(-1.0, 1.0, 0.0, se) + _log_truncation_mass(0.0, 1.0, center, sz)
    log_norm += math.log(s_w) + _LN_SQRT_2PI
    # pieces of u in (0, 1): the e window's upper end has a kink at u = 1/2, and at
    # large n the likelihood peak near u_hat is too narrow for one piece to resolve
    ends = np.array(sorted({0.0, 0.5, (y + 1.5) / (n + 3.0), 1.0}))
    lo, hi = ends[:-1, None], ends[1:, None]
    below = hi <= 0.5
    with np.errstate(divide="ignore"):  # log of the piece's end nearer to u's bound 0 or 1
        log_end, log_width = np.log(np.where(below, lo, 1.0 - hi)), np.log(hi - lo)

    def log_f(rows, log_s, log_1m_s):
        # below 1/2, u = lo + width s and log(1 - u) is log1p(-u); above,
        # v = 1 - u = (1 - hi) + width (1 - s) and log u is log1p(-v)
        low = below[rows]
        log_near = np.logaddexp(log_end[rows], log_width[rows] + np.where(low, log_s, log_1m_s))
        log_far = np.log1p(-np.exp(log_near))
        log_u, log_v = np.where(low, log_near, log_far), np.where(low, log_far, log_near)
        u, v = np.exp(log_u), np.exp(log_v)
        w = u - center  # the mean of e given u is proportional to w
        mean = 0.5 * (se / s_w) ** 2 * w
        # above 1/2 the window (u, 1) is reflected to 1 - e in (0, v), which keeps its digits
        lo_e, hi_e, c_e = np.where(low, u, 0.0), np.where(low, 2.0 * u, v), np.where(low, mean, 1.0 - mean)
        log_mass = _log_gaussian_mass(lo_e, hi_e, c_e, s_e)
        return y * log_u + (n - y) * log_v - 0.5 * (w / s_w) ** 2 + log_mass - log_norm + log_width[rows]

    val = _logsumexp(_tanh_sinh(log_f, ends[:-1], "dep-IB clamped wedge", log_scale))
    return val, max(_TS_REL_TOL, _ROUNDING * (1.0 + abs(val)))


def _log_ml_h1(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) of the free-(eta, zeta) model."""
    parts = [_log_core(d, cfg)]
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
    """(log marginal, error estimate) under one hypothesis.

    A prior scale near the float minimum overflows a Gaussian kernel's
    square, which is right (a density of 0), so numpy's warning is
    silenced once per marginal here rather than per density call.
    """
    with np.errstate(over="ignore"):
        return (_log_ml_h0 if hypothesis is Hypothesis.H0 else _log_ml_h1)(d, cfg)


def log_ml_h0_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal with eta = 0: a single rate zeta under its truncated prior."""
    return _log_ml(d, Hypothesis.H0, cfg)[0]


def log_ml_h1_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal of the free-(eta, zeta) model: core plus clamped wedges."""
    return _log_ml(d, Hypothesis.H1, cfg)[0]


def bf01_depib(d: TwoByTwoData, cfg: DepIBPrior | None = None) -> EvidenceResult:
    """Bayes factor for eta = 0 under the clamped truncated-Gaussian prior."""
    cfg = cfg if cfg is not None else DepIBPrior()
    return EvidenceResult.from_hypotheses(_log_ml, d, cfg, Method.QUADRATURE)


def prior_correlation_depib(cfg: DepIBPrior, n_draws: int = 1_000_000, seed: int = 0) -> float:
    """Pearson correlation of the two rates under the clamped prior (Monte Carlo)."""
    return prior_correlation(cfg, n_draws, seed)
