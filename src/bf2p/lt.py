"""Logit-transformation Bayes factor, and the quadrature engine that
every non-conjugate marginal likelihood in the package shares.

The model places priors on the grand-mean log odds ``beta`` (both
hypotheses) and the log odds ratio ``psi`` (H1 only; the null pins
psi = 0).  Neither marginal likelihood is available in closed form.

The engine (adaptive Gauss-Hermite; Liu & Pierce 1994) integrates a
smooth log density on R^1 or R^2.  A damped Newton iteration finds the
mode, stopping on the scale-free Newton decrement g'(-H)^-1 g; it runs
on plain floats, with each problem's gradient and Hessian in closed
form, and calls the vectorized log density only to check a step.
Likelihood gradients are written y*sigma(-x) - (n-y)*sigma(x), so data
with all events or none, and their event-swapped mirrors, converge
alike.  Gauss-Hermite quadrature centred on the mode and whitened by
the Laplace covariance then raises its node count (21, 31, 61, 121,
241 per dimension) until two successive log-marginal estimates agree
to ``rel_tol``, or to the rounding of the log integral where that is
larger; the final gap, floored at that rounding, is the error estimate.
Each tensor rule is built once per process in whitened coordinates z,
from numpy's ``hermgauss``, and mapped to mode + L z by the closed-form
Cholesky factor L of the covariance.  Centering matters: for large
trials with rare events the likelihood sits many prior standard
deviations away from zero, where a prior-centered rule would silently
miss the mass.  Only
when the schedule is exhausted does nested tanh-sinh quadrature
(``bf2p.special``'s rule, over the half-lines either side of the mode)
in the same whitened coordinates take over; its error estimate is the
1e-12 its levels agree to, per dimension, floored at the same rounding.
Everything here runs on numpy and ``math``.  The integrands leave out the
binomial coefficients, which each marginal adds once.  The dependent
variant (``bf2p.dep_ib``) uses the same engine.  Estimates are fully
deterministic.

The null marginal does not depend on ``sigma_psi``, so a sweep
(``bf2p.reanalysis``) fits each study's H0 once per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .model import (
    BetaPriorKind,
    EvidenceResult,
    Hypothesis,
    LogitCoords,
    LTPrior,
    Method,
    NumericalError,
    TwoByTwoData,
    ValidationError,
    expit_pair,
)
from .ib import log_binomial_coeff
from .special import _TS_REL_TOL, _tanh_sinh, log_density_gaussian

__all__ = [
    "QuadratureSpec",
    "log_integrand_h1_lt",
    "log_integrand_h0_lt",
    "find_mode_and_scale",
    "log_ml_h0_lt",
    "log_ml_h1_lt",
    "bf01_lt",
]

#: Node counts tried per dimension; at 21 and 31 nodes most LT and dep-IB
#: integrands already agree to DEFAULT_REL_TOL, and no sweep fit climbs
#: past 241.  An integrand that 241 nodes cannot resolve is too far from
#: Gaussian for more nodes to help: it goes to the tanh-sinh fallback.
NODE_SCHEDULE = (21, 31, 61, 121, 241)

DEFAULT_REL_TOL = 1e-8

#: Newton stops once the decrement g'(-H)^-1 g, twice the gain (nats) a
#: full step predicts, is this small.
_DECREMENT_TOL = 1e-20

#: Steps predicted to gain less than this (nats) skip the ascent check,
#: whose float resolution would stall the iteration near the optimum.
_UNCHECKED_GAIN = 1e-6

#: Least error estimate, relative to 1 + |log integral|: two rules that
#: agree to the last bit still carry the rounding of log f's terms,
#: measured up to 0.97 eps that scale on the LT corpus and edge cases.
#: Gauss-Hermite never meets a tolerance below it.
_ROUNDING = 2.0 * float(np.finfo(float).eps)

#: Most Gauss-Hermite points per integrand call.
_BLOCK = 16384

#: Most z1 slices per inner rule of the 2-D fallback, which keeps its arrays to some 10 MB.
_SLICES = 128


# --------------------------------------------------------------------------
# Integrand pieces (vectorized over beta/psi arrays)
# --------------------------------------------------------------------------


def _log_binom_lik(y, n, x):
    """Log binomial likelihood of y/n at log odds x, without the coefficient.

    y*log(sigma(x)) + (n-y)*log(1-sigma(x)) written with log1p-style
    softplus terms; finite for |x| into the hundreds, -inf only where a
    required factor underflows completely.
    """
    x = np.asarray(x, dtype=float)
    return -y * np.logaddexp(0.0, -x) - (n - y) * np.logaddexp(0.0, x)


def _binom_grad_curv(y, n, x: float):
    """First derivative of :func:`_log_binom_lik` in x, and minus the second."""
    s, c = expit_pair(x)
    return y * c - (n - y) * s, n * s * c


def _empirical_logit(y, n):
    return np.log((y + 0.5) / (n - y + 0.5))


def _log_prior_beta(beta, sigma: float, kind: BetaPriorKind):
    beta = np.asarray(beta, dtype=float)
    if kind is BetaPriorKind.GAUSSIAN:
        return log_density_gaussian(beta, sigma)
    # logistic(0, sigma), written symmetrically for stability on both tails
    z = np.abs(beta) / sigma
    return -z - 2.0 * np.logaddexp(0.0, -z) - math.log(sigma)


def _beta_prior_grad_hess(beta: float, sigma: float, kind: BetaPriorKind):
    if kind is BetaPriorKind.GAUSSIAN:
        return -beta / sigma**2, -1.0 / sigma**2
    t = math.tanh(beta / (2.0 * sigma))
    grad = -t / sigma
    hess = -(1.0 - t * t) / (2.0 * sigma**2)
    return grad, hess


def _log_coeffs(d: TwoByTwoData) -> float:
    """ln C(n1, y1) + ln C(n2, y2): the data's constant factor under every model."""
    return log_binomial_coeff(d.n1, d.y1) + log_binomial_coeff(d.n2, d.y2)


def _log_integrand_h1(d, beta, psi, prior: LTPrior):
    """The H1 integrand without the binomial coefficients."""
    beta = np.asarray(beta, dtype=float)
    psi = np.asarray(psi, dtype=float)
    out = (
        _log_binom_lik(d.y1, d.n1, beta - 0.5 * psi)
        + _log_binom_lik(d.y2, d.n2, beta + 0.5 * psi)
        + _log_prior_beta(beta, prior.sigma_beta, prior.beta_prior)
        + log_density_gaussian(psi, prior.sigma_psi)
    )
    return out if out.ndim else float(out)


def _log_integrand_h0(d, beta, prior: LTPrior):
    """The H0 integrand without the binomial coefficients."""
    beta = np.asarray(beta, dtype=float)
    y, n = d.pooled
    out = _log_binom_lik(y, n, beta) + _log_prior_beta(beta, prior.sigma_beta, prior.beta_prior)
    return out if out.ndim else float(out)


def log_integrand_h1_lt(
    d: TwoByTwoData,
    beta,
    psi,
    sigma_beta: float,
    sigma_psi: float,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
):
    """Log of likelihood x priors at (beta, psi); the H1 evidence integrand."""
    prior = LTPrior(sigma_beta, sigma_psi, beta_prior)
    return _log_coeffs(d) + _log_integrand_h1(d, beta, psi, prior)


def log_integrand_h0_lt(
    d: TwoByTwoData,
    beta,
    sigma_beta: float,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
):
    """Log of likelihood x prior at beta with psi fixed to 0."""
    prior = LTPrior(sigma_beta, beta_prior=beta_prior)
    return _log_coeffs(d) + _log_integrand_h0(d, beta, prior)


def _lt_problem(d, hypothesis, prior: LTPrior):
    """(log f, gradient and Hessian, Newton start) of one LT integrand.

    The coordinates are (beta,) under H0 and (beta, psi) under H1; log f
    takes them on the last axis and leaves out the binomial coefficients.
    ``grad_hess`` takes and returns floats: the gradient as a tuple, the
    Hessian as (a,) or (a, b, d) for [[a, b], [b, d]].
    """
    sigma_beta, sigma_psi, beta_prior = prior.sigma_beta, prior.sigma_psi, prior.beta_prior
    if hypothesis is Hypothesis.H0:
        y, n = d.pooled

        def logf(v):
            return _log_integrand_h0(d, v[..., 0], prior)

        def grad_hess(v):
            g, w = _binom_grad_curv(y, n, v[0])
            pg, ph = _beta_prior_grad_hess(v[0], sigma_beta, beta_prior)
            return (g + pg,), (ph - w,)

        return logf, grad_hess, [_empirical_logit(y, n)]

    def logf(v):
        return _log_integrand_h1(d, v[..., 0], v[..., 1], prior)

    def grad_hess(v):
        beta, psi = v
        g1, w1 = _binom_grad_curv(d.y1, d.n1, beta - 0.5 * psi)
        g2, w2 = _binom_grad_curv(d.y2, d.n2, beta + 0.5 * psi)
        pg, ph = _beta_prior_grad_hess(beta, sigma_beta, beta_prior)
        # x1, x2 = beta -/+ psi/2 carried over to (beta, psi)
        grad = (g1 + g2 + pg, 0.5 * (g2 - g1) - psi / sigma_psi**2)
        return grad, (ph - (w1 + w2), 0.5 * (w1 - w2), -0.25 * (w1 + w2) - 1.0 / sigma_psi**2)

    x1, x2 = _empirical_logit(d.y1, d.n1), _empirical_logit(d.y2, d.n2)
    return logf, grad_hess, [0.5 * (x1 + x2), x2 - x1]


# --------------------------------------------------------------------------
# The engine: Newton to the mode, Gauss-Hermite, tanh-sinh fallback
# --------------------------------------------------------------------------


def _lowest_eigenvalue(c) -> float:
    """Lowest eigenvalue of a symmetric 1x1 or 2x2 matrix (a,) or (a, b, d), in closed form.

    In 2-D it is det / (larger eigenvalue) when the trace is positive, so
    its sign is the determinant's and a small one keeps its digits.
    """
    if len(c) == 1:
        return c[0]
    a, b, d = c
    m, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    return (a * d - b * b) / (m + r) if m > 0.0 else m - r


def _newton(logf, grad_hess, x0, what: str, max_iter: int = 200):
    """(mode, Laplace covariance (-H)^-1) of a log density on R^1 or R^2.

    The iteration runs on floats; only the step checks call the numpy
    ``logf``, each at a new point.  Steps are halved until they ascend.
    Where the density is not log-concave, the step uses -H shifted to be
    positive definite.
    """
    x, f = [float(v) for v in x0], None  # f: log f at x, once a checked step needs it
    for _ in range(max_iter):
        g, h = grad_hess(x)
        lowest = _lowest_eigenvalue([-v for v in h])
        shift = 1.0 - lowest if lowest <= 0.0 else 0.0
        if len(x) == 1:
            cov = (1.0 / (shift - h[0]),)
            step = [cov[0] * g[0]]
        else:  # (-H + shift I)^-1 = [[p, q], [q, r]] in closed form
            a, b, d = shift - h[0], -h[1], shift - h[2]
            det = a * d - b * b
            cov = (d / det, -b / det, a / det)
            step = [cov[0] * g[0] + cov[1] * g[1], cov[1] * g[0] + cov[2] * g[1]]
        dec = sum(gi * si for gi, si in zip(g, step))
        if lowest > 0.0 and dec <= _DECREMENT_TOL:
            return np.array(x), np.array([cov[:2], cov[1:]] if len(cov) == 3 else [cov])
        t, f_new = 1.0, None
        while f_new is None and 0.5 * t * dec > _UNCHECKED_GAIN:
            if f is None:
                f = logf(np.array(x))
            trial = logf(np.array([xi + t * si for xi, si in zip(x, step)]))
            if trial >= f:
                f_new = trial
            else:
                t *= 0.5
        x, f = [xi + t * si for xi, si in zip(x, step)], f_new
    raise NumericalError(f"{what} did not converge in {max_iter} Newton iterations", last_iterate=np.array(x))


@dataclass(frozen=True, eq=False)
class QuadratureSpec:
    """Mode and Laplace covariance of one LT marginal-likelihood integrand.

    ``scale`` is the inverse negative Hessian at the mode: 2x2 under H1,
    and under H0 the 1x1 beta-variance embedded in a 2x2 matrix with an
    inert unit psi block.
    """

    mode: LogitCoords
    scale: np.ndarray


def find_mode_and_scale(
    d: TwoByTwoData,
    hypothesis: Hypothesis,
    sigma_beta: float,
    sigma_psi: float | None = None,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
    max_iter: int = 200,
) -> QuadratureSpec:
    """Newton iteration to the integrand mode; scale = inverse negative Hessian.

    1D in beta under H0, 2D in (beta, psi) under H1.  The log integrand
    is strictly concave, so the mode is unique.
    """
    if hypothesis is Hypothesis.H1 and sigma_psi is None:
        raise ValidationError("sigma_psi is required under H1")
    prior = LTPrior(sigma_beta, 1.0 if sigma_psi is None else sigma_psi, beta_prior)
    logf, grad_hess, x0 = _lt_problem(d, hypothesis, prior)
    try:
        mode, cov = _newton(logf, grad_hess, x0, f"{hypothesis.name} mode finding", max_iter)
    except NumericalError as exc:
        last = LogitCoords(*np.append(exc.last_iterate, 0.0)[:2])
        raise NumericalError(str(exc), last_iterate=last) from None
    if hypothesis is Hypothesis.H0:
        return QuadratureSpec(LogitCoords(mode[0], 0.0), np.diag([cov[0, 0], 1.0]))
    return QuadratureSpec(LogitCoords(mode[0], mode[1]), cov)


def _gauss_hermite(n: int):
    """Nodes x_i and effective log weights ln(w_i e^{x_i^2}) of numpy's n-point rule."""
    from numpy.polynomial.hermite import hermgauss

    x, w = hermgauss(n)
    return x, np.log(w) + x * x


@lru_cache(maxsize=None)
def _whitened_rule(n: int, k: int):
    """(points z, log weights) of the n^k-point tensor rule over z in R^k.

    The rule integrates exp(g(z)) as a log-sum-exp of log weight plus g
    at the points: per axis z = sqrt(2) x, and 0.5 log 2 joins each
    axis's effective log weight.
    """
    x, lam = _gauss_hermite(n)
    z, lw = math.sqrt(2.0) * x, lam + 0.5 * math.log(2.0)
    if k == 2:
        z = np.stack(np.meshgrid(z, z, indexing="ij"), axis=-1).reshape(-1, 2)
        lw = np.add.outer(lw, lw).ravel()
    else:
        z = z[:, None]
    for a in (z, lw):  # shared by every caller
        a.setflags(write=False)
    return z, lw


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array; -inf when every entry is -inf."""
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(a - m).sum()))


def _laplace_gh(logf, mode, cov, rel_tol: float, what: str) -> tuple[float, float]:
    """(log of the integral of exp(logf) over R^k, error estimate), k = 1, 2.

    The schedule stops once two rules agree to ``rel_tol`` or to the
    rounding floor of the error estimate, whichever is larger.
    """
    # Cholesky factor L of cov and ln det L, in closed form
    l11 = math.sqrt(cov[0, 0])
    if mode.size == 1:
        chol, log_det = np.array([[l11]]), math.log(l11)
    else:
        l21 = cov[1, 0] / l11
        l22 = math.sqrt(cov[1, 1] - l21 * l21)
        chol, log_det = np.array([[l11, 0.0], [l21, l22]]), math.log(l11) + math.log(l22)
    prev = None
    for n in NODE_SCHEDULE:
        z, lw = _whitened_rule(n, mode.size)
        # summed in row blocks to bound logf's temporaries
        sums = [
            _logsumexp(lw[i : i + _BLOCK] + logf(mode + z[i : i + _BLOCK] @ chol.T))
            for i in range(0, lw.size, _BLOCK)
        ]
        cur = log_det + (sums[0] if len(sums) == 1 else _logsumexp(np.array(sums)))
        if prev is not None:
            floor = _ROUNDING * (1.0 + abs(cur))
            err = max(abs(cur - prev), floor)
            if err <= max(rel_tol, floor):
                return cur, err
        prev = cur
    cur = log_det + _whitened_tanhsinh(logf, mode, chol, rel_tol, what)
    return cur, max(mode.size * _TS_REL_TOL, _ROUNDING * (1.0 + abs(cur)))


def _whitened_tanhsinh(logf, mode, chol, rel_tol: float, what: str) -> float:
    """Log integral over z by tanh-sinh, where x = mode + chol z.

    Each axis splits at the mode into the half-lines z = -/+ log s, s in
    (0, 1).  In 2-D the outer rule's integrand, at a block of its nodes
    at once, is one inner rule over z2.  Both stop at 1e-12, relative to
    their own value or, for slices of no weight, to the peak of f; a
    ``rel_tol`` tighter than that raises ``NumericalError``.
    """
    failed = f"{what}: log marginal did not converge to {rel_tol} by Gauss-Hermite or tanh-sinh"
    if not mode.size * _TS_REL_TOL <= rel_tol:
        raise NumericalError(failed)
    peak = float(logf(mode))

    def line(log_g, m: int):
        """Per point i < m, log of the integral over z in R of exp(log_g(i, z))."""

        def log_f(rows, log_s, _):  # row 2i + h is point i's half-line, z = -/+ log s
            return log_g(rows[:, None] // 2, np.where(rows[:, None] % 2, log_s, -log_s)) - log_s

        halves = _tanh_sinh(log_f, np.arange(2 * m), what, peak)
        return np.logaddexp(halves[0::2], halves[1::2])

    def at(*z):
        return logf(mode + np.stack(np.broadcast_arrays(*z), axis=-1) @ chol.T)

    def slices(z1):  # log of the integral over z2 at every z1
        blocks = np.split(z1.ravel(), range(_SLICES, z1.size, _SLICES))
        out = [line(lambda j, z2, b=b: at(b[j], z2), b.size) for b in blocks]
        return np.concatenate(out).reshape(z1.shape)

    outer = at if mode.size == 1 else slices
    try:
        return float(line(lambda _, z: outer(z), 1)[0])
    except NumericalError:
        raise NumericalError(failed) from None


# --------------------------------------------------------------------------
# Marginal likelihoods and the Bayes factor
# --------------------------------------------------------------------------


def _fit(d, hypothesis, prior: LTPrior, rel_tol: float = DEFAULT_REL_TOL):
    """(mode, Laplace covariance, log marginal, error estimate) under one hypothesis.

    The log marginal leaves out the binomial coefficients, as the
    integrands that ``_lt_problem`` builds do.
    """
    logf, grad_hess, x0 = _lt_problem(d, hypothesis, prior)
    mode, cov = _newton(logf, grad_hess, x0, f"{hypothesis.name} mode finding")
    return mode, cov, *_laplace_gh(logf, mode, cov, rel_tol, f"{hypothesis.name} marginal")


def _log_ml(d, hypothesis, prior: LTPrior, rel_tol: float = DEFAULT_REL_TOL):
    """(log marginal, error estimate) under one hypothesis."""
    val, err = _fit(d, hypothesis, prior, rel_tol)[2:]
    return _log_coeffs(d) + val, err


def log_ml_h0_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Log marginal likelihood of the null (psi = 0) model."""
    return _log_ml(d, Hypothesis.H0, LTPrior(sigma_beta, beta_prior=beta_prior), rel_tol)[0]


def log_ml_h1_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    sigma_psi: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Log marginal likelihood of the free-psi model."""
    return _log_ml(d, Hypothesis.H1, LTPrior(sigma_beta, sigma_psi, beta_prior), rel_tol)[0]


def bf01_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    sigma_psi: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
    rel_tol: float = DEFAULT_REL_TOL,
) -> EvidenceResult:
    """Bayes factor for psi = 0 versus psi ~ N(0, sigma_psi)."""
    log_ml = partial(_log_ml, rel_tol=rel_tol)
    return EvidenceResult.from_hypotheses(
        log_ml, d, LTPrior(sigma_beta, sigma_psi, beta_prior), Method.QUADRATURE
    )
