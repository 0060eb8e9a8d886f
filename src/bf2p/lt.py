"""Logit-transformation Bayes factor, and the quadrature engine that
every non-conjugate marginal likelihood in the package shares.

The model places priors on the grand-mean log odds ``beta`` (both
hypotheses) and the log odds ratio ``psi`` (H1 only; the null pins
psi = 0).  Neither marginal likelihood is available in closed form.

The engine (adaptive Gauss-Hermite; Liu & Pierce 1994) integrates a
smooth log density on R^1 or R^2.  A damped Newton iteration finds the
mode, stopping on the scale-free Newton decrement g'(-H)^-1 g;
likelihood gradients are written y*sigma(-x) - (n-y)*sigma(x), so data
with all events or none, and their event-swapped mirrors, converge
alike.  Gauss-Hermite quadrature centred on the mode and whitened by
the Laplace covariance then raises its node count (21, 31, 61, 121,
241, 481, 961 per dimension) until two successive log-marginal
estimates agree to ``rel_tol``; the final gap, floored at the rounding
of the log integral, is the error estimate.  Each tensor rule is built
once per process in whitened coordinates z, from Golub-Welsch nodes
(numpy's ``eigvalsh``), and mapped to mode + L z by the Cholesky factor
L of the covariance.  Centering matters: for large trials with rare
events the likelihood sits many prior standard deviations away from
zero, where a prior-centered rule would silently miss the mass.  Only
when the schedule is exhausted does nested tanh-sinh quadrature
(``scipy.integrate.tanhsinh``, imported on that first use) in the same
whitened coordinates take over, with its own error estimate; everything
else here runs on numpy and ``math``.  The integrands leave out the
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
from .special import log_density_gaussian

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
#: integrands already agree to DEFAULT_REL_TOL.  Past the cap the
#: integrand is too far from Gaussian for more nodes to help.
NODE_SCHEDULE = (21, 31, 61, 121, 241, 481, 961)

DEFAULT_REL_TOL = 1e-8

#: Newton stops once the decrement g'(-H)^-1 g, twice the gain (nats) a
#: full step predicts, is this small.
_DECREMENT_TOL = 1e-20

#: Steps predicted to gain less than this (nats) skip the ascent check,
#: whose float resolution would stall the iteration near the optimum.
_UNCHECKED_GAIN = 1e-6

#: Level cap of tanh-sinh rules: nested 2-D rules stay within tens of MB
#: here, where an unreachable tolerance would otherwise run to GBs.
_TANHSINH_MAXLEVEL = 7

#: Least error estimate, relative to 1 + |log integral|: two rules that
#: agree to the last bit still carry the rounding of log f's terms,
#: measured up to 0.97 eps that scale on the LT corpus and edge cases.
#: Gauss-Hermite never meets a tolerance below it.
_ROUNDING = 2.0 * float(np.finfo(float).eps)

#: Most Gauss-Hermite points per integrand call.
_BLOCK = 16384

#: d(x1, x2) / d(beta, psi) for group log odds x1, x2 = beta -/+ psi/2.
_LOGITS = np.array([[1.0, -0.5], [1.0, 0.5]])


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


def _binom_grad_curv(y, n, x):
    """First derivative of :func:`_log_binom_lik` in x, and minus the second.

    Takes floats, or 2-vectors with one entry per group.
    """
    if np.ndim(x):
        (g1, w1), (g2, w2) = map(_binom_grad_curv, y, n, x)
        return np.array([g1, g2]), np.array([w1, w2])
    s, c = expit_pair(x)
    return y * c - (n - y) * s, n * s * c


def _to_beta_psi(g_x, h_x):
    """Gradient and Hessian in (x1, x2) carried over to (beta, psi)."""
    return _LOGITS.T @ g_x, _LOGITS.T @ h_x @ _LOGITS


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
    """
    sigma_beta, sigma_psi, beta_prior = prior.sigma_beta, prior.sigma_psi, prior.beta_prior
    if hypothesis is Hypothesis.H0:
        y, n = d.pooled

        def logf(v):
            return _log_integrand_h0(d, v[..., 0], prior)

        def grad_hess(v):
            g, w = _binom_grad_curv(y, n, v[0])
            pg, ph = _beta_prior_grad_hess(v[0], sigma_beta, beta_prior)
            return np.array([g + pg]), np.array([[ph - w]])

        return logf, grad_hess, [_empirical_logit(y, n)]

    ys, ns = np.array([[d.y1, d.y2], [d.n1, d.n2]], dtype=float)

    def logf(v):
        return _log_integrand_h1(d, v[..., 0], v[..., 1], prior)

    def grad_hess(v):
        g, w = _binom_grad_curv(ys, ns, _LOGITS @ v)
        g, h = _to_beta_psi(g, np.diag(-w))
        pg, ph = _beta_prior_grad_hess(v[0], sigma_beta, beta_prior)
        return g + [pg, -v[1] / sigma_psi**2], h + np.diag([ph, -1.0 / sigma_psi**2])

    x1, x2 = _empirical_logit(ys, ns)
    return logf, grad_hess, [0.5 * (x1 + x2), x2 - x1]


# --------------------------------------------------------------------------
# The engine: Newton to the mode, Gauss-Hermite, tanh-sinh fallback
# --------------------------------------------------------------------------


def _lowest_eigenvalue(c) -> float:
    """Lowest eigenvalue of a symmetric 1x1 or 2x2 matrix, in closed form.

    In 2-D it is det / (larger eigenvalue) when the trace is positive, so
    its sign is the determinant's and a small one keeps its digits.
    """
    if len(c) == 1:
        return float(c[0, 0])
    a, b, d = float(c[0, 0]), float(c[1, 0]), float(c[1, 1])
    m, r = 0.5 * (a + d), math.hypot(0.5 * (a - d), b)
    return (a * d - b * b) / (m + r) if m > 0.0 else m - r


def _inverse(c) -> np.ndarray:
    """Inverse of a symmetric positive definite 1x1 or 2x2 matrix, in closed form."""
    if len(c) == 1:
        return 1.0 / c
    a, b, d = float(c[0, 0]), float(c[1, 0]), float(c[1, 1])
    return np.array([[d, -b], [-b, a]]) / (a * d - b * b)


def _newton(logf, grad_hess, x0, what: str, max_iter: int = 200):
    """(mode, Laplace covariance (-H)^-1) of a log density on R^1 or R^2.

    Steps are halved until they ascend.  Where the density is not
    log-concave, the step uses -H shifted to be positive definite.
    """
    x = np.array(x0, dtype=float)
    f = logf(x)
    for _ in range(max_iter):
        g, h = grad_hess(x)
        curv = -h
        lowest = _lowest_eigenvalue(curv)
        if lowest <= 0.0:
            curv = curv + (1.0 - lowest) * np.eye(x.size)
        cov = _inverse(curv)
        step = cov @ g
        dec = float(g @ step)
        if lowest > 0.0 and dec <= _DECREMENT_TOL:
            return x, cov
        t = 1.0
        while 0.5 * t * dec > _UNCHECKED_GAIN and not logf(x + t * step) >= f:
            t *= 0.5
        x = x + t * step
        f = logf(x)
    raise NumericalError(f"{what} did not converge in {max_iter} Newton iterations", last_iterate=x)


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


def _hermite_sums(x, n: int):
    """(ln sum_{k<n} p_k(x)^2, p_n(x) / p_{n-1}(x)) at each node x.

    p_k are the Hermite polynomials orthonormal w.r.t. e^{-x^2}, run by
    their three-term recurrence and rescaled on the fly, since they
    overflow for rules beyond a few hundred nodes.
    """
    b = np.full_like(x, math.pi ** -0.25)  # p_0, rescaled on the fly
    a = np.zeros_like(x)
    s = np.zeros_like(x)  # per-node log of the running rescale factor
    with np.errstate(divide="ignore"):
        tot = 2.0 * (np.log(np.abs(b)) + s)
        for k in range(n):
            a, b = b, x * b * math.sqrt(2.0 / (k + 1)) - a * math.sqrt(k / (k + 1.0))
            big = np.abs(b) > 1e100
            if big.any():
                a[big] *= 1e-100
                b[big] *= 1e-100
                s[big] += math.log(1e100)
            if k < n - 1:
                tot = np.logaddexp(tot, 2.0 * (np.log(np.abs(b)) + s))
    return tot, b / a


def _gauss_hermite(n: int):
    """Nodes x_i and effective log weights ln(w_i e^{x_i^2}).

    The nodes are the eigenvalues of the Jacobi matrix of the Hermite
    recurrence (Golub & Welsch 1969), polished by one Newton step on
    p_n, whose derivative is sqrt(2n) p_{n-1}, and made exactly
    symmetric.  The raw weights underflow for rules beyond a few hundred
    nodes, so the effective weight comes straight from the Christoffel
    identity w_i = 1 / sum_k p_k(x_i)^2.
    """
    off = np.sqrt(np.arange(1, n) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, -1))
    x -= _hermite_sums(x, n)[1] / math.sqrt(2.0 * n)
    x = 0.5 * (x - x[::-1])
    return x, x * x - _hermite_sums(x, n)[0]


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
    """(log of the integral of exp(logf) over R^k, error estimate), k = 1, 2."""
    chol = np.linalg.cholesky(cov)
    log_det = float(np.sum(np.log(np.diag(chol))))
    prev = None
    for n in NODE_SCHEDULE:
        z, lw = _whitened_rule(n, mode.size)
        # summed in row blocks to bound logf's temporaries
        sums = [
            _logsumexp(lw[i : i + _BLOCK] + logf(mode + z[i : i + _BLOCK] @ chol.T))
            for i in range(0, lw.size, _BLOCK)
        ]
        cur = log_det + _logsumexp(np.array(sums))
        if prev is not None:
            err = max(abs(cur - prev), _ROUNDING * (1.0 + abs(cur)))
            if err <= rel_tol:
                return cur, err
        prev = cur
    val, err = _whitened_tanhsinh(logf, mode, chol, rel_tol, what)
    return val + log_det, err


def _tanhsinh_opts(log_scale: float, tol: float) -> dict:
    """Options of a ``tanhsinh(log=True)`` rule aiming at relative ``tol``.

    The absolute tolerance, tol / 100 times exp(log_scale), stops
    negligible far tails short of the level cap.  Levels below 5 claimed
    1e-12 on dep-IB integrands while off by 1e-10 to 1e-5.
    """
    with np.errstate(divide="ignore"):
        rtol = float(np.log(tol))
    atol = log_scale + rtol - math.log(100.0)
    return dict(log=True, minlevel=5, maxlevel=_TANHSINH_MAXLEVEL, rtol=rtol, atol=atol)


def _whitened_tanhsinh(logf, mode, chol, rel_tol: float, what: str):
    """(log integral over z, error) by tanh-sinh, where x = mode + chol z.

    In 2-D an outer rule over z1 integrates inner rules over z2, which aim
    100 times tighter so that their noise cannot stall it; their errors,
    integrated over z1, join its own.  The sum must meet ``rel_tol``.
    """
    from scipy.integrate import tanhsinh

    peak = float(logf(mode))
    opts = _tanhsinh_opts(peak, rel_tol / 100.0)
    inner_opts = _tanhsinh_opts(peak, rel_tol / 1e4)

    def at(*z):
        return logf(mode + np.stack(np.broadcast_arrays(*z), axis=-1) @ chol.T)

    slices = []  # (z1, log error) of every inner rule

    def inner(z1):
        lo = np.full(np.shape(z1), -np.inf)
        r = tanhsinh(lambda z2, z1: at(z1, z2), lo, np.inf, args=(z1,), **inner_opts)
        # a slice that underflows everywhere ends with status -3 and is
        # zero; the outer rule also evaluates, and ignores, its infinite ends
        zero = r.status == -3
        live = np.isfinite(z1) & ~zero
        slices.append((z1[live], r.error[live]))
        return np.where(zero, -np.inf, r.integral)

    res = tanhsinh(at if mode.size == 1 else inner, -np.inf, np.inf, **opts)
    val = float(res.integral)
    err = math.exp(float(res.error) - val)
    if slices:
        z1, log_err = (np.concatenate(a) for a in zip(*slices))
        order = np.argsort(z1)
        err += float(np.trapezoid(np.exp(log_err[order] - val), z1[order]))
    if res.status != 0 or not err <= rel_tol:
        raise NumericalError(
            f"{what}: log marginal did not converge to {rel_tol} within {NODE_SCHEDULE[-1]} "
            f"Gauss-Hermite nodes per dimension or {_TANHSINH_MAXLEVEL} tanh-sinh levels"
        )
    return val, err


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
