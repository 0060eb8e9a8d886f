"""Logit-transformation Bayes factor, and the quadrature engine that
every non-conjugate marginal likelihood in the package shares.

The model places priors on the grand-mean log odds ``beta`` (both
hypotheses) and the log odds ratio ``psi`` (H1 only; the null pins
psi = 0).  Neither marginal likelihood is available in closed form.

The engine (adaptive Gauss-Hermite; Liu & Pierce 1994) integrates a
smooth log density on R^1 or R^2.  A problem is a log density ``logf``
that takes one float or array per coordinate (``logf(beta)``,
``logf(beta, psi)``), its gradient and Hessian in closed form on
floats, and a Newton start.  A damped Newton iteration finds the mode,
stopping on the scale-free Newton decrement g'(-H)^-1 g; it runs on
plain floats and calls ``logf`` on floats only to check a step.
Likelihood gradients are written y*sigma(-x) - (n-y)*sigma(x), so data
with all events or none, and their event-swapped mirrors, converge
alike.  Gauss-Hermite quadrature centred on the mode and whitened by
the Laplace covariance then raises its node count (21, 31, 61, 121,
241 per dimension) until two successive log-marginal estimates agree
to ``DEFAULT_REL_TOL``, or to the log integral's rounding if larger;
the final gap, floored at that rounding, is the error estimate.  This
ladder (``_first_agreement``) also runs dep-IB's Gauss-Jacobi pairs.
Each tensor rule is built once per process in whitened coordinates z,
from numpy's ``hermgauss``, as one read-only array per coordinate, and
mapped to mode + L z one coordinate at a time by the closed-form
Cholesky factor L of the covariance.  No ladder stops at its first rule,
so the 21- and 31-node rules are joined and evaluated in one ``logf``
call; each finer rule takes one call when it is reached.
Centering matters: for large trials with rare events the likelihood
sits many prior standard deviations away from zero, where a
prior-centered rule would silently miss the mass.  Only when the schedule is exhausted does nested
tanh-sinh quadrature (``bf2p.special``'s rule, over the half-lines
either side of the mode), whitened along the groups' log odds
x = beta -/+ psi/2, take over; its error estimate is the 1e-12 its
levels agree to, per dimension, floored at the same rounding.
Everything here runs on numpy and ``math``.  The integrands leave out the
binomial coefficients, which each marginal adds once.  The binomial
log likelihood is one kernel for floats and arrays, written with one
exp and one log1p per point (``_log_binom_lik``).  ``_integrate``
is the engine's one entry point; the dependent variant (``bf2p.dep_ib``)
calls it too.  Estimates are fully deterministic.

The null marginal does not depend on ``sigma_psi``, so a sweep
(``bf2p.reanalysis``) fits each study's H0 once per prior.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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

#: Node counts tried per dimension; at 21 and 31 nodes most LT integrands
#: already agree to DEFAULT_REL_TOL, and no sweep fit climbs past 241.  An
#: integrand that 241 nodes cannot resolve is too far from Gaussian for
#: more nodes to help: it goes to the tanh-sinh fallback.
NODE_SCHEDULE = (21, 31, 61, 121, 241)

DEFAULT_REL_TOL = 1e-8

#: Newton stops once the decrement g'(-H)^-1 g, twice the gain (nats) a
#: full step predicts, is this small.
_DECREMENT_TOL = 1e-20

#: Steps predicted to gain less than this (nats) skip the ascent check,
#: whose float resolution would stall the iteration near the optimum.
_UNCHECKED_GAIN = 1e-6

#: Least error estimate, relative to 1 + |log integral|: two rules that
#: agree to the last bit still share the rounding of log f's terms,
#: measured up to 0.97 eps that scale on the LT corpus and edge cases
#: and up to 4.9 eps on 100 random dep-IB cores on a Gauss-Legendre pair
#: in the rates; on dep-IB's Gauss-Jacobi pairs ``tools/error_audit.py``
#: finds no error above 0.34 of its estimate.
_ROUNDING = 8.0 * float(np.finfo(float).eps)

#: Most z1 slices per inner rule of the 2-D fallback, which keeps its arrays to some 10 MB.
_SLICES = 128


# --------------------------------------------------------------------------
# Integrand pieces (floats or arrays of beta/psi)
# --------------------------------------------------------------------------


def _log_binom_lik(y, n, x):
    """Log binomial likelihood of y/n at log odds x, a float or an array, without the coefficient.

    y log sigma(x) + (n - y) log sigma(-x) as softplus terms,
    -y max(-x, 0) - (n - y) max(x, 0) - n log1p(e^-|x|), which is what
    ``np.logaddexp`` does inside but with one exp and one log1p per
    point, both vectorized.  Finite for |x| up to 8e307.  A float gives
    the bits of a 1-element array, and the event swap
    (y, x) -> (n - y, -x) gives the same bits.
    """
    ax = abs(x)
    return 0.5 * ((x - ax) * y - (x + ax) * (n - y)) - n * np.log1p(np.exp(-ax))


def _binom_grad_curv(y, n, x: float):
    """First derivative of :func:`_log_binom_lik` in x, and minus the second."""
    s, c = expit_pair(x)
    return y * c - (n - y) * s, n * s * c


def _empirical_logit(y, n):
    return np.log((y + 0.5) / (n - y + 0.5))


def _log_prior_beta(beta, sigma: float, kind: BetaPriorKind):
    """Log prior density of beta, a float or an array."""
    if kind is BetaPriorKind.GAUSSIAN:
        return log_density_gaussian(beta, sigma)
    # logistic(0, sigma), written symmetrically for stability on both tails
    z = abs(beta) / sigma
    return -z - 2.0 * np.logaddexp(0.0, -z) - math.log(sigma)


def _beta_prior_grad_hess(beta: float, sigma: float, kind: BetaPriorKind):
    # dividing by sigma twice, not by sigma**2, cannot raise for any sigma > 0
    if kind is BetaPriorKind.GAUSSIAN:
        return -beta / sigma / sigma, -1.0 / sigma / sigma
    t = math.tanh(beta / (2.0 * sigma))
    grad = -t / sigma
    hess = -(1.0 - t * t) / (2.0 * sigma) / sigma
    return grad, hess


def _log_coeffs(d: TwoByTwoData) -> float:
    """ln C(n1, y1) + ln C(n2, y2): the data's constant factor under every model."""
    return log_binomial_coeff(d.n1, d.y1) + log_binomial_coeff(d.n2, d.y2)


def _log_integrand_h1(d, beta, psi, prior: LTPrior):
    """The H1 integrand without the binomial coefficients, at floats or arrays beta and psi."""
    half = 0.5 * psi
    return (
        _log_binom_lik(d.y1, d.n1, beta - half)
        + _log_binom_lik(d.y2, d.n2, beta + half)
        + _log_prior_beta(beta, prior.sigma_beta, prior.beta_prior)
        + log_density_gaussian(psi, prior.sigma_psi)
    )


def _log_integrand_h0(d, beta, prior: LTPrior):
    """The H0 integrand without the binomial coefficients, at a float or an array beta."""
    y, n = d.pooled
    return _log_binom_lik(y, n, beta) + _log_prior_beta(beta, prior.sigma_beta, prior.beta_prior)


def _as_output(out):
    """An array of any shape, or a float in place of a 0-d value."""
    return out if np.ndim(out) else float(out)


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
    beta, psi = np.asarray(beta, dtype=float), np.asarray(psi, dtype=float)
    return _log_coeffs(d) + _as_output(_log_integrand_h1(d, beta, psi, prior))


def log_integrand_h0_lt(
    d: TwoByTwoData,
    beta,
    sigma_beta: float,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
):
    """Log of likelihood x prior at beta with psi fixed to 0."""
    prior = LTPrior(sigma_beta, beta_prior=beta_prior)
    return _log_coeffs(d) + _as_output(_log_integrand_h0(d, np.asarray(beta, dtype=float), prior))


def _lt_problem(d, hypothesis, prior: LTPrior):
    """(log f, gradient and Hessian, Newton start) of one LT integrand.

    The coordinates are (beta,) under H0 and (beta, psi) under H1.  log f
    takes one float or array per coordinate, ``logf(beta)`` or
    ``logf(beta, psi)``, and leaves out the binomial coefficients.
    ``grad_hess`` takes a list of floats and returns floats: the gradient
    as a tuple, the Hessian as (a,) or (a, b, d) for [[a, b], [b, d]].
    Prior precisions are divided out one sigma at a time, so no finite
    sigma > 0 raises; one whose precision overflows gives an infinite
    Hessian, which Newton reports as a NumericalError.
    """
    sigma_beta, sigma_psi, beta_prior = prior.sigma_beta, prior.sigma_psi, prior.beta_prior
    if hypothesis is Hypothesis.H0:
        y, n = d.pooled

        def logf(beta):
            return _log_integrand_h0(d, beta, prior)

        def grad_hess(v):
            g, w = _binom_grad_curv(y, n, v[0])
            pg, ph = _beta_prior_grad_hess(v[0], sigma_beta, beta_prior)
            return (g + pg,), (ph - w,)

        return logf, grad_hess, [_empirical_logit(y, n)]

    def logf(beta, psi):
        return _log_integrand_h1(d, beta, psi, prior)

    def grad_hess(v):
        beta, psi = v
        g1, w1 = _binom_grad_curv(d.y1, d.n1, beta - 0.5 * psi)
        g2, w2 = _binom_grad_curv(d.y2, d.n2, beta + 0.5 * psi)
        pg, ph = _beta_prior_grad_hess(beta, sigma_beta, beta_prior)
        # x1, x2 = beta -/+ psi/2 carried over to (beta, psi)
        grad = (g1 + g2 + pg, 0.5 * (g2 - g1) - psi / sigma_psi / sigma_psi)
        return grad, (ph - (w1 + w2), 0.5 * (w1 - w2), -0.25 * (w1 + w2) - 1.0 / sigma_psi / sigma_psi)

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

    The iteration runs on floats; only the step checks call ``logf``,
    with one float per coordinate, each at a new point.  Steps are halved
    until they ascend.  Where the density is not log-concave, the step
    uses -H shifted to be positive definite.  A gradient or Hessian that
    is not finite raises NumericalError.
    """
    x, f = [float(v) for v in x0], None  # f: log f at x, once a checked step needs it
    for _ in range(max_iter):
        g, h = grad_hess(x)
        if not all(map(math.isfinite, (*g, *h))):
            raise NumericalError(f"{what}: the gradient or Hessian is not finite", last_iterate=np.array(x))
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
                f = logf(*x)
            trial = logf(*[xi + t * si for xi, si in zip(x, step)])
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
    """(points z as k coordinate columns, log weights) of the n^k-point tensor rule over z in R^k.

    The rule integrates exp(g(z)) as a log-sum-exp of log weight plus g
    at the points: per axis z = sqrt(2) x, and 0.5 log 2 joins each
    axis's effective log weight.  In 2-D point i n + j is (z_i, z_j).
    """
    x, lam = _gauss_hermite(n)
    z, lw = math.sqrt(2.0) * x, lam + 0.5 * math.log(2.0)
    if k == 2:
        cols, lw = (np.repeat(z, n), np.tile(z, n)), np.add.outer(lw, lw).ravel()
    else:
        cols = (z,)
    for a in (*cols, lw):  # shared by every caller
        a.setflags(write=False)
    return cols, lw


@lru_cache(maxsize=None)
def _joined_rules(ns: tuple[int, ...], k: int):
    """The rules ``_whitened_rule(n, k)`` for n in ``ns`` joined: their
    coordinate columns end to end, and per rule its log weights and the
    slice of the joined points that is its own.

    One log f evaluation at the joined points serves every rule; being
    elementwise, it gives each rule the bits of its own evaluation.
    """
    rules = [_whitened_rule(n, k) for n in ns]
    cols = tuple(np.concatenate(c) for c in zip(*(z for z, _ in rules)))
    ends = np.cumsum([lw.size for _, lw in rules]).tolist()
    parts = tuple((lw, slice(end - lw.size, end)) for (_, lw), end in zip(rules, ends))
    for a in cols:
        a.setflags(write=False)
    return cols, parts


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a 1-D array; -inf when every entry is -inf."""
    m = float(a.max())
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.exp(a - m).sum()))


def _first_agreement(estimates) -> tuple[float, float] | None:
    """The first (value, error) at which a ladder of rules agrees, or None.

    ``estimates`` yields log integrals of ever finer rules, one at a time.
    The first within ``DEFAULT_REL_TOL`` of the one before, or within the
    rounding floor if larger, stands; its gap, floored there, is the error.
    """
    prev = None
    for cur in estimates:
        if prev is not None:
            floor = _ROUNDING * (1.0 + abs(cur))
            err = max(abs(cur - prev), floor)
            if err <= max(DEFAULT_REL_TOL, floor):
                return cur, err
        prev = cur
    return None


def _at_whitened(logf, mode, chol):
    """log f at x = mode + chol z, z given one coordinate at a time (floats or arrays).

    Each coordinate of x is formed from chol's entries as floats; no
    matrix product runs.
    """
    (m1, *m2), c = mode.tolist(), chol
    if not m2:
        return lambda z1: logf(m1 + c[0][0] * z1)
    return lambda z1, z2: logf(m1 + (c[0][0] * z1 + c[0][1] * z2), m2[0] + (c[1][0] * z1 + c[1][1] * z2))


def _gh_ladder(at, k: int):
    """Log integrals over z in R^k of exp(at(z)) by the ``NODE_SCHEDULE`` rules, coarsest first.

    A ladder never stops at its first rule, so the first two rules are
    evaluated in one call of ``at`` at their joined points; the finer
    ones follow one call each, only when asked for.
    """
    cols, parts = _joined_rules(NODE_SCHEDULE[:2], k)
    vals = at(*cols)
    for lw, own in parts:
        yield _logsumexp(lw + vals[own])
    for n in NODE_SCHEDULE[2:]:
        cols, lw = _whitened_rule(n, k)
        yield _logsumexp(lw + at(*cols))


def _laplace_gh(logf, mode, cov, what: str) -> tuple[float, float]:
    """(log of the integral of exp(logf) over R^k, error estimate), k = 1, 2.

    The ``NODE_SCHEDULE`` rules are the ladder of ``_first_agreement``.
    """
    # Cholesky factor L of cov and ln det L, in closed form
    l11 = math.sqrt(cov[0, 0])
    if mode.size == 1:
        chol, log_det = [[l11]], math.log(l11)
    else:
        l21 = cov[1, 0] / l11
        l22 = math.sqrt(cov[1, 1] - l21 * l21)
        chol, log_det = [[l11, 0.0], [l21, l22]], math.log(l11) + math.log(l22)
    found = _first_agreement(log_det + v for v in _gh_ladder(_at_whitened(logf, mode, chol), mode.size))
    if found is not None:
        return found
    if mode.size == 2:
        # the fallback's factor A^-1 M: M M' = A cov A', the covariance of the groups' log odds x = A (beta, psi)
        s11, s12 = cov[0, 0] - cov[0, 1] + 0.25 * cov[1, 1], cov[0, 0] - 0.25 * cov[1, 1]
        m11 = math.sqrt(s11)
        m21, m22 = s12 / m11, l11 * l22 / m11  # A = [[1, -1/2], [1, 1/2]], det A = 1: det M = det L
        chol = [[0.5 * (m11 + m21), 0.5 * m22], [m21 - m11, m22]]
    cur = log_det + _whitened_tanhsinh(logf, mode, chol, what)
    return cur, max(mode.size * _TS_REL_TOL, _ROUNDING * (1.0 + abs(cur)))


def _whitened_tanhsinh(logf, mode, chol, what: str) -> float:
    """Log integral over z by tanh-sinh, where x = mode + chol z (chol as nested lists of floats).

    Each axis splits at the mode into the half-lines z = -/+ log s, s in
    (0, 1).  In 2-D the outer rule's integrand, at a block of its nodes
    at once, is one inner rule over z2; chol is whitened along the groups'
    log odds, so x1 depends on z1 alone and z2 moves x2 alone, and each
    likelihood knee (x1 = -log n1, x2 = log n2 at a count of 0) is one
    point of its rule.  Both stop at 1e-12, relative to their own value
    or, for slices of no weight, to the peak of f: well inside
    ``DEFAULT_REL_TOL``.  Levels that never agree raise NumericalError.
    """
    peak = float(logf(*mode.tolist()))

    def line(log_g, m: int):
        """Per point i < m, log of the integral over z in R of exp(log_g(i, z))."""

        def log_f(rows, log_s, _):  # row 2i + h is point i's half-line, z = -/+ log s
            return log_g(rows[:, None] // 2, np.where(rows[:, None] % 2, log_s, -log_s)) - log_s

        halves = _tanh_sinh(log_f, np.arange(2 * m), what, peak)
        return np.logaddexp(halves[0::2], halves[1::2])

    at = _at_whitened(logf, mode, chol)

    def slices(z1):  # log of the integral over z2 at every z1
        blocks = np.split(z1.ravel(), range(_SLICES, z1.size, _SLICES))
        out = [line(lambda j, z2, b=b: at(b[j], z2), b.size) for b in blocks]
        return np.concatenate(out).reshape(z1.shape)

    outer = at if mode.size == 1 else slices
    try:
        return float(line(lambda _, z: outer(z), 1)[0])
    except NumericalError:
        raise NumericalError(f"{what}: log marginal did not converge by Gauss-Hermite or tanh-sinh") from None


# --------------------------------------------------------------------------
# Marginal likelihoods and the Bayes factor
# --------------------------------------------------------------------------


def _integrate(logf, grad_hess, x0, what: str):
    """(mode, Laplace covariance, log integral, error estimate) of exp(logf) over R^k.

    The engine's one entry point: Newton from ``x0``, then Gauss-Hermite
    with the tanh-sinh fallback.  ``what`` names the problem in errors.
    """
    mode, cov = _newton(logf, grad_hess, x0, f"{what} mode finding")
    return mode, cov, *_laplace_gh(logf, mode, cov, f"{what} marginal")


def _fit(d, hypothesis, prior: LTPrior):
    """(mode, Laplace covariance, log marginal, error estimate) under one hypothesis.

    The log marginal leaves out the binomial coefficients, as the
    integrands that ``_lt_problem`` builds do.
    """
    return _integrate(*_lt_problem(d, hypothesis, prior), hypothesis.name)


def _log_ml(d, hypothesis, prior: LTPrior):
    """(log marginal, error estimate) under one hypothesis."""
    val, err = _fit(d, hypothesis, prior)[2:]
    return _log_coeffs(d) + val, err


def log_ml_h0_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
) -> float:
    """Log marginal likelihood of the null (psi = 0) model."""
    return _log_ml(d, Hypothesis.H0, LTPrior(sigma_beta, beta_prior=beta_prior))[0]


def log_ml_h1_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    sigma_psi: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
) -> float:
    """Log marginal likelihood of the free-psi model."""
    return _log_ml(d, Hypothesis.H1, LTPrior(sigma_beta, sigma_psi, beta_prior))[0]


def bf01_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    sigma_psi: float = 1.0,
    beta_prior: BetaPriorKind = BetaPriorKind.GAUSSIAN,
) -> EvidenceResult:
    """Bayes factor for psi = 0 versus psi ~ N(0, sigma_psi)."""
    return EvidenceResult.from_hypotheses(
        _log_ml, d, LTPrior(sigma_beta, sigma_psi, beta_prior), Method.QUADRATURE
    )
