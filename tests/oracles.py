"""Independent reference implementations used only as test oracles.

Nothing here may import the routines it is used to check, beyond the
plain data types.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln, logsumexp, xlog1py, xlogy


def appell_f1_series(a, b1, b2, c, x, y, tol=1e-12, max_order=600):
    """Appell F1 by direct summation of the defining double series.

    sum_{m,n} (a)_{m+n} (b1)_m (b2)_n / ((c)_{m+n} m! n!) x^m y^n,
    summed along anti-diagonals m+n = k with Pochhammer recurrences.
    Converges for |x|, |y| < 1; slow near the boundary, which is fine
    for an oracle.
    """
    total = 0.0
    poch_a_over_c = 1.0  # (a)_k / (c)_k
    small_streak = 0
    for k in range(max_order):
        # inner sum over m + n = k
        inner = 0.0
        # (b1)_m x^m / m! and (b2)_n y^n / n! built incrementally
        t1 = 1.0
        for m in range(k + 1):
            n = k - m
            t2 = 1.0
            for j in range(n):
                t2 *= (b2 + j) * y / (j + 1.0)
            inner += t1 * t2
            t1 *= (b1 + m) * x / (m + 1.0)
        term = poch_a_over_c * inner
        total += term
        # anti-diagonal sums can vanish by cancellation mid-series, so
        # require a run of negligible terms before declaring convergence
        small_streak = small_streak + 1 if abs(term) < tol * max(1.0, abs(total)) else 0
        if k > 4 and small_streak >= 4:
            return total
        poch_a_over_c *= (a + k) / (c + k)
    raise RuntimeError("series did not converge")


def eta_density_convolution(eta, a):
    """Density of theta2 - theta1 under independent Beta(a, a) rates.

    The convolution integral of the two Beta densities over theta1,
    evaluated directly by adaptive quadrature in log space.
    """
    e = abs(eta)

    def f(t):
        return math.exp(
            (a - 1.0) * (math.log(t) + math.log1p(-t) + math.log(t + e) + math.log1p(-(t + e)))
            - 2.0 * (gammaln(a) * 2.0 - gammaln(2.0 * a))
        )

    val, _ = integrate.quad(f, 0.0, 1.0 - e, epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def log_ml_h0_lt_simpson(d, sigma_beta=1.0, half_width_sd=12.0, n_points=20001):
    """Adaptive-free 1D Simpson reference for the LT null marginal.

    Integrates the likelihood x Gaussian prior over beta on a fixed wide
    window centered at zero, max-shifted for linear-scale safety.
    """
    y, n = d.y1 + d.y2, d.n1 + d.n2
    lo, hi = -half_width_sd * sigma_beta, half_width_sd * sigma_beta
    b = np.linspace(lo, hi, n_points)
    loglik = (
        gammaln(d.n1 + 1) - gammaln(d.y1 + 1) - gammaln(d.n1 - d.y1 + 1)
        + gammaln(d.n2 + 1) - gammaln(d.y2 + 1) - gammaln(d.n2 - d.y2 + 1)
        - y * np.logaddexp(0, -b)
        - (n - y) * np.logaddexp(0, b)
    )
    logf = loglik - 0.5 * (b / sigma_beta) ** 2 - math.log(sigma_beta) - 0.5 * math.log(2 * math.pi)
    m = float(np.max(logf))
    val = integrate.simpson(np.exp(logf - m), x=b)
    return m + math.log(val)


def quad_normalization(fn, lo, hi, points=None):
    """Adaptive quadrature of a scalar density over [lo, hi]."""
    val, _ = integrate.quad(
        fn, lo, hi, epsabs=1e-12, epsrel=1e-10, limit=500, points=points
    )
    return val


def ib_bf01_exact(d):
    """IB Bayes factor at a = 1 in exact rational arithmetic.

    With uniform priors every marginal is a ratio of factorials:
    B(1+y, 1+n-y) = y! (n-y)! / (n+1)!, so the whole Bayes factor is an
    exact Fraction; only the final conversion to float rounds.
    """
    from fractions import Fraction
    from math import factorial as fac

    y, n = d.y1 + d.y2, d.n1 + d.n2
    num = Fraction(fac(y) * fac(n - y), fac(n + 1))
    den = Fraction(fac(d.y1) * fac(d.n1 - d.y1), fac(d.n1 + 1)) * Fraction(
        fac(d.y2) * fac(d.n2 - d.y2), fac(d.n2 + 1)
    )
    return float(num / den)


def _gauss_legendre_panels(lo, hi, panels, order):
    """Nodes and log weights of a composite Gauss-Legendre rule on [lo, hi].

    ``lo`` and ``hi`` may be arrays (one interval per row).
    """
    x, w = np.polynomial.legendre.leggauss(order)
    lo, hi = np.asarray(lo, dtype=float)[..., None], np.asarray(hi, dtype=float)[..., None]
    edges = lo + (hi - lo) * np.linspace(0.0, 1.0, panels + 1)
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    nodes = (mid[..., None] + half[..., None] * x).reshape(*half.shape[:-1], -1)
    with np.errstate(divide="ignore"):
        logw = np.log(half[..., None] * w).reshape(nodes.shape)
    return nodes, logw


def _log_truncated_normal(x, center, sigma, lo, hi):
    mass = stats.norm.cdf(hi, center, sigma) - stats.norm.cdf(lo, center, sigma)
    return stats.norm.logpdf(x, center, sigma) - math.log(mass)


def _log_lik_rates(d, t1, t2):
    return (
        gammaln(d.n1 + 1) - gammaln(d.y1 + 1) - gammaln(d.n1 - d.y1 + 1)
        + gammaln(d.n2 + 1) - gammaln(d.y2 + 1) - gammaln(d.n2 - d.y2 + 1)
        + xlogy(d.y1, t1) + xlog1py(d.n1 - d.y1, -t1)
        + xlogy(d.y2, t2) + xlog1py(d.n2 - d.y2, -t2)
    )


def depib_log_marginals_gauss_legendre(
    d, sigma_eta, sigma_zeta=0.5, zeta_center=0.5, order=20, tol=1e-12, max_panels=64
):
    """(log p(D|H0), log p(D|H1), gap) of the clamped dependent variant.

    Composite Gauss-Legendre in (eta, zeta).  The H1 box is split at
    eta = 0 and along the clamp lines zeta = |eta|/2, 1 - |eta|/2; on
    each piece the clamped rates are linear or constant, so the integrand
    is smooth there.  Panels double on both axes until two levels agree
    to ``tol``; ``gap`` is the last difference, summed over H0 and H1.
    Small counts only: the rule does not adapt to a narrow likelihood.
    """
    sz, zc = sigma_zeta, zeta_center

    def log_ml0(panels):
        z, lw = _gauss_legendre_panels(0.0, 1.0, panels, order)
        lf = _log_lik_rates(d, z, z) + _log_truncated_normal(z, zc, sz, 0.0, 1.0)
        return float(logsumexp(lf + lw))

    def log_ml1(panels):
        terms = []
        for e_lo, e_hi in ((-1.0, 0.0), (0.0, 1.0)):
            e, lwe = _gauss_legendre_panels(e_lo, e_hi, panels, order)
            a = np.abs(e) / 2
            for z_lo, z_hi in ((0 * a, a), (a, 1 - a), (1 - a, 1 + 0 * a)):
                z, lwz = _gauss_legendre_panels(z_lo, z_hi, panels, order)
                ee = e[:, None]
                t1 = np.clip(z - ee / 2, 0.0, 1.0)
                t2 = np.clip(z + ee / 2, 0.0, 1.0)
                lf = (
                    _log_lik_rates(d, t1, t2)
                    + _log_truncated_normal(ee, 0.0, sigma_eta, -1.0, 1.0)
                    + _log_truncated_normal(z, zc, sz, 0.0, 1.0)
                )
                terms.append(logsumexp(lf + lwz + lwe[:, None]))
        return float(logsumexp(terms))

    panels, prev = 2, None
    while True:
        cur = (log_ml0(panels), log_ml1(panels))
        if prev is not None:
            gap = abs(cur[0] - prev[0]) + abs(cur[1] - prev[1])
            if gap <= tol or panels >= max_panels:
                return cur[0], cur[1], gap
        prev, panels = cur, 2 * panels
