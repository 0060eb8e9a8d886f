"""Independent reference implementations used only as test oracles.

Nothing here may import the routines it is used to check, beyond the
plain data types.  The one exception is ``appell_f1``, which runs on
``bf2p.special``'s tanh-sinh rule: the double series below and mpmath
check it, and it then checks ``eta_density_ib`` against the paper's F1
closed form, a different integral from the convolution bf2p evaluates.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import gammaln, logsumexp, xlog1py, xlogy

from bf2p.model import DomainError
from bf2p.special import _tanh_sinh, log_beta_fn


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


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Appell's F1 by the tanh-sinh rule on its Euler integral.

    F1(a; b1, b2; c; x, y) =
        Gamma(c)/(Gamma(a)Gamma(c-a)) *
        integral_0^1 t^(a-1) (1-t)^(c-a-1) (1-x t)^(-b1) (1-y t)^(-b2) dt,

    valid for c > a > 0 and x, y < 1.  Split at t = 1/2 into the rows
    t = s/2 and t = 1 - s/2, each half's endpoint singularity, and the
    boundary layer near t = 1 as x or y -> 1, sit at s -> 0, where
    1 - x t = (1 - x) + x s/2 keeps the digits of 1 - x.  Relative
    accuracy is about 1e-12, 1e-11 for a or c - a near 1e-6.  Raises
    ``DomainError`` where F1 exceeds the float range and
    ``NumericalError`` where the rule does not converge.
    """
    if not (0.0 < a < c):
        raise DomainError(f"Euler representation needs c > a > 0, got a={a!r}, c={c!r}")
    if not (x < 1.0 and y < 1.0):
        raise DomainError(f"Euler representation needs x, y < 1, got x={x!r}, y={y!r}")
    p = np.array([[a], [c - a]])  # per row, the power p - 1 of s/2, and the other row's of 1 - s/2
    q = np.minimum(p, 1.0)  # the rule runs over s^q, in which a singular s^(p - 1) ds is bounded
    # per row, 1 - x t and 1 - y t as base + slope s: at t = 1 - s/2 the base is 1 - x
    base, slope = np.array([[1.0, 1.0], [1.0 - x, 1.0 - y]]), 0.5 * np.array([[-x, -y], [x, y]])

    def log_f(rows, log_sigma, log_1m_sigma):
        log_s = log_sigma / q[rows]
        s, b, k = np.exp(log_s), base[rows], slope[rows]
        log_lin = b1 * np.log(b[:, :1] + k[:, :1] * s) + b2 * np.log(b[:, 1:] + k[:, 1:] * s)
        log_ends = (p[rows] - 1.0) * (log_s - math.log(2.0)) + (p[1 - rows] - 1.0) * np.log1p(-0.5 * s)
        return log_ends - log_lin + log_s - log_sigma - np.log(q[rows])  # the last three: ds / d(s^q)

    what = f"the Euler integral of F1({a!r}; {b1!r}, {b2!r}; {c!r}; {x!r}, {y!r})"
    halves = _tanh_sinh(log_f, np.array(["t < 1/2", "t > 1/2"]), what)
    log_f1 = float(np.logaddexp(*halves)) - math.log(2.0) - log_beta_fn(a, c - a)  # dt = ds/2
    try:
        return math.exp(log_f1)
    except OverflowError:
        raise DomainError(f"F1 = exp({log_f1:.6g}) overflows a float") from None


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


def _mp_log_beta_prior(beta, sigma_beta, logistic):
    """Log density of the LT grand mean's prior, Gaussian or logistic, in mpmath."""
    import mpmath as mp

    if logistic:
        z = abs(beta) / sigma_beta
        return -z - 2 * mp.log1p(mp.exp(-z)) - mp.log(sigma_beta)
    return -beta * beta / (2 * sigma_beta**2) - mp.log(sigma_beta) - mp.log(2 * mp.pi) / 2


def _mp_quad_halving(f, pts, rel_tol):
    """mpmath ``quad`` over the pieces between ``pts``.

    A piece whose own error estimate is below ``rel_tol`` of the total
    over the number of pieces stands; any other is halved until its two
    halves agree with it.
    """
    import mpmath as mp

    pieces = [(a, b, *mp.quad(f, [a, b], error=True)) for a, b in zip(pts[:-1], pts[1:])]
    total = mp.fsum(p[2] for p in pieces)
    done = mp.fsum(v for _, _, v, err in pieces if err <= rel_tol * total / len(pieces))
    todo = [(a, b, v) for a, b, v, err in pieces if err > rel_tol * total / len(pieces)]
    if not todo:
        return done
    for _ in range(40):
        halved = []
        for a, b, v in todo:
            m = (a + b) / 2
            left, right = mp.quad(f, [a, m]), mp.quad(f, [m, b])
            if abs(left + right - v) <= rel_tol * total:
                done += left + right
            else:
                halved += [(a, m, left), (m, b, right)]
        if not halved:
            return done
        todo, total = halved, done + mp.fsum(v for _, _, v in halved)
    raise RuntimeError("mpmath quadrature did not converge")


def ib_eta_density_mpmath(eta, a, dps=30, rel_tol=1e-13):
    """Density of theta2 - theta1 under independent Beta(a, a) rates, by mpmath quadrature in theta1.

    The product of the two Beta densities along theta2 = theta1 + |eta|
    is integrated over theta1 in (0, 1 - |eta|), with breakpoints every 4
    widths 1/(4 sqrt(a)) of its peak at the midpoint, out to 40.
    """
    import mpmath as mp

    with mp.workdps(dps):
        e, a = abs(mp.mpf(eta)), mp.mpf(a)
        log_norm = 2 * (2 * mp.loggamma(a) - mp.loggamma(2 * a))

        def f(t1):
            t2 = t1 + e
            return mp.exp((a - 1) * (mp.log(t1) + mp.log1p(-t1) + mp.log(t2) + mp.log1p(-t2)) - log_norm)

        hi = 1 - e
        mid, width = hi / 2, 1 / (4 * mp.sqrt(a))
        pts = [mp.mpf(0)] + [mid + k * width for k in range(-40, 41, 4) if 0 < mid + k * width < hi] + [hi]
        return float(_mp_quad_halving(f, pts, rel_tol))


def ib_log_psi_density_mpmath(psi, a, dps=30, rel_tol=1e-13):
    """Log density of the log odds ratio under independent Beta(a, a) rates, by mpmath quadrature.

    Each rate's log odds x has the density g(x) = e^(ax) (1 + e^x)^(-2a) / B(a, a),
    and g(x1) g(x1 + |psi|) is integrated over x1 in the reals, divided by
    its peak at x1 = -|psi|/2: unscaled, the peak of a large a sits far
    from 1 and quad misreads it.  At large |psi| the product is a plateau
    between its knees at x1 = -|psi| and 0, so the breakpoints run every 4
    widths 1/sqrt(a) from 16 widths beyond one knee to 16 beyond the other.
    """
    import mpmath as mp

    with mp.workdps(dps):
        e, a = abs(mp.mpf(psi)), mp.mpf(a)
        log_beta = 2 * mp.loggamma(a) - mp.loggamma(2 * a)

        def log_g(x):
            return a * x - 2 * a * mp.log1p(mp.exp(x)) - log_beta

        mid, width = -e / 2, 1 / mp.sqrt(a)
        log_peak = 2 * log_g(mid)
        pts = [-mp.inf] + [-e - 16 * width + 4 * k * width for k in range(int((e / width + 32) / 4) + 2)] + [mp.inf]
        val = _mp_quad_halving(lambda x: mp.exp(log_g(x) + log_g(x + e) - log_peak), pts, rel_tol)
        return float(mp.log(val) + log_peak)


def lt_eta_density_mpmath(eta, sigma_beta, sigma_psi, logistic=False, dps=30, rel_tol=1e-13):
    """Density of theta2 - theta1 under the LT prior, by mpmath quadrature in theta1.

    The joint density of the rates, (beta, psi) prior over the Jacobian
    t1 (1-t1) t2 (1-t2), is integrated along theta2 = theta1 + eta over
    the whole interval, with breakpoints where either rate's log odds
    is a multiple of 8 in [-40, 40].
    """
    import mpmath as mp

    with mp.workdps(dps):
        e, sb, sp = mp.mpf(eta), mp.mpf(sigma_beta), mp.mpf(sigma_psi)
        lo, hi = max(mp.mpf(0), -e), min(mp.mpf(1), 1 - e)
        if not lo < hi:
            return 0.0
        log_c = -mp.log(sp) - mp.log(2 * mp.pi) / 2

        def f(t1):
            t2 = t1 + e
            if not (0 < t1 < 1 and 0 < t2 < 1):  # a corner beyond the working precision
                return mp.mpf(0)
            a1, b1, a2, b2 = mp.log(t1), mp.log1p(-t1), mp.log(t2), mp.log1p(-t2)
            x1, x2 = a1 - b1, a2 - b2
            log_prior = _mp_log_beta_prior((x1 + x2) / 2, sb, logistic) - (x2 - x1) ** 2 / (2 * sp * sp) + log_c
            return mp.exp(log_prior - a1 - b1 - a2 - b2)

        rates = [1 / (1 + mp.exp(-x)) for x in range(-40, 41, 8)]
        pts = [lo] + sorted({t for r in rates for t in (r, r - e) if lo < t < hi}) + [hi]
        return float(_mp_quad_halving(f, pts, rel_tol))


def lt_theta_density_mpmath(t, sigma_beta, sigma_psi, logistic=True, dps=30, rel_tol=1e-13):
    """Density of either rate under the LT prior, by mpmath quadrature over beta.

    logit(t) = beta - psi/2 with psi ~ N(0, sigma_psi), so the density is
    the integral of p(beta) 2 phi(2 (beta - logit t); sigma_psi) over
    beta, over t (1 - t).  beta runs over 60 scales of either factor
    around its centre, with breakpoints at every 4 scales.
    """
    import mpmath as mp

    with mp.workdps(dps):
        t, sb, sp = mp.mpf(t), mp.mpf(sigma_beta), mp.mpf(sigma_psi)
        x = mp.log(t) - mp.log1p(-t)
        log_c = mp.log(2) - mp.log(sp) - mp.log(2 * mp.pi) / 2

        def f(beta):
            return mp.exp(_mp_log_beta_prior(beta, sb, logistic) - 2 * (beta - x) ** 2 / (sp * sp) + log_c)

        pts = sorted({k * sb for k in range(-60, 61, 4)} | {x + k * sp / 2 for k in range(-60, 61, 4)})
        return float(_mp_quad_halving(f, pts, rel_tol) / (t * (1 - t)))


def lt_log_ml_h1_boundary_quad(d, sigma_beta, sigma_psi):
    """(log p(D|H1), relative error) of the LT model with Gaussian priors, for counts at 0 or n.

    In the groups' log odds x1 = beta - psi/2, x2 = beta + psi/2 the
    Jacobian is one and the prior is a bivariate Gaussian, so nested
    ``quad`` runs over x1 against its marginal and over x2 against its
    conditional Gaussian.  A group with y in {0, n} has the likelihood
    (1 - sigma(-/+ x))^n: flat on one side of its knee at x = -/+ log n,
    and zero within a few units on the other; its binomial coefficient
    is 1.  Each axis runs over 40 standard deviations of its Gaussian,
    split at its centre and at offsets of up to 30 from the knee.  Each
    axis's factor at the integrand's peak is divided out of its rule, so
    that a marginal far below 1 does not underflow.
    """
    var = sigma_beta**2 + 0.25 * sigma_psi**2
    cov = sigma_beta**2 - 0.25 * sigma_psi**2
    groups = []
    for y, n in ((d.y1, d.n1), (d.y2, d.n2)):
        if y not in (0, n):
            raise ValueError(f"counts must sit at 0 or n, got {y} of {n}")
        sign = 1.0 if y == 0 else -1.0
        groups.append((n, sign, -sign * math.log(n)))

    def quad_pieces(f, knee, center, sd):
        lo, hi = center - 40.0 * sd, center + 40.0 * sd
        knees = {knee + k for k in (-30, -10, -3, 0, 3, 10, 30)}
        pts = sorted({lo, hi, center} | {p for p in knees if lo < p < hi})
        parts = [integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200) for a, b in zip(pts, pts[1:])]
        return sum(v for v, _ in parts), sum(e for _, e in parts)

    def log_density(g, x, center, sd):  # log of group likelihood times a Gaussian density
        n, sign, _ = g
        softplus = max(sign * x, 0.0) + math.log1p(math.exp(-abs(x)))
        return -n * softplus - 0.5 * ((x - center) / sd) ** 2 - math.log(sd * math.sqrt(2.0 * math.pi))

    inner_err = [0.0]
    # var - cov^2 / var in closed form: the difference cancels for a strongly correlated prior
    slope, cond_sd, sd = cov / var, sigma_beta * sigma_psi / math.sqrt(var), math.sqrt(var)

    def log_f1(x1):
        return log_density(groups[0], x1, 0.0, sd)

    def log_f2(x1, x2):
        return log_density(groups[1], x2, slope * x1, cond_sd)

    # each axis's factor at the integrand's peak, found from the two knees, is taken
    # out of its rule, so that a marginal far below 1 stays clear of underflow
    peak = optimize.minimize(lambda x: -log_f1(x[0]) - log_f2(*x), [groups[0][2], groups[1][2]], method="Nelder-Mead")
    shift1, shift2 = log_f1(peak.x[0]), log_f2(*peak.x)

    def slice_x1(x1):
        m = slope * x1
        val, err = quad_pieces(lambda x2: math.exp(log_f2(x1, x2) - shift2), groups[1][2], m, cond_sd)
        inner_err[0] = max(inner_err[0], err / val if val else 0.0)
        return val

    val, err = quad_pieces(lambda x1: math.exp(log_f1(x1) - shift1) * slice_x1(x1), groups[0][2], 0.0, sd)
    return shift1 + shift2 + math.log(val), err / val + inner_err[0]


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
