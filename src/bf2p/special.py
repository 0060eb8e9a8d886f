"""Log-space special functions and induced prior densities.

Hosts the log beta function (``math.lgamma`` plus the Stirling-series
remainder of SLATEC's D9LGMC, as in R's ``lbeta``); the package's one
tanh-sinh rule, for log-space integrals over (0, 1), which every
integrated induced density (among them the densities of the rate
difference eta and the log odds ratio psi under independent Beta
priors) and the fallbacks of the quadrature engine in ``bf2p.lt`` and
of the clamped dep-IB wedges share; its one Gauss-Jacobi builder, whose
rules carry the dep-IB marginals and, at a = b = 0, the Gauss-Legendre mean
of a narrow Gaussian window; the closed-form psi density at a = 1; and
the elementary log-density helpers, among them the truncated Gaussian,
whose normal CDFs come from ``scipy.special``.
scipy is imported by the functions that use it, so ``import bf2p`` does
not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DomainError, NumericalError


@dataclass(frozen=True)
class DensityValue:
    """A probability density carried on both linear and log scales."""

    value: float
    log_value: float

    @classmethod
    def from_log(cls, log_value: float) -> "DensityValue":
        return cls(value=math.exp(log_value), log_value=log_value)


_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

#: Chebyshev coefficients of the Stirling-series remainder of ln Gamma on
#: x >= 10 (SLATEC D9LGMC); five of them reach double precision.
_LGAMMA_REMAINDER = (
    0.1666389480451863247205729650822e0,
    -0.1384948176067563840732986059135e-4,
    0.9810825646924729426157171547487e-8,
    -0.1809129475572494194263306266719e-10,
    0.6221098041892605227126015543416e-13,
)


def _lgamma_remainder(x: float) -> float:
    """ln Gamma(x) - [(x - 1/2) ln x - x + ln sqrt(2 pi)], for x >= 10."""
    if x >= 94906265.62425156:  # the series' 1/(12 x) term alone is exact to rounding
        return 1.0 / (12.0 * x)
    t = 10.0 / x
    t2 = 2.0 * (2.0 * t * t - 1.0)
    b0 = b1 = b2 = 0.0
    for c in reversed(_LGAMMA_REMAINDER):  # Clenshaw summation
        b2, b1 = b1, b0
        b0 = t2 * b1 - b2 + c
    return 0.5 * (b0 - b2) / x


def log_beta_fn(a: float, b: float) -> float:
    """ln B(a, b), to about 1e-15 relative, and exactly symmetric in (a, b).

    With p = min(a, b) and q = max(a, b): the Stirling expansions of the
    three log-gammas cancel in closed form wherever q >= 10, so only
    their small remainders are subtracted; below that the gamma
    functions themselves are small enough to divide.
    """
    if not (a > 0 and b > 0):
        raise DomainError(f"log_beta_fn requires positive arguments, got ({a!r}, {b!r})")
    p, q = (a, b) if a <= b else (b, a)
    r = p / (p + q)
    if p >= 10.0:
        corr = _lgamma_remainder(p) + _lgamma_remainder(q) - _lgamma_remainder(p + q)
        return -0.5 * math.log(q) + _LN_SQRT_2PI + corr + (p - 0.5) * math.log(r) + q * math.log1p(-r)
    if q >= 10.0:
        corr = _lgamma_remainder(q) - _lgamma_remainder(p + q)
        return math.lgamma(p) + corr + p - p * math.log(p + q) + (q - 0.5) * math.log1p(-r)
    if p < 1e-306:  # Gamma(p) overflows
        return math.lgamma(p) + (math.lgamma(q) - math.lgamma(p + q))
    return math.log(math.gamma(p) * (math.gamma(q) / math.gamma(p + q)))


#: Abscissae t of the tanh-sinh rule, at steps 2^-k for k in _TS_LEVELS: s = 1 / (1 + e^{2u}),
#: u = (pi/2) sinh t, reaches e^-4682 at t = 8, and the weights are below 1e-35 of their peak at t = -4.
_TS_SPAN, _TS_LEVELS, _TS_REL_TOL = (-4.0, 8.0), range(2, 10), 1e-12


def _row_logsumexp(a: np.ndarray) -> np.ndarray:
    m = np.nan_to_num(a.max(axis=1), neginf=0.0)
    return m + np.log(np.exp(a - m[:, None]).sum(axis=1))


def _tanh_sinh(log_f, points: np.ndarray, what: str, log_scale: float = -math.inf) -> np.ndarray:
    """Per point, log of the integral over s in (0, 1) of exp(log_f(rows, log s, log(1 - s))).

    One rule for all points, as a (points x nodes) array, its step halved
    until two levels agree to 1e-12, or both lie below 1e-12 of
    exp(``log_scale``), the size of the sum the point is part of.  A point
    that does neither, or whose rule still has mass at the ends of its
    span, raises ``NumericalError``.
    """
    lo, hi = _TS_SPAN

    def log_terms(rows, t):
        u = 0.5 * math.pi * np.sinh(t)
        log_s, log_1m_s = -np.logaddexp(0.0, 2.0 * u), -np.logaddexp(0.0, -2.0 * u)
        return log_f(rows, log_s, log_1m_s) + np.log(math.pi * np.cosh(t)) + log_s + log_1m_s

    step = 2.0 ** -_TS_LEVELS[0]
    rows = np.arange(points.size)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        terms = log_terms(rows, lo + step * np.arange(round((hi - lo) / step) + 1))
        log_int = _row_logsumexp(terms) + math.log(step)
        for _ in _TS_LEVELS[1:]:
            step /= 2.0
            old = log_int[rows]
            new = _row_logsumexp(log_terms(rows, lo + step * np.arange(1, round((hi - lo) / step), 2)))
            log_int[rows] = new = np.logaddexp(old - math.log(2.0), new + math.log(step))
            small = np.maximum(new, old) < log_scale + math.log(_TS_REL_TOL)
            rows = rows[~((new == old) | (np.abs(np.expm1(new - old)) <= _TS_REL_TOL) | small)]
            if not rows.size:
                break
        ends = np.maximum(terms[:, 0], terms[:, -1]) - np.maximum(log_int, log_scale)
        bad = np.union1d(rows, np.flatnonzero(ends > -40.0))
    if bad.size:
        raise NumericalError(f"{what} did not converge to {_TS_REL_TOL} at {points[bad].tolist()}")
    return log_int


def _log_eta_convolution(eta: np.ndarray, log_joint, what: str) -> np.ndarray:
    """ln of the density of eta = theta2 - theta1 at every eta, -inf where |eta| >= 1.

    The joint rate density exp(log_joint) must be unchanged by swapping
    the rates and by (theta1, theta2) -> (1 - theta2, 1 - theta1), as the
    IB and LT priors are.  Then f(eta) = f(-eta), and over theta1 in
    (0, 1 - |eta|) the integrand is symmetric about the midpoint, so f is
    twice the integral over theta1 = h s, h = (1 - |eta|)/2.
    ``log_joint`` gets log theta1, log(1 - theta1), log theta2, log(1 -
    theta2) = log h (2 - s), and each d = 1 - 2 theta, all from s and
    1 - s, not from a rounded theta1: this keeps the corner theta1 -> 0.
    """
    e = np.abs(eta)
    out = np.full(e.shape, -np.inf)
    inside = e < 1.0
    e = e[inside, None]
    h = 0.5 * (1.0 - e)
    with np.errstate(divide="ignore"):
        log_e, log_h = np.log(e), np.log(h)

    def log_f(rows, log_s, log_1m_s):
        s, log_t1 = np.exp(log_s), log_h[rows] + log_s
        log_t2, log_1m_t2 = np.logaddexp(log_e[rows], log_t1), log_h[rows] + np.log(2.0 - s)
        log_1m_t1, d1 = np.log1p(-h[rows] * s), np.exp(log_1m_s) + e[rows] * s
        return log_h[rows] + log_joint(log_t1, log_1m_t1, log_t2, log_1m_t2, d1, d1 - 2.0 * e[rows])

    out[inside] = math.log(2.0) + _tanh_sinh(log_f, eta[inside], what)
    return out


def _log_beta_norm(a: float) -> float:
    """2 ln(4^(a-1) B(a, a)), the log normalizer of two Beta(a, a) kernels in 4 theta (1 - theta)."""
    if a >= 10.0:  # by Stirling's series, in which the two O(a) terms cancel in closed form
        return 4.0 * _lgamma_remainder(a) - 2.0 * _lgamma_remainder(2.0 * a) - math.log(4 * a / math.pi)
    return 2.0 * ((a - 1.0) * math.log(4.0) + log_beta_fn(a, a))


def _log_eta_density_ib(eta: np.ndarray, a: float) -> np.ndarray:
    """ln ``eta_density_ib`` at every eta of an array."""
    if a < 1.0:
        raise DomainError(f"requires a >= 1, got a={a!r}")
    if not np.all(np.abs(eta) <= 1.0):
        raise DomainError(f"eta must lie in [-1, 1], got {eta[~(np.abs(eta) <= 1.0)].tolist()}")
    # each rate's Beta kernel is (a - 1) ln(1 - d^2) - ln(4^(a-1) B(a, a)), d = 1 - 2 theta: near
    # theta = 1/2 its two logs would cancel, and a - 1 times their rounding stalls the rule at large a
    log_norm = _log_beta_norm(a)

    def log_4var(d, log_t, log_1m_t):  # ln 4 theta (1 - theta)
        return np.where(np.abs(d) < 0.5, np.log1p(-d * d), math.log(4.0) + log_t + log_1m_t)

    def log_joint(log_t1, log_1m_t1, log_t2, log_1m_t2, d1, d2):
        return (a - 1.0) * (log_4var(d1, log_t1, log_1m_t1) + log_4var(d2, log_t2, log_1m_t2)) - log_norm

    return _log_eta_convolution(eta, log_joint, "the IB eta density")


def eta_density_ib(eta: float, a: float) -> DensityValue:
    """Density of the rate difference theta2 - theta1 under independent Beta(a, a).

    The paper's closed form, B(a, a)^-1 e^(2a-1) (1-e)^(2a-1) F1(a; 4a-2,
    1-a; 2a; 1-e, 1-e^2) for e = |eta| > 0, is the convolution of the two
    Beta densities; ``_log_eta_convolution`` integrates it directly.
    """
    return DensityValue.from_log(float(_log_eta_density_ib(np.array([eta], dtype=float), a)[0]))


def _log_psi_density_ib(psi: np.ndarray, a: float) -> np.ndarray:
    """ln of the density of the log odds ratio psi under independent Beta(a, a) rates, at every psi.

    A rate's log odds x has the density g(x) = (4 expit(x) expit(-x))^a / (4^a B(a, a)), so
    f(psi) is the integral over t in (0, 1) of Beta(t; a, a) g(logit t + |psi|), one tanh-sinh
    rule for all points.  Both kernels are powers of 4 expit(x) expit(-x) = cosh(x/2)^-2, whose
    log is taken by ``log1p`` near x = 0, where the terms of the other form would cancel.
    """
    e = np.abs(psi).reshape(-1, 1)
    log_norm = _log_beta_norm(a) + math.log(4.0)

    def log_sech2(x):  # ln 4 expit(x) expit(-x)
        ax = np.abs(x)
        return np.where(ax < 1.0, np.log1p(-np.tanh(0.5 * x) ** 2), math.log(4.0) - ax - 2.0 * np.log1p(np.exp(-ax)))

    def log_f(rows, log_s, log_1m_s):
        x = log_s - log_1m_s
        return (a - 1.0) * log_sech2(x) + a * log_sech2(x + e[rows]) - log_norm

    return _tanh_sinh(log_f, psi.ravel(), "the IB psi density").reshape(psi.shape)


#: Coefficients of S(z), the sum over k >= 1 of 2k z^(k-1) / (2k+1)!: (h cosh h - sinh h) / h^3
#: at z = h^2.  Its terms are all positive, and ten of them reach double precision at h = 1.
_PSI_SERIES = tuple(2 * k / math.factorial(2 * k + 1) for k in range(1, 11))


def psi_density_ib_a1(psi: float) -> DensityValue:
    """Density of the log odds ratio under uniform (a = 1) rate priors.

    This is the density of the difference of two independent standard
    logistic variables:

        f(psi) = e^psi (e^psi (psi - 2) + psi + 2) / (e^psi - 1)^3.

    With h = psi/2 that is (h cosh h - sinh h) / (2 sinh^3 h), whose numerator,
    h^3 S(h^2), cancels as written: below |psi| = 2, f = S(h^2) / (2 (sinh h / h)^3) keeps
    its digits (1e-15 relative) down to psi = 0; above, a closed form in e^-|psi|
    cannot overflow.  Symmetric in psi.
    """
    p = abs(float(psi))
    if p < 2.0:
        h = 0.5 * p
        series = 0.0
        for c in reversed(_PSI_SERIES):
            series = series * h * h + c
        val = series / (2.0 * (math.sinh(h) / h if h else 1.0) ** 3)
        return DensityValue(value=val, log_value=math.log(val))
    # divide through by e^(3 psi):  [(p-2)e^-p + (p+2)e^-2p] / (1 - e^-p)^3
    em = math.exp(-p)
    log_num = -p + math.log((p - 2.0) + (p + 2.0) * em)
    log_val = log_num - 3.0 * math.log1p(-em)
    return DensityValue.from_log(log_val)


def log_density_gaussian(x, sigma: float):
    """Log density of N(0, sigma) at x, a float or an array.

    A float is computed as a float, with no round trip through a 0-d
    array, in the same arithmetic as an array's entries.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    z = (x if isinstance(x, float) else np.asarray(x, dtype=float)) / sigma
    out = -0.5 * (z * z) - math.log(sigma) - _LN_SQRT_2PI
    return out if isinstance(out, np.ndarray) else float(out)


@lru_cache(maxsize=256)
def _jacobi_rule(a: float, b: float, m: int):
    """Read-only nodes t, log mass and log weights of the m-point Gauss-Jacobi rule
    for the weight t^b (1 - t)^a on (0, 1).

    The weights are exp(log mass + lw): the log mass is ln B(a + 1, b + 1)
    and lw, summing to 1 under exp, belong to the Beta(b + 1, a + 1) law.
    The rule is built with b <= a, where the nodes crowd towards 0 and
    keep their relative digits, and reflected to 1 - t for b > a, so both
    orientations share one set of weights bit for bit.  The nodes are the
    eigenvalues of the Jacobi matrix (Golub & Welsch 1969), whose
    recurrence coefficients are written in t with no cancellation; the
    weights are the Christoffel numbers 1 / sum_k p_k(t)^2 of the
    orthonormal polynomials of the same recurrence.  Eigenvectors are not
    used: on a 2-core machine ``eigh`` of a 40 x 40 matrix took 16 ms in
    one call of ten (OpenBLAS threading), against 0.1 ms for ``eigvalsh``.
    """
    if b > a:
        t, log_mass, lw = _jacobi_rule(b, a, m)
        t = 1.0 - t
        t.setflags(write=False)
        return t, log_mass, lw
    s = a + b
    k = np.arange(1.0, m)
    d = 2.0 * k + s
    diag = np.concatenate((
        [(b + 1.0) / (s + 2.0)],
        (4.0 * k * k + 4.0 * k * (s + 1.0) + 2.0 * s * (b + 1.0)) / (2.0 * d * (d + 2.0)),
    ))
    off = np.sqrt(k * (k + b) / ((d + 1.0) * (d - 1.0)) * ((k + a) / d) * ((k + s) / d))
    t = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    off = np.concatenate(([0.0], off))
    p0, p1, total = np.zeros(m), np.ones(m), np.ones(m)  # p_{j-1}(t), p_j(t), sum of p^2 so far
    for j in range(m - 1):
        p0, p1 = p1, ((t - diag[j]) * p1 - off[j] * p0) / off[j + 1]
        total += p1 * p1
    lw = -np.log(total)
    for v in (t, lw):  # shared by every caller
        v.setflags(write=False)
    return t, log_beta_fn(a + 1.0, b + 1.0), lw


def _log_gaussian_mass(lo, hi, center, sigma):
    """ln(Phi((hi-c)/s) - Phi((lo-c)/s)) elementwise, to about 1e-14 relative.

    In units of sigma, let the window have half width h and midpoint m.
    A wide window, h max(1, |m|) > 1/2, takes the difference of
    ``log_ndtr`` at its ends in the lower tail.  That difference cancels
    on a narrow window, to about eps / (2h) relative, so there the mass
    is 2h phi(m) times the mean of phi(m + h xi) / phi(m) over xi in
    (-1, 1), whose log is ln 2h + ln phi(m) + log1p(mean - 1), the mean
    taken by the 10-point Gauss-Legendre rule (``_jacobi_rule`` at
    a = b = 0, in t = (1 + xi)/2), which integrates
    exp(-m h xi - h^2 xi^2 / 2) to rounding while h max(1, |m|) <= 1/2.
    """
    from scipy.special import log_ndtr

    a, b = (lo - center) / sigma, (hi - center) / sigma
    upper = a > 0  # work in the lower tail where log_ndtr is accurate
    a, b = np.where(upper, -b, a), np.where(upper, -a, b)
    la, lb = log_ndtr(a), log_ndtr(b)
    h, m = 0.5 * (hi - lo) / sigma, (0.5 * (lo + hi) - center) / sigma
    narrow = np.asarray(h * np.maximum(1.0, np.abs(m)) <= 0.5)
    with np.errstate(divide="ignore"):
        out = lb + np.log(-np.expm1(la - lb))
        if narrow.any():
            m, h = np.where(narrow, m, 0.0), np.where(narrow, h, 0.0)
            t, _, lw = _jacobi_rule(0.0, 0.0, 10)  # the mean's weights are exp(lw)
            xi = 2.0 * t - 1.0
            z = np.multiply.outer(-m * h, xi) - np.multiply.outer(0.5 * h * h, xi * xi)
            log_mean = np.log1p(np.expm1(z) @ np.exp(lw))
            out = np.where(narrow, np.log(2.0 * h) - 0.5 * m * m - _LN_SQRT_2PI + log_mean, out)
    return out if out.ndim else float(out)


def _ppf_truncated_gaussian(u, sigma, lo, hi, center=0.0):
    # inverse CDF of N(center, sigma) truncated to (lo, hi); each quantile is
    # inverted from its nearer tail, where ndtr and ndtri keep full precision
    from scipy.special import ndtr, ndtri

    a, b = (lo - center) / sigma, (hi - center) / sigma
    mass = ndtr(-a) - ndtr(-b) if a + b > 0 else ndtr(b) - ndtr(a)
    lower = ndtr(a) + u * mass  # P(X < x)
    upper = ndtr(-b) + (1.0 - u) * mass  # P(X > x)
    z = np.where(lower < upper, ndtri(lower), -ndtri(upper))
    return np.clip(center + sigma * z, lo, hi)


def log_density_truncated_gaussian(
    x, sigma: float, lo: float, hi: float, center: float = 0.0
):
    """Log density of N(center, sigma) truncated to the closed window [lo, hi].

    Integrates to one over the window; evaluates to -inf (zero density,
    not an error) strictly outside it.  The ends keep their density, so a
    rate that rounds to exactly 0 or 1 is not dropped from an integral.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo!r}, {hi!r})")
    x = np.asarray(x, dtype=float)
    out = np.where(
        (x >= lo) & (x <= hi),
        log_density_gaussian(x - center, sigma) - _log_truncation_mass(lo, hi, center, sigma),
        -np.inf,
    )
    return out if out.ndim else float(out)


@lru_cache(maxsize=256)
def _log_truncation_mass(lo: float, hi: float, center: float, sigma: float) -> float:
    # the normalizer of a truncated Gaussian, which its density's callers
    # evaluate once per point set with the same few priors
    return _log_gaussian_mass(lo, hi, center, sigma)


def log_density_beta(x, a: float):
    """Log density of the symmetric Beta(a, a) at x in (0, 1)."""
    if not a > 0:
        raise DomainError(f"a must be > 0, got {a!r}")
    x = np.asarray(x, dtype=float)
    if np.any((x < 0) | (x > 1)):
        raise DomainError("x must lie in [0, 1]")
    if a == 1.0:
        out = np.zeros_like(x)  # uniform; avoids 0 * log(0) at the edges
    else:
        with np.errstate(divide="ignore"):
            out = (a - 1.0) * (np.log(x) + np.log1p(-x)) - log_beta_fn(a, a)
    return out if out.ndim else float(out)
