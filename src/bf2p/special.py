"""Log-space special functions and induced prior densities.

Hosts the log beta function (``math.lgamma`` plus the Stirling-series
remainder of SLATEC's D9LGMC, as in R's ``lbeta``), the Appell F1
two-variable hypergeometric function (via its Euler integral
representation, integrated in log space by ``scipy.integrate.quad``),
the closed-form density of the rate difference eta under independent
symmetric Beta priors, the closed-form density of the log odds ratio psi
for the uniform (a = 1) case, and the elementary log-density helpers,
among them the truncated Gaussian, whose normal CDFs come from
``scipy.special``.  scipy is imported by the functions that use it, so
``import bf2p`` does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import DomainError


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


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Appell's F1 via adaptive quadrature of the Euler integral.

    F1(a; b1, b2; c; x, y) =
        Gamma(c)/(Gamma(a)Gamma(c-a)) *
        integral_0^1 t^(a-1) (1-t)^(c-a-1) (1-x t)^(-b1) (1-y t)^(-b2) dt,

    valid for c > a > 0 and x, y < 1.  Relative accuracy ~1e-9 or better
    across that domain, including the boundary layer that forms near
    t = 1 as x -> 1.  Raises ``DomainError`` where F1 exceeds the float
    range.
    """
    if not (0.0 < a < c):
        raise DomainError(f"Euler representation needs c > a > 0, got a={a!r}, c={c!r}")
    if not (x < 1.0 and y < 1.0):
        raise DomainError(f"Euler representation needs x, y < 1, got x={x!r}, y={y!r}")
    log_f1 = _log_appell_f1(a, b1, b2, c, 1.0 - x, 1.0 - y)
    try:
        return math.exp(log_f1)
    except OverflowError:
        raise DomainError(f"F1 = exp({log_f1:.6g}) overflows a float") from None


def _log_appell_f1(a: float, b1: float, b2: float, c: float, u: float, v: float) -> float:
    """ln F1 at x = 1 - u, y = 1 - v, for u, v > 0 that keep their digits near x, y = 1.

    The Euler integral is split at t = 1/2.  The upper half runs over
    s = 1 - t, where 1 - x t = u + x s exactly, and its boundary layers
    at s ~ u and s ~ v get a breakpoint at every tenfold multiple of u
    and v below 1/2, so each piece sees about one decade of a power law.
    Each half is integrated in log space, less its largest log integrand
    on a grid of 20 points per decade down to a tenth of min(u, v):
    between grid points the log integrand moves by at most the sum of
    its four |exponents| times ln(10) / 20, so the scaled integrand
    stays finite unless that sum is in the thousands.  Where it does
    not, ``DomainError`` is raised.
    """
    from scipy import integrate

    x, y = 1.0 - u, 1.0 - v

    def log_lower(t):
        return (
            (a - 1.0) * math.log(t)
            + (c - a - 1.0) * math.log1p(-t)
            - b1 * math.log1p(-x * t)
            - b2 * math.log1p(-y * t)
        )

    def log_upper(s):
        return (
            (a - 1.0) * math.log1p(-s)
            + (c - a - 1.0) * math.log(s)
            - b1 * math.log(u + x * s)
            - b2 * math.log(v + y * s)
        )

    decades = max(1, math.ceil(math.log10(5.0 / min(u, v, 0.5))))
    grid = [0.5 * 10.0 ** (-k / 20.0) for k in range(20 * decades + 1)]
    pts = []
    for w in sorted(10.0**k * w for w in (u, v) for k in range(decades)):
        # points within 1% of each other or of 1/2 leave slivers that stall quad
        if w < 0.495 and (not pts or w > 1.01 * pts[-1]):
            pts.append(w)
    opts = dict(epsabs=0.0, epsrel=1e-11, limit=400)
    halves = []
    for log_f, breaks in ((log_lower, None), (log_upper, pts or None)):
        scale = max(map(log_f, grid))
        try:
            val = integrate.quad(lambda t: math.exp(log_f(t) - scale), 0.0, 0.5, points=breaks, **opts)[0]
        except OverflowError:
            val = math.inf
        if not 0.0 < val < math.inf:
            raise DomainError(
                f"the Euler integrand of F1({a!r}; {b1!r}, {b2!r}; {c!r}) at 1 - ({u!r}, {v!r}) "
                "leaves the floating-point range"
            )
        halves.append(scale + math.log(val))
    return float(np.logaddexp(*halves)) - log_beta_fn(a, c - a)


def eta_density_ib(eta: float, a: float) -> DensityValue:
    """Density of the rate difference theta2 - theta1 under independent Beta(a, a).

    Two-branch closed form in terms of Appell F1, evaluated in log space;
    at eta = 0 the branch formula degenerates (0 * inf) and the exact
    value B(2a-1, 2a-1) / B(a, a)^2 is used instead.
    """
    if a < 1.0:
        raise DomainError(f"requires a >= 1, got a={a!r}")
    if not abs(eta) <= 1.0:
        raise DomainError(f"eta must lie in [-1, 1], got {eta!r}")
    if abs(eta) <= 1.1e-8:
        # the density is even, so the center value is accurate to
        # O(eta^2) here (O(eta) at the a = 1 kink)
        return DensityValue.from_log(log_beta_fn(2 * a - 1, 2 * a - 1) - 2 * log_beta_fn(a, a))
    if abs(eta) == 1.0:
        # the (1 - |eta|)^(2a-1) factor vanishes for every a >= 1
        return DensityValue(value=0.0, log_value=-math.inf)
    # F1's arguments sit within |eta| of 1; pass their complements exactly
    e = abs(eta)
    if eta > 0.0:
        log_f1 = _log_appell_f1(a, 4 * a - 2, 1 - a, 2 * a, e, e * e)
    else:
        log_f1 = _log_appell_f1(a, 1 - a, 4 * a - 2, 2 * a, e * e, e)
    log_val = -log_beta_fn(a, a) + (2 * a - 1) * (math.log(e) + math.log1p(-e)) + log_f1
    return DensityValue.from_log(log_val)


# Even Taylor expansion of the psi density around 0; the closed form is a
# 0/0 there, with its numerator cancelling to ~psi^3/6, so it keeps only
# ~|log10(psi^3)| of the 16 available digits near the origin.
_PSI_TAYLOR = (1.0 / 6.0, -1.0 / 60.0, 1.0 / 1008.0, -1.0 / 21600.0, 1.0 / 532224.0)

_PSI_TAYLOR_CUTOFF = 0.02  # both branches good to ~1e-12 relative here


def psi_density_ib_a1(psi: float) -> DensityValue:
    """Density of the log odds ratio under uniform (a = 1) rate priors.

    This is the density of the difference of two independent standard
    logistic variables:

        f(psi) = e^psi (e^psi (psi - 2) + psi + 2) / (e^psi - 1)^3.

    Evaluated in an overflow-free rearrangement for large |psi| and by a
    Taylor branch near 0; symmetric in psi.
    """
    p = abs(float(psi))
    if p < _PSI_TAYLOR_CUTOFF:
        p2 = p * p
        c0, c2, c4, c6, c8 = _PSI_TAYLOR
        val = c0 + p2 * (c2 + p2 * (c4 + p2 * (c6 + p2 * c8)))
        return DensityValue(value=val, log_value=math.log(val))
    # divide through by e^(3 psi):  [(p-2)e^-p + (p+2)e^-2p] / (1 - e^-p)^3
    em = math.exp(-p)
    log_num = -p + math.log((p - 2.0) + (p + 2.0) * em)
    log_val = log_num - 3.0 * math.log1p(-em)
    return DensityValue.from_log(log_val)


def log_density_gaussian(x, sigma: float):
    """Log density of N(0, sigma) at x (x may be an array)."""
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    x = np.asarray(x, dtype=float)
    out = -0.5 * (x / sigma) ** 2 - math.log(sigma) - _LN_SQRT_2PI
    return out if out.ndim else float(out)


@lru_cache(maxsize=None)
def _legendre_rule():
    """Gauss-Legendre nodes and weights on [-1, 1] for narrow Gaussian windows.

    Seven nodes integrate exp(-m h xi - h^2 xi^2 / 2) to rounding while
    h max(1, |m|) <= 1/2.
    """
    return np.polynomial.legendre.leggauss(7)


def _log_gaussian_mass(lo, hi, center, sigma):
    """ln(Phi((hi-c)/s) - Phi((lo-c)/s)) elementwise, to about 1e-14 relative.

    In units of sigma, let the window have half width h and midpoint m.
    A wide window, h max(1, |m|) > 1/2, takes the difference of
    ``log_ndtr`` at its ends in the lower tail.  That difference cancels
    on a narrow window, to about eps / (2h) relative, so there the mass
    is 2h phi(m) times the mean of phi(m + h xi) / phi(m) over xi in
    (-1, 1), whose log is ln 2h + ln phi(m) + log1p(mean - 1), the mean
    taken by Gauss-Legendre quadrature.
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
            xi, w = _legendre_rule()
            t = np.multiply.outer(-m * h, xi) - np.multiply.outer(0.5 * h * h, xi * xi)
            log_mean = np.log1p(0.5 * (np.expm1(t) @ w))
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
    """Log density of N(center, sigma) truncated to (lo, hi).

    Integrates to one over the window; evaluates to -inf (zero density,
    not an error) outside it.
    """
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    if not lo < hi:
        raise DomainError(f"need lo < hi, got ({lo!r}, {hi!r})")
    x = np.asarray(x, dtype=float)
    log_kernel = -0.5 * ((x - center) / sigma) ** 2 - math.log(sigma) - _LN_SQRT_2PI
    out = np.where(
        (x > lo) & (x < hi),
        log_kernel - _log_truncation_mass(lo, hi, center, sigma),
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
