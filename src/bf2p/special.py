"""Log-space special functions and induced prior densities.

Hosts the Appell F1 two-variable hypergeometric function (via its Euler
integral representation), the closed-form density of the rate difference
eta under independent symmetric Beta priors, the closed-form density of
the log odds ratio psi for the uniform (a = 1) case, and the elementary
log-density helpers used by the numerical tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import betaln, gammaln, log_ndtr, ndtr, ndtri

from .model import DomainError


@dataclass(frozen=True)
class DensityValue:
    """A probability density carried on both linear and log scales."""

    value: float
    log_value: float

    @classmethod
    def from_log(cls, log_value: float) -> "DensityValue":
        return cls(value=math.exp(log_value), log_value=log_value)


def log_beta_fn(a: float, b: float) -> float:
    """ln B(a, b) via log-gamma."""
    if not (a > 0 and b > 0):
        raise DomainError(f"log_beta_fn requires positive arguments, got ({a!r}, {b!r})")
    return float(betaln(a, b))


def appell_f1(a: float, b1: float, b2: float, c: float, x: float, y: float) -> float:
    """Appell's F1 via adaptive quadrature of the Euler integral.

    F1(a; b1, b2; c; x, y) =
        Gamma(c)/(Gamma(a)Gamma(c-a)) *
        integral_0^1 t^(a-1) (1-t)^(c-a-1) (1-x t)^(-b1) (1-y t)^(-b2) dt,

    valid for c > a > 0 and x, y < 1.  Relative accuracy ~1e-9 or better
    across that domain, including the boundary layer that forms near
    t = 1 as x -> 1.
    """
    if not (0.0 < a < c):
        raise DomainError(f"Euler representation needs c > a > 0, got a={a!r}, c={c!r}")
    if not (x < 1.0 and y < 1.0):
        raise DomainError(f"Euler representation needs x, y < 1, got x={x!r}, y={y!r}")
    return _appell_f1(a, b1, b2, c, 1.0 - x, 1.0 - y)


def _appell_f1(a: float, b1: float, b2: float, c: float, u: float, v: float) -> float:
    """F1 at x = 1 - u, y = 1 - v, for u, v > 0 that keep their digits near x, y = 1.

    The Euler integral is split at t = 1/2.  The upper half runs over
    s = 1 - t, where 1 - x t = u + x s exactly, and its boundary layers
    at s ~ u and s ~ v get a breakpoint at every tenfold multiple of u
    and v below 1/2, so each piece sees about one decade of a power law.
    """
    x, y = 1.0 - u, 1.0 - v

    def lower(t):
        return (
            t ** (a - 1.0)
            * (1.0 - t) ** (c - a - 1.0)
            * (1.0 - x * t) ** (-b1)
            * (1.0 - y * t) ** (-b2)
        )

    def upper(s):
        return (
            (1.0 - s) ** (a - 1.0)
            * s ** (c - a - 1.0)
            * (u + x * s) ** (-b1)
            * (v + y * s) ** (-b2)
        )

    pts = set()
    for w in (u, v):
        while 0.0 < w < 0.5:
            pts.add(w)
            w *= 10.0
    opts = dict(epsabs=0.0, epsrel=1e-11, limit=400)
    val = (
        integrate.quad(lower, 0.0, 0.5, **opts)[0]
        + integrate.quad(upper, 0.0, 0.5, points=sorted(pts) or None, **opts)[0]
    )
    return math.exp(gammaln(c) - gammaln(a) - gammaln(c - a)) * val


def eta_density_ib(eta: float, a: float) -> DensityValue:
    """Density of the rate difference theta2 - theta1 under independent Beta(a, a).

    Two-branch closed form in terms of Appell F1; at eta = 0 the branch
    formula degenerates (0 * inf) and the exact value
    B(2a-1, 2a-1) / B(a, a)^2 is used instead.
    """
    if a < 1.0:
        raise DomainError(f"requires a >= 1, got a={a!r}")
    if not abs(eta) <= 1.0:
        raise DomainError(f"eta must lie in [-1, 1], got {eta!r}")
    if abs(eta) <= 1.1e-8:
        # the density is even, so the center value is accurate to
        # O(eta^2) here (O(eta) at the a = 1 kink)
        return DensityValue.from_log(betaln(2 * a - 1, 2 * a - 1) - 2 * betaln(a, a))
    if abs(eta) == 1.0:
        # the (1 - |eta|)^(2a-1) factor vanishes for every a >= 1
        return DensityValue(value=0.0, log_value=-math.inf)
    # F1's arguments sit within |eta| of 1; pass their complements exactly
    e = abs(eta)
    if eta > 0.0:
        f1 = _appell_f1(a, 4 * a - 2, 1 - a, 2 * a, e, e * e)
    else:
        f1 = _appell_f1(a, 1 - a, 4 * a - 2, 2 * a, e * e, e)
    log_val = (
        -betaln(a, a)
        + (2 * a - 1) * (math.log(e) + math.log1p(-e))
        + math.log(f1)
    )
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


_LOG_2PI = math.log(2.0 * math.pi)


def log_density_gaussian(x, sigma: float):
    """Log density of N(0, sigma) at x (x may be an array)."""
    if not sigma > 0:
        raise DomainError(f"sigma must be > 0, got {sigma!r}")
    x = np.asarray(x, dtype=float)
    out = -0.5 * (x / sigma) ** 2 - math.log(sigma) - 0.5 * _LOG_2PI
    return out if out.ndim else float(out)


def _log_gaussian_mass(lo, hi, center, sigma):
    # ln(Phi((hi-c)/s) - Phi((lo-c)/s)) elementwise, without cancellation
    a, b = (lo - center) / sigma, (hi - center) / sigma
    upper = a > 0  # work in the lower tail where log_ndtr is accurate
    a, b = np.where(upper, -b, a), np.where(upper, -a, b)
    la, lb = log_ndtr(a), log_ndtr(b)
    with np.errstate(divide="ignore"):
        out = lb + np.log(-np.expm1(la - lb))
    return out if out.ndim else float(out)


def _ppf_truncated_gaussian(u, sigma, lo, hi, center=0.0):
    # inverse CDF of N(center, sigma) truncated to (lo, hi); each quantile is
    # inverted from its nearer tail, where ndtr and ndtri keep full precision
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
    log_kernel = -0.5 * ((x - center) / sigma) ** 2 - math.log(sigma) - 0.5 * _LOG_2PI
    out = np.where(
        (x > lo) & (x < hi),
        log_kernel - _log_gaussian_mass(lo, hi, center, sigma),
        -np.inf,
    )
    return out if out.ndim else float(out)


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
            out = (a - 1.0) * (np.log(x) + np.log1p(-x)) - betaln(a, a)
    return out if out.ndim else float(out)
