"""Audit the dep-IB, LT, clamped-wedge, dep-IB H0 and H1-core and prior-correlation error estimates against 30-digit mpmath references.

The dep-IB slice is a seeded sample of 100 (study, prior) cells: n1
and n2 log-uniform in 1..1e8, each count at 0, at n or uniform in
between, sigma_eta in {0.05, 0.1, 0.2, 0.5, 1} and sigma_zeta in
{0.1, 0.3, 0.5, 1}.  Per cell
three numbers are checked, each with the error estimate bf2p reports
for it: the H0 log integral, the log integral of the H1 core (both rates
interior) and log BF01.  The output gives, per cell and number, the
value, the reference, the error and the ratio error / estimate; the exit
status is 1 when any ratio of any slice exceeds 1.

The references are computed in mpmath at 30 digits from the model's
definition, sharing no code with bf2p: H0 and the clamped wedges by
mpmath's tanh-sinh quadrature, split at the likelihood's peak and
shoulders, and the core by tensor Gauss-Jacobi rules of 48 nodes and
more per rate from mpmath's own builder, whose sizes grow until two
agree.  Each reaches a relative error of 1e-20.

The LT slice is a seeded sample of 30 cells: n1 and n2 log-uniform in
1..1e8 with counts drawn as above, sigma_beta in {0.5, 1, 2}, sigma_psi
in {0.5, 1, 1.5, 2} and a Gaussian or logistic beta prior.  Its numbers
are the H0 and H1 log integrals, without binomial coefficients, and log
BF01.  Their references integrate in the groups' log odds (beta alone
under H0), whitened at the mode by the Cholesky factor of the inverse
negative Hessian that an mpmath Newton search finds there: the
trapezoid rule over each whole line, nested under H1, whose step halves
until two levels agree to 1e-20 at the integrand's peak of 1.  The
integrands are analytic, so the rule converges geometrically, and
log-concave, so along each line a sum stops once its terms have begun
to fall and are below 1e-23.

The wedge slice checks one clamped dep-IB wedge at a time
(``bf2p.dep_ib._log_wedge``, with nothing to stop it early), its log
integral and error estimate: a seeded sample of 50 cells, the free
rate's counts (y, n) with n log-uniform in 1..1e6 and y at 0, at n or
uniform in between, the zeta prior's centre, measured from the partner's
bound, in {0.3, 0.5, 0.7}, and sigma_eta and sigma_zeta drawn as above;
then fixed cells: likelihood peaks at u = 1/2, where the e window's
upper end min(2u, 1) has its kink, the benchmark panel's wedges, a
narrow prior at small n, and n = 1e6.  Its references are the H1
references' wedges.

The H0 slice checks dep-IB's H0 log integral and error estimate
(``bf2p.dep_ib._log_ml_h0``) on cells where the pooled counts'
Gauss-Jacobi pair does not agree, so that the shared rate's tanh-sinh
pieces give the value: narrow zeta priors (sigma_zeta from 1e-30 to
0.001, centred at 0, 0.3, 0.5 or 1) on studies from (1, 1, 1, 1) to
n = 1e8, among them every study of a grid of pooled counts on which the
log-odds engine that preceded the pieces raised.  Its references are the
dep-IB slice's H0, whose points also split at the H0 integrand's own
peak, at 60 digits.

The core slice checks dep-IB's H1 core (``bf2p.dep_ib._log_core``) on
cores whose rate pair does not agree, so that its graded parts in
(zeta, eta) give the value: two anchors under a zeta window of 1e-12
about 0, zeta a point mass at 1/2, cells of a narrow-prior grid
(sigma_eta and sigma_zeta from 1e-12 to 0.5), narrow eta priors at small
n, and a core whose eta window the diamond cuts at zeta = 1.  Its
references integrate in (zeta, eta) themselves, where the core runs over
the diamond |eta| < 2 min(zeta, 1 - zeta): given zeta, over eta, split at
0, at the diamond's edges and at the peak; then over zeta, whose
marginal is log-concave, in a window closed where it has fallen 75 nats
below its peak, split there, at the peak and at 1/2.  Each quadrature
runs on its points mapped to [0, 1], where mpmath's absolute error
estimate is relative to the integrand's peak, and aims at 30 digits;
the integrands take 45.  When they were pinned, scipy's nested ``quad``
matched every reference but the point mass's to 2.3e-13.  The dep-IB
slice's Gauss-Jacobi core cannot converge where the rate pair does not.

The correlation slice checks the H1 prior correlation of the two rates
and its error estimate (``bf2p.priors._prior_correlation``) on the
extreme grid's priors: LT at sigma_beta, sigma_psi in {0.01, 1, 50}
with either beta prior, and dep-IB at sigma_eta = sigma_zeta in
{0.01, 0.5, 1}, plus the cells the unit tests check, among them LT
priors with scales up to 1e5 and dep-IB priors with sigma_eta from
1e-5 to 1e5.  A cell may raise
``NumericalError``; one that returns counts against the exit status as
above.  The references take the correlation from E[theta1],
E[theta1^2] and E[theta1 theta2] by mpmath's tanh-sinh quadrature of
integrands scaled to peak at about 1.  LT integrates over beta and
psi, nested, in units of their scales, split where the logistic's knee
sits; dep-IB integrates over zeta, split at 1/2, and given zeta takes
the eta integral piece by piece between the clamps' breaks, where both
rates are linear in eta, from the normal CDF and density.  A zeta prior
whose window rounds to its centre is a point mass there, and the
reference is the eta integral alone.

The references take minutes, so they are pinned next to this file, in
``error_audit_refs.json`` (dep-IB), ``error_audit_lt_refs.json`` (LT),
``error_audit_wedge_refs.json`` (wedges), ``error_audit_h0_refs.json``
(H0), ``error_audit_core_refs.json`` (cores) and
``error_audit_correlation_refs.json`` (correlations); ``--pin``
recomputes them all, and ``pin(name)`` one slice's, from Python.

    PYTHONPATH=src python3 tools/error_audit.py --out error_audit.json
    PYTHONPATH=src python3 tools/error_audit.py --pin
    PYTHONPATH=src:tools python3 -c "import error_audit; error_audit.pin('correlation')"
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

from bf2p.dep_ib import _log_core, _log_ml_h0, _log_wedge, bf01_depib
from bf2p.lt import _fit, _log_coeffs, bf01_lt
from bf2p.model import BetaPriorKind, DepIBPrior, Hypothesis, LTPrior, NumericalError, TwoByTwoData, WidePriorWarning
from bf2p.priors import _prior_correlation

REFS = Path(__file__).resolve().with_name("error_audit_refs.json")
LT_REFS = Path(__file__).resolve().with_name("error_audit_lt_refs.json")
CORR_REFS = Path(__file__).resolve().with_name("error_audit_correlation_refs.json")
WEDGE_REFS = Path(__file__).resolve().with_name("error_audit_wedge_refs.json")
H0_REFS = Path(__file__).resolve().with_name("error_audit_h0_refs.json")
CORE_REFS = Path(__file__).resolve().with_name("error_audit_core_refs.json")

SEED = 20261019
SIGMA_ETA = (0.05, 0.1, 0.2, 0.5, 1.0)
SIGMA_ZETA = (0.1, 0.3, 0.5, 1.0)

#: Working digits of the references, and the relative error each quadrature must reach.
DIGITS, REF_TOL = 30, mp.mpf("1e-20")

#: Gauss-Jacobi nodes per rate of the reference core's rules, tried in pairs.
CORE_NODES = (48, 64, 96, 128)

#: Nats below its peak at which the (zeta, eta) reference closes zeta's window, and the digits its
#: quadratures aim at, while their integrands take the working digits.
CLOSE_NATS, QUAD_DIGITS = 75, DIGITS


LT_SEED = 20261020
SIGMA_BETA = (0.5, 1.0, 2.0)
SIGMA_PSI = (0.5, 1.0, 1.5, 2.0)

#: Absolute error target of each whitened LT integral, whose integrand peaks at 1.
LT_ATOL = mp.mpf("1e-20")

WEDGE_SEED = 20261021
WEDGE_CENTERS = (0.3, 0.5, 0.7)

#: ((y, n), zeta centre, sigma_eta, sigma_zeta) of the wedges beyond the sample: peaks at
#: u = 1/2 with no events and half of them, a peak past 1/2, the benchmark panel's wedges
#: under its narrowest and widest eta scales, a narrow prior at small n, and n = 1e6 with
#: no events and with half of them.
WEDGE_CELLS = [
    ((0, 14), 0.5, 0.2, 0.5),
    ((7, 14), 0.5, 0.2, 0.5),
    ((12, 16), 0.5, 0.2, 0.5),
    *(((y, n), 0.5, se, 0.5) for y, n in ((3, 16), (4, 12), (2, 10)) for se in (0.2, 1.0)),
    ((1, 3), 0.5, 0.1, 0.3),
    ((0, 10**6), 0.5, 0.2, 0.5),
    ((500000, 10**6), 0.3, 0.2, 0.5),
]

#: (study, sigma_zeta, zeta centre) of the H0 slice, every one off the pooled pair: first the
#: pooled counts (y, n) = (2, 2) to (50, 50) on which the log-odds engine raised, then a zeta
#: window of 0.001 at n from 1e4 to 1e8, then narrower windows down to 1e-12 at n up to 2e4,
#: about 0 and, finer than the rates' floats resolve near it, about 0.3 or 1/2, then windows on
#: which the engine returned values 182 and 4 times its estimate off, and one of 1e-30 about 0.
H0_CELLS = [
    ((1, 1, 1, 1), 0.001, 0.0),
    ((1, 1, 1, 1), 0.01, 0.0),
    ((2, 2, 1, 1), 0.001, 0.3),
    ((2, 2, 1, 1), 0.001, 0.0),
    ((3, 3, 1, 2), 0.001, 0.0),
    ((3, 3, 2, 2), 0.001, 0.3),
    ((3, 3, 2, 2), 0.001, 0.0),
    ((5, 5, 4, 5), 0.001, 0.3),
    ((5, 5, 4, 5), 0.001, 0.0),
    ((5, 5, 5, 5), 0.001, 0.3),
    ((5, 5, 5, 5), 0.001, 0.0),
    ((10, 10, 9, 10), 0.001, 0.0),
    ((10, 10, 10, 10), 0.001, 0.3),
    ((10, 10, 10, 10), 0.001, 0.0),
    ((25, 25, 25, 25), 0.001, 0.0),
    ((0, 5000, 0, 5000), 0.001, 0.5),
    ((1250, 5000, 1250, 5000), 0.001, 0.3),
    ((125000, 500000, 125000, 500000), 0.001, 0.5),
    ((500000, 500000, 500000, 500000), 0.001, 0.0),
    ((12500000, 50000000, 12500000, 50000000), 0.001, 0.0),
    ((25000000, 50000000, 25000000, 50000000), 0.001, 0.3),
    ((18, 493, 10, 488), 1e-4, 0.5),
    ((18, 493, 10, 488), 1e-12, 0.0),
    ((8, 12, 12, 12), 1e-8, 0.0),
    ((50, 100, 60, 100), 1e-12, 0.0),
    ((2500, 10000, 2600, 10000), 1e-4, 0.5),
    ((0, 10000, 30, 10000), 1e-8, 0.0),
    ((5000, 10000, 5000, 10000), 1e-12, 0.0),
    ((50, 100, 60, 100), 1e-6, 0.3),
    ((18, 493, 10, 488), 1e-8, 0.5),
    ((18, 493, 10, 488), 1e-12, 0.5),
    ((2500, 10000, 2600, 10000), 1e-10, 0.5),
    ((18, 493, 10, 488), 1e-14, 0.3),
    ((0, 10, 0, 10), 1e-7, 0.3),
    ((50, 100, 60, 100), 1e-8, 1.0),
    ((3, 10, 5, 12), 1e-30, 0.0),
]

#: (study, sigma_eta, sigma_zeta, zeta centre) of the core slice, every core off its rate pair:
#: two anchors, a zeta window of 1e-12 about 0 under a wide and a narrow eta prior; zeta a point
#: mass at 1/2; then cells of the narrow-prior grid, a narrow eta prior under a wide zeta prior,
#: narrow zeta windows about 0 and about 1/2, and both narrow; then narrow eta priors at small n,
#: whose cores went past the log-odds engine's Gauss-Hermite ladder to tanh-sinh; then a core
#: whose eta window the diamond cuts at zeta = 1 (every event in both groups).
CORE_CELLS = [
    ((0, 16, 3, 16), 0.2, 1e-12, 0.0),
    ((18, 493, 10, 488), 1e-12, 1e-12, 0.0),
    ((18, 493, 10, 488), 0.2, 1e-300, 0.5),
    ((18, 493, 10, 488), 1e-4, 0.5, 0.5),
    ((50, 100, 60, 100), 0.2, 1e-8, 0.0),
    ((3, 10, 5, 12), 0.2, 1e-4, 0.5),
    ((0, 100, 3, 100), 0.01, 1e-12, 0.0),
    ((8, 12, 12, 12), 1e-8, 1e-4, 0.5),
    ((1, 2, 0, 2), 0.01, 0.01, 0.5),
    ((0, 3, 0, 3), 0.05, 0.5, 0.5),
    ((7, 7, 2, 9), 0.05, 0.3, 0.5),
    ((2, 2, 4, 4), 2.5e-5, 0.1, 0.5),
]

#: The extreme grid's prior scales: LT's sigma_beta and sigma_psi, and dep-IB's sigma_eta = sigma_zeta.
CORR_LT_SCALES = (0.01, 1.0, 50.0)
CORR_DEPIB_SCALES = (0.01, 0.5, 1.0)

#: Cells the unit tests check beyond the grid: LT, dep-IB's (sigma_eta, sigma_zeta, zeta_center),
#: LT priors far wider than the grid's, dep-IB priors whose clamp's knee leaves eta's
#: window inside zeta's (sigma_eta well below sigma_zeta) or whose eta prior is all but flat,
#: and a zeta prior that is a point mass.
CORR_TEST_CELLS = [
    ("lt", 1.0, 3.0, "gaussian"),
    ("lt", 5.0, 1.0, "gaussian"),
    ("lt", 1.0, 10.0, "gaussian"),
    ("dep_ib", 0.2, 0.5, 0.5),
    ("dep_ib", 0.4, 0.5, 0.5),
    ("dep_ib", 1.0, 0.5, 0.5),
    ("dep_ib", 0.2, 0.5, 0.0),
    ("lt", 150.0, 150.0, "gaussian"),
    ("lt", 1e4, 1.0, "gaussian"),
    ("lt", 1.0, 1e5, "gaussian"),
    ("lt", 100.0, 100.0, "logistic"),
    ("dep_ib", 0.001, 0.5, 0.5),
    ("dep_ib", 1e-5, 0.3, 0.5),
    ("dep_ib", 0.05, 0.3, 0.5),
    ("dep_ib", 0.01, 0.001, 0.3),
    ("dep_ib", 10.0, 0.5, 0.5),
    ("dep_ib", 1e5, 0.5, 0.5),
    ("dep_ib", 0.5, 1e-300, 0.3),
]


def _group(rng, decades: float) -> tuple[int, int]:
    """(y, n): n log-uniform in 1..10^decades, y at 0, at n or uniform in between."""
    n = int(round(10.0 ** rng.uniform(0.0, decades)))
    kind = rng.integers(3)
    return 0 if kind == 0 else n if kind == 1 else int(rng.integers(0, n + 1)), n


def _counts(rng) -> tuple[int, int, int, int]:
    """n1 and n2 log-uniform in 1..1e8, each count at 0, at n or uniform in between."""
    return _group(rng, 8.0) + _group(rng, 8.0)


def sample() -> list[tuple[tuple[int, int, int, int], float, float]]:
    """The dep-IB slice's 100 (counts, sigma_eta, sigma_zeta) cells."""
    rng = np.random.default_rng(SEED)
    return [(_counts(rng), float(rng.choice(SIGMA_ETA)), float(rng.choice(SIGMA_ZETA))) for _ in range(100)]


def wedge_sample() -> list[tuple[tuple[int, int], float, float, float]]:
    """The wedge slice's ((y, n), zeta centre, sigma_eta, sigma_zeta) cells: 50 drawn, then ``WEDGE_CELLS``."""
    rng = np.random.default_rng(WEDGE_SEED)
    drawn = [
        (_group(rng, 6.0), float(rng.choice(WEDGE_CENTERS)), float(rng.choice(SIGMA_ETA)), float(rng.choice(SIGMA_ZETA)))
        for _ in range(50)
    ]
    return drawn + WEDGE_CELLS


def correlation_sample() -> list[tuple[str, float, float, str | float]]:
    """The correlation slice's (family, scale, scale, beta prior or zeta centre) cells."""
    cells = [("lt", sb, sp, kind) for kind in ("gaussian", "logistic") for sb in CORR_LT_SCALES for sp in CORR_LT_SCALES]
    return cells + [("dep_ib", s, s, 0.5) for s in CORR_DEPIB_SCALES] + CORR_TEST_CELLS


def lt_sample() -> list[tuple[tuple[int, int, int, int], float, float, str]]:
    """The LT slice's 30 (counts, sigma_beta, sigma_psi, beta prior) cells."""
    rng = np.random.default_rng(LT_SEED)
    out = []
    for _ in range(30):
        counts = _counts(rng)
        sb, sp = float(rng.choice(SIGMA_BETA)), float(rng.choice(SIGMA_PSI))
        out.append((counts, sb, sp, str(rng.choice(["gaussian", "logistic"]))))
    return out


# --------------------------------------------------------------------------
# References
# --------------------------------------------------------------------------


def _quad(f, points):
    """Tanh-sinh over the sorted, distinct ``points`` in [0, 1], to ``REF_TOL`` relative.

    mpmath's error estimate has an absolute floor, so f is scaled by its
    largest value at the inner points first.
    """
    pts = sorted(set(p for p in points if 0 <= p <= 1))
    scale = max(abs(f(p)) for p in pts[1:-1] or [mp.mpf(1) / 2])
    val, err = mp.quad(lambda t: f(t) / scale, pts, error=True, maxdegree=10)
    if not err <= REF_TOL * abs(val):
        raise ArithmeticError(f"reference quadrature reached only {mp.nstr(err / abs(val), 3)}")
    return val * scale


@lru_cache(maxsize=None)
def _jacobi(a: int, b: int, m: int):
    """Nodes t and weights of mpmath's m-point Gauss-Jacobi rule for t^b (1 - t)^a on (0, 1), at 50 digits."""
    with mp.workdps(50):
        x, w = mp.gauss_quadrature(m, "jacobi", a, b)
        return [(1 + xi) / 2 for xi in x], [wi / mp.mpf(2) ** (a + b + 1) for wi in w]


def _peak_points(y: int, n: int):
    """The peak of the likelihood t^y (1 - t)^(n - y), and points 1.5, 4.5, 14 and 37 of its widths either side."""
    mode = mp.mpf(y) / n
    width = mp.sqrt(max(mode * (1 - mode), mp.mpf(1) / n) / n)
    return [mode] + [mode + s * k * width for k in (1.5, 4.5, 14, 37) for s in (-1, 1)]


class _Reference:
    """The marginals of one (study, prior) cell, without binomial coefficients, in mpmath."""

    def __init__(self, counts, sigma_eta: float, sigma_zeta: float, zeta_center: float = 0.5):
        self.y1, self.n1, self.y2, self.n2 = counts
        self.se, self.sz, self.zc = mp.mpf(sigma_eta), mp.mpf(sigma_zeta), mp.mpf(zeta_center)
        self.log_norm_eta = mp.log(mp.ncdf(1 / self.se) - mp.ncdf(-1 / self.se)) + mp.log(self.se * mp.sqrt(2 * mp.pi))
        # a window c +/- 9 sigma_zeta that rounds to c in floats is a point mass there, with no density
        self.point = zeta_center - 9 * sigma_zeta == zeta_center == zeta_center + 9 * sigma_zeta
        self.log_norm_zeta = None if self.point else mp.log(mp.ncdf((1 - self.zc) / self.sz) - mp.ncdf(-self.zc / self.sz)) + mp.log(
            self.sz * mp.sqrt(2 * mp.pi)
        )

    @staticmethod
    def _log_peak(y, n):
        return sum(k * mp.log(mp.mpf(k) / n) for k in (y, n - y) if k)

    @staticmethod
    def _lik(y, n, t, log_peak):
        return mp.exp(y * mp.log(t) + (n - y) * mp.log1p(-t) - log_peak) if 0 < t < 1 else mp.mpf(0)

    def _log_p_eta(self, e):
        return -((e / self.se) ** 2) / 2 - self.log_norm_eta

    def _log_p_zeta(self, z):
        return -(((z - self.zc) / self.sz) ** 2) / 2 - self.log_norm_zeta

    def _h0_peak_points(self, y, n):
        """The peak of the H0 integrand t^y (1 - t)^(n - y) p(t), which lies between the
        likelihood's peak and the zeta prior's centre, by bisection of its slope, and points
        1.5, 4.5, 14 and 37 of its widths either side."""
        lo, hi = sorted((mp.mpf(y) / n, self.zc))
        terms = lambda t, k: (y / t**k if y else 0, (n - y) / (1 - t) ** k if n - y else 0)
        for _ in range(400):
            mid = (lo + hi) / 2
            a, b = terms(mid, 1)
            lo, hi = (mid, hi) if a - b - (mid - self.zc) / self.sz**2 > 0 else (lo, mid)
        width = 1 / mp.sqrt(sum(terms(lo, 2)) + 1 / self.sz**2)
        return [lo + s * k * width for k in (0, 1.5, 4.5, 14, 37) for s in (-1, 1)]

    def h0(self):
        y, n = self.y1 + self.y2, self.n1 + self.n2
        peak = self._log_peak(y, n)
        f = lambda t: self._lik(y, n, t, peak) * mp.exp(self._log_p_zeta(t))
        return peak + mp.log(_quad(f, [0, 1] + _peak_points(y, n) + self._h0_peak_points(y, n)))

    def core(self):
        """Tensor Gauss-Jacobi rules of mpmath in the rates, whose weights carry the likelihoods.

        The rule sizes in ``CORE_NODES`` are tried in pairs until two agree to ``REF_TOL``.
        """
        prev = None
        for m in CORE_NODES:
            (t1, w1), (t2, w2) = _jacobi(self.n1 - self.y1, self.y1, m), _jacobi(self.n2 - self.y2, self.y2, m)
            total = mp.fsum(
                a * b * mp.exp(self._log_p_eta(u - v) + self._log_p_zeta((u + v) / 2))
                for v, a in zip(t1, w1)
                for u, b in zip(t2, w2)
            )
            cur = mp.log(total)
            if prev is not None and abs(cur - prev) <= REF_TOL:
                return cur
            prev = cur
        raise ArithmeticError(f"reference core rules disagree by {mp.nstr(abs(cur - prev), 3)}")

    def diamond_core(self):
        """The core in (zeta, eta), where it runs over the diamond |eta| < 2 min(zeta, 1 - zeta)
        with no Jacobian, as nested tanh-sinh integrals.

        Given zeta, the eta integral is split at 0, at the diamond's edges and at its peak (the
        sign of its slope halved to the working precision); zeta's marginal is log-concave, so
        golden sections find its peak, and steps that double from a quarter of the narrowest of
        sigma_zeta, sigma_eta and 1 / n close its window where it has fallen ``CLOSE_NATS`` below
        the peak (or at 0 or 1); the zeta integral is split there, at its peak and at the kink
        1/2.  An eta integral's error counts at its share of the peak.  A point-mass zeta leaves
        the eta integral at its centre.
        """
        peaks = self._log_peak(self.y1, self.n1) + self._log_peak(self.y2, self.n2)
        # (count, sign of eta in its rate, the count's factor is 1 - rate) of the four factors
        factors = [
            (k, sign, comp)
            for k, sign, comp in ((self.y1, -1, 0), (self.n1 - self.y1, -1, 1), (self.y2, 1, 0), (self.n2 - self.y2, 1, 1))
            if k
        ]

        def log_f(z, e):  # relative to the likelihoods' peaks; 0 past a diamond's edge that a node rounds over
            out = self._log_p_eta(e) - peaks
            for k, sign, comp in factors:
                t = z + sign * e / 2
                if not (t := 1 - t if comp else t) > 0:
                    return mp.ninf
                out += k * mp.log(t)
            return out

        def slope(z, e):
            out = -e / self.se**2
            for k, sign, comp in factors:
                t = z + sign * e / 2
                out += k * sign / 2 * (-1 / (1 - t) if comp else 1 / t)
            return out

        def quad(f, points, degree):
            """(integral, error) of f over the sorted ``points`` by mpmath's tanh-sinh at ``QUAD_DIGITS``, as
            much as ``REF_TOL`` asks, on the points mapped to [0, 1], where its absolute error estimate is
            relative to a peak of about 1; f is taken at the working digits."""
            digits, a, span = mp.mp.dps, points[0], points[-1] - points[0]

            def at_working_digits(t):
                with mp.workdps(digits):
                    return f(a + span * t)

            with mp.workdps(QUAD_DIGITS):  # points that round together are one
                val, err = mp.quad(at_working_digits, sorted({+((p - a) / span) for p in points}), error=True, maxdegree=degree)
            return val * span, err * span

        def over_eta(z):
            """(log of the eta integral at z, its relative error)."""
            edge = 2 * min(z, 1 - z)
            lo, hi = -edge, edge
            for _ in range(mp.mp.prec):
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if slope(z, mid) > 0 else (lo, mid)
            top = log_f(z, lo)
            val, err = quad(lambda e: mp.exp(log_f(z, e) - top), sorted((-edge, mp.mpf(0), lo, edge)), 10)
            return top + mp.log(val), err / val

        if self.point:
            val, rel = over_eta(self.zc)
            if not rel <= REF_TOL:
                raise ArithmeticError(f"reference eta integral reached only {mp.nstr(rel, 3)}")
            return peaks + val
        top, worst = mp.mpf("-inf"), mp.mpf(0)  # zeta's peak, and the largest relative error of an eta integral, weighted against it

        def log_m(z):
            nonlocal worst
            val, rel = over_eta(z)
            val += self._log_p_zeta(z)
            worst = max(worst, rel * mp.exp(val - top))
            return val

        a, b, g = mp.mpf(0), mp.mpf(1), (mp.sqrt(5) - 1) / 2
        (x1, f1), (x2, f2) = ((x, log_m(x)) for x in (b - g * (b - a), a + g * (b - a)))
        while b - a > REF_TOL * b:
            if f1 > f2:
                b, (x2, f2) = x2, (x1, f1)
                x1 = b - g * (b - a)
                f1 = log_m(x1)
            else:
                a, (x1, f1) = x1, (x2, f2)
                x2 = a + g * (b - a)
                f2 = log_m(x2)
        (peak, top), worst = max((x1, f1), (x2, f2), key=lambda p: p[1]), mp.mpf(0)
        ends = []
        for sign in (-1, 1):
            step = min(self.sz, self.se, mp.mpf(1) / (self.n1 + self.n2)) / 4
            while 0 < peak + sign * step < 1 and log_m(peak + sign * step) > top - CLOSE_NATS:
                step *= 2
            ends.append(min(max(peak + sign * step, mp.mpf(0)), mp.mpf(1)))
        pts = sorted({ends[0], peak, ends[1]} | ({mp.mpf(1) / 2} if ends[0] < mp.mpf(1) / 2 < ends[1] else set()))
        val, err = quad(lambda z: mp.exp(log_m(z) - top), pts, 8)
        if not max(err / val, worst) <= REF_TOL:
            raise ArithmeticError(f"reference core reached only {mp.nstr(max(err / val, worst), 3)}")
        return peaks + top + mp.log(val)

    def wedge(self, y, n, center):
        """One clamped wedge: the free rate u from its partner's bound, e = |eta| in (u, min(2u, 1))."""
        peak = self._log_peak(y, n)
        # the exponent in e is -A e^2 + B e + C, integrated in closed form
        a = 1 / (2 * self.se**2) + 1 / (8 * self.sz**2)

        def f(u):
            lik = self._lik(y, n, u, peak)
            if not lik:
                return lik
            b = (u - center) / (2 * self.sz**2)
            c = -((u - center) ** 2) / (2 * self.sz**2)
            r = mp.sqrt(a)
            with mp.extradps(40):  # the window (u, 2u) narrows with u, and erf differences cancel on it
                lo, hi = r * (u - b / (2 * a)), r * (min(2 * u, 1) - b / (2 * a))
                diff = mp.erfc(lo) - mp.erfc(hi) if lo > 0 else mp.erfc(-hi) - mp.erfc(-lo)
            mass = mp.sqrt(mp.pi) / (2 * r) * diff
            return lik * mp.exp(c + b * b / (4 * a) - self.log_norm_eta - self.log_norm_zeta) * mass

        return peak + mp.log(_quad(f, [0, mp.mpf(1) / 2, 1] + _peak_points(y, n)))

    def h1(self, core):
        zc = self.zc
        parts = [core]
        wedges = (
            (self.y1 == 0, self.y2, self.n2, zc),
            (self.y2 == self.n2, self.n1 - self.y1, self.n1, 1 - zc),
            (self.y2 == 0, self.y1, self.n1, zc),
            (self.y1 == self.n1, self.n2 - self.y2, self.n2, 1 - zc),
        )
        parts += [self.wedge(y, n, c) for on, y, n, c in wedges if on]
        top = max(parts)
        return top + mp.log(mp.fsum(mp.exp(p - top) for p in parts))


def _line(f, atol):
    """Integral of f over the real line by the trapezoid rule, to ``atol``.

    f is analytic and log-concave, so the rule converges geometrically as
    its step halves from 1/2 (until two levels agree to ``atol``), and on
    each side of 0 f falls for good once it falls: each sum stops there
    once its terms are below atol / 1000.
    """
    total, prev = mp.mpf(0), None
    for level in range(10):
        h = mp.mpf(2) ** -(level + 1)
        first, stride = (0, 1) if level == 0 else (1, 2)  # new nodes: all at level 0, odd multiples after
        for sign in (1, -1):
            last, k = None, first if sign == 1 else max(first, 1)
            while True:
                fz = f(sign * k * h)
                total += fz
                if last is not None and fz < last and fz * h < atol / 1000:
                    break
                if k * h > 10**4:
                    raise ArithmeticError("reference integrand not negligible at |z| = 1e4")
                last, k = fz, k + stride
        cur = h * total
        if prev is not None and abs(cur - prev) <= atol:
            return cur
        prev = cur
    raise ArithmeticError("reference trapezoid levels did not agree")


def _log_lik(y, n, x):
    """y log sigma(x) + (n - y) log sigma(-x), as two terms of one sign."""
    if x > 0:
        return -(n - y) * x - n * mp.log1p(mp.exp(-x))
    return y * x - n * mp.log1p(mp.exp(x))


def _lik_derivatives(y, n, x):
    s, c = 1 / (1 + mp.exp(-x)), 1 / (1 + mp.exp(x))
    return y * c - (n - y) * s, -n * s * c


class _LTReference:
    """The LT marginals of one (study, prior) cell, without binomial coefficients, in mpmath.

    H1 is integrated in the groups' log odds x = (beta - psi/2, beta + psi/2),
    whose Jacobian is 1, H0 in beta; each whitened at its mode.
    """

    def __init__(self, counts, sigma_beta: float, sigma_psi: float, beta_prior: str):
        self.y1, self.n1, self.y2, self.n2 = counts
        self.sb, self.sp, self.logistic = mp.mpf(sigma_beta), mp.mpf(sigma_psi), beta_prior == "logistic"
        self.log_cb = mp.log(self.sb) if self.logistic else mp.log(self.sb * mp.sqrt(2 * mp.pi))
        self.log_cp = mp.log(self.sp * mp.sqrt(2 * mp.pi))

    def _log_p_beta(self, b):
        if self.logistic:
            z = abs(b) / self.sb
            return -z - 2 * mp.log1p(mp.exp(-z)) - self.log_cb
        return -((b / self.sb) ** 2) / 2 - self.log_cb

    def _p_beta_derivatives(self, b):
        if self.logistic:
            t = mp.tanh(b / (2 * self.sb))
            return -t / self.sb, -(1 - t * t) / (2 * self.sb**2)
        return -b / self.sb**2, -1 / self.sb**2

    def _log_p_psi(self, p):
        return -((p / self.sp) ** 2) / 2 - self.log_cp

    @staticmethod
    def _mode(g, derivatives, x):
        """Damped Newton to the mode of the concave g; the mode and the Hessian there, as (a,) or (a, b, c)."""
        gx = g(*x)
        for _ in range(500):
            grad, hess = derivatives(*x)
            if len(x) == 1:
                step = [-grad[0] / hess[0]]
            else:
                a, b, c = hess
                det = a * c - b * b
                step = [-(c * grad[0] - b * grad[1]) / det, -(a * grad[1] - b * grad[0]) / det]
            t = mp.mpf(1)
            while True:
                trial = [xi + t * si for xi, si in zip(x, step)]
                g_trial = g(*trial)
                if g_trial >= gx or t < mp.mpf(10) ** -40:
                    break
                t /= 2
            x, gx = trial, g_trial
            if max(abs(t * si) for si in step) <= 100 * mp.eps * (1 + max(abs(xi) for xi in x)):
                return x, derivatives(*x)[1]
        raise ArithmeticError("reference mode search did not converge")

    @staticmethod
    def _start(y, n):
        return mp.log((y + mp.mpf(1) / 2) / (n - y + mp.mpf(1) / 2))

    def h0(self):
        y, n = self.y1 + self.y2, self.n1 + self.n2

        def g(b):
            return _log_lik(y, n, b) + self._log_p_beta(b)

        def derivatives(b):
            (gl, hl), (gp, hp) = _lik_derivatives(y, n, b), self._p_beta_derivatives(b)
            return [gl + gp], [hl + hp]

        (m,), (h,) = self._mode(g, derivatives, [self._start(y, n)])
        s, peak = 1 / mp.sqrt(-h), g(m)
        return peak + mp.log(s * _line(lambda z: mp.exp(g(m + s * z) - peak), LT_ATOL))

    def h1(self):
        y1, n1, y2, n2 = self.y1, self.n1, self.y2, self.n2

        def g(x1, x2):
            return _log_lik(y1, n1, x1) + _log_lik(y2, n2, x2) + self._log_p_beta((x1 + x2) / 2) + self._log_p_psi(x2 - x1)

        def derivatives(x1, x2):
            (g1, h1), (g2, h2) = _lik_derivatives(y1, n1, x1), _lik_derivatives(y2, n2, x2)
            pg, ph = self._p_beta_derivatives((x1 + x2) / 2)
            qg, qh = -(x2 - x1) / self.sp**2, -1 / self.sp**2
            grad = [g1 + pg / 2 - qg, g2 + pg / 2 + qg]
            return grad, [h1 + ph / 4 + qh, ph / 4 - qh, h2 + ph / 4 + qh]

        (m1, m2), (a, b, c) = self._mode(g, derivatives, [self._start(y1, n1), self._start(y2, n2)])
        # x = mode + L z, with L L' the inverse of minus the Hessian
        det = a * c - b * b
        l11 = mp.sqrt(-c / det)
        l21 = b / det / l11
        l22 = mp.sqrt(-a / det - l21 * l21)
        peak = g(m1, m2)

        def outer(z1):
            x1 = m1 + l11 * z1
            base, x2_at_0 = _log_lik(y1, n1, x1) - peak, m2 + l21 * z1

            def inner(z2):
                x2 = x2_at_0 + l22 * z2
                return mp.exp(base + _log_lik(y2, n2, x2) + self._log_p_beta((x1 + x2) / 2) + self._log_p_psi(x2 - x1))

            # an inner error enters the outer sum times the step, over some
            # 100 / step nodes: at 1 / 1000 of the outer target their sum stays below a tenth of it
            return _line(inner, LT_ATOL / 1000)

        return peak + mp.log(l11 * l22 * _line(outer, LT_ATOL))


def lt_reference(counts, sigma_beta: float, sigma_psi: float, beta_prior: str) -> dict[str, str]:
    """30-digit references of one LT cell, as decimal strings."""
    with mp.workdps(DIGITS):
        ref = _LTReference(counts, sigma_beta, sigma_psi, beta_prior)
        h0, h1 = ref.h0(), ref.h1()
        return {"h0": mp.nstr(h0, DIGITS), "h1": mp.nstr(h1, DIGITS), "log_bf01": mp.nstr(h0 - h1, DIGITS)}


def reference(counts, sigma_eta: float, sigma_zeta: float) -> dict[str, str]:
    """30-digit references of one cell, as decimal strings."""
    with mp.workdps(DIGITS):
        ref = _Reference(counts, sigma_eta, sigma_zeta)
        h0, core = ref.h0(), ref.core()
        h1 = ref.h1(core)
        return {"h0": mp.nstr(h0, DIGITS), "core": mp.nstr(core, DIGITS), "log_bf01": mp.nstr(h0 - h1, DIGITS)}


def wedge_reference(counts, center: float, sigma_eta: float, sigma_zeta: float) -> dict[str, str]:
    """The 30-digit reference of one wedge, as a decimal string.

    The wedge is the first of study (0, n, y, n), theta1 clamped to 0,
    under a zeta prior at ``center``.
    """
    y, n = counts
    with mp.workdps(DIGITS):
        wedge = _Reference((0, n, y, n), sigma_eta, sigma_zeta, center).wedge(y, n, mp.mpf(center))
        return {"wedge": mp.nstr(wedge, DIGITS)}


def h0_reference(counts, sigma_zeta: float, zeta_center: float) -> dict[str, str]:
    """The 30-digit reference of one H0 cell, as a decimal string.

    It works at twice the digits: a zeta window of 1e-14 about 0.3 needs the rate to 35.
    """
    with mp.workdps(2 * DIGITS):
        return {"h0": mp.nstr(_Reference(counts, 0.2, sigma_zeta, zeta_center).h0(), DIGITS)}


def core_reference(counts, sigma_eta: float, sigma_zeta: float, zeta_center: float) -> dict[str, str]:
    """The 30-digit reference of one H1 core in (zeta, eta), as a decimal string.

    It works at 45 digits: the rates zeta -/+ eta/2 near the diamond's edges cancel.
    """
    with mp.workdps(DIGITS + 15):
        core = _Reference(counts, sigma_eta, sigma_zeta, zeta_center).diamond_core()
        return {"core": mp.nstr(core, DIGITS)}


def _ts(f, points):
    """Tanh-sinh over the sorted, distinct ``points``, to ``REF_TOL`` absolute: f peaks at about 1."""
    val, err = mp.quad(f, sorted(set(points)), error=True, maxdegree=8)
    if not err <= REF_TOL:
        raise ArithmeticError(f"reference quadrature reached only {mp.nstr(err, 3)}")
    return val


def _lt_correlation(sigma_beta, sigma_psi, beta_prior: str):
    """The LT prior correlation, from the moments of tanh(x/2) = 2 theta - 1 at x = beta -/+ psi/2.

    Both rates have mean 1/2, and one variance; beta = sigma_beta y and
    psi = sigma_psi z in units of their scales.  The cross moment
    E[tanh(x1/2) tanh(x2/2)] is even in y and in z; given z, its knees in
    y sit at +/- (psi/2) / sigma_beta, and over z it changes on the scale
    2 max(1, sigma_beta) / sigma_psi.  The Gaussian-beta variance is a 1-D
    integral over x, whose scale is hypot(sigma_beta, sigma_psi/2).
    """
    sb, sp, logistic = mp.mpf(sigma_beta), mp.mpf(sigma_psi), beta_prior == "logistic"
    top = 100 if logistic else 12  # in units of the scale; what lies beyond is below 1e-40

    def k_beta(y):  # beta's density in units of its scale, up to a constant factor
        if logistic:
            e = mp.exp(-abs(y))
            return 4 * e / (1 + e) ** 2
        return mp.exp(-y * y / 2)

    # the logistic's tail is long against its scale, so its lines split at powers of 2 as well
    splits = [s * 2**k for k in range(7) for s in (1, -1)] if logistic else []

    def over_beta(g, half_psi, lo):
        knees = [k for k in (half_psi / sb, -half_psi / sb, *splits) if lo < k < top]
        return _ts(lambda y: k_beta(y) * g(sb * y, half_psi), [lo, top] + knees)

    scale = 2 * max(1, sb) / sp
    z_points = [0, 12] + [k * scale for k in (0.5, 1, 2, 4, 8) if k * scale < 12]

    def over_psi(g, lo):
        return _ts(lambda z: mp.exp(-z * z / 2) * over_beta(g, sp * z / 2, lo), z_points)

    cross = over_psi(lambda b, p: mp.tanh((b - p) / 2) * mp.tanh((b + p) / 2), 0)
    if logistic:  # over y the cross moment takes half the line and the variance the whole
        square = over_psi(lambda b, p: mp.tanh((b - p) / 2) ** 2, -top) / 2
        return cross / square
    s = mp.sqrt(sb**2 + sp**2 / 4)
    square = _ts(lambda z: mp.exp(-z * z / 2) * mp.tanh(s * z / 2) ** 2, [0, 12] + [k / s for k in (1, 4) if k / s < 12])
    # the cross moment is a 2-D integral over the quarter plane and the variance a 1-D one over the half line
    return cross / (square * mp.sqrt(2 * mp.pi) / 2)


def _depib_correlation(sigma_eta, sigma_zeta, zeta_center):
    """The dep-IB prior correlation from E[theta1], E[theta1^2] and E[theta1 theta2]."""
    se, sz, zc = mp.mpf(sigma_eta), mp.mpf(sigma_zeta), mp.mpf(zeta_center)

    @lru_cache(maxsize=None)
    def given_zeta(zeta):
        """The four moments 1, theta1, theta1^2, theta1 theta2 over eta in (-1, 1), unnormalized."""
        breaks = sorted({mp.mpf(-1), mp.mpf(1)} | {x for x in (2 * zeta, 2 * zeta - 2, 2 - 2 * zeta, -2 * zeta) if -1 < x < 1})
        out = [mp.mpf(0)] * 4
        for lo, hi in zip(breaks, breaks[1:]):
            mid = (lo + hi) / 2

            def rate(sign):  # value at mid and slope in eta of zeta + sign eta/2, clamped to [0, 1]
                v = zeta + sign * mid / 2
                return (v, sign * mp.mpf(1) / 2) if 0 < v < 1 else (min(max(v, 0), 1), 0)

            (a1, g1), (a2, g2) = rate(-1), rate(1)
            # moments of (eta - mid)^k over the piece under N(0, sigma_eta)
            u, v = lo / se, hi / se
            m0 = mp.ncdf(v) - mp.ncdf(u)
            m1 = se * (mp.npdf(u) - mp.npdf(v))
            m2 = se**2 * (m0 + u * mp.npdf(u) - v * mp.npdf(v))
            p0, p1, p2 = m0, m1 - mid * m0, m2 - 2 * mid * m1 + mid * mid * m0
            out[0] += p0
            out[1] += a1 * p0 + g1 * p1
            out[2] += a1 * a1 * p0 + 2 * a1 * g1 * p1 + g1 * g1 * p2
            out[3] += a1 * a2 * p0 + (a1 * g2 + a2 * g1) * p1 + g1 * g2 * p2
        return out

    if zeta_center - 9 * sigma_zeta == zeta_center == zeta_center + 9 * sigma_zeta:  # zeta is a point mass
        mass, m1, m11, m12 = given_zeta(zc)
    else:
        points = [0, mp.mpf(1) / 2, 1] + [x for x in (zc - 3 * sz, zc + 3 * sz, se / 2, 1 - se / 2) if 0 < x < 1]
        mass, m1, m11, m12 = (
            _ts(lambda z: mp.exp(-(((z - zc) / sz) ** 2) / 2) * given_zeta(z)[k], points) for k in range(4)
        )
    m1, m11, m12 = m1 / mass, m11 / mass, m12 / mass
    return (m12 - m1 * m1) / (m11 - m1 * m1)


def correlation_reference(family: str, a: float, b: float, c) -> dict[str, str]:
    """The 30-digit reference of one correlation cell, as a decimal string."""
    with mp.workdps(DIGITS):
        corr = _lt_correlation(a, b, c) if family == "lt" else _depib_correlation(a, b, c)
        return {"corr": mp.nstr(corr, DIGITS)}


# --------------------------------------------------------------------------
# The audit
# --------------------------------------------------------------------------


def cell_key(counts, *prior) -> str:
    """The refs key of a cell: its counts (a correlation cell's family), then its prior's fields."""
    return "|".join([counts if isinstance(counts, str) else ",".join(map(str, counts)), *map(str, prior)])


def _checked(got: dict, refs: dict[str, str]) -> dict:
    """Per number: bf2p's value and error estimate against the reference, and error / estimate."""
    out = {}
    for name, (value, estimate) in got.items():
        with mp.workdps(DIGITS):  # the reference keeps its digits
            error = abs(float(mp.mpf(value) - mp.mpf(refs[name])))
        out[name] = {"value": value, "reference": refs[name], "error": error, "estimate": estimate, "ratio": error / estimate}
    return out


def audit_cell(counts, sigma_eta: float, sigma_zeta: float, refs: dict[str, str]) -> dict:
    """bf2p's three numbers for one dep-IB cell against its references."""
    d, cfg = TwoByTwoData(*counts), DepIBPrior(sigma_eta, sigma_zeta)
    ml0, err0 = _log_ml_h0(d, cfg)
    res = bf01_depib(d, cfg)
    got = {
        # taking the coefficients off again adds about one ulp of the log integral
        "h0": (ml0 - _log_coeffs(d), err0),
        "core": _log_core(d, cfg),
        "log_bf01": (res.log_bf01, res.abs_error_estimate),
    }
    return {"counts": list(counts), "sigma_eta": sigma_eta, "sigma_zeta": sigma_zeta} | _checked(got, refs)


def audit_lt_cell(counts, sigma_beta: float, sigma_psi: float, beta_prior: str, refs: dict[str, str]) -> dict:
    """bf2p's three numbers for one LT cell against its references."""
    d, prior = TwoByTwoData(*counts), LTPrior(sigma_beta, sigma_psi, BetaPriorKind(beta_prior))
    res = bf01_lt(d, sigma_beta, sigma_psi, prior.beta_prior)
    got = {
        "h0": tuple(_fit(d, Hypothesis.H0, prior)[2:]),
        "h1": tuple(_fit(d, Hypothesis.H1, prior)[2:]),
        "log_bf01": (res.log_bf01, res.abs_error_estimate),
    }
    head = {"counts": list(counts), "sigma_beta": sigma_beta, "sigma_psi": sigma_psi, "beta_prior": beta_prior}
    return head | _checked(got, refs)


def audit_wedge_cell(counts, center: float, sigma_eta: float, sigma_zeta: float, refs: dict[str, str]) -> dict:
    """bf2p's log integral of one clamped wedge against its reference."""
    got = {"wedge": _log_wedge(*counts, center, DepIBPrior(sigma_eta, sigma_zeta), -math.inf)}
    head = {"counts": list(counts), "center": center, "sigma_eta": sigma_eta, "sigma_zeta": sigma_zeta}
    return head | _checked(got, refs)


def audit_h0_cell(counts, sigma_zeta: float, zeta_center: float, refs: dict[str, str]) -> dict:
    """bf2p's H0 log integral of one dep-IB cell against its reference."""
    d = TwoByTwoData(*counts)
    ml0, err0 = _log_ml_h0(d, DepIBPrior(0.2, sigma_zeta, zeta_center))
    head = {"counts": list(counts), "sigma_zeta": sigma_zeta, "zeta_center": zeta_center}
    return head | _checked({"h0": (ml0 - _log_coeffs(d), err0)}, refs)


def audit_core_cell(counts, sigma_eta: float, sigma_zeta: float, zeta_center: float, refs: dict[str, str]) -> dict:
    """bf2p's log integral of one H1 core against its reference.

    A zeta window of 1e-300 overflows its Gaussian kernel's square, which ``dep_ib._log_ml`` silences.
    """
    with np.errstate(over="ignore"):
        got = {"core": _log_core(TwoByTwoData(*counts), DepIBPrior(sigma_eta, sigma_zeta, zeta_center))}
    head = {"counts": list(counts), "sigma_eta": sigma_eta, "sigma_zeta": sigma_zeta, "zeta_center": zeta_center}
    return head | _checked(got, refs)


def audit_correlation_cell(family: str, a: float, b: float, c, refs: dict[str, str]) -> dict:
    """bf2p's prior correlation of one cell against its reference, or the ``NumericalError`` it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WidePriorWarning)
        cfg = LTPrior(a, b, BetaPriorKind(c)) if family == "lt" else DepIBPrior(a, b, c)
    head = {"family": family, "prior": [a, b, c]}
    try:
        return head | _checked({"corr": _prior_correlation(cfg)}, refs)
    except NumericalError as exc:
        return head | {"raised": str(exc)}


class Slice(NamedTuple):
    """One family's audit: its sample, the audit of a cell, the numbers each cell checks,
    the file of its pinned references and the function that computes them."""

    sample: Callable[[], list]
    audit: Callable[..., dict]
    names: tuple[str, ...]
    refs: Path
    reference: Callable[..., dict[str, str]]


SLICES = {
    "dep_ib": Slice(sample, audit_cell, ("h0", "core", "log_bf01"), REFS, reference),
    "lt": Slice(lt_sample, audit_lt_cell, ("h0", "h1", "log_bf01"), LT_REFS, lt_reference),
    "wedge": Slice(wedge_sample, audit_wedge_cell, ("wedge",), WEDGE_REFS, wedge_reference),
    "h0": Slice(lambda: H0_CELLS, audit_h0_cell, ("h0",), H0_REFS, h0_reference),
    "core": Slice(lambda: CORE_CELLS, audit_core_cell, ("core",), CORE_REFS, core_reference),
    "correlation": Slice(correlation_sample, audit_correlation_cell, ("corr",), CORR_REFS, correlation_reference),
}


def run_audit(name: str, refs: dict[str, dict[str, str]]) -> dict:
    """One slice's audit of every cell and a summary: the worst ratio per number, the numbers above 1,
    and the cells that raised (which have no numbers)."""
    slice_ = SLICES[name]
    names = slice_.names
    rows = [slice_.audit(*c, refs[cell_key(*c)]) for c in slice_.sample()]
    summary = {
        "cells": len(rows),
        "worst_ratio": {k: max((r[k]["ratio"] for r in rows if k in r), default=None) for k in names},
        "over_estimate": [
            {**{f: v for f, v in r.items() if f not in names}, "number": k}
            for r in rows
            for k in names
            if k in r and r[k]["ratio"] > 1.0
        ],
        "raised": [r for r in rows if "raised" in r],
    }
    return {"cells": rows, "summary": summary}


def load_refs(name: str = "dep_ib") -> dict[str, dict[str, str]]:
    return json.loads(SLICES[name].refs.read_text())


def pin(name: str) -> None:
    """Compute every cell's references of one slice and write them to its file."""
    slice_, refs = SLICES[name], {}
    cells = slice_.sample()
    for i, c in enumerate(cells):
        t0 = time.perf_counter()
        refs[cell_key(*c)] = slice_.reference(*c)
        print(f"{name} {i + 1}/{len(cells)} {c}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    slice_.refs.write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the per-cell audit as JSON here")
    ap.add_argument("--pin", action="store_true", help="recompute the mpmath references and exit")
    args = ap.parse_args(argv)
    if args.pin:
        for name in SLICES:
            pin(name)
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WidePriorWarning)
        out = {name: run_audit(name, load_refs(name)) for name in SLICES}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({name: slice_["summary"] for name, slice_ in out.items()}, indent=1))
    return 1 if any(slice_["summary"]["over_estimate"] for slice_ in out.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
