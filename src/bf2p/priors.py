"""Sampling and density evaluation for the priors every test induces.

Each prior family is specified on its own coordinates (rates for IB,
log odds for LT, difference/mean for the dependent variant), but all of
them induce distributions on every other quantity of interest.  This
module evaluates those induced densities on grids (figure data),
computes the prior correlation of the two rates, and draws seeded
samples (Monte Carlo checks).  Every density and correlation is
deterministic: a closed form, the tanh-sinh rule of ``bf2p.special``,
or, for the correlation, a ladder of composite Gauss-Legendre rules.
All of it runs on numpy and ``math``; only dep-IB draws (scipy's normal
CDF) import scipy, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .model import (
    BetaPriorKind,
    DepIBPrior,
    DomainError,
    Hypothesis,
    IBPrior,
    LTPrior,
    NumericalError,
    PriorConfig,
    UnsupportedFeatureError,
    ValidationError,
    expit,
)
from .special import (
    _jacobi_rule,
    _log_eta_convolution,
    _log_eta_density_ib,
    _log_psi_density_ib,
    _ppf_truncated_gaussian,
    _tanh_sinh,
    log_density_beta,
    log_density_gaussian,
    psi_density_ib_a1,
)
from .lt import _first_agreement, _log_prior_beta

__all__ = [
    "ParamSamples",
    "DensityGrid",
    "sample_prior",
    "conditional_theta2_density",
    "marginal_density",
    "joint_density_grid",
    "prior_correlation",
]


@dataclass(frozen=True)
class ParamSamples:
    """Draws of (theta1, theta2) with derived coordinates, as parallel arrays.

    ``beta`` and ``psi`` are NaN wherever a rate sits exactly on the
    boundary (possible under the clamped dependent prior), since the log
    odds are infinite there.
    """

    theta1: np.ndarray
    theta2: np.ndarray
    eta: np.ndarray
    zeta: np.ndarray
    beta: np.ndarray
    psi: np.ndarray

    def __len__(self):
        return self.theta1.size

    @classmethod
    def from_rates(cls, theta1: np.ndarray, theta2: np.ndarray) -> "ParamSamples":
        theta1 = np.asarray(theta1, dtype=float)
        theta2 = np.asarray(theta2, dtype=float)
        interior = (theta1 > 0) & (theta1 < 1) & (theta2 > 0) & (theta2 < 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            l1 = np.where(interior, np.log(theta1) - np.log1p(-theta1), np.nan)
            l2 = np.where(interior, np.log(theta2) - np.log1p(-theta2), np.nan)
        return cls(
            theta1=theta1,
            theta2=theta2,
            eta=theta2 - theta1,
            zeta=0.5 * (theta1 + theta2),
            beta=0.5 * (l1 + l2),
            psi=l2 - l1,
        )


@dataclass(frozen=True, eq=False)
class DensityGrid:
    """Density values tabulated on a 1D axis or a 2D product grid.

    ``normalization`` records the trapezoid-rule integral of the stored
    values over the grid.
    """

    x_axis: np.ndarray
    values: np.ndarray
    y_axis: np.ndarray | None = None
    normalization: float = field(default=float("nan"))

    @classmethod
    def build(cls, x_axis, values, y_axis=None) -> "DensityGrid":
        x_axis = np.asarray(x_axis, dtype=float)
        values = np.asarray(values, dtype=float)
        if y_axis is not None:
            y_axis = np.asarray(y_axis, dtype=float)
        norm = np.trapezoid(values if y_axis is None else np.trapezoid(values, y_axis, axis=1), x_axis)
        return cls(x_axis=x_axis, values=values, y_axis=y_axis, normalization=float(norm))


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------


def _draw_rates(cfg: PriorConfig, hypothesis: Hypothesis, n_draws: int, rng):
    """(theta1, theta2) arrays drawn from the prior ``cfg`` with ``rng``.

    The dependent variant is drawn by inverse CDF, and always takes its
    eta uniforms before its zeta uniforms, so that H0 and H1 draws of
    the same seed share zeta.
    """
    h0 = hypothesis is Hypothesis.H0
    if isinstance(cfg, IBPrior):
        t1 = rng.beta(cfg.a, cfg.a, n_draws)
        return t1, t1 if h0 else rng.beta(cfg.a, cfg.a, n_draws)
    if isinstance(cfg, LTPrior):
        draw_beta = rng.normal if cfg.beta_prior is BetaPriorKind.GAUSSIAN else rng.logistic
        beta = draw_beta(0.0, cfg.sigma_beta, n_draws)
        psi = np.zeros(n_draws) if h0 else rng.normal(0.0, cfg.sigma_psi, n_draws)
        return expit(beta - 0.5 * psi), expit(beta + 0.5 * psi)
    if isinstance(cfg, DepIBPrior):
        u_eta, u_zeta = rng.random(n_draws), rng.random(n_draws)
        eta = np.zeros(n_draws) if h0 else _ppf_truncated_gaussian(u_eta, cfg.sigma_eta, -1.0, 1.0)
        zeta = _ppf_truncated_gaussian(u_zeta, cfg.sigma_zeta, 0.0, 1.0, cfg.zeta_center)
        return np.clip(zeta - 0.5 * eta, 0.0, 1.0), np.clip(zeta + 0.5 * eta, 0.0, 1.0)
    raise UnsupportedFeatureError(f"unknown prior config {cfg!r}")


def sample_prior(
    cfg: PriorConfig, hypothesis: Hypothesis, n_draws: int, seed: int
) -> ParamSamples:
    """Seeded i.i.d. draws from the prior of the given model.

    Under H0 the IB and dependent variants share a single rate and the
    LT variant pins psi = 0.
    """
    if n_draws < 1:
        raise ValidationError("n_draws must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    return ParamSamples.from_rates(*_draw_rates(cfg, hypothesis, n_draws, rng))


# --------------------------------------------------------------------------
# Prior correlation
# --------------------------------------------------------------------------

#: Half widths, in units of the scale, of the windows the correlation rules
#: take of a Gaussian and a logistic density: each leaves out under 1e-18 of the mass.
_GAUSSIAN_HALF_WIDTH = 9.0
_HALF_WIDTH = {BetaPriorKind.GAUSSIAN: _GAUSSIAN_HALF_WIDTH, BetaPriorKind.LOGISTIC: 44.0}

#: Gauss-Legendre nodes per part on the rungs of both correlation ladders.
_NODES = (8, 16, 32, 64)

#: The most points an LT rung may have; a ladder that reaches a larger rung
#: without agreeing raises instead.
_LT_MAX_POINTS = 2**24

#: Tensor points per block of the LT sums, which bounds their memory.
_LT_BLOCK = 2**16


def _grading(base: float, width: float) -> np.ndarray:
    """Distances base 2^k, k >= 0, up to the first at or beyond ``width``."""
    return base * 2.0 ** np.arange(math.ceil(math.log2(width / base)) + 1)


def _graded_rule(levels: np.ndarray, width: float, knees: np.ndarray, m: int):
    """Nodes and weights, one row per row of ``knees``, of m-point Gauss-Legendre
    rules on the parts of [0, width] between graded breaks.

    The breaks are 0, the ``levels`` (``_grading``), and each knee of the row
    and the knee +/- every level, clipped to [0, width].  So a part either
    touches 0 or a knee and is at most ``levels[0]`` long, or is no longer
    than its distance from 0 and from every knee: a rule of m nodes per part
    resolves a feature of width ``levels[0]`` at 0 and at each knee, wherever
    the knee falls, with a number of parts that grows only with the log of
    ``width / levels[0]``.  Parts that the clipping empties weigh nothing.
    """
    rows = knees.shape[0]
    around = (knees[:, :, None] + np.concatenate((-levels, [0.0], levels))).reshape(rows, -1)
    breaks = np.concatenate((np.zeros((rows, 1)), np.broadcast_to(levels, (rows, levels.size)), around), axis=1)
    return _parts_rule(np.sort(np.clip(breaks, 0.0, width), axis=1), m)


def _parts_rule(breaks: np.ndarray, m: int):
    """Nodes and weights, one row per row of ascending ``breaks``, of m-point
    Gauss-Legendre rules on the parts between consecutive breaks."""
    t, _, lw = _jacobi_rule(0.0, 0.0, m)
    start, length = breaks[:, :-1, None], np.diff(breaks, axis=1)[:, :, None]
    rows = breaks.shape[0]
    return (start + length * t).reshape(rows, -1), (length * np.exp(lw)).reshape(rows, -1)


def _lt_correlation_rungs(cfg: LTPrior):
    """The LT prior correlation on ever larger graded Gauss-Legendre rules in (psi, beta).

    With x = beta -/+ psi/2, each rate is 1/2 + tanh(x/2)/2.  Both rates
    have mean 1/2 (the prior is unchanged by beta, psi -> -beta, -psi) and
    one variance (by psi -> -psi), so the correlation is
    E[tanh(x1/2) tanh(x2/2)] / E[tanh(x1/2)^2].  Both integrands are even
    in beta and in psi, so each runs over beta, psi >= 0.  Given psi the
    integrand in beta has knees of width about 1 at beta = psi/2, where
    x1 = 0; in psi it changes on a scale of about 1 near 0.  So beta's rule
    is graded towards 0 and towards the knee of its psi node, and psi's
    towards 0, each from a first part of one unit or one prior scale,
    whichever is smaller, out to 9 (Gaussian) or 44 (logistic) scales
    (``_graded_rule``).  Its cost grows with the log of the scales, and the
    rule converges geometrically in its nodes per part.  A rung of more
    than ``_LT_MAX_POINTS`` points ends the ladder.  Under scales below 1
    the tanh values are divided by the larger scale, so that their squares
    cannot underflow.  Below scales of 1e-150, where x at the nodes would
    not keep its digits, the ladder is two rungs, whose gap is 0, of the
    limit (v - sigma_psi^2/4) / (v + sigma_psi^2/4), v the variance of beta.
    """
    sb, sp = cfg.sigma_beta, cfg.sigma_psi
    unit = min(1.0, max(sb, sp))
    if unit < 1e-150:  # tanh(x/2) is x/2 to the last bit: the correlation of x1 and x2
        v, q = (sb / unit) ** 2 * (1.0 if cfg.beta_prior is BetaPriorKind.GAUSSIAN else math.pi**2 / 3), (sp / unit) ** 2 / 4
        yield from ((v - q) / (v + q),) * 2
        return
    psi_width, beta_width = _GAUSSIAN_HALF_WIDTH * sp, _HALF_WIDTH[cfg.beta_prior] * sb
    psi_levels, beta_levels = _grading(min(1.0, sp), psi_width), _grading(min(1.0, sb), beta_width)
    for m in _NODES:
        psi, w_psi = (v[0] for v in _graded_rule(psi_levels, psi_width, np.empty((1, 0)), m))
        w_psi = w_psi * np.exp(-0.5 * (psi / sp) ** 2)
        n_beta = (3 * beta_levels.size + 1) * m  # beta nodes per psi node: one knee's parts
        if psi.size * n_beta > _LT_MAX_POINTS:
            return
        cross = square = 0.0
        rows = max(1, _LT_BLOCK // n_beta)
        for i in range(0, psi.size, rows):
            half_psi = 0.5 * psi[i : i + rows, None]
            beta, w = _graded_rule(beta_levels, beta_width, half_psi, m)
            if cfg.beta_prior is BetaPriorKind.GAUSSIAN:
                w *= np.exp(-0.5 * (beta / sb) ** 2)
            else:
                e = np.exp(-beta / sb)
                w *= e / (1.0 + e) ** 2
            t1, t2 = np.tanh(0.5 * (beta - half_psi)) / unit, np.tanh(0.5 * (beta + half_psi)) / unit
            cross += float(w_psi[i : i + rows] @ (t1 * t2 * w).sum(axis=1))
            # over beta >= 0, tanh(x2/2)^2 stands for tanh(x1/2)^2 at -beta
            square += float(w_psi[i : i + rows] @ ((t1 * t1 + t2 * t2) * w).sum(axis=1))
        yield 2.0 * cross / square


def _zeta_is_point(cfg: DepIBPrior) -> bool:
    """Whether zeta is a point mass at its centre c in (0, 1): c +/- 9 scales round to c."""
    c, half = cfg.zeta_center, _GAUSSIAN_HALF_WIDTH * cfg.sigma_zeta
    return 0.0 < c < 1.0 and c - half == c == c + half


def _depib_correlation_rungs(cfg: DepIBPrior):
    """The dep-IB prior correlation on ever larger tensor Gauss-Legendre rules in (zeta, eta).

    Both theta -> 1 - theta with zeta -> 1 - zeta and eta -> -eta swap
    the rates, so c is taken as min(c, 1 - c), where the floats resolve a
    narrow window, and the rule runs over zeta <= 1/2 and eta >= 0, where
    theta2 = zeta + eta/2 and theta1 = max(zeta - eta/2, 0) has one knee,
    at eta = 2 zeta.  The zeta prior's window, its centre
    +/- ``_GAUSSIAN_HALF_WIDTH`` scales within (0, 1), is split at the
    kink 1/2, and the part above it is the mirror image of one below.
    Each part is split again where the knee leaves eta's window
    [0, min(1, 9 sigma_eta)]: below that point the clamp reaches the rates
    and changes them on the scale sigma_eta.  Given zeta, eta's rule has
    two parts, split at the knee (``_parts_rule``); a point mass at c is one
    zeta node.  The rates come from the clamp itself; the mean comes first,
    and the second moments are taken about it.  Under scales below 1 the
    deviations from the mean are divided by the larger scale, so that
    their squares cannot underflow.
    """
    c, sz, se = min(cfg.zeta_center, 1.0 - cfg.zeta_center), cfg.sigma_zeta, cfg.sigma_eta
    lo, hi = max(0.0, c - _GAUSSIAN_HALF_WIDTH * sz), min(1.0, c + _GAUSSIAN_HALF_WIDTH * sz)
    top, unit = min(1.0, _GAUSSIAN_HALF_WIDTH * se), min(1.0, max(se, sz))
    # (start, end, mirrored) of each piece of the window, within (0, 1/2]
    pieces = [
        (max(a, x), min(b, y), f)
        for a, b, f in ((lo, hi, False), (1.0 - hi, 1.0 - lo, True))
        for x, y in ((0.0, 0.5 * top), (0.5 * top, 0.5))
        if max(a, x) < min(b, y)
    ]
    point = _zeta_is_point(cfg)
    ends = np.array([p[:2] for p in pieces])
    for m in _NODES:
        if point:
            zeta, w_zeta, flip, dz = np.full((1, 1), c), np.ones((1, 1)), np.zeros((1, 1), bool), 0.0
        else:
            zeta, w_zeta = (v.reshape(-1, 1) for v in _parts_rule(ends, m))
            flip = np.repeat([p[2] for p in pieces], m)[:, None]
            dz = ((np.where(flip, 1.0 - zeta, zeta) - c) / sz) ** 2
        # eta's rule in units of sigma_eta, so that its weights cannot underflow
        knee = np.minimum(2.0 * zeta, top) / se
        u, w = _parts_rule(np.hstack((np.zeros_like(knee), knee, np.full_like(knee, top / se))), m)
        w *= w_zeta * np.exp(-0.5 * u * u - 0.5 * dz)
        if not 0.0 < (total := float(w.sum())) < math.inf:  # the weights under- or overflowed
            return
        w /= total
        t1, t2 = np.maximum(zeta - 0.5 * se * u, 0.0), zeta + 0.5 * se * u
        mean = (w * (t1 + t2)).sum(axis=1) / 2.0
        mu = float(np.where(flip[:, 0], w.sum(axis=1) - mean, mean).sum())
        centre = np.where(flip, 1.0 - mu, mu)
        d1, d2 = (t1 - centre) / unit, (t2 - centre) / unit
        yield 2.0 * float((w * d1 * d2).sum()) / float((w * (d1 * d1 + d2 * d2)).sum())


def _prior_correlation(cfg: PriorConfig) -> tuple[float, float]:
    """The H1 prior correlation of (theta1, theta2) and an estimate of its error.

    IB's rates are independent, so its value is exactly 0.  LT and dep-IB
    take the first rung of their ladder that agrees with the one before
    (``bf2p.lt._first_agreement``); the gap is the error estimate.  A ladder
    that does not agree raises ``NumericalError``.
    """
    if isinstance(cfg, IBPrior):
        return 0.0, 0.0
    if isinstance(cfg, LTPrior):
        rungs = _lt_correlation_rungs(cfg)
    elif isinstance(cfg, DepIBPrior):
        rungs = _depib_correlation_rungs(cfg)
    else:
        raise UnsupportedFeatureError(f"unknown prior config {cfg!r}")
    found = _first_agreement(rungs)
    if found is None:
        raise NumericalError(f"the prior correlation of {cfg!r} did not converge")
    return found


def prior_correlation(cfg: PriorConfig) -> float:
    """Pearson correlation of (theta1, theta2) under H1, by deterministic quadrature.

    Exactly 0 for IB.  For LT and dep-IB the stop test bounds the error
    estimate ``_prior_correlation`` reports by 1e-8; against 30-digit
    references (``tools/error_audit.py``) the errors measured stayed within
    those estimates and below 2e-15.
    """
    return _prior_correlation(cfg)[0]


# --------------------------------------------------------------------------
# Joint density kernels
# --------------------------------------------------------------------------


def _log_joint_rates(t1, t2, cfg: IBPrior | LTPrior):
    """Log density of (theta1, theta2) under the IB or LT prior (interior rates)."""
    if isinstance(cfg, IBPrior):
        return log_density_beta(t1, cfg.a) + log_density_beta(t2, cfg.a)
    return _log_joint_lt(np.log(t1), np.log1p(-t1), np.log(t2), np.log1p(-t2), cfg)


def _log_joint_lt(log_t1, log_1m_t1, log_t2, log_1m_t2, cfg: LTPrior):
    """Log density of (theta1, theta2) under the LT prior, from log t1, log(1 - t1), log t2, log(1 - t2).

    A change of variables from (beta, psi), with Jacobian 1 / [t1 (1-t1) t2 (1-t2)].
    """
    x1 = log_t1 - log_1m_t1
    x2 = log_t2 - log_1m_t2
    return (
        _log_prior_beta(0.5 * (x1 + x2), cfg.sigma_beta, cfg.beta_prior)
        + log_density_gaussian(x2 - x1, cfg.sigma_psi)
        - (log_t1 + log_1m_t1 + log_t2 + log_1m_t2)
    )


# --------------------------------------------------------------------------
# Density grids
# --------------------------------------------------------------------------


def conditional_theta2_density(
    cfg: PriorConfig, theta1: float, grid: np.ndarray
) -> DensityGrid:
    """Density of theta2 given theta1 under the H1 prior, normalized on the grid.

    Under independent Beta priors conditioning changes nothing and the
    unconditional Beta(a, a) density is returned; under the LT prior the
    joint is evaluated along the slice and renormalized.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(cfg, IBPrior):
        vals = np.exp(log_density_beta(grid, cfg.a))
        return DensityGrid.build(grid, vals)
    if isinstance(cfg, LTPrior):
        if not 0.0 < theta1 < 1.0:
            raise DomainError(f"theta1 must be interior to (0, 1), got {theta1!r}")
        interior = (grid > 0) & (grid < 1)
        vals = np.zeros_like(grid)
        with np.errstate(divide="ignore"):
            vals[interior] = np.exp(
                _log_joint_rates(np.full(interior.sum(), theta1), grid[interior], cfg)
            )
        total = float(np.trapezoid(vals, grid))
        return DensityGrid.build(grid, vals / total)
    raise UnsupportedFeatureError(
        f"conditional rate density is not available for {type(cfg).__name__}"
    )


def _lt_theta_marginal(t: np.ndarray, cfg: LTPrior) -> np.ndarray:
    """Density of either rate at every t; its log odds x is beta -/+ psi/2.

    Under a Gaussian beta prior x is N(0, sigma_beta^2 + sigma_psi^2/4).
    Under a logistic one psi = m + c logit(s), where N(m, c^2) is psi's
    prior times a Gaussian with the logistic factor's centre -2x and
    variance (2 pi sigma_beta)^2 / 3: the rule follows the narrower factor.
    """
    vals = np.zeros_like(t)
    inside = (t > 0.0) & (t < 1.0)
    log_t, log_1m_t = np.log(t[inside]), np.log1p(-t[inside])
    x = (log_t - log_1m_t)[:, None]
    sb, sp = cfg.sigma_beta, cfg.sigma_psi
    if cfg.beta_prior is BetaPriorKind.GAUSSIAN:
        log_mix = log_density_gaussian(x[:, 0], math.hypot(sb, 0.5 * sp))
    else:
        c = 1.0 / math.sqrt(sp**-2 + 0.75 / (math.pi * sb) ** 2)
        m = -1.5 * (c / (math.pi * sb)) ** 2 * x

        def log_f(rows, log_s, log_1m_s):
            psi = m[rows] + c * (log_s - log_1m_s)
            log_g = _log_prior_beta(x[rows] + 0.5 * psi, sb, cfg.beta_prior) + log_density_gaussian(psi, sp)
            return log_g + math.log(c) - log_s - log_1m_s

        log_mix = _tanh_sinh(log_f, t[inside], "the LT rate density")
    vals[inside] = np.exp(log_mix - log_t - log_1m_t)
    return vals


def _lt_eta_marginal(eta: np.ndarray, cfg: LTPrior) -> np.ndarray:
    """Density of eta = theta2 - theta1 at every grid point (``_log_eta_convolution``)."""
    if cfg.beta_prior is BetaPriorKind.LOGISTIC and cfg.sigma_beta >= 1.0 and np.any(eta == 0.0):
        raise DomainError(
            f"the LT eta density has a pole at eta = 0 under a logistic beta prior with sigma_beta >= 1 "
            f"(got {cfg.sigma_beta!r}): along theta1 = theta2 it grows like exp((1 - 1/sigma_beta) |beta|)"
        )

    def log_joint(log_t1, log_1m_t1, log_t2, log_1m_t2, d1, d2):
        return _log_joint_lt(log_t1, log_1m_t1, log_t2, log_1m_t2, cfg)

    with np.errstate(over="ignore"):
        vals = np.exp(_log_eta_convolution(eta, log_joint, "the LT eta density"))
    if not np.all(np.isfinite(vals)):
        raise DomainError(f"the LT eta density at {eta[~np.isfinite(vals)].tolist()} overflows a float")
    return vals


def marginal_density(cfg: PriorConfig, quantity: str, grid: np.ndarray) -> DensityGrid:
    """Marginal prior density of ``quantity`` in {"eta", "psi", "theta"}.

    Closed forms are used where they exist (the IB psi density at
    a = 1; the LT psi prior, which is simply Gaussian; the LT rate
    density under a Gaussian beta prior, logit-normal).  The IB and LT
    eta marginals, the IB psi marginal at a != 1 and the other LT rate
    marginals are pushforwards, integrated over the complementary
    coordinate by one tanh-sinh rule for the whole grid, on numpy alone:
    the two eta marginals share one convolution along
    theta2 = theta1 + eta, and the psi marginal convolves the two rates'
    log-odds densities.  ``theta2`` and ``theta1`` are accepted as
    aliases of ``theta`` for symmetry checks.
    """
    grid = np.asarray(grid, dtype=float)
    if isinstance(cfg, IBPrior):
        if quantity == "eta":
            return DensityGrid.build(grid, np.exp(_log_eta_density_ib(grid, cfg.a)))
        if quantity == "psi":
            if cfg.a == 1.0:
                vals = np.array([psi_density_ib_a1(float(p)).value for p in grid])
                return DensityGrid.build(grid, vals)
            return DensityGrid.build(grid, np.exp(_log_psi_density_ib(grid, cfg.a)))
        if quantity in ("theta", "theta1", "theta2"):
            vals = np.exp(log_density_beta(grid, cfg.a))
            return DensityGrid.build(grid, vals)
        raise UnsupportedFeatureError(f"unknown quantity {quantity!r}")
    if isinstance(cfg, LTPrior):
        if quantity == "psi":
            vals = np.exp(log_density_gaussian(grid, cfg.sigma_psi))
            return DensityGrid.build(grid, vals)
        if quantity == "eta":
            return DensityGrid.build(grid, _lt_eta_marginal(grid, cfg))
        if quantity in ("theta", "theta1", "theta2"):
            return DensityGrid.build(grid, _lt_theta_marginal(grid, cfg))
        raise UnsupportedFeatureError(f"unknown quantity {quantity!r}")
    raise UnsupportedFeatureError(
        f"marginal densities are not available for {type(cfg).__name__}: "
        "its clamped prior is not absolutely continuous"
    )


def _half_open_axis(lo: float, hi: float, resolution: int) -> np.ndarray:
    # half-cell inset keeps grids off boundary singularities
    step = (hi - lo) / resolution
    return lo + step * (np.arange(resolution) + 0.5)


def joint_density_grid(
    cfg: PriorConfig, coords: str, resolution: int = 128
) -> DensityGrid:
    """Joint prior density on a 2D grid.

    ``coords`` is one of "theta1_theta2", "theta1_eta", "theta1_psi".
    Grid axes exclude exact boundaries by a half cell; rate/eta axes span
    their natural supports, the psi axis spans +/- 12 (IB) or +/- 6
    prior standard deviations (LT).
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64 per axis, got {resolution}")
    if not isinstance(cfg, (IBPrior, LTPrior)):
        raise UnsupportedFeatureError(
            f"joint density grids are not available for {type(cfg).__name__}"
        )
    t_axis = _half_open_axis(0.0, 1.0, resolution)
    log_jac = 0.0  # of the map from the grid's coordinates to the rates
    if coords == "theta1_theta2":
        y_axis = t_axis
        tt1, tt2 = np.meshgrid(t_axis, y_axis, indexing="ij")
    elif coords == "theta1_eta":
        y_axis = _half_open_axis(-1.0, 1.0, resolution)
        tt1, ee = np.meshgrid(t_axis, y_axis, indexing="ij")
        tt2 = tt1 + ee
    elif coords == "theta1_psi":
        half = 12.0 if isinstance(cfg, IBPrior) else 6.0 * cfg.sigma_psi
        y_axis = _half_open_axis(-half, half, resolution)
        tt1, pp = np.meshgrid(t_axis, y_axis, indexing="ij")
        x2 = np.log(tt1) - np.log1p(-tt1) + pp
        # both priors are symmetric under theta -> 1 - theta; evaluating where
        # theta2 <= 1/2 keeps its log odds exact through the round trip to rates
        tt1 = np.where(x2 > 0.0, 1.0 - tt1, tt1)
        tt2 = expit(-np.abs(x2))
        log_jac = np.log(tt2) + np.log1p(-tt2)
    else:
        raise UnsupportedFeatureError(f"unknown coordinate pair {coords!r}")
    valid = (tt2 > 0.0) & (tt2 < 1.0)
    vals = np.zeros_like(tt1)
    logj = _log_joint_rates(tt1, np.where(valid, tt2, 0.5), cfg) + log_jac
    vals[valid] = np.exp(logj[valid])
    return DensityGrid.build(t_axis, vals, y_axis)
