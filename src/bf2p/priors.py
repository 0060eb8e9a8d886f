"""Sampling and density evaluation for the priors every test induces.

Each prior family is specified on its own coordinates (rates for IB,
log odds for LT, difference/mean for the dependent variant), but all of
them induce distributions on every other quantity of interest.  This
module evaluates those induced densities on grids (figure data) and
draws seeded samples from them (Monte Carlo checks).  Sampling and the
marginal densities run on numpy alone; every density is deterministic,
a closed form or the tanh-sinh rule of ``bf2p.special``.  Only dep-IB
draws (scipy's normal CDF) import scipy, on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import (
    BetaPriorKind,
    DepIBPrior,
    DomainError,
    Hypothesis,
    IBPrior,
    LTPrior,
    PriorConfig,
    UnsupportedFeatureError,
    ValidationError,
    expit,
)
from .special import (
    _log_eta_convolution,
    _log_eta_density_ib,
    _log_psi_density_ib,
    _ppf_truncated_gaussian,
    _tanh_sinh,
    log_density_beta,
    log_density_gaussian,
    psi_density_ib_a1,
)
from .lt import _log_prior_beta

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


def prior_correlation(cfg: PriorConfig, n_draws: int = 1_000_000, seed: int = 0) -> float:
    """Pearson correlation of (theta1, theta2) under H1: 0 for IB's independent rates, else by Monte Carlo."""
    if n_draws < 10**6:
        raise ValidationError(f"n_draws must be at least 1e6, got {n_draws}")
    if isinstance(cfg, IBPrior):
        return 0.0
    rng = np.random.Generator(np.random.Philox(seed))
    return float(np.corrcoef(*_draw_rates(cfg, Hypothesis.H1, n_draws, rng))[0, 1])


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
