"""Posterior summaries for the log odds ratio and the rate difference.

The IB posterior is conjugate, so it is summarized from exact Beta
draws.  The LT posterior has no closed form and is tabulated on a
deterministic mode-centered grid instead of sampled: the problem is two
dimensional, so a grid is both cheaper and exactly reproducible, and its
normalization doubles as a consistency check against the quadrature
marginal likelihood.

Sign convention everywhere: psi and eta are group 2 minus group 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ib import ib_posterior
from .lt import _fit, _log_integrand_h1
from .model import Hypothesis, LTPrior, TwoByTwoData, ValidationError, expit
from .priors import DensityGrid, ParamSamples

__all__ = [
    "PosteriorSummary",
    "posterior_draws_ib",
    "posterior_grid_lt",
    "marginal_from_grid",
    "summarize_posterior",
]

GRID_HALF_WIDTH_SD = 8.0


@dataclass(frozen=True)
class PosteriorSummary:
    """Posterior mean and central 95% credible interval of one quantity."""

    mean: float
    ci_low: float
    ci_high: float
    quantity: str
    n_draws: int
    mc_se: float

    def __post_init__(self):
        if not self.ci_low < self.ci_high:
            raise ValidationError("ci_low must be below ci_high")


def posterior_draws_ib(
    d: TwoByTwoData, a: float = 1.0, n_draws: int = 100_000, seed: int = 0
) -> ParamSamples:
    """Exact conjugate posterior draws: theta_i ~ Beta(a + y_i, a + n_i - y_i)."""
    post = ib_posterior(d, a)
    rng = np.random.Generator(np.random.Philox(seed))
    t1 = rng.beta(post.a1_post, post.b1_post, n_draws)
    t2 = rng.beta(post.a2_post, post.b2_post, n_draws)
    return ParamSamples.from_rates(t1, t2)


def posterior_grid_lt(
    d: TwoByTwoData,
    sigma_beta: float = 1.0,
    sigma_psi: float = 1.0,
    resolution: int = 401,
) -> DensityGrid:
    """Normalized posterior density of (beta, psi) on a Laplace-scaled grid.

    Axes cover the mode +/- 8 marginal posterior standard deviations.
    The values integrate to one by construction (they are divided by the
    quadrature marginal likelihood); how close the grid's own trapezoid
    integral, ``DensityGrid.normalization``, lands to one is a real
    consistency check between the grid and the marginal-likelihood
    quadrature, exercised by the tests.  Fewer than 64 points per axis
    raise ``ValidationError``, as for ``joint_density_grid``.
    """
    if resolution < 64:
        raise ValidationError(f"resolution must be >= 64 per axis, got {resolution}")
    prior = LTPrior(sigma_beta, sigma_psi)
    mode, cov, log_ml, _ = _fit(d, Hypothesis.H1, prior)
    half = GRID_HALF_WIDTH_SD * np.sqrt(np.diag(cov))
    b_axis, p_axis = mode[:, None] + half[:, None] * np.linspace(-1, 1, resolution)
    bb, pp = np.meshgrid(b_axis, p_axis, indexing="ij")
    log_post = _log_integrand_h1(d, bb.ravel(), pp.ravel(), prior).reshape(bb.shape) - log_ml
    return DensityGrid.build(b_axis, np.exp(log_post), p_axis)


def marginal_from_grid(grid: DensityGrid, quantity: str) -> DensityGrid:
    """1D posterior marginal of "beta" or "psi" from a (beta, psi) grid.

    The trapezoid rule integrates out the other axis, as it does for
    the grid's ``DensityGrid.normalization``.
    """
    if grid.y_axis is None:
        raise ValidationError("need a 2D (beta, psi) grid")
    if quantity == "psi":
        vals = np.trapezoid(grid.values, grid.x_axis, axis=0)
        return DensityGrid.build(grid.y_axis, vals)
    if quantity == "beta":
        vals = np.trapezoid(grid.values, grid.y_axis, axis=1)
        return DensityGrid.build(grid.x_axis, vals)
    raise ValidationError(f"unknown grid quantity {quantity!r}")


def _summarize_1d_density(x: np.ndarray, f: np.ndarray, quantity: str) -> PosteriorSummary:
    total = np.trapezoid(f, x)
    mean = np.trapezoid(f * x, x) / total
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]) * np.diff(x))]) / total
    # CDF inversion by linear interpolation on the strictly increasing part
    lo = float(np.interp(0.025, cdf, x))
    hi = float(np.interp(0.975, cdf, x))
    return PosteriorSummary(
        mean=float(mean), ci_low=lo, ci_high=hi, quantity=quantity,
        n_draws=x.size, mc_se=0.0,
    )


def _weighted_quantile(values: np.ndarray, weights: np.ndarray, q: float) -> float:
    order = np.argsort(values)
    v = values[order]
    c = np.cumsum(weights[order])
    c /= c[-1]
    return float(np.interp(q, c, v))


def _summarize_grid(grid: DensityGrid, quantity: str) -> PosteriorSummary:
    if quantity == "psi":
        m = marginal_from_grid(grid, "psi")
        return _summarize_1d_density(m.x_axis, m.values, "psi")
    if quantity == "eta":
        # pushforward through eta(beta, psi): treat grid cells as weighted atoms
        bb, pp = np.meshgrid(grid.x_axis, grid.y_axis, indexing="ij")
        eta = expit(bb + 0.5 * pp) - expit(bb - 0.5 * pp)
        wb = np.gradient(grid.x_axis)
        wp = np.gradient(grid.y_axis)
        w = grid.values * np.outer(wb, wp)
        mean = float(np.sum(w * eta) / np.sum(w))
        lo = _weighted_quantile(eta.ravel(), w.ravel(), 0.025)
        hi = _weighted_quantile(eta.ravel(), w.ravel(), 0.975)
        return PosteriorSummary(
            mean=mean, ci_low=lo, ci_high=hi, quantity="eta",
            n_draws=eta.size, mc_se=0.0,
        )
    raise ValidationError(f"unknown quantity {quantity!r}")


def summarize_posterior(
    source: ParamSamples | DensityGrid, quantity: str
) -> PosteriorSummary:
    """Mean and central 95% interval of "psi" or "eta".

    Accepts posterior draws (IB) or a posterior density grid (LT).
    Draw-based summaries require at least 1e5 draws so the reported
    quantiles are meaningful at the tolerance the tests use.
    """
    if quantity not in ("psi", "eta"):
        raise ValidationError(f"quantity must be 'psi' or 'eta', got {quantity!r}")
    if isinstance(source, ParamSamples):
        if len(source) < 100_000:
            raise ValidationError(
                f"need at least 1e5 draws for stable quantiles, got {len(source)}"
            )
        x = getattr(source, quantity)
        x = x[np.isfinite(x)]
        lo, hi = np.quantile(x, [0.025, 0.975])
        return PosteriorSummary(
            mean=float(np.mean(x)),
            ci_low=float(lo),
            ci_high=float(hi),
            quantity=quantity,
            n_draws=int(x.size),
            mc_se=float(np.std(x, ddof=1) / math.sqrt(x.size)),
        )
    return _summarize_grid(source, quantity)
