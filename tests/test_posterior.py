"""Posterior summaries and the Savage-Dickey consistency identity."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, simpson

from bf2p.lt import bf01_lt
from bf2p.model import TwoByTwoData, ValidationError
from bf2p.posterior import (
    marginal_from_grid,
    posterior_draws_ib,
    posterior_grid_lt,
    summarize_posterior,
)
from bf2p.special import log_density_gaussian
from conftest import random_null_datasets


class TestGridRule:
    """The trapezoid rule on the posterior grid meets ``scipy.integrate.simpson``."""

    @pytest.mark.parametrize("resolution", [201, 200])
    @pytest.mark.parametrize("counts", [(18, 493, 10, 488), (0, 40, 3, 37), (26, 11034, 10, 11037)])
    def test_marginals_and_psi_summary_match_simpson(self, counts, resolution):
        g = posterior_grid_lt(TwoByTwoData(*counts), resolution=resolution)
        assert g.x_axis.size == g.y_axis.size == resolution  # an even count is kept
        for quantity, axis, x in (("psi", 0, g.x_axis), ("beta", 1, g.y_axis)):
            ref = simpson(g.values, x=x, axis=axis)
            np.testing.assert_allclose(marginal_from_grid(g, quantity).values, ref, rtol=0.0, atol=1e-10)
        psi, f = g.y_axis, simpson(g.values, x=g.x_axis, axis=0)
        total = simpson(f, x=psi)
        cdf = np.concatenate([[0.0], cumulative_trapezoid(f, psi)]) / total
        s = summarize_posterior(g, "psi")
        assert s.mean == pytest.approx(simpson(f * psi, x=psi) / total, rel=0.0, abs=1e-10)
        assert s.ci_low == pytest.approx(np.interp(0.025, cdf, psi), rel=0.0, abs=1e-10)
        assert s.ci_high == pytest.approx(np.interp(0.975, cdf, psi), rel=0.0, abs=1e-10)


class TestIBDraws:
    def test_rate_means_match_beta_expectation(self, magee_text):
        s = posterior_draws_ib(magee_text, 1.0, 200_000, seed=1)
        for arr, (a_post, b_post) in (
            (s.theta1, (16, 479)),
            (s.theta2, (14, 476)),
        ):
            mean = a_post / (a_post + b_post)
            sd = math.sqrt(a_post * b_post / ((a_post + b_post) ** 2 * (a_post + b_post + 1)))
            assert abs(np.mean(arr) - mean) < 3 * sd / math.sqrt(arr.size)

    def test_difference_mean(self, magee_text):
        s = posterior_draws_ib(magee_text, 1.0, 400_000, seed=2)
        expected = 14 / 490 - 16 / 495  # difference of Beta means, group 2 - 1
        se = float(np.std(s.eta, ddof=1) / math.sqrt(len(s)))
        assert abs(float(np.mean(s.eta)) - expected) < 3 * se

    def test_log_odds_draws_always_finite(self):
        s = posterior_draws_ib(TwoByTwoData(0, 5, 5, 5), 1.0, 100_000, seed=3)
        assert np.all(np.isfinite(s.psi))


class TestLTGrid:
    def test_normalization_consistent_with_marginal_likelihood(self, magee_text):
        g = posterior_grid_lt(magee_text, 1.0, 1.0)
        total = simpson(simpson(g.values, x=g.y_axis, axis=1), x=g.x_axis)
        assert total == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("resolution", [1, 2, 3, 5, 63])
    def test_tiny_grid_rejected(self, magee_text, resolution):
        # a grid this coarse misses its own normalization: 10.3 at 3 points per axis on (18, 493, 10, 488)
        with pytest.raises(ValidationError, match="resolution"):
            posterior_grid_lt(magee_text, 1.0, 1.0, resolution=resolution)

    def test_smallest_grid_is_normalized(self, magee_text):
        g = posterior_grid_lt(magee_text, 1.0, 1.0, resolution=64)
        assert g.x_axis.size == g.y_axis.size == 64
        assert g.normalization == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_data_centers_psi_at_zero(self):
        g = posterior_grid_lt(TwoByTwoData(50, 100, 50, 100), 1.0, 1.0)
        s = summarize_posterior(g, "psi")
        assert s.mean == pytest.approx(0.0, abs=1e-6)

    def test_aspirin_effect_direction(self, aspirin):
        # group 2 (treated) had fewer events, so psi = group2 - group1
        # log odds mass sits firmly below zero
        g = posterior_grid_lt(aspirin, 1.0, 1.0)
        m = marginal_from_grid(g, "psi")
        cdf = np.concatenate(
            [[0.0], np.cumsum(0.5 * (m.values[1:] + m.values[:-1]) * np.diff(m.x_axis))]
        )
        p_negative = float(np.interp(0.0, m.x_axis, cdf / cdf[-1]))
        assert p_negative > 0.97


class TestSummaries:
    def test_lt_interval_brackets_frequentist_benchmark(self, magee_text):
        # the trial reported OR 1.14 [0.53, 2.45] in the group1-vs-group2
        # direction, i.e. the benchmark applies to -psi under our sign
        # convention
        s = summarize_posterior(posterior_grid_lt(magee_text, 1.0, 1.0), "psi")
        lo, hi = -s.ci_high, -s.ci_low
        assert -s.mean == pytest.approx(math.log(1.14), abs=0.3)
        assert lo <= math.log(1.14) <= hi
        assert lo == pytest.approx(math.log(0.53), abs=0.15)
        assert hi == pytest.approx(math.log(2.45), abs=0.15)

    def test_ib_and_lt_agree_on_magee(self, magee_text):
        lt_s = summarize_posterior(posterior_grid_lt(magee_text, 1.0, 1.0), "psi")
        ib_s = summarize_posterior(
            posterior_draws_ib(magee_text, 1.0, 400_000, seed=4), "psi"
        )
        assert abs(lt_s.mean - ib_s.mean) < 0.1

    def test_symmetric_data_difference_centers_at_zero(self):
        s = summarize_posterior(
            posterior_draws_ib(TwoByTwoData(20, 40, 20, 40), 1.0, 400_000, seed=5), "eta"
        )
        assert abs(s.mean) < 3 * s.mc_se

    def test_grid_eta_summary_close_to_draw_based_one(self, magee_text):
        lt_s = summarize_posterior(posterior_grid_lt(magee_text, 1.0, 1.0), "eta")
        ib_s = summarize_posterior(
            posterior_draws_ib(magee_text, 1.0, 400_000, seed=6), "eta"
        )
        assert lt_s.mean == pytest.approx(ib_s.mean, abs=0.005)

    def test_too_few_draws_rejected(self):
        s = posterior_draws_ib(TwoByTwoData(1, 5, 2, 6), 1.0, 50_000, seed=7)
        with pytest.raises(ValidationError):
            summarize_posterior(s, "psi")

    def test_interval_ordering_enforced(self):
        s = summarize_posterior(
            posterior_draws_ib(TwoByTwoData(3, 9, 4, 11), 1.0, 100_000, seed=8), "eta"
        )
        assert s.ci_low < s.mean < s.ci_high

    def test_prior_parameter_insensitivity(self, magee_text):
        means = []
        for a in (1.0, 2.0):
            means.append(
                summarize_posterior(
                    posterior_draws_ib(magee_text, a, 200_000, seed=9), "psi"
                ).mean
            )
        for sp in (1.0, 2.0):
            means.append(
                summarize_posterior(posterior_grid_lt(magee_text, 1.0, sp), "psi").mean
            )
        assert max(means) - min(means) < 0.05

    def test_quantile_stability_under_doubling(self):
        d = TwoByTwoData(4, 60, 9, 55)
        # spread of the 2.5% quantile across independent replications
        reps = [
            summarize_posterior(posterior_draws_ib(d, 1.0, 150_000, seed=100 + k), "eta")
            for k in range(12)
        ]
        lo_sd = float(np.std([r.ci_low for r in reps], ddof=1))
        hi_sd = float(np.std([r.ci_high for r in reps], ddof=1))
        base = summarize_posterior(posterior_draws_ib(d, 1.0, 150_000, seed=200), "eta")
        doubled = summarize_posterior(posterior_draws_ib(d, 1.0, 300_000, seed=201), "eta")
        assert abs(base.ci_low - doubled.ci_low) < 3 * math.hypot(lo_sd, lo_sd / math.sqrt(2))
        assert abs(base.ci_high - doubled.ci_high) < 3 * math.hypot(hi_sd, hi_sd / math.sqrt(2))


class TestSavageDickey:
    def test_ratio_recovers_bayes_factor(self):
        # posterior over prior ordinate of psi at 0 equals BF01 for this
        # nested pair; checks the grid against the quadrature marginals
        rng_sets = random_null_datasets(10, n_max=200, seed=123)
        prior0 = math.exp(log_density_gaussian(0.0, 1.0))
        for d in rng_sets:
            g = posterior_grid_lt(d, 1.0, 1.0)
            m = marginal_from_grid(g, "psi")
            dens0 = float(np.interp(0.0, m.x_axis, m.values))
            sd_bf = dens0 / prior0
            quad_bf = bf01_lt(d, 1.0, 1.0).bf01
            assert sd_bf == pytest.approx(quad_bf, rel=0.02), d
