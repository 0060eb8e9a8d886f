"""Induced prior sampling, marginal/conditional/joint density grids."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate

from bf2p import priors as priors_mod, special
from bf2p.model import (
    BetaPriorKind,
    DepIBPrior,
    DomainError,
    Hypothesis,
    IBPrior,
    LTPrior,
    NumericalError,
    UnsupportedFeatureError,
    WidePriorWarning,
    expit,
)
from bf2p.priors import (
    ParamSamples,
    conditional_theta2_density,
    joint_density_grid,
    marginal_density,
    prior_correlation,
    sample_prior,
)
from bf2p.special import log_density_beta, log_density_gaussian
from oracles import ib_log_psi_density_mpmath, lt_eta_density_mpmath, lt_theta_density_mpmath


def wide_lt(sigma_psi):
    return lt(1.0, sigma_psi)


def lt(sigma_beta, sigma_psi, beta_prior=BetaPriorKind.GAUSSIAN):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WidePriorWarning)
        return LTPrior(sigma_beta, sigma_psi, beta_prior)


LOGISTIC = BetaPriorKind.LOGISTIC


def _pearson(sums, n):
    """Pearson's r from the sums of u1, u2, u1^2, u2^2 and u1 u2 over n draws."""
    m1, m2, s11, s22, s12 = sums / n
    return (s12 - m1 * m2) / math.sqrt((s11 - m1 * m1) * (s22 - m2 * m2))


class TestSamplePrior:
    def test_uniform_rate_mean(self):
        s = sample_prior(IBPrior(1.0), Hypothesis.H1, 400_000, seed=1)
        se = 1.0 / math.sqrt(12 * len(s))
        assert abs(float(np.mean(s.theta1)) - 0.5) < 3 * se

    def test_null_hypothesis_shares_one_rate(self):
        s = sample_prior(IBPrior(2.0), Hypothesis.H0, 1000, seed=2)
        np.testing.assert_array_equal(s.theta1, s.theta2)
        assert np.all(s.eta == 0.0)

    def test_lt_null_pins_psi(self):
        s = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H0, 1000, seed=3)
        np.testing.assert_allclose(s.psi, 0.0, atol=1e-12)

    def test_derived_coordinates_consistent(self):
        s = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H1, 10_000, seed=4)
        np.testing.assert_allclose(s.eta, s.theta2 - s.theta1, atol=1e-15)
        np.testing.assert_allclose(s.zeta, 0.5 * (s.theta1 + s.theta2), atol=1e-15)
        logit = lambda t: np.log(t) - np.log1p(-t)
        np.testing.assert_allclose(s.psi, logit(s.theta2) - logit(s.theta1), atol=1e-9)

    def test_reproducible(self):
        a = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H1, 1000, seed=5)
        b = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H1, 1000, seed=5)
        np.testing.assert_array_equal(a.theta1, b.theta1)

    def test_lt_h0_and_h1_draws_share_beta(self):
        # both hypotheses draw beta first, so one seed gives one grand mean: the H1 rates'
        # mean log odds is the H0 rate's log odds
        s0 = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H0, 10_000, seed=6)
        s1 = sample_prior(LTPrior(1.0, 1.0), Hypothesis.H1, 10_000, seed=6)
        np.testing.assert_allclose(s1.beta, s0.beta, atol=1e-9)
        assert np.std(s1.psi) > 0.5


def rates(t1, t2):
    return ParamSamples.from_rates(np.atleast_1d(float(t1)), np.atleast_1d(float(t2)))


class TestRateCoordinates:
    """``ParamSamples.from_rates``: rates to (eta, zeta) and to log odds (beta, psi)."""

    @pytest.mark.parametrize("pair, psi_2dp", [((0.05, 0.10), 0.75), ((0.50, 0.55), 0.20)])
    def test_log_odds_ratio_examples(self, pair, psi_2dp):
        assert round(float(rates(*pair).psi[0]), 2) == psi_2dp

    def test_center_maps_to_origin(self):
        s = rates(0.5, 0.5)
        assert (s.beta[0], s.psi[0], s.eta[0], s.zeta[0]) == (0.0, 0.0, 0.0, 0.5)

    def test_small_rates_difference_coordinates(self):
        s = rates(0.05, 0.10)
        assert s.eta[0] == pytest.approx(0.05)
        assert s.zeta[0] == pytest.approx(0.075)

    def test_boundary_rates_have_no_log_odds(self):
        # the log odds are infinite on the boundary; the rate difference and mean are not
        s = rates(0.0, 1.0)
        assert np.isnan(s.beta[0]) and np.isnan(s.psi[0])
        assert (s.eta[0], s.zeta[0]) == (1.0, 0.5)
        assert np.isnan(rates(0.5, 1.0).psi[0]) and np.isnan(rates(0.0, 0.5).beta[0])

    @given(beta=st.floats(-20, 20), psi=st.floats(-20, 20))
    def test_round_trip_through_log_odds(self, beta, psi):
        t1, t2 = expit(beta - psi / 2), expit(beta + psi / 2)
        s = rates(t1, t2)
        assert expit(s.beta[0] - s.psi[0] / 2) == pytest.approx(t1, abs=1e-12)
        assert expit(s.beta[0] + s.psi[0] / 2) == pytest.approx(t2, abs=1e-12)

    @given(t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
    def test_round_trip_inside_square(self, t1, t2):
        s = rates(t1, t2)
        assert s.zeta[0] - s.eta[0] / 2 == pytest.approx(t1, abs=1e-12)
        assert s.zeta[0] + s.eta[0] / 2 == pytest.approx(t2, abs=1e-12)


class TestPriorCorrelation:
    def test_independent_beta_is_uncorrelated(self):
        # independent by construction, so exactly 0, with no draws
        for a in (1.0, 2.0, 2.5):
            assert prior_correlation(IBPrior(a)) == 0.0

    def test_default_logit_prior_is_positively_correlated(self):
        assert prior_correlation(LTPrior(1.0, 1.0)) > 0.2

    def test_doubled_psi_scale_removes_dependence(self):
        # x1 = beta - psi/2 and x2 = beta + psi/2 are independent Gaussians there
        assert prior_correlation(wide_lt(2.0)) == pytest.approx(0.0, abs=1e-12)
        assert prior_correlation(lt(0.3, 0.6)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("s", [0.05, 0.5, 5.0, 500.0])
    def test_doubled_eta_scale_removes_dependence(self, s):
        # with zeta centred at 1/2, u = zeta - 1/2 and v = eta/2 are i.i.d. there; swapping them
        # maps theta1 to 1 - theta1 and keeps theta2, so the covariance is its own negative
        assert prior_correlation(DepIBPrior(2.0 * s, s)) == pytest.approx(0.0, abs=1e-13)

    def test_wider_psi_scale_anticorrelates(self):
        assert prior_correlation(wide_lt(3.0)) < -0.05

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (DepIBPrior(0.01, 0.001, 0.3), (1.0 - 25.0) / (1.0 + 25.0)),
            (DepIBPrior(0.004, 0.001, 0.7), (1.0 - 4.0) / (1.0 + 4.0)),
            (LTPrior(1e-6, 1e-6), (1.0 - 0.25) / (1.0 + 0.25)),
            (LTPrior(1e-6, 3e-6), (1.0 - 2.25) / (1.0 + 2.25)),
            (LTPrior(1e-6, 1e-6, LOGISTIC), (math.pi**2 / 3 - 0.25) / (math.pi**2 / 3 + 0.25)),
            (LTPrior(1e-200, 1e-200), (1.0 - 0.25) / (1.0 + 0.25)),
            (LTPrior(1e-300, 3e-300), (1.0 - 2.25) / (1.0 + 2.25)),
            (LTPrior(1e-200, 1e-200, LOGISTIC), (math.pi**2 / 3 - 0.25) / (math.pi**2 / 3 + 0.25)),
        ],
        ids=["dep-ib", "dep-ib-upper", "lt", "lt-wide-psi", "lt-logistic", "lt-1e-200", "lt-1e-300", "lt-logistic-1e-200"],
    )
    def test_linear_limit(self, cfg, expected):
        # priors so narrow that no rate is clamped and expit is linear: the rates are
        # zeta -/+ eta/2, or 1/2 + (beta -/+ psi/2)/4, whose correlation is closed form;
        # below scales of 1e-150 LT takes that limit itself
        assert prior_correlation(cfg) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("sigmas", [(0.2, 0.5), (0.05, 0.3), (1.0, 0.1), (0.5, 1.0)])
    @pytest.mark.parametrize("center", [0.0, 0.2, 0.35])
    def test_depib_event_swap_invariance(self, sigmas, center):
        # theta -> 1 - theta maps the zeta prior centred at c onto the one centred at 1 - c
        (r, err), (r_swap, err_swap) = (
            priors_mod._prior_correlation(DepIBPrior(*sigmas, c)) for c in (center, 1.0 - center)
        )
        assert abs(r - r_swap) <= err + err_swap

    @pytest.mark.parametrize(
        "cfg, reference",
        [(DepIBPrior(s, s, c), DepIBPrior(0.01, 0.01, 0.0)) for s in (1e-9, 1e-200, 1e-300) for c in (0.0, 1.0)]
        + [(DepIBPrior(0.2, s, c), DepIBPrior(0.2, 1e-20, 0.0)) for s in (1e-20, 1e-300) for c in (0.0, 1.0)],
    )
    def test_depib_scale_free_at_zero(self, cfg, reference):
        # centred at 0 with scales far below 1/2, only the clamp at 0 reaches the rates, which
        # then scale with s: the correlation does not depend on s, however small, nor, with a
        # zeta window alone that narrow, on sigma_zeta; a centre at 1 is the event swap of one
        # at 0, even where its window is narrower than the floats at 1
        assert prior_correlation(cfg) == pytest.approx(prior_correlation(reference), abs=1e-13)

    @pytest.mark.parametrize("center", [0.3, 0.7])
    def test_depib_point_mass_zeta(self, center):
        # a zeta window narrower than the floats around its centre is a point mass there; the
        # 30-digit reference is the eta integral at zeta = 0.3 (the event swap gives 0.7), and
        # a window of 1e-10, which the zeta rule still resolves, is within 1e-18 of it
        r, err = priors_mod._prior_correlation(DepIBPrior(0.5, 1e-300, center))
        assert abs(r - -0.981598178752357299914585337669) <= err
        assert r == pytest.approx(prior_correlation(DepIBPrior(0.5, 1e-10, center)), abs=err)

    @pytest.mark.parametrize(
        "cfg", [IBPrior(), LTPrior(), LTPrior(beta_prior=LOGISTIC), DepIBPrior()], ids=["ib", "lt", "lt-logistic", "dep-ib"]
    )
    def test_draws_nothing(self, cfg, monkeypatch):
        def refuse(*args):
            raise AssertionError("prior_correlation drew from the prior")

        monkeypatch.setattr(priors_mod, "_draw_rates", refuse)
        assert -1.0 <= prior_correlation(cfg) <= 1.0

    @pytest.mark.parametrize(
        "cfg",
        [IBPrior(2.5), LTPrior(1.0, 1.0), LTPrior(1.0, 1.0, LOGISTIC), DepIBPrior(), DepIBPrior(0.2, 0.5, 0.0)],
        ids=["ib", "lt", "lt-logistic", "dep-ib", "dep-ib-zeta0"],
    )
    def test_agrees_with_ten_million_draws(self, cfg):
        # 20 seeded blocks of 5e5 draws, pooled; the standard error comes from the blocks' spread
        sums, per_block = np.zeros(5), []
        for block in range(20):
            s = sample_prior(cfg, Hypothesis.H1, 500_000, seed=700 + block)
            u1, u2 = s.theta1 - 0.5, s.theta2 - 0.5
            part = np.array([u1.sum(), u2.sum(), (u1 * u1).sum(), (u2 * u2).sum(), (u1 * u2).sum()])
            sums += part
            per_block.append(_pearson(part, len(s)))
        pooled = _pearson(sums, 20 * 500_000)
        se = float(np.std(per_block, ddof=1)) / math.sqrt(20)
        assert abs(prior_correlation(cfg) - pooled) <= 4.0 * se

    @pytest.mark.parametrize("cfg", [LTPrior(), DepIBPrior()], ids=["lt", "dep-ib"])
    def test_peak_memory_is_small(self, cfg):
        special._jacobi_rule.cache_clear()
        tracemalloc.start()
        try:
            prior_correlation(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    @pytest.mark.parametrize("beta_prior", [BetaPriorKind.GAUSSIAN, LOGISTIC], ids=["gaussian", "logistic"])
    def test_wide_priors_reach_the_sign_limit(self, beta_prior):
        # at scales of 1e6 each rate is 0 or 1 but for a share of about 1e-6 of the prior, so
        # the correlation is that of the signs of x1, x2 = beta -/+ psi/2: given psi they differ
        # where |beta| < |psi|/2, and for a Gaussian beta (x1, x2) is Gaussian with correlation 0.6
        if beta_prior is LOGISTIC:
            tail, _ = integrate.quad(lambda z: math.tanh(z / 4.0) * math.exp(-0.5 * z * z), 0.0, np.inf)
            expected = 1.0 - 2.0 * tail / math.sqrt(0.5 * math.pi)
        else:
            expected = 2.0 / math.pi * math.asin(0.6)
        assert prior_correlation(lt(1e6, 1e6, beta_prior)) == pytest.approx(expected, abs=2e-6)

    def test_ladder_that_never_agrees_raises(self, monkeypatch):
        monkeypatch.setattr(priors_mod, "_LT_MAX_POINTS", 0)
        with pytest.raises(NumericalError, match="did not converge"):
            prior_correlation(LTPrior())

    def test_depib_weights_that_underflow_raise_without_a_warning(self):
        # at the smallest subnormal scales every weight of the first rung is 0, and
        # normalising them would divide 0 by 0 before the ladder gave up
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="did not converge"):
                prior_correlation(DepIBPrior(5e-324, 5e-324, 0.0))

    def test_wide_psi_scale_warns(self):
        with pytest.warns(WidePriorWarning):
            LTPrior(sigma_beta=1.0, sigma_psi=2.5)


class TestConditionalDensity:
    def test_independent_beta_is_flat_and_unmoved(self):
        grid = np.linspace(0.001, 0.999, 301)
        dg = conditional_theta2_density(IBPrior(1.0), 0.10, grid)
        np.testing.assert_allclose(dg.values, 1.0, atol=1e-12)

    def test_lt_conditional_shifts_toward_observed_rate(self):
        grid = np.linspace(0.001, 0.999, 999)
        cond = conditional_theta2_density(LTPrior(1.0, 1.0), 0.10, grid)
        marg = marginal_density(LTPrior(1.0, 1.0), "theta2", grid)
        mode = float(grid[np.argmax(cond.values)])
        assert mode < 0.5
        mean_cond = float(np.trapezoid(grid * cond.values, grid))
        mean_marg = float(np.trapezoid(grid * marg.values, grid) / marg.normalization)
        assert mean_cond < mean_marg  # pulled toward theta1 = 0.10

    def test_lt_conditional_equals_marginal_when_independent(self):
        grid = np.linspace(0.001, 0.999, 599)
        cond = conditional_theta2_density(wide_lt(2.0), 0.10, grid)
        marg = marginal_density(wide_lt(2.0), "theta2", grid)
        sup = float(np.max(np.abs(cond.values - marg.values)))
        assert sup / float(np.max(marg.values)) < 0.02

    def test_boundary_theta1_rejected_for_lt(self):
        with pytest.raises(DomainError):
            conditional_theta2_density(LTPrior(1.0, 1.0), 0.0, np.linspace(0.01, 0.99, 11))

    def test_unsupported_for_clamped_prior(self):
        with pytest.raises(UnsupportedFeatureError):
            conditional_theta2_density(DepIBPrior(), 0.1, np.linspace(0.01, 0.99, 11))


class TestMarginalDensity:
    def test_ib_eta_is_triangular(self):
        grid = np.linspace(-0.999, 0.999, 401)
        dg = marginal_density(IBPrior(1.0), "eta", grid)
        np.testing.assert_allclose(dg.values, 1.0 - np.abs(grid), atol=1e-8)

    def test_lt_psi_is_exactly_gaussian(self):
        grid = np.linspace(-6, 6, 301)
        for sp in (1.0, 2.0):
            dg = marginal_density(wide_lt(sp), "psi", grid)
            np.testing.assert_allclose(
                dg.values, np.exp(log_density_gaussian(grid, sp)), atol=1e-14
            )

    def test_lt_theta_marginal_matches_logit_normal_closed_form(self):
        # logit(theta1) = beta - psi/2 is Gaussian with variance
        # sigma_beta^2 + sigma_psi^2/4: the rate marginal is logit-normal
        grid = np.linspace(0.005, 0.995, 199)
        dg = marginal_density(LTPrior(1.0, 1.0), "theta", grid)
        s = math.sqrt(1.0 + 0.25)
        ref = np.exp(log_density_gaussian(np.log(grid / (1 - grid)), s)) / (
            grid * (1 - grid)
        )
        np.testing.assert_allclose(dg.values, ref, rtol=1e-8, atol=1e-12)

    def test_lt_theta1_and_theta2_marginals_agree(self):
        grid = np.linspace(0.01, 0.99, 99)
        m1 = marginal_density(LTPrior(1.0, 1.0), "theta1", grid)
        m2 = marginal_density(LTPrior(1.0, 1.0), "theta2", grid)
        assert float(np.max(np.abs(m1.values - m2.values))) <= 1e-6

    def test_ib_assigns_more_tail_mass_to_large_differences(self):
        grid = np.linspace(-0.999, 0.999, 799)
        ib = marginal_density(IBPrior(1.0), "eta", grid)
        lt = marginal_density(LTPrior(1.0, 1.0), "eta", grid)
        tail = lambda dg: float(
            np.trapezoid(np.where(np.abs(grid) > 0.5, dg.values, 0.0), grid)
        )
        assert tail(ib) > 5 * tail(lt)

    @pytest.mark.parametrize("a", [1.5, 2.0, 5.0, 20.0, 200.0])
    def test_ib_psi_noninteger_concentration_by_quadrature(self, a):
        grid = np.linspace(-6, 6, 101)
        dg = marginal_density(IBPrior(a), "psi", grid)
        assert dg.normalization == pytest.approx(1.0, abs=0.02)
        # against a peak-scaled 30-digit mpmath reference, within 1e-13 of 1 + |log f|
        psi = np.array([-8.0, -0.7, 0.0, 0.01, 2.5, 8.0])
        got = marginal_density(IBPrior(a), "psi", psi).values
        ref = np.array([ib_log_psi_density_mpmath(p, a) for p in psi])
        shown = ref > -700.0  # at a = 200 the density at |psi| = 8 is e^-1058, which underflows to 0
        assert np.all(np.abs(np.log(got[shown]) - ref[shown]) <= 1e-13 * (1.0 + np.abs(ref[shown])))
        assert np.all(got[~shown] == 0.0)

    def test_normalizations(self):
        eta_grid = np.linspace(-0.9995, 0.9995, 1201)
        for cfg in (IBPrior(1.0), IBPrior(2.0), LTPrior(1.0, 1.0)):
            dg = marginal_density(cfg, "eta", eta_grid)
            assert dg.normalization == pytest.approx(1.0, abs=0.02)
        psi_grid = np.linspace(-30, 30, 1501)
        for a in (1.0, 1.5):
            assert marginal_density(IBPrior(a), "psi", psi_grid).normalization == pytest.approx(1.0, abs=1e-6)
        assert marginal_density(LTPrior(1.0, 1.0), "psi", psi_grid).normalization == pytest.approx(
            1.0, abs=1e-6
        )

    def test_densities_symmetric(self):
        grid = np.linspace(-0.92, 0.92, 47)
        for cfg in (IBPrior(1.0), IBPrior(2.0), LTPrior(1.0, 1.0)):
            dg = marginal_density(cfg, "eta", grid)
            np.testing.assert_allclose(dg.values, dg.values[::-1], rtol=1e-7)

    def test_unknown_quantity_is_explicit_error(self):
        with pytest.raises(UnsupportedFeatureError):
            marginal_density(IBPrior(1.0), "zeta", np.linspace(0, 1, 11))

    def test_clamped_prior_unsupported(self):
        with pytest.raises(UnsupportedFeatureError):
            marginal_density(DepIBPrior(), "eta", np.linspace(-0.9, 0.9, 11))

    def test_mc_histogram_matches_closed_form_density(self):
        # the a = 1 closed form doubles as an oracle for the histogram path
        grid = np.linspace(-5, 5, 81)
        from bf2p.priors import sample_prior as sp_

        s = sp_(IBPrior(1.0), Hypothesis.H1, 1_000_000, seed=8)
        counts, edges = np.histogram(s.psi, bins=200, range=(-5.0, 5.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        dens = counts / (len(s) * (edges[1] - edges[0]))
        from bf2p.special import psi_density_ib_a1

        ref = np.array([psi_density_ib_a1(c).value for c in centers])
        se = np.sqrt(np.maximum(counts, 1)) / (len(s) * (edges[1] - edges[0]))
        assert np.all(np.abs(dens - ref) < 4 * se + 1e-4)

    @pytest.mark.parametrize(
        "cfg, quantity, lo, hi",
        [
            (IBPrior(1.0), "eta", -1.0, 1.0),
            (IBPrior(2.0), "eta", -1.0, 1.0),
            (IBPrior(2.0), "theta", 0.0, 1.0),
            (LTPrior(1.0, 1.0), "eta", -1.0, 1.0),
            (LTPrior(1.0, 1.0), "theta", 0.0, 1.0),
            (LTPrior(1.0, 1.0), "psi", -6.0, 6.0),
        ],
    )
    def test_histograms_of_draws_match_density_grids(self, cfg, quantity, lo, hi):
        # seeded draws, binned with no smoothing, vs the tabulated density
        n = 1_000_000
        s = sample_prior(cfg, Hypothesis.H1, n, seed=13)
        values = getattr(s, "theta1" if quantity == "theta" else quantity)
        counts, edges = np.histogram(values, bins=60, range=(lo, hi))
        centers = 0.5 * (edges[:-1] + edges[1:])
        width = edges[1] - edges[0]
        dens = counts / (n * width)
        se = np.sqrt(np.maximum(counts, 1)) / (n * width)
        ref = marginal_density(cfg, quantity, centers).values
        # bin-averaging bias is O(width^2 f''); allow it alongside 3 SE
        assert np.all(np.abs(dens - ref) < 3 * se + 0.02 * np.max(ref))


class TestIBPsiDensity:
    """The IB psi density at a != 1, one tanh-sinh rule over the first rate."""

    def test_bit_equal_on_repeat_and_symmetric(self):
        grid = np.linspace(-8, 8, 201)
        first = marginal_density(IBPrior(2.5), "psi", grid).values
        np.testing.assert_array_equal(first, marginal_density(IBPrior(2.5), "psi", grid).values)
        np.testing.assert_array_equal(first, marginal_density(IBPrior(2.5), "psi", -grid).values)

    def test_unconverged_rule_is_a_numerical_error(self, monkeypatch):
        # far out, the rule's two finest levels still differ by more than 1e-12 (5e-12 at psi = 190)
        with pytest.raises(NumericalError, match=r"\[250\.0\]"):
            marginal_density(IBPrior(2.0), "psi", np.array([0.5, 250.0]))
        monkeypatch.setattr(special, "_TS_LEVELS", range(2, 3))
        with pytest.raises(NumericalError, match="IB psi density"):
            marginal_density(IBPrior(2.0), "psi", np.array([0.5]))


class TestLTMarginalsAgainstOracle:
    """The numpy LT marginals against 30-digit mpmath quadrature (tests/oracles.py)."""

    ETA = (-0.95, -0.5, -0.1, 0.0, 0.02, 0.3, 0.77)

    @pytest.mark.parametrize(
        "cfg",
        [lt(1, 1), lt(1, 2.5), lt(2, 0.5), lt(0.2, 0.2), lt(5, 5), lt(0.5, 1, LOGISTIC)],
        ids=["1-1", "1-2.5", "2-0.5", "0.2-0.2", "5-5", "logistic-0.5-1"],
    )
    def test_eta_density(self, cfg):
        got = marginal_density(cfg, "eta", np.array(self.ETA)).values
        ref = np.array(
            [lt_eta_density_mpmath(e, cfg.sigma_beta, cfg.sigma_psi, cfg.beta_prior is LOGISTIC) for e in self.ETA]
        )
        shown = ref > 1e-200
        np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-10, atol=0.0)
        assert np.all(got[~shown] <= 1e-190)

    def test_wide_prior_keeps_the_corner_mass(self):
        # under LTPrior(5, 5) the mass at eta = 0 sits at theta ~ e^-25
        assert marginal_density(lt(5, 5), "eta", np.array([0.0])).values[0] == pytest.approx(4.28206e4, rel=1e-5)

    @pytest.mark.parametrize("sigma_beta, sigma_psi", [(0.5, 1.0), (0.05, 1.0), (3.0, 1.0)])
    def test_logistic_theta_density(self, sigma_beta, sigma_psi):
        t = np.array([1e-6, 0.05, 0.3, 0.5, 0.77, 0.999])
        got = marginal_density(lt(sigma_beta, sigma_psi, LOGISTIC), "theta", t).values
        ref = np.array([lt_theta_density_mpmath(v, sigma_beta, sigma_psi) for v in t])
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)

    def test_logistic_pole_at_zero_is_a_domain_error(self):
        for sigma_beta in (1.0, 2.0):
            with pytest.raises(DomainError, match="pole at eta = 0"):
                marginal_density(lt(sigma_beta, 1, LOGISTIC), "eta", np.linspace(-1, 1, 201))
        vals = marginal_density(lt(2, 1, LOGISTIC), "eta", np.linspace(-0.99, 0.99, 100)).values
        assert np.all(np.isfinite(vals))

    def test_unconverged_rule_names_its_points(self, monkeypatch):
        # capped before any two levels can agree, the rule must raise, not return its last level
        monkeypatch.setattr(special, "_TS_LEVELS", range(2, 3))
        with pytest.raises(NumericalError, match=r"\[-0\.5, 0\.25\]"):
            marginal_density(lt(1, 1), "eta", np.array([-0.5, 0.25, 1.0]))

    def test_mass_beyond_the_rule_is_a_numerical_error(self):
        # sigma_beta just below 1: the eta = 0 integrand decays like e^(-0.001 |beta|)
        with pytest.raises(NumericalError, match=r"\[0\.0\]"):
            marginal_density(lt(0.999, 1, LOGISTIC), "eta", np.array([0.0, 0.5]))

    def test_overflowing_density_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            marginal_density(lt(40, 1), "eta", np.array([0.0, 0.5]))

    def test_outside_the_support_is_zero(self):
        assert list(marginal_density(lt(1, 1), "eta", np.array([-1.0, 1.0, 1.5])).values) == [0.0] * 3
        assert list(marginal_density(lt(0.5, 1, LOGISTIC), "theta", np.array([0.0, 1.0])).values) == [0.0] * 2


class TestJointGrids:
    def test_flat_square_for_uniform_priors(self):
        dg = joint_density_grid(IBPrior(1.0), "theta1_theta2", resolution=64)
        np.testing.assert_allclose(dg.values, 1.0, atol=1e-12)

    def test_ib_difference_slices_are_flat_over_their_support(self):
        dg = joint_density_grid(IBPrior(1.0), "theta1_eta", resolution=128)
        i = 32  # a fixed theta1 slice
        t1 = dg.x_axis[i]
        slice_vals = dg.values[i]
        support = (dg.y_axis > -t1) & (dg.y_axis < 1 - t1)
        inner = support.copy()
        inner[np.where(support)[0][[0, -1]]] = False  # half cells at the edges
        assert float(np.ptp(slice_vals[inner])) < 1e-9
        assert np.all(slice_vals[~support] == 0.0)

    def test_ib_conditional_mean_difference_is_linear_by_quadrature(self):
        # E[eta | theta1] = 1/2 - theta1 under uniform priors
        for t1 in (0.1, 0.3, 0.5, 0.7, 0.9):
            f = lambda e: math.exp(log_density_beta(t1 + e, 1.0))
            num, _ = integrate.quad(lambda e: e * f(e), -t1, 1 - t1)
            den, _ = integrate.quad(f, -t1, 1 - t1)
            assert num / den == pytest.approx(0.5 - t1, abs=1e-3)

    def test_lt_expects_smaller_differences_at_extreme_rates(self):
        dg = joint_density_grid(LTPrior(1.0, 1.0), "theta1_eta", resolution=256)
        def mean_abs_eta_at(t1_target):
            i = int(np.argmin(np.abs(dg.x_axis - t1_target)))
            w = dg.values[i]
            return float(np.sum(np.abs(dg.y_axis) * w) / np.sum(w))
        assert mean_abs_eta_at(0.05) < mean_abs_eta_at(0.5)

    def test_theta1_psi_grid_normalizes(self):
        for cfg in (IBPrior(1.0), LTPrior(1.0, 1.0)):
            dg = joint_density_grid(cfg, "theta1_psi", resolution=256)
            total = float(
                np.trapezoid(np.trapezoid(dg.values, dg.y_axis, axis=1), dg.x_axis)
            )
            assert total == pytest.approx(1.0, abs=0.02)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            joint_density_grid(IBPrior(1.0), "theta1_theta2", resolution=32)

    def test_grids_exclude_exact_boundaries(self):
        dg = joint_density_grid(LTPrior(1.0, 1.0), "theta1_theta2", resolution=64)
        assert dg.x_axis[0] > 0.0 and dg.x_axis[-1] < 1.0
        assert np.all(np.isfinite(dg.values))
