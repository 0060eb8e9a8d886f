"""Dependent truncated-Gaussian variant with clamped rates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.stats import truncnorm

import bf2p.dep_ib as dep_ib_mod
import bf2p.lt as lt_mod
from bf2p.dep_ib import (
    bf01_depib,
    clamped_rates,
    log_ml_h0_depib,
    log_ml_h1_depib,
    prior_correlation_depib,
)
from bf2p.ib import bf01_ib
from bf2p.model import DepIBPrior, Hypothesis, Method, TwoByTwoData
from mc_oracle import mc_log_marginal_depib
from bf2p.priors import sample_prior
from conftest import check_newton_mode, random_small_datasets
from oracles import depib_log_marginals_gauss_legendre


class TestClampedRates:
    def test_interior_passthrough(self):
        p = clamped_rates(0.0, 0.3)
        assert (p.theta1, p.theta2) == (0.3, 0.3)

    def test_lower_clamp(self):
        p = clamped_rates(0.9, 0.1)
        assert p.theta1 == 0.0
        assert p.theta2 == pytest.approx(0.55)

    def test_upper_clamp(self):
        p = clamped_rates(-0.5, 0.9)
        assert p.theta1 == 1.0  # 1.15 clamped
        assert p.theta2 == pytest.approx(0.65)


class TestMarginals:
    def test_h1_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        cfg = DepIBPrior()
        lml = log_ml_h1_depib(d, cfg)
        est = mc_log_marginal_depib(d, cfg, Hypothesis.H1, n_draws=400_000, seed=5)
        assert abs(lml - est.log_value) < 3 * est.std_error

    def test_h0_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        cfg = DepIBPrior()
        lml = log_ml_h0_depib(d, cfg)
        est = mc_log_marginal_depib(d, cfg, Hypothesis.H0, n_draws=400_000, seed=6)
        assert abs(lml - est.log_value) < 3 * est.std_error

    def test_clamped_region_contributes_nothing_when_events_observed(self):
        # with y1 > 0 the theta1 = 0 wedge has zero likelihood, so the
        # marginal must not change when that wedge is (not) integrated;
        # equivalently it equals the MC estimate built from draws where
        # clamped theta1 = 0 samples score zero likelihood
        d = TwoByTwoData(2, 15, 0, 15)
        cfg = DepIBPrior(sigma_eta=0.5)
        lml = log_ml_h1_depib(d, cfg)
        est = mc_log_marginal_depib(d, cfg, Hypothesis.H1, n_draws=400_000, seed=7)
        assert abs(lml - est.log_value) < 3 * est.std_error

    def test_symmetric_data_invariant_under_group_swap(self):
        d = TwoByTwoData(5, 20, 5, 20)
        cfg = DepIBPrior()
        assert log_ml_h1_depib(d, cfg) == pytest.approx(
            log_ml_h1_depib(d.swapped(), cfg), rel=1e-9
        )

    def test_quadrature_vs_mc_on_random_small_datasets(self):
        cfg = DepIBPrior()
        for i, d in enumerate(random_small_datasets(10, n_max=25, seed=41)):
            lml = log_ml_h1_depib(d, cfg)
            est = mc_log_marginal_depib(d, cfg, Hypothesis.H1, n_draws=150_000, seed=500 + i)
            assert abs(lml - est.log_value) < 3 * est.std_error, d


class TestBayesFactor:
    def test_equal_count_curve_is_decreasing(self):
        cfg = DepIBPrior()
        vals = [bf01_depib(TwoByTwoData(y, 100, y, 100), cfg).bf01 for y in (0, 25, 50)]
        assert vals[0] > vals[1] > vals[2]

    def test_decreases_as_difference_scale_shrinks(self):
        d = TwoByTwoData(10, 100, 10, 100)
        narrow = bf01_depib(d, DepIBPrior(sigma_eta=0.2)).bf01
        wide = bf01_depib(d, DepIBPrior(sigma_eta=1.0)).bf01
        assert narrow < wide

    def test_group_swap_symmetry(self):
        d = TwoByTwoData(4, 18, 9, 21)
        cfg = DepIBPrior()
        assert bf01_depib(d, cfg).log_bf01 == pytest.approx(
            bf01_depib(d.swapped(), cfg).log_bf01, rel=1e-8
        )

    def test_method_tag(self):
        r = bf01_depib(TwoByTwoData(3, 10, 5, 12), DepIBPrior())
        assert r.method_tag is Method.QUADRATURE

    def test_near_uniform_prior_limit(self):
        # at sigma 50 the truncated prior is flat on the (eta, zeta) box;
        # the interior pushforward density on the rate square is then 1/2
        # (Jacobian 1, eta support width 2), so the H1 marginal halves
        # and BF01 doubles relative to the flat independent-Beta test
        d = TwoByTwoData(5, 20, 8, 20)
        wide = bf01_depib(d, DepIBPrior(sigma_eta=50.0, sigma_zeta=50.0)).bf01
        assert wide / bf01_ib(d, 1.0).bf01 == pytest.approx(2.0, rel=0.15)


def _swap_sides(y1, n1, y2, n2):
    """The study's counts, its group swap, its event swap and both swaps."""
    return [(y1, n1, y2, n2), (y2, n2, y1, n1), (n1 - y1, n1, n2 - y2, n2), (n2 - y2, n2, n1 - y1, n1)]


#: Cores that take the rate pair: the studies of the benchmark's dep-IB panel
#: with a count at 0 or n, under the sweep's narrowest and widest eta scales,
#: and a single-trial study on every swap side.
_RATE_CELLS = [
    (counts, DepIBPrior(sigma_eta))
    for counts in [(0, 16, 3, 16), (8, 12, 12, 12), (0, 10, 2, 10), (0, 20, 0, 20)]
    for sigma_eta in (0.2, 1.0)
] + [(side, DepIBPrior(0.5, 0.5)) for side in _swap_sides(0, 1, 1, 1)]


def _h1_core_route(d, cfg, monkeypatch) -> str:
    """How the H1 core is integrated: "rates", "ladder" (Gauss-Hermite) or "tanh-sinh"."""
    seen = []

    def recording(fn):
        def wrapped(*args):
            seen.append(args[-1])  # the problem's name
            return fn(*args)

        return wrapped

    monkeypatch.setattr(dep_ib_mod, "_integrate", recording(dep_ib_mod._integrate))
    monkeypatch.setattr(lt_mod, "_whitened_tanhsinh", recording(lt_mod._whitened_tanhsinh))
    dep_ib_mod._log_ml_h1(d, cfg)
    if "dep-IB H1 core marginal" in seen:
        return "tanh-sinh"
    return "ladder" if "dep-IB H1 core" in seen else "rates"


class TestAgainstGaussLegendreOracle:
    @pytest.mark.parametrize(
        "counts, sigma_eta, zeta_center",
        [
            ((3, 10, 5, 12), 0.2, 0.5),  # interior counts: core only
            ((0, 8, 3, 9), 0.2, 0.5),  # theta1 clamped to 0
            ((2, 7, 6, 6), 0.5, 0.5),  # theta2 clamped to 1
            ((4, 9, 0, 8), 1.0, 0.5),  # theta2 clamped to 0
            ((7, 7, 2, 9), 0.2, 0.5),  # theta1 clamped to 1
            ((2, 6, 4, 7), 0.2, 0.0),  # zeta prior centred at 0
            ((0, 8, 3, 9), 1.0, 0.0),
            # Gauss-Hermite has not converged by 241 nodes here, so the
            # tanh-sinh fallback runs
            ((0, 3, 0, 3), 0.05, 0.5),
            ((1, 2, 0, 2), 0.05, 0.5),
            ((0, 1, 1, 1), 0.05, 0.5),
        ],
    )
    def test_log_bf01_within_reported_error(self, counts, sigma_eta, zeta_center):
        d = TwoByTwoData(*counts)
        res = bf01_depib(d, DepIBPrior(sigma_eta=sigma_eta, zeta_center=zeta_center))
        ml0, ml1, gap = depib_log_marginals_gauss_legendre(
            d, sigma_eta, zeta_center=zeta_center
        )
        assert gap <= 1e-11
        assert abs(res.log_bf01 - (ml0 - ml1)) <= res.abs_error_estimate + 1e-10

    @pytest.mark.parametrize(
        "counts, sigma_eta, sigma_zeta",
        [((7, 7, 2, 9), 0.05, 0.3), ((0, 3, 0, 3), 0.05, 0.5), ((0, 2, 0, 2), 0.02, 0.5)],
    )
    def test_tanh_sinh_error_estimate_bounds_the_error(self, counts, sigma_eta, sigma_zeta):
        # the tanh-sinh fallback and the clamped wedges run here; their error
        # estimates must cover the distance to the oracle with no slack
        d = TwoByTwoData(*counts)
        res = bf01_depib(d, DepIBPrior(sigma_eta, sigma_zeta))
        ml0, ml1, gap = depib_log_marginals_gauss_legendre(d, sigma_eta, sigma_zeta)
        assert abs(res.log_bf01 - (ml0 - ml1)) <= res.abs_error_estimate + gap

    @pytest.mark.parametrize("counts, cfg", _RATE_CELLS)
    def test_rate_pair_error_estimate_bounds_the_error(self, counts, cfg):
        d = TwoByTwoData(*counts)
        res = bf01_depib(d, cfg)
        ml0, ml1, gap = depib_log_marginals_gauss_legendre(d, cfg.sigma_eta, cfg.sigma_zeta)
        assert gap <= 1e-11
        assert abs(res.log_bf01 - (ml0 - ml1)) <= res.abs_error_estimate

    @pytest.mark.parametrize(
        "counts, cfg, route",
        [(counts, cfg, "rates") for counts, cfg in _RATE_CELLS]
        + [
            # a narrow eta prior's ridge along t1 = t2 defeats the rate pair: these
            # cores go past the Gauss-Hermite ladder to tanh-sinh
            ((0, 3, 0, 3), DepIBPrior(0.05), "tanh-sinh"),
            ((1, 2, 0, 2), DepIBPrior(0.05), "tanh-sinh"),
            ((0, 1, 1, 1), DepIBPrior(0.05), "tanh-sinh"),
            ((7, 7, 2, 9), DepIBPrior(0.05, 0.3), "tanh-sinh"),
            ((0, 2, 0, 2), DepIBPrior(0.02, 0.5), "tanh-sinh"),
            # interior counts, and large n with a count at 0 or n, take the rate pair
            ((3, 10, 5, 12), DepIBPrior(0.2), "rates"),
            ((18, 493, 10, 488), DepIBPrior(0.2), "rates"),
            ((0, 100, 3, 100), DepIBPrior(0.2), "rates"),
            ((0, 100, 3, 100), DepIBPrior(0.05), "rates"),  # likelihoods narrower than the ridge
            # the ridge sends these to the Gauss-Hermite ladder, which resolves them
            ((3, 10, 5, 12), DepIBPrior(0.05), "ladder"),
            ((4, 16, 6, 16), DepIBPrior(0.05), "ladder"),
        ],
    )
    def test_h1_core_route(self, counts, cfg, route, monkeypatch):
        assert _h1_core_route(TwoByTwoData(*counts), cfg, monkeypatch) == route

    @pytest.mark.parametrize(
        "counts, cfg, ref",
        [
            # 25-digit references, where tanh-sinh and Gauss-Legendre in mpmath
            # agree to 22 digits; the rate pair's two rules agree to the last
            # bits here, so only the rounding floor can cover the error
            ((0, 20, 0, 1), DepIBPrior(0.5, 1.0, zeta_center=0.0), -4.0062175619169143386),
            ((1, 2, 0, 16), DepIBPrior(0.2, 1.0), -5.36829711862840975563),
            ((0, 9, 1, 16), DepIBPrior(0.5, 1.0), -8.152092689992427164145),
        ],
    )
    def test_rate_pair_estimate_covers_its_rounding(self, counts, cfg, ref, monkeypatch):
        d = TwoByTwoData(*counts)
        assert _h1_core_route(d, cfg, monkeypatch) == "rates"
        val, err = dep_ib_mod._log_core(d, cfg)
        assert abs(val - ref) <= err

    @pytest.mark.parametrize(
        "counts, sigma_eta",
        [((0, 8, 3, 9), 0.2), ((2, 7, 6, 6), 0.5), ((0, 3, 0, 3), 0.05), ((0, 10**8, 0, 10**8), 0.2)],
    )
    def test_group_and_event_swap_symmetry(self, counts, sigma_eta):
        # at n = 1e8 the all-events side's rates round to exactly 1 in the
        # prior's tail, which must keep its density as the no-events side does
        d = TwoByTwoData(*counts)
        cfg = DepIBPrior(sigma_eta=sigma_eta)
        ref = bf01_depib(d, cfg)
        events = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        for other in (d.swapped(), events):
            res = bf01_depib(other, cfg)
            assert res.log_ml_h0 == pytest.approx(ref.log_ml_h0, rel=1e-12)
            assert res.log_ml_h1 == pytest.approx(ref.log_ml_h1, rel=1e-12)


#: Interior, a count at 0 or n, rare events at large n, and n = 1e6.
_NEWTON_STUDIES = [(3, 10, 5, 12), (0, 8, 3, 9), (7, 7, 2, 9), (26, 11034, 10, 11037), (0, 10**6, 5, 10**6)]
_NEWTON_PRIORS = [DepIBPrior(), DepIBPrior(0.05, 0.3), DepIBPrior(1.0, 0.5, zeta_center=0.0)]


class TestFloatNewton:
    @pytest.mark.parametrize("counts", _NEWTON_STUDIES)
    @pytest.mark.parametrize("cfg", _NEWTON_PRIORS)
    def test_mode_and_scale_match_finite_differences(self, counts, cfg):
        for problem in (dep_ib_mod._h0, dep_ib_mod._core):
            check_newton_mode(*problem(TwoByTwoData(*counts), cfg))

    @pytest.mark.parametrize("counts", _NEWTON_STUDIES)
    @pytest.mark.parametrize("cfg", _NEWTON_PRIORS)
    def test_no_point_evaluated_twice(self, counts, cfg, monkeypatch):
        points = []

        def counting(problem):
            def build(*args):
                logf, grad_hess, x0 = problem(*args)

                def wrapped(*coords):
                    if isinstance(coords[0], float):  # one point: a Newton step check
                        points.append(coords)
                    return logf(*coords)

                return wrapped, grad_hess, x0

            return build

        for name in ("_h0", "_core"):
            monkeypatch.setattr(dep_ib_mod, name, counting(getattr(dep_ib_mod, name)))
        d = TwoByTwoData(*counts)
        for hyp in (Hypothesis.H0, Hypothesis.H1):
            points.clear()
            dep_ib_mod._log_ml(d, hyp, cfg)
            assert len(set(points)) == len(points), hyp


class TestPriorDraws:
    def test_correlation_at_default_scales(self):
        assert prior_correlation_depib(DepIBPrior(), seed=0) == pytest.approx(0.77, abs=0.01)

    def test_correlation_vanishes_at_wide_difference_scale(self):
        r = prior_correlation_depib(DepIBPrior(sigma_eta=1.0), seed=0)
        assert r == pytest.approx(0.0, abs=0.01)

    def test_correlation_monotone_in_difference_scale(self):
        vals = [
            prior_correlation_depib(DepIBPrior(sigma_eta=s), seed=1)
            for s in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            prior_correlation_depib(DepIBPrior(), n_draws=10_000)

    def test_clamp_fraction_matches_analytic_tail_mass(self):
        cfg = DepIBPrior()
        n = 2_000_000
        t1 = sample_prior(cfg, Hypothesis.H1, n, seed=9).theta1
        frac = float(np.mean((t1 == 0.0) | (t1 == 1.0)))
        eta_rv = truncnorm(-1 / cfg.sigma_eta, 1 / cfg.sigma_eta, loc=0, scale=cfg.sigma_eta)
        zeta_rv = truncnorm(
            (0 - cfg.zeta_center) / cfg.sigma_zeta,
            (1 - cfg.zeta_center) / cfg.sigma_zeta,
            loc=cfg.zeta_center,
            scale=cfg.sigma_zeta,
        )
        expected, _ = integrate.quad(
            lambda e: eta_rv.pdf(e) * (zeta_rv.cdf(e / 2) + 1 - zeta_rv.cdf(1 + e / 2)),
            -1.0,
            1.0,
            limit=200,
        )
        se = math.sqrt(expected * (1 - expected) / n)
        assert abs(frac - expected) < 3 * se

    def test_reproducible_given_seed(self):
        a1 = sample_prior(DepIBPrior(), Hypothesis.H1, 1000, seed=4)
        a2 = sample_prior(DepIBPrior(), Hypothesis.H1, 1000, seed=4)
        np.testing.assert_array_equal(a1.theta1, a2.theta1)
        np.testing.assert_array_equal(a1.theta2, a2.theta2)

    def test_alternative_zeta_reading_available(self):
        # kernel centered at 0 concentrates the grand mean low and
        # weakens the induced correlation
        r = prior_correlation_depib(DepIBPrior(zeta_center=0.0), seed=0)
        assert r == pytest.approx(0.745, abs=0.01)


class TestLargeStudyWedges:
    # one group's count sits on a bound and n runs to thousands, so the
    # clamped wedge's likelihood peak is narrow
    STUDIES = {
        (1092, 1092, 4102, 4422): -71.08971268,
        (2150, 2150, 235, 4387): -3358.38892689,
        (384, 4891, 694, 694): -1380.87766914,
    }

    @pytest.mark.parametrize("counts", list(STUDIES))
    def test_every_side_returns_the_same_value(self, counts):
        d = TwoByTwoData(*counts)
        events = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        for side in (d, d.swapped(), events):
            res = bf01_depib(side, DepIBPrior())
            assert res.log_bf01 == pytest.approx(self.STUDIES[counts], abs=1e-8), side

    def test_matches_gauss_legendre_oracle(self):
        d = TwoByTwoData(1092, 1092, 4102, 4422)
        res = bf01_depib(d, DepIBPrior())
        ml0, ml1, gap = depib_log_marginals_gauss_legendre(d, 0.2)
        assert gap <= 1e-11
        assert abs(res.log_bf01 - (ml0 - ml1)) <= res.abs_error_estimate + 1e-10


class TestClampedRatesProperties:
    @given(eta=st.floats(-1, 1), zeta=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_rates_always_land_in_unit_interval(self, eta, zeta):
        p = clamped_rates(eta, zeta)
        assert 0.0 <= p.theta1 <= 1.0
        assert 0.0 <= p.theta2 <= 1.0

    @given(eta=st.floats(-1, 1), zeta=st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_unclamped_points_reconstruct_coordinates(self, eta, zeta):
        p = clamped_rates(eta, zeta)
        interior = 0.0 < p.theta1 < 1.0 and 0.0 < p.theta2 < 1.0
        untouched = (0.0 <= zeta - eta / 2 <= 1.0) and (0.0 <= zeta + eta / 2 <= 1.0)
        if interior and untouched:
            assert p.theta2 - p.theta1 == pytest.approx(eta, abs=1e-12)
            assert 0.5 * (p.theta1 + p.theta2) == pytest.approx(zeta, abs=1e-12)
