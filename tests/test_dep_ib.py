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
    log_ml_h0_depib,
    log_ml_h1_depib,
    prior_correlation_depib,
)
from bf2p.ib import bf01_ib
from bf2p.model import DepIBPrior, Hypothesis, Method, TwoByTwoData
from mc_oracle import mc_log_marginal_depib
from bf2p.priors import _zeta_is_point, sample_prior
from conftest import random_small_datasets
from oracles import depib_log_marginals_gauss_legendre


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
    """How the H1 core is integrated: "rates" (the Gauss-Jacobi pair) or "parts" (graded in (zeta, eta))."""
    seen = []
    core_parts = dep_ib_mod._log_core_parts

    def recording(*args):
        seen.append(args)
        return core_parts(*args)

    monkeypatch.setattr(dep_ib_mod, "_log_core_parts", recording)
    dep_ib_mod._log_ml_h1(d, cfg)
    return "parts" if seen else "rates"


def _wedge_routes(d, cfg, monkeypatch) -> list[str]:
    """How each clamped wedge is integrated: "pair", "pair, B skipped" or "tanh-sinh".

    The pair asks ``_first_agreement`` once for A and once for B, unless it leaves B out.
    """
    routes, ladders = [], []
    log_wedge_rates = dep_ib_mod._log_wedge_rates

    def agreement(estimates):
        ladders.append(estimates)
        return lt_mod._first_agreement(estimates)

    def rates(*args):
        ladders.clear()
        found = log_wedge_rates(*args)
        routes.append("tanh-sinh" if found is None else "pair" if len(ladders) == 2 else "pair, B skipped")
        return found

    monkeypatch.setattr(dep_ib_mod, "_first_agreement", agreement)
    monkeypatch.setattr(dep_ib_mod, "_log_wedge_rates", rates)
    dep_ib_mod._log_ml_h1(d, cfg)
    return routes


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
            # the rate pair disagrees here, so the core takes its graded parts
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
        # the core's graded parts and the clamped wedges run here; their error
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
            # cores take the graded parts in (zeta, eta)
            ((0, 3, 0, 3), DepIBPrior(0.05), "parts"),
            ((1, 2, 0, 2), DepIBPrior(0.05), "parts"),
            ((0, 1, 1, 1), DepIBPrior(0.05), "parts"),
            ((7, 7, 2, 9), DepIBPrior(0.05, 0.3), "parts"),
            ((0, 2, 0, 2), DepIBPrior(0.02, 0.5), "parts"),
            # interior counts, and large n with a count at 0 or n, take the rate pair
            ((3, 10, 5, 12), DepIBPrior(0.2), "rates"),
            ((18, 493, 10, 488), DepIBPrior(0.2), "rates"),
            ((0, 100, 3, 100), DepIBPrior(0.2), "rates"),
            ((0, 100, 3, 100), DepIBPrior(0.05), "rates"),  # likelihoods narrower than the ridge
            # at moderate n the ridge defeats the pair too
            ((3, 10, 5, 12), DepIBPrior(0.05), "parts"),
            ((4, 16, 6, 16), DepIBPrior(0.05), "parts"),
        ],
    )
    def test_h1_core_route(self, counts, cfg, route, monkeypatch):
        assert _h1_core_route(TwoByTwoData(*counts), cfg, monkeypatch) == route

    @pytest.mark.parametrize(
        "counts, cfg, routes",
        [
            # the benchmark panel's wedges, under the sweep's narrowest and widest eta scales
            *(
                (counts, DepIBPrior(sigma_eta), ["pair"])
                for counts in [(0, 16, 3, 16), (8, 12, 12, 12), (0, 10, 2, 10)]
                for sigma_eta in (0.2, 1.0)
            ),
            # free counts (12, 16): the kernel's peak lies past u = 1/2
            ((0, 16, 12, 16), DepIBPrior(), ["pair"]),
            # a narrow prior at small n: its Gaussian factor in u is no polynomial's
            ((0, 3, 1, 3), DepIBPrior(0.1, 0.3), ["tanh-sinh"]),
            # at n = 1e6 the kernel leaves B below the rounding of A
            ((0, 20, 7, 10**6), DepIBPrior(), ["pair, B skipped"]),
        ],
    )
    def test_wedge_route(self, counts, cfg, routes, monkeypatch):
        assert _wedge_routes(TwoByTwoData(*counts), cfg, monkeypatch) == routes

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


#: H0 cells off the pooled counts' pair: narrow zeta priors centred at 0, at 0.3 and
#: at 1/2, on studies from (1, 1, 1, 1) to n = 2e4.
_H0_PIECE_CELLS = [
    ((1, 1, 1, 1), DepIBPrior(0.2, 0.001, 0.0)),
    ((25, 25, 25, 25), DepIBPrior(0.2, 0.001, 0.0)),
    ((2, 2, 1, 1), DepIBPrior(0.2, 0.001, 0.3)),
    ((18, 493, 10, 488), DepIBPrior(0.2, 1e-4)),
    ((50, 100, 60, 100), DepIBPrior(0.2, 1e-12, 0.0)),
    ((0, 10000, 30, 10000), DepIBPrior(0.2, 1e-8, 0.0)),
]


def _h0_route(d, cfg, monkeypatch) -> str:
    """How H0 is integrated: "point mass", "rates" or "pieces"; LT's engine must not run."""
    seen = []

    def refuse(*args, **kwargs):
        raise AssertionError(f"H0 called LT's Newton iteration on {args[3]}")

    def recording(fn):
        def wrapped(*args):
            seen.append(fn.__name__)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(lt_mod, "_newton", refuse)
    for name in ("_kernel_rule", "_log_rate_pieces"):
        monkeypatch.setattr(dep_ib_mod, name, recording(getattr(dep_ib_mod, name)))
    assert math.isfinite(dep_ib_mod._log_ml_h0(d, cfg)[0])
    return "pieces" if "_log_rate_pieces" in seen else "rates" if seen else "point mass"


class TestH0:
    @pytest.mark.parametrize(
        "counts, cfg, route",
        [(counts, cfg, "pieces") for counts, cfg in _H0_PIECE_CELLS]
        + [(counts, cfg, "rates") for counts, cfg in _RATE_CELLS]
        + [
            ((18, 493, 10, 488), DepIBPrior(0.2, 1e-300, 0.3), "point mass"),
            ((0, 10**8, 10**8, 10**8), DepIBPrior(0.05, 1e-20, 0.7), "point mass"),
        ],
    )
    def test_route_never_reaches_the_engine(self, counts, cfg, route, monkeypatch):
        assert _h0_route(TwoByTwoData(*counts), cfg, monkeypatch) == route

    @pytest.mark.parametrize("counts", [(18, 493, 10, 488), (0, 10**8, 10**8, 10**8), (3, 3, 0, 1)])
    @pytest.mark.parametrize("center", [0.3, 0.7])
    def test_point_mass_is_the_likelihood_at_the_centre(self, counts, center):
        # zeta's window, 9e-300 either side of its centre, rounds to the centre
        d = TwoByTwoData(*counts)
        y, n = d.pooled
        lik = y * math.log(center) + (n - y) * math.log1p(-center)
        assert dep_ib_mod._log_ml_h0(d, DepIBPrior(0.2, 1e-300, center)) == (
            lt_mod._log_coeffs(d) + lik,
            lt_mod._ROUNDING * (1.0 + abs(lik)),
        )

    def test_centre_at_a_bound_is_no_point_mass(self):
        # log 0 would lose the marginal: a window at 0 or 1 goes to the rules and the pieces
        assert _zeta_is_point(DepIBPrior(0.2, 1e-300, 0.3))
        assert not _zeta_is_point(DepIBPrior(0.2, 1e-300, 0.0))
        assert not _zeta_is_point(DepIBPrior(0.2, 1e-300, 1.0))
        assert not _zeta_is_point(DepIBPrior(0.2, 1e-15, 0.3))


_PEAK_STUDIES = [(3, 10, 5, 12), (0, 8, 3, 9), (7, 7, 2, 9), (26, 11034, 10, 11037), (0, 10**6, 5, 10**6)]
_PEAK_PRIORS = [DepIBPrior(), DepIBPrior(0.05, 0.3), DepIBPrior(1.0, 0.5, zeta_center=0.0)]


class TestPooledPeakAndParts:
    @pytest.mark.parametrize("counts", _PEAK_STUDIES)
    @pytest.mark.parametrize("cfg", _PEAK_PRIORS)
    def test_peak_and_width_match_finite_differences(self, counts, cfg):
        # the log integrand falls either side of u by about h^2 root^2 / 2, so u is its peak to 1e-3 widths,
        # and its second difference there is -root^2: 1 / root is the peak's width
        y, n = TwoByTwoData(*counts).pooled
        c, sz = cfg.zeta_center, cfg.sigma_zeta
        u, v, root = dep_ib_mod._pooled_peak(y, n, c, sz)
        assert u + v == pytest.approx(1.0, abs=1e-15)
        f = lambda t: y * math.log(t) + (n - y) * math.log1p(-t) - (t - c) ** 2 / (2 * sz * sz)  # noqa: E731
        h = 1e-3 / root
        for step in (h, -h):
            assert f(u) - f(u + step) == pytest.approx(0.5e-6, rel=1e-3)
        assert -(f(u + h) - 2 * f(u) + f(u - h)) / (h * root) ** 2 == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("counts", _PEAK_STUDIES)
    @pytest.mark.parametrize("cfg", _PEAK_PRIORS)
    def test_parts_match_a_fine_rate_rule(self, counts, cfg):
        # the parts stand where the RATE_NODES pair disagrees (the narrow eta prior's small studies here);
        # on every cell they must give the core of a 160-node rate rule within _log_core's estimate of them
        d = TwoByTwoData(*counts)
        with np.errstate(divide="ignore", invalid="ignore"):
            found = lt_mod._first_agreement(dep_ib_mod._log_core_parts(d, cfg))
            reference = dep_ib_mod._log_core_rates(d, cfg, 160)
        assert found is not None
        assert abs(found[0] - reference) <= max(found[1], lt_mod._ROUNDING * (d.n1 + d.n2))


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

    def test_draws_clamp_each_rate_into_the_unit_interval(self):
        # a wide eta prior pushes zeta -/+ eta/2 past both bounds: each side of each rate takes point
        # mass exactly on the bound, and no draw clamps both rates, since that would need |eta| >= 1
        s = sample_prior(DepIBPrior(sigma_eta=1.0), Hypothesis.H1, 200_000, seed=10)
        for t in (s.theta1, s.theta2):
            assert np.all((t >= 0.0) & (t <= 1.0))
            assert np.any(t == 0.0) and np.any(t == 1.0)
        clamped = lambda t: (t == 0.0) | (t == 1.0)
        assert not np.any(clamped(s.theta1) & clamped(s.theta2))
        # under H0 eta = 0, so the clamp passes the interior zeta through to both rates
        s0 = sample_prior(DepIBPrior(sigma_eta=1.0), Hypothesis.H0, 10_000, seed=10)
        np.testing.assert_array_equal(s0.theta1, s0.theta2)
        assert np.all((s0.theta1 > 0.0) & (s0.theta1 < 1.0))

    @staticmethod
    def h0_and_h1_draws(cfg, n=100_000, seed=11):
        # both hypotheses take the eta uniforms before the zeta uniforms, so one seed gives one
        # zeta: the H0 rate is the zeta behind the H1 pair of the same index
        s0 = sample_prior(cfg, Hypothesis.H0, n, seed=seed)
        return s0.theta1, sample_prior(cfg, Hypothesis.H1, n, seed=seed)

    def test_unclamped_draws_reconstruct_eta_and_zeta(self):
        zeta, s = self.h0_and_h1_draws(DepIBPrior(sigma_eta=0.5))
        interior = (s.theta1 > 0.0) & (s.theta1 < 1.0) & (s.theta2 > 0.0) & (s.theta2 < 1.0)
        assert np.mean(interior) > 0.5
        np.testing.assert_allclose(s.zeta[interior], zeta[interior], rtol=0, atol=1e-15)
        assert np.all(np.abs(s.eta) < 1.0)

    def test_lower_clamp(self):
        # theta1 = 0 means zeta - eta/2 < 0, so theta2 = zeta + eta/2 > 2 zeta, and eta < 1 caps it
        zeta, s = self.h0_and_h1_draws(DepIBPrior(sigma_eta=1.0))
        low = s.theta1 == 0.0
        assert np.sum(low) > 100
        assert np.all(s.theta2[low] > 2 * zeta[low])
        assert np.all(s.theta2[low] < zeta[low] + 0.5)

    def test_upper_clamp(self):
        # theta2 = 1 means zeta + eta/2 > 1, so theta1 = zeta - eta/2 < 2 zeta - 1, and eta < 1 floors it
        zeta, s = self.h0_and_h1_draws(DepIBPrior(sigma_eta=1.0))
        high = s.theta2 == 1.0
        assert np.sum(high) > 100
        assert np.all(s.theta1[high] < 2 * zeta[high] - 1.0)
        assert np.all(s.theta1[high] > zeta[high] - 0.5)

    @given(
        sigma_eta=st.floats(1e-3, 1e3),
        sigma_zeta=st.floats(1e-3, 1e3),
        zeta_center=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_rates_always_land_in_unit_interval(self, sigma_eta, sigma_zeta, zeta_center, seed):
        s = sample_prior(DepIBPrior(sigma_eta, sigma_zeta, zeta_center), Hypothesis.H1, 200, seed=seed)
        for t in (s.theta1, s.theta2):
            assert np.all((t >= 0.0) & (t <= 1.0))

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
