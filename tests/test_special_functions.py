"""Special functions: Appell F1, induced prior densities, log-density helpers."""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import betaln
from scipy.stats import truncnorm

from bf2p.model import DomainError
from bf2p.special import (
    _jacobi_rule,
    _log_gaussian_mass,
    _ppf_truncated_gaussian,
    eta_density_ib,
    log_beta_fn,
    log_density_beta,
    log_density_gaussian,
    log_density_truncated_gaussian,
    psi_density_ib_a1,
)
from oracles import appell_f1, appell_f1_series, eta_density_convolution, ib_eta_density_mpmath, quad_normalization


class TestLogBeta:
    def test_b11_is_one(self):
        assert log_beta_fn(1, 1) == 0.0

    def test_b1n_is_reciprocal(self):
        assert log_beta_fn(1, 201) == pytest.approx(math.log(1 / 201), rel=1e-13)

    def test_b22(self):
        assert log_beta_fn(2, 2) == pytest.approx(math.log(1 / 6), rel=1e-13)

    def test_large_arguments(self):
        # B(a,b) = Gamma(a)Gamma(b)/Gamma(a+b); spot value via log-gamma identity,
        # in 50 digits: in doubles the three log-gammas of ~1e7 cancel to ~5e-12
        a, b = 1e6, 3.5
        with mp.workdps(50):
            expected = float(mp.loggamma(a) + mp.loggamma(b) - mp.loggamma(a + b))
        assert log_beta_fn(a, b) == pytest.approx(expected, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            log_beta_fn(0.0, 1.0)
        with pytest.raises(DomainError):
            log_beta_fn(1.0, -2.0)

    def test_matches_mpmath_on_ib_arguments(self):
        # (a + y, a + n - y) as the IB marginals pass them, n up to 3e8;
        # swapping the arguments must not move a single bit
        rng = np.random.default_rng(11)
        worst = 0.0
        with mp.workdps(50):
            for i in range(3000):
                n = int(round(10 ** rng.uniform(0.0, 8.5)))
                y = int(rng.integers(0, n + 1)) if i % 2 else int(rng.integers(0, min(n, 20) + 1))
                a = float(rng.choice([1.0, 1.5, 2.0, 3.7, 10.0, 50.0]))
                p, q = a + y, a + (n - y)
                got = log_beta_fn(p, q)
                assert log_beta_fn(q, p) == got
                ref = mp.loggamma(p) + mp.loggamma(q) - mp.loggamma(mp.mpf(p) + q)
                worst = max(worst, float(abs((got - ref) / ref)))
        assert worst <= 1e-15


class TestAppellF1:
    def test_reduces_to_geometric_closed_form(self):
        # b2 = 0 collapses to 2F1(a, b1; c; x); with a=1, b1=2, c=2 that is 1/(1-x)
        for x in (0.1, 0.45, 0.83):
            assert appell_f1(1, 2, 0, 2, x, 0.5) == pytest.approx(1 / (1 - x), rel=1e-10)

    def test_unit_value_with_zero_exponents(self):
        assert appell_f1(1, 0, 0, 2, 0.3, 0.7) == pytest.approx(1.0, rel=1e-12)

    def test_against_double_series_spot(self):
        val = appell_f1(2, 6, -1, 4, 0.5, 0.75)
        ref = appell_f1_series(2, 6, -1, 4, 0.5, 0.75)
        assert val == pytest.approx(ref, rel=1e-9)

    def test_against_double_series_random_points(self):
        rng = np.random.Generator(np.random.Philox(5))
        checked = 0
        while checked < 20:
            a = float(rng.uniform(0.5, 4.0))
            c = a + float(rng.uniform(0.5, 4.0))
            b1 = float(rng.uniform(-2.0, 6.0))
            b2 = float(rng.uniform(-2.0, 6.0))
            x = float(rng.uniform(-0.8, 0.8))
            y = float(rng.uniform(-0.8, 0.8))
            ref = appell_f1_series(a, b1, b2, c, x, y)
            assert appell_f1(a, b1, b2, c, x, y) == pytest.approx(ref, rel=1e-7)
            checked += 1

    @pytest.mark.parametrize(
        "a, b1, b2, c, x, y",
        [
            # x or y within 1e-4 to 1e-9 of 1: a boundary layer at t = 1
            (1.5, 2.0, 0.5, 3.0, 1 - 1e-4, 0.3),
            (2.0, 6.0, -1.0, 4.0, 1 - 1e-6, 1 - 1e-4),
            (0.7, 3.0, 1.5, 2.5, 1 - 1e-9, 0.5),
            (2.0, 1.0, 2.0, 5.0, 0.2, 1 - 1e-9),
            # a < 1 or c - a < 1: an integrable singularity at t = 0 or 1
            (0.05, 1.0, 2.0, 1.5, 0.5, -0.5),
            (0.3, 2.5, -1.5, 1.2, 1 - 1e-6, 0.2),
            (0.001, 1.0, 1.0, 2.0, 0.5, 0.2),
            (2.0, 1.0, 1.0, 2.001, 0.5, 0.2),
            # x <= -20: beyond the double series' disc
            (1.0, 2.0, 1.0, 3.5, -20.0, 0.4),
            (2.5, 1.5, 3.0, 4.0, -50.0, -0.5),
            (3.0, 0.5, -2.0, 6.0, -1000.0, 0.3),
        ],
    )
    def test_against_mpmath_beyond_the_series(self, a, b1, b2, c, x, y):
        with mp.workdps(40):
            ref = float(mp.appellf1(a, b1, b2, c, mp.mpf(x), mp.mpf(y)))
        assert appell_f1(a, b1, b2, c, x, y) == pytest.approx(ref, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            appell_f1(2, 1, 1, 2, 0.5, 0.5)  # needs c > a
        with pytest.raises(DomainError):
            appell_f1(1, 1, 1, 2, 1.0, 0.5)  # needs x < 1


class TestEtaDensity:
    def test_triangular_at_zero(self):
        assert eta_density_ib(0.0, 1.0).value == pytest.approx(1.0, abs=1e-12)

    def test_triangular_shape_everywhere(self):
        for e in np.linspace(-1, 1, 101):
            got = eta_density_ib(float(e), 1.0).value
            assert got == pytest.approx(1 - abs(e), abs=1e-8)

    def test_half_point(self):
        assert eta_density_ib(0.5, 1.0).value == pytest.approx(0.5, abs=1e-10)

    @pytest.mark.parametrize("a", [1.0, 2.0, 5.0])
    def test_center_closed_form(self, a):
        expected = math.exp(betaln(2 * a - 1, 2 * a - 1) - 2 * betaln(a, a))
        assert eta_density_ib(0.0, a).value == pytest.approx(expected, abs=1e-10)

    def test_center_value_a2(self):
        # B(3,3)/B(2,2)^2 = (1/30)/(1/36)
        assert eta_density_ib(0.0, 2.0).value == pytest.approx(1.2, abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 5.0])
    def test_normalizes(self, a):
        total = quad_normalization(
            lambda e: eta_density_ib(e, a).value, -1.0, 1.0, points=[0.0]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("a", [1.0, 1.7, 3.0])
    def test_symmetry(self, a):
        for e in (0.15, 0.5, 0.93):
            assert eta_density_ib(e, a).value == pytest.approx(
                eta_density_ib(-e, a).value, rel=1e-9
            )

    @pytest.mark.parametrize("a", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("eta", [2e-8, 1e-7, 1e-6, 1e-5, 1e-4])
    def test_small_eta_matches_direct_convolution(self, eta, a):
        # F1's arguments sit within |eta| of 1 here, where x = 1 - eta
        # alone would lose the digits of the boundary layer at t = 1
        ref = eta_density_convolution(eta, a)
        assert eta_density_ib(eta, a).value == pytest.approx(ref, rel=1e-9)
        assert eta_density_ib(-eta, a).value == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("a, eta", [(20.0, 1e-4), (20.0, -0.05), (60.0, 1e-3), (60.0, -0.3), (200.0, 1e-5)])
    def test_large_a_matches_direct_convolution(self, a, eta):
        # the Euler kernel's (1 - x t)^-(4a - 2) alone overflows a float here
        assert eta_density_ib(eta, a).value == pytest.approx(eta_density_convolution(eta, a), rel=1e-11)

    @pytest.mark.parametrize("a", [1e4, 1e5, 1e6])
    @pytest.mark.parametrize("eta", [0.0, 1e-4, 1e-3])
    def test_very_large_a_matches_mpmath(self, a, eta):
        # the two logs of each rate cancel to O(1 / a) near theta = 1/2 here,
        # and the two O(a) terms of ln(4^(a-1) B(a, a)) would cancel to O(ln a)
        assert eta_density_ib(eta, a).value == pytest.approx(ib_eta_density_mpmath(eta, a), rel=1e-13)

    @pytest.mark.parametrize("a", [1.5, 2.0, 5.0])
    @pytest.mark.parametrize("e", [0.15, 0.5, 0.93])
    def test_matches_appell_closed_form(self, e, a):
        # B(a, a)^-1 e^(2a-1) (1-e)^(2a-1) F1(a; 4a-2, 1-a; 2a; 1-e, 1-e^2)
        f1 = appell_f1(a, 4 * a - 2, 1 - a, 2 * a, 1 - e, 1 - e * e)
        ref = math.exp((2 * a - 1) * math.log(e * (1 - e)) - log_beta_fn(a, a)) * f1
        assert eta_density_ib(e, a).value == pytest.approx(ref, rel=1e-10)
        assert eta_density_ib(-e, a).value == pytest.approx(ref, rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_density_ib(1.0001, 1.0)
        with pytest.raises(DomainError):
            eta_density_ib(0.5, 0.5)


class TestPsiDensity:
    def test_center_is_one_sixth(self):
        assert psi_density_ib_a1(0.0).value == pytest.approx(1 / 6, abs=1e-9)

    @pytest.mark.parametrize("p", [0.5, 1.0, 3.0])
    def test_symmetry(self, p):
        assert psi_density_ib_a1(p).value == pytest.approx(
            psi_density_ib_a1(-p).value, rel=1e-12
        )

    def test_branches_agree_with_high_precision_reference(self):
        # both sides of the Taylor/closed-form switch, checked against a
        # 50-digit evaluation of the exact expression
        import mpmath as mp

        mp.mp.dps = 50
        for p in (1e-5, 0.0199, 0.0201, 0.5, 8.0):
            pm = mp.mpf(p)
            ref = float(mp.e**pm * (mp.e**pm * (pm - 2) + pm + 2) / (mp.e**pm - 1) ** 3)
            assert psi_density_ib_a1(p).value == pytest.approx(ref, rel=1e-9)

    def test_normalizes(self):
        total = quad_normalization(
            lambda p: psi_density_ib_a1(p).value, -40.0, 40.0, points=[0.0]
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_monte_carlo_histogram_tail(self):
        # density at 5 vs a 1e7-draw histogram of logit(U) - logit(U')
        rng = np.random.Generator(np.random.Philox(17))
        n = 10_000_000
        u = rng.random(n)
        v = rng.random(n)
        psi = np.log(u / (1 - u)) - np.log(v / (1 - v))
        h = 0.1
        count = int(np.sum(np.abs(psi - 5.0) < h / 2))
        est = count / (n * h)
        se = math.sqrt(count) / (n * h)
        assert abs(psi_density_ib_a1(5.0).value - est) < 3 * se

    def test_large_argument_stable(self):
        v = psi_density_ib_a1(600.0)
        assert v.log_value == pytest.approx(-600 + math.log(598.0), rel=1e-10)
        v2 = psi_density_ib_a1(900.0)  # linear value underflows, log must not
        assert math.isfinite(v2.log_value)


class TestLogDensityHelpers:
    def test_standard_gaussian_center(self):
        assert log_density_gaussian(0.0, 1.0) == pytest.approx(
            -0.5 * math.log(2 * math.pi), abs=1e-15
        )

    def test_truncated_gaussian_matches_quadrature_normalization(self):
        # renormalize the plain kernel numerically and compare pointwise
        sigma, lo, hi = 0.5, 0.0, 1.0
        Z = quad_normalization(
            lambda x: math.exp(log_density_gaussian(x, sigma)), lo, hi
        )
        for x in (0.05, 0.3, 0.5, 0.77, 0.99):
            expected = math.exp(log_density_gaussian(x, sigma)) / Z
            got = math.exp(log_density_truncated_gaussian(x, sigma, lo, hi))
            assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "sigma, lo, hi, center",
        [(0.5, 0.0, 1.0, 0.0), (0.2, -1.0, 1.0, 0.0), (0.5, 0.0, 1.0, 0.5)],
    )
    def test_truncated_gaussian_integrates_to_one(self, sigma, lo, hi, center):
        total = quad_normalization(
            lambda x: math.exp(
                log_density_truncated_gaussian(x, sigma, lo, hi, center=center)
            ),
            lo,
            hi,
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_truncated_gaussian_outside_window_is_zero_density(self):
        assert log_density_truncated_gaussian(1.5, 0.5, 0.0, 1.0) == -math.inf
        assert log_density_truncated_gaussian(-0.1, 0.5, 0.0, 1.0) == -math.inf

    def test_uniform_beta(self):
        assert log_density_beta(0.5, 1.0) == 0.0
        assert log_density_beta(0.0, 1.0) == 0.0

    def test_beta_matches_formula(self):
        x, a = 0.3, 2.5
        expected = (a - 1) * (math.log(x) + math.log1p(-x)) - betaln(a, a)
        assert log_density_beta(x, a) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_integrates_to_one(self):
        total, _ = integrate.quad(
            lambda x: math.exp(log_density_gaussian(x, 1.7)), -30, 30
        )
        assert total == pytest.approx(1.0, abs=1e-9)


class TestGaussianMass:
    """ln(Phi(b) - Phi(a)) against 50-digit mpmath, from narrow windows to wide ones."""

    @pytest.mark.parametrize("mid", [-5.0, -2.0, -0.7, 0.0, 0.3, 1.0, 3.0, 5.0])
    def test_relative_error_of_mass(self, mid):
        widths = 10.0 ** np.arange(-12.0, 0.01, 0.25)
        lo, hi = mid - 0.5 * widths, mid + 0.5 * widths
        for sigma, center in ((1.0, 0.0), (0.2, 0.3)):
            lo_, hi_ = center + sigma * lo, center + sigma * hi
            got = _log_gaussian_mass(lo_, hi_, center, sigma)
            with mp.workdps(50):
                ref = [
                    mp.log(mp.ncdf((mp.mpf(h) - center) / sigma) - mp.ncdf((mp.mpf(l) - center) / sigma))
                    for l, h in zip(lo_, hi_)
                ]
            err = np.array([float(abs(g - r)) for g, r in zip(got, ref)])  # = relative error of the mass
            assert np.max(err) <= 1e-14
            assert _log_gaussian_mass(float(lo_[0]), float(hi_[0]), center, sigma) == got[0]

    @pytest.mark.parametrize("h, mid", [(0.5, 0.0), (0.5, 0.5), (0.5, -1.0), (0.25, 2.0)])
    def test_narrow_branch_is_exact_to_rounding_at_its_edge(self, h, mid):
        # h max(1, |m|) = 1/2, the widest narrow window: a truncated Gaussian of
        # sd 1 on (0, 1) is one, where 7 Gauss-Legendre nodes were 40 eps off
        got = _log_gaussian_mass(mid - h, mid + h, 0.0, 1.0)
        with mp.workdps(50):
            ref = mp.log(mp.ncdf(-abs(mid) + h) - mp.ncdf(-abs(mid) - h))
        assert abs(float(got - ref)) <= 2 * np.finfo(float).eps * max(1.0, abs(got))

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_narrow_windows_at_random(self, seed):
        # midpoints m in (-8, 8) and half widths h = 10^U(-12, 0) / 2 max(1, |m|):
        # every window takes the narrow branch, and its Gauss-Legendre mean
        rng = np.random.default_rng(seed)
        m = rng.uniform(-8.0, 8.0, 300)
        h = 10.0 ** rng.uniform(-12.0, 0.0, 300) * 0.5 / np.maximum(1.0, np.abs(m))
        got = _log_gaussian_mass(m - h, m + h, 0.0, 1.0)
        with mp.workdps(50):
            ref = [mp.log(mp.ncdf(mp.mpf(b)) - mp.ncdf(mp.mpf(a))) for a, b in zip(m - h, m + h)]
        err = np.array([float(abs(g - r)) for g, r in zip(got, ref)])
        assert np.all(err <= 2 * np.finfo(float).eps * (1.0 + np.abs(got)))


class TestGaussLegendre:
    """The Gauss-Legendre rule on (-1, 1) that the narrow branch takes from the
    Gauss-Jacobi builder at a = b = 0, mapped as x = 2t - 1, w = 2 exp(lw)."""

    EPS = float(np.finfo(float).eps)

    @staticmethod
    def _rule(m):
        t, _, lw = _jacobi_rule(0.0, 0.0, m)
        return 2.0 * t - 1.0, 2.0 * np.exp(lw)

    @pytest.mark.parametrize("m", [7, 20, 40])
    def test_integrates_highest_exact_power(self, m):
        # x^(2m-2) at nodes rounded by half an ulp carries (2m - 2) eps/2 relative
        x, w = self._rule(m)
        exact = 2.0 / (2 * m - 1)
        assert abs(float(w @ x ** (2 * m - 2)) - exact) <= 2 * m * self.EPS * exact

    def test_cached_arrays_are_read_only(self):
        t, log_mass, lw = _jacobi_rule(0.0, 0.0, 20)
        assert _jacobi_rule(0.0, 0.0, 20)[0] is t
        assert log_mass == 0.0  # ln B(1, 1): the weights exp(lw) are the rule's own
        assert not t.flags.writeable and not lw.flags.writeable


@lru_cache(maxsize=None)
def _jacobi_30_digits(a, b, m):
    """Nodes t, log weights and ln B(a + 1, b + 1) of the rule for t^b (1 - t)^a on (0, 1).

    mpmath builds the rule for (1 - x)^a (1 + x)^b on (-1, 1) at 50 digits,
    which keep 30 digits of t = (1 + x)/2 down to t = 1e-20.
    """
    with mp.workdps(50):
        x, w = mp.gauss_quadrature(m, "jacobi", a, b)
        t = [(1 + xi) / 2 for xi in x]
        log_w = [mp.log(wi) - (a + b + 1) * mp.log(2) for wi in w]
        return t, log_w, mp.log(mp.beta(a + 1, b + 1))


class TestGaussJacobi:
    """The Gauss-Jacobi builder against 30-digit rules from mpmath's own builder.

    Each case runs in both orientations: (a, b) with b <= a as built, and
    (b, a), its reflection t -> 1 - t.
    """

    EPS = float(np.finfo(float).eps)
    CASES = [
        (a, b, m, flip)
        for a, b in [(0, 0), (10, 3), (1e3, 0), (1e6, 5), (1e8, 0)]
        for m in (20, 40)
        for flip in (False, True)
    ]

    def _rules(self, a, b, m, flip):
        """The builder's rule and the reference, each as (t, log w, ln B), nodes in increasing order."""
        t, log_mass, lw = _jacobi_rule(*((b, a) if flip else (a, b)), m)
        ref_t, ref_lw, ref_lb = _jacobi_30_digits(a, b, m)
        if flip:
            ref_t = [1 - r for r in ref_t]
        order, ref_order = np.argsort(t), np.argsort([float(r) for r in ref_t])
        return (t[order], lw[order], log_mass), ([ref_t[i] for i in ref_order], [ref_lw[i] for i in ref_order], ref_lb)

    @pytest.mark.parametrize("a, b, m, flip", CASES)
    def test_nodes_and_log_weights(self, a, b, m, flip):
        (t, lw, log_mass), (ref_t, ref_lw, ref_lb) = self._rules(a, b, m, flip)
        # eigenvalues carry rounding of order m eps times the largest
        assert max(abs(float(ti - r)) for ti, r in zip(t, ref_t)) <= 0.5 * m * self.EPS * max(t)
        assert abs(float(log_mass - ref_lb)) <= 2 * self.EPS * (1 + abs(log_mass))
        # the errors of the log weights less the log mass, weighted as the rule weighs its nodes
        ref_lw = [r - ref_lb for r in ref_lw]
        err = np.array([float(abs(lwi - r)) for lwi, r in zip(lw, ref_lw)])
        assert np.exp([float(r) for r in ref_lw]) @ err <= 2 * m * self.EPS

    @pytest.mark.parametrize("a, b, m, flip", CASES)
    def test_zeroth_and_first_moments(self, a, b, m, flip):
        # exp(lw) are the weights of the rule for the Beta(b + 1, a + 1) law, and t's
        # mean under it is (b + 1) / (a + b + 2); reflected, (a + 1) / (a + b + 2)
        t, _, lw = _jacobi_rule(*((b, a) if flip else (a, b)), m)
        w = np.exp(lw)
        with mp.workdps(30):
            log_mean = mp.log(mp.mpf((a if flip else b) + 1) / (a + b + 2))
        assert abs(math.log(w.sum())) <= 2 * m * self.EPS
        assert abs(float(math.log(w @ t) - log_mean)) <= 2 * m * self.EPS

    @pytest.mark.parametrize("a, b", [(10, 3), (1e3, 0), (1e6, 5), (1e8, 0)])
    @pytest.mark.parametrize("m", [20, 40])
    def test_reflection_is_bit_identical(self, a, b, m):
        t, log_mass, lw = _jacobi_rule(a, b, m)
        t_r, log_mass_r, lw_r = _jacobi_rule(b, a, m)
        assert np.array_equal(t_r, 1.0 - t)
        assert np.array_equal(lw_r, lw) and log_mass_r == log_mass

    def test_cached_arrays_are_read_only(self):
        t, _, lw = _jacobi_rule(10, 3, 20)
        assert _jacobi_rule(10, 3, 20)[0] is t
        assert not any(v.flags.writeable for v in (t, lw, _jacobi_rule(3, 10, 20)[0]))


class TestTruncatedGaussianInverseCdf:
    U = np.concatenate(
        [[0.0, 1e-300, 0.5, 1.0 - 2.0**-53], np.random.default_rng(17).random(100_000)]
    )

    @pytest.mark.parametrize("sigma", [0.01, 0.05, 0.2, 1.0, 10.0])
    @pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0)])
    @pytest.mark.parametrize("center", [0.0, 0.5, 1.0])
    def test_matches_scipy_truncnorm(self, sigma, lo, hi, center):
        x = _ppf_truncated_gaussian(self.U, sigma, lo, hi, center)
        ref = truncnorm.ppf(
            self.U, (lo - center) / sigma, (hi - center) / sigma, loc=center, scale=sigma
        )
        assert np.max(np.abs(x - ref)) <= 1e-14
        assert np.all((x >= lo) & (x <= hi))
        assert np.all(np.diff(_ppf_truncated_gaussian(np.sort(self.U), sigma, lo, hi, center)) >= 0)


class TestDensitySymmetryProperties:
    @given(eta=st.floats(0, 1, exclude_max=True), a=st.floats(1.0, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_eta_density_even(self, eta, a):
        assert eta_density_ib(eta, a).value == pytest.approx(
            eta_density_ib(-eta, a).value, rel=1e-8, abs=1e-300
        )

    @given(psi=st.floats(0, 50))
    @settings(max_examples=100, deadline=None)
    def test_psi_density_even_and_positive(self, psi):
        f = psi_density_ib_a1(psi)
        assert f.value >= 0.0
        assert f.log_value == pytest.approx(psi_density_ib_a1(-psi).log_value, rel=1e-12)
