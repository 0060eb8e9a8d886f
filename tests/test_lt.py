"""Logit-transformation Bayes factor: integrand, mode finding, quadrature."""

import functools
import itertools
import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import logsumexp, roots_hermite

import bf2p.lt as lt_mod
from bf2p.lt import (
    bf01_lt,
    find_mode_and_scale,
    log_integrand_h0_lt,
    log_integrand_h1_lt,
    log_ml_h0_lt,
    log_ml_h1_lt,
)
from bf2p.model import (
    BetaPriorKind,
    Hypothesis,
    LogitCoords,
    LTPrior,
    Method,
    NumericalError,
    TwoByTwoData,
    expit,
)
from mc_oracle import mc_log_marginal
from bf2p.averaging import M0_LT, M1_LT
from bf2p.reanalysis import default_grids, load_bundled_corpus
from conftest import check_newton_mode, random_small_datasets
from oracles import log_ml_h0_lt_simpson, lt_log_ml_h1_boundary_quad


class TestIntegrand:
    def test_simple_point_value(self):
        d = TwoByTwoData(1, 2, 1, 2)
        sb = sp = 1.0
        got = log_integrand_h1_lt(d, 0.0, 0.0, sb, sp)
        # p(1 of 2 | theta=1/2) = 1/2 per group, plus the two prior ordinates
        expected = math.log(0.25) + 2 * stats.norm.logpdf(0.0)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_finite_deep_in_tails(self):
        d = TwoByTwoData(3, 10, 5, 12)
        for b in (-40.0, 40.0):
            assert math.isfinite(log_integrand_h1_lt(d, b, 1.0, 1.0, 1.0))
            assert math.isfinite(log_integrand_h0_lt(d, b, 1.0))

    def test_matches_rate_space_evaluation(self):
        # redundant path: map to rates, then use scipy's binomial pmf
        d = TwoByTwoData(4, 17, 9, 23)
        rng = np.random.Generator(np.random.Philox(3))
        for _ in range(100):
            b = float(rng.uniform(-5, 5))
            p = float(rng.uniform(-5, 5))
            theta1, theta2 = expit(b - 0.5 * p), expit(b + 0.5 * p)
            expected = (
                stats.binom.logpmf(d.y1, d.n1, theta1)
                + stats.binom.logpmf(d.y2, d.n2, theta2)
                + stats.norm.logpdf(b)
                + stats.norm.logpdf(p)
            )
            got = log_integrand_h1_lt(d, b, p, 1.0, 1.0)
            assert got == pytest.approx(expected, abs=1e-10)


def _kernel_cases(count: int = 3000, seed: int = 20261019):
    """(y, n, x): n log-uniform in 1..1e8, y at 0, at n or uniform, |x| log-uniform in 1e-4..740."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(round(10.0 ** rng.uniform(0.0, 8.0)))
        kind = rng.integers(3)
        y = 0 if kind == 0 else n if kind == 1 else int(rng.integers(0, n + 1))
        x = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-4.0, math.log10(740.0)))
        out.append((y, n, x))
    return out


class TestLikelihoodKernel:
    def test_matches_40_digit_values(self):
        import mpmath as mp

        eps = float(np.finfo(float).eps)
        with mp.workdps(40):
            for y, n, x in _kernel_cases():
                v = float(lt_mod._log_binom_lik(y, n, x))
                xm = mp.mpf(x)
                ref = -y * mp.log1p(mp.exp(-xm)) - (n - y) * mp.log1p(mp.exp(xm))
                assert abs(v - ref) <= 2 * eps * (1 + abs(ref)), (y, n, x)

    def test_floats_give_the_bits_of_arrays_and_of_the_event_swap(self):
        for y, n, x in _kernel_cases():
            v = float(lt_mod._log_binom_lik(y, n, x))
            assert v.hex() == float(lt_mod._log_binom_lik(y, n, np.array([x]))[0]).hex(), (y, n, x)
            assert v.hex() == float(lt_mod._log_binom_lik(n - y, n, -x)).hex(), (y, n, x)


class TestModeFinding:
    def test_symmetric_data_mode_at_origin(self):
        spec = find_mode_and_scale(TwoByTwoData(50, 100, 50, 100), Hypothesis.H1, 1.0, 1.0)
        assert abs(spec.mode.beta) < 1e-12
        assert abs(spec.mode.psi) < 1e-12

    def test_default_rel_tol_within_contract(self):
        assert lt_mod.DEFAULT_REL_TOL <= 1e-6
        assert lt_mod.NODE_SCHEDULE[0] >= 21

    def test_aspirin_null_mode_pulled_above_likelihood(self, aspirin):
        spec = find_mode_and_scale(aspirin, Hypothesis.H0, 1.0)
        assert spec.mode.beta < -3.0
        # the gradient changes sign on a bracket around the reported mode
        def grad(b, h=1e-6):
            return (
                log_integrand_h0_lt(aspirin, b + h, 1.0)
                - log_integrand_h0_lt(aspirin, b - h, 1.0)
            ) / (2 * h)

        lo, hi = -12.0, -3.0
        assert grad(lo) > 0 > grad(hi)
        for _ in range(60):  # bisection onto the root
            mid = 0.5 * (lo + hi)
            if grad(mid) > 0:
                lo = mid
            else:
                hi = mid
        assert spec.mode.beta == pytest.approx(0.5 * (lo + hi), abs=1e-4)

    def test_scale_matches_finite_difference_hessian(self):
        d = TwoByTwoData(26, 110, 40, 130)
        spec = find_mode_and_scale(d, Hypothesis.H1, 1.0, 1.0)
        m = np.array([spec.mode.beta, spec.mode.psi])
        h = 1e-4

        def f(v):
            return float(log_integrand_h1_lt(d, v[0], v[1], 1.0, 1.0))

        H = np.empty((2, 2))
        for i in range(2):
            for j in range(2):
                ei = np.eye(2)[i] * h
                ej = np.eye(2)[j] * h
                H[i, j] = (f(m + ei + ej) - f(m + ei - ej) - f(m - ei + ej) + f(m - ei - ej)) / (4 * h * h)
        np.testing.assert_allclose(-np.linalg.inv(spec.scale), H, rtol=1e-5)

    def test_nonconvergence_carries_last_iterate(self):
        with pytest.raises(NumericalError) as err:
            find_mode_and_scale(
                TwoByTwoData(26, 11034, 10, 11037), Hypothesis.H1, 1.0, 1.0, max_iter=2
            )
        assert isinstance(err.value.last_iterate, LogitCoords)

    def test_nonconvergence_carries_last_iterate_under_h0(self):
        with pytest.raises(NumericalError) as err:
            find_mode_and_scale(TwoByTwoData(26, 11034, 10, 11037), Hypothesis.H0, 1.0, max_iter=1)
        assert isinstance(err.value.last_iterate, LogitCoords)
        assert err.value.last_iterate.psi == 0.0


#: Studies for the Newton checks: moderate, rare events at large n, a
#: count at 0, all events at n = 1e6, complete separation at n = 1e7.
_NEWTON_STUDIES = [
    (18, 493, 10, 488), (26, 11034, 10, 11037), (0, 40, 7, 33),
    (10**6, 10**6, 10**6, 10**6), (0, 10**7, 10**7, 10**7),
]


class TestFloatNewton:
    @pytest.mark.parametrize("counts", _NEWTON_STUDIES)
    @pytest.mark.parametrize(
        "prior", [LTPrior(), LTPrior(2.0, 0.5), LTPrior(1.0, 2.0, BetaPriorKind.LOGISTIC)]
    )
    def test_mode_and_scale_match_finite_differences(self, counts, prior):
        for hyp in (Hypothesis.H0, Hypothesis.H1):
            check_newton_mode(*lt_mod._lt_problem(TwoByTwoData(*counts), hyp, prior))

    @staticmethod
    def _double_well(k):
        """log f = -x^4/4 + x^2/2 - (y - x/2)^2/2 on (x,) or (x, y), and its
        float gradient and Hessian; -H is not positive definite near x = 0."""

        def logf(x, *rest):
            y = rest[0] if k == 2 else 0.5 * x
            return -(x**4) / 4 + x**2 / 2 - (y - 0.5 * x) ** 2 / 2

        def grad_hess(v):
            x = v[0]
            if k == 1:
                return (-(x**3) + x,), (1.0 - 3.0 * x * x,)
            y = v[1]
            grad = (-(x**3) + x + 0.5 * (y - 0.5 * x), -(y - 0.5 * x))
            return grad, (0.75 - 3.0 * x * x, 0.5, -1.0)

        return logf, grad_hess

    @pytest.mark.parametrize("k", [1, 2])
    def test_indefinite_start_takes_the_shifted_step(self, k):
        logf, grad_hess = self._double_well(k)
        seen = []

        def recorded(v):
            g, h = grad_hess(v)
            seen.append(lt_mod._lowest_eigenvalue([-x for x in h]))
            return g, h

        x0 = [0.1, 0.0][:k]
        mode, cov = check_newton_mode(logf, recorded, x0)
        assert seen[0] <= 0.0  # the start is not log-concave
        # the decrement stop leaves the mode within 1e-10 of (1, 1/2)
        assert mode[0] == pytest.approx(1.0, abs=1e-9)
        if k == 2:
            assert mode[1] == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("hyp", [Hypothesis.H0, Hypothesis.H1])
    @pytest.mark.parametrize("counts", _NEWTON_STUDIES)
    def test_no_point_evaluated_twice(self, counts, hyp, monkeypatch):
        problem = lt_mod._lt_problem
        points = []

        def counting(*args):
            logf, grad_hess, x0 = problem(*args)

            def wrapped(*coords):
                if isinstance(coords[0], float):  # one point: a Newton step check
                    points.append(coords)
                return logf(*coords)

            return wrapped, grad_hess, x0

        monkeypatch.setattr(lt_mod, "_lt_problem", counting)
        lt_mod._fit(TwoByTwoData(*counts), hyp, LTPrior())
        assert len(set(points)) == len(points)


class TestJoinedRungs:
    """The first two rules of the schedule run in one log f evaluation."""

    @pytest.mark.parametrize("k", [1, 2])
    def test_joined_estimates_equal_the_rules_one_by_one(self, k):
        assert lt_mod.NODE_SCHEDULE[:2] == (21, 31)
        hyp = Hypothesis.H0 if k == 1 else Hypothesis.H1
        studies = [TwoByTwoData(*c) for c in _NEWTON_STUDIES] + random_small_datasets(10, n_max=500, seed=5)
        for d, prior in itertools.product(studies, [LTPrior(), LTPrior(2.0, 0.5)]):
            logf, grad_hess, x0 = lt_mod._lt_problem(d, hyp, prior)
            mode, cov = lt_mod._newton(logf, grad_hess, x0, "test")
            at = lt_mod._at_whitened(logf, mode, np.linalg.cholesky(cov).tolist())
            joined = list(itertools.islice(lt_mod._gh_ladder(at, k), 2))
            alone = [lt_mod._logsumexp(lw + at(*z)) for z, lw in (lt_mod._whitened_rule(n, k) for n in (21, 31))]
            assert [v.hex() for v in joined] == [v.hex() for v in alone], (d, prior)

    @pytest.mark.parametrize("hyp, points", [(Hypothesis.H0, 21 + 31), (Hypothesis.H1, 21**2 + 31**2)])
    def test_a_fit_stopping_at_31_nodes_evaluates_its_rules_in_one_call(self, hyp, points, monkeypatch):
        problem, calls = lt_mod._lt_problem, []

        def counting(*args):
            logf, grad_hess, x0 = problem(*args)

            def wrapped(*coords):
                if isinstance(coords[0], np.ndarray):  # a quadrature rule's points
                    calls.append(coords[0].size)
                return logf(*coords)

            return wrapped, grad_hess, x0

        monkeypatch.setattr(lt_mod, "_lt_problem", counting)
        lt_mod._fit(TwoByTwoData(18, 493, 10, 488), hyp, LTPrior())
        assert calls == [points]


class TestNullMarginal:
    @pytest.mark.parametrize(
        "counts", [(3, 10, 5, 12), (0, 50, 0, 50), (26, 11034, 10, 11037)]
    )
    def test_matches_independent_simpson_integrator(self, counts):
        d = TwoByTwoData(*counts)
        assert log_ml_h0_lt(d, 1.0) == pytest.approx(
            log_ml_h0_lt_simpson(d, 1.0), rel=1e-8
        )

    def test_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        est = mc_log_marginal(M0_LT, d, n_draws=400_000, seed=31)
        assert abs(log_ml_h0_lt(d, 1.0) - est.log_value) < 3 * est.std_error


class TestAlternativeMarginal:
    def test_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        est = mc_log_marginal(M1_LT, d, n_draws=400_000, seed=32)
        assert abs(log_ml_h1_lt(d, 1.0, 1.0) - est.log_value) < 3 * est.std_error

    def test_group_swap_symmetry(self):
        for counts in [(3, 10, 5, 12), (18, 493, 10, 488), (0, 40, 7, 33)]:
            d = TwoByTwoData(*counts)
            a = log_ml_h1_lt(d, 1.0, 1.3)
            b = log_ml_h1_lt(d.swapped(), 1.0, 1.3)
            assert a == pytest.approx(b, rel=1e-13)

    def test_extreme_tail_case_finite_and_matches_mc(self):
        d = TwoByTwoData(0, 1000, 0, 1000)
        exact = log_ml_h1_lt(d, 1.0, 1.0)
        assert math.isfinite(exact)
        est = mc_log_marginal(M1_LT, d, n_draws=2_000_000, seed=33)
        assert abs(exact - est.log_value) < 3 * est.std_error


class TestBayesFactor:
    @pytest.mark.parametrize(
        "counts, published, tol",
        [
            ((0, 100, 0, 100), 1.40, 0.02),
            ((50, 100, 50, 100), 3.67, 0.02),
            ((18, 493, 10, 488), 1.17, 0.02),
        ],
    )
    def test_reproduces_published_values(self, counts, published, tol):
        res = bf01_lt(TwoByTwoData(*counts), 1.0, 1.0)
        assert res.bf01 == pytest.approx(published, abs=tol)
        assert res.method_tag is Method.QUADRATURE

    def test_error_estimate_is_doubling_gap(self):
        res = bf01_lt(TwoByTwoData(7, 40, 12, 44), 1.0, 1.0)
        assert 0.0 <= res.abs_error_estimate <= 2e-8

    def test_increasing_toward_central_counts(self):
        vals = [bf01_lt(TwoByTwoData(y, 100, y, 100), 1.0, 1.0).log_bf01 for y in range(51)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_increasing_in_psi_scale(self, magee_corpus):
        vals = [
            bf01_lt(magee_corpus, 1.0, s).log_bf01 for s in (1.0, 1.25, 1.5, 1.75, 2.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("counts", [(10**6,) * 4, (10**7, 10**7, 0, 10**7)])
    def test_extreme_counts_match_event_swapped_mirror(self, counts):
        # all events, or complete separation, at n = 1e6..1e7: the mode
        # search must converge on both sides of the event swap
        d = TwoByTwoData(*counts)
        mirror = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        got = bf01_lt(d, 1.0, 1.0).log_bf01
        assert math.isfinite(got)
        assert got == pytest.approx(bf01_lt(mirror, 1.0, 1.0).log_bf01, abs=1e-9)

    def test_group_swap_symmetry(self):
        d = TwoByTwoData(9, 31, 2, 18)
        assert bf01_lt(d, 1.0, 1.0).log_bf01 == pytest.approx(
            bf01_lt(d.swapped(), 1.0, 1.0).log_bf01, rel=1e-13
        )

    def test_null_is_the_vanishing_psi_scale_limit(self):
        d = TwoByTwoData(7, 20, 11, 25)
        h0 = log_ml_h0_lt(d, 1.0)
        h1 = log_ml_h1_lt(d, 1.0, 1e-4)
        assert h1 == pytest.approx(h0, rel=1e-3)

    def test_marginals_match_oracle_on_random_datasets(self):
        for i, d in enumerate(random_small_datasets(25, n_max=30, seed=77)):
            for model, exact in (
                (M0_LT, log_ml_h0_lt(d, 1.0)),
                (M1_LT, log_ml_h1_lt(d, 1.0, 1.0)),
            ):
                est = mc_log_marginal(model, d, n_draws=100_000, seed=300 + i)
                assert abs(exact - est.log_value) < 3 * est.std_error, (d, model)


class TestGaussHermiteRule:
    """numpy's ``hermgauss`` rule, at every size of the schedule, against
    scipy's ``roots_hermite`` and a 40-digit rule.

    Above 150 nodes ``roots_hermite`` switches to an asymptotic expansion,
    whose nodes are off by up to 2e-13 and whose log weights by up to
    1.4e-14 relative, so larger rules are checked at 40 digits only.
    """

    @pytest.mark.parametrize("n", [k for k in lt_mod.NODE_SCHEDULE if k <= 150])
    def test_matches_roots_hermite(self, n):
        x, lam = lt_mod._gauss_hermite(n)
        xr, wr = roots_hermite(n)
        assert np.max(np.abs(x - xr) / np.maximum(np.abs(xr), 1e-300)) <= 1e-14
        log_w = lam - x * x
        assert np.max(np.abs(log_w - np.log(wr)) / np.abs(np.log(wr))) <= 1e-14

    @pytest.mark.parametrize("n", lt_mod.NODE_SCHEDULE)
    def test_matches_40_digit_rule(self, n):
        import mpmath as mp

        x, lam = lt_mod._gauss_hermite(n)
        assert np.array_equal(x, -x[::-1])

        def recurrence(t, upto):  # orthonormal p_{upto-1}, p_upto and sum_{k<upto} p_k^2
            a, b = mp.mpf(0), mp.pi ** mp.mpf(-0.25)
            total = b * b
            for k in range(upto):
                a, b = b, t * b * mp.sqrt(mp.mpf(2) / (k + 1)) - a * mp.sqrt(mp.mpf(k) / (k + 1))
                total += b * b if k < upto - 1 else 0
            return a, b, total

        with mp.workdps(40):
            for i in sorted({n // 2 + 1, (3 * n) // 4, n - 2, n - 1}):
                root = mp.mpf(float(x[i]))
                for _ in range(2):  # Newton: p_n' = sqrt(2n) p_{n-1}
                    a, b, _ = recurrence(root, n)
                    root -= b / a / mp.sqrt(2 * n)
                log_w = -mp.log(recurrence(root, n)[2])
                assert abs(x[i] - root) <= 1e-15 * abs(root)
                assert abs((lam[i] - x[i] ** 2) - log_w) <= 1e-14 * abs(log_w)


class TestNodeCap:
    @pytest.mark.filterwarnings("ignore::bf2p.model.WidePriorWarning")
    def test_exhausted_schedule_raises(self, monkeypatch):
        import bf2p.lt as lt_mod

        def fallback(logf, mode, chol, what):
            raise NumericalError(f"{what}: log marginal did not converge")

        monkeypatch.setattr(lt_mod, "NODE_SCHEDULE", (21, 31))
        monkeypatch.setattr(lt_mod, "_whitened_tanhsinh", fallback)
        with pytest.raises(NumericalError, match="H1 marginal: log marginal did not converge"):
            # the half-Gaussian posterior of a boundary study under a wide prior
            # is far from Gaussian, so two short rules disagree and the cap is
            # reached; a fallback that fails too surfaces as the typed error
            log_ml_h1_lt(TwoByTwoData(0, 10**6, 0, 10**6), 50.0, 50.0)


class TestFirstAgreement:
    def test_stops_at_the_first_agreeing_pair_without_computing_further(self):
        seen = []

        def ladder():
            for v in (-3.0, -2.5, -2.5 + 1e-9, -2.5 + 2e-9, None):
                seen.append(v)
                yield v

        val, err = lt_mod._first_agreement(ladder())
        assert (val, err) == (-2.5 + 1e-9, pytest.approx(1e-9))
        assert len(seen) == 3

    def test_floor_bounds_the_estimate_below(self):
        val, err = lt_mod._first_agreement(iter([-7.0, -7.0]))
        assert (val, err) == (-7.0, 8.0 * lt_mod._ROUNDING)

    def test_none_when_no_two_agree(self):
        assert lt_mod._first_agreement(iter([1.0, 2.0, 3.0])) is None
        assert lt_mod._first_agreement(iter([1.0])) is None


class TestWidePriorBoundaryCounts:
    @pytest.mark.filterwarnings("ignore::bf2p.model.WidePriorWarning")
    @pytest.mark.parametrize(
        "counts, sigma_beta, sigma_psi, expected",
        [
            # under LTPrior(50, 50) the likelihood of a group with no events is flat
            # below its knee at beta ~ -log n, so the posterior is half a Gaussian:
            # Gauss-Hermite converges algebraically and the tanh-sinh fallback runs
            ((0, 10**6, 0, 10**6), 50.0, 50.0, -1.3626872076),
            # one group at 0 and the other at n: the two knees cross the (beta, psi)
            # axes obliquely, and only the fallback whitened along the log odds
            # puts each of them on one axis
            ((0, 10**6, 10**6, 10**6), 50.0, 50.0, -2.7124684781),
            ((0, 1, 10**6, 10**6), 50.0, 50.0, -2.2949278186),
            ((0, 10**8, 10**8, 10**8), 50.0, 50.0, -3.0148368467),
            ((0, 1, 0, 10**6), 50.0, 50.0, -1.2117756853),
            # strongly correlated priors: the groups' log odds nearly coincide
            ((0, 1, 0, 1), 50.0, 0.01, -0.7092230465),
            ((0, 10**8, 10**8, 10**8), 50.0, 1.0, -518.5118279077),
        ],
    )
    def test_h1_marginal_matches_nested_quad_on_every_side(self, counts, sigma_beta, sigma_psi, expected):
        d = TwoByTwoData(*counts)
        prior = LTPrior(sigma_beta, sigma_psi)
        ref, ref_err = lt_log_ml_h1_boundary_quad(d, sigma_beta, sigma_psi)
        assert ref == pytest.approx(expected, abs=1e-10)
        events = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        for side in (d, d.swapped(), events):
            val, err = lt_mod._log_ml(side, Hypothesis.H1, prior)
            assert abs(val - ref) <= 1e-11, side
            assert abs(val - ref) <= err + ref_err, side
            assert math.isfinite(bf01_lt(side, sigma_beta, sigma_psi).log_bf01), side

    @pytest.mark.filterwarnings("ignore::bf2p.model.WidePriorWarning")
    def test_mixed_single_trial_cell_matches_nested_quad(self):
        # one trial per group, one with no event and one with an event: no
        # rule of the schedule resolves the two knees, and the fallback must
        # meet the oracle to its own digits on both sides
        d = TwoByTwoData(0, 1, 1, 1)
        prior = LTPrior(50.0, 50.0)
        ref, ref_err = lt_log_ml_h1_boundary_quad(d, 50.0, 50.0)
        assert ref == pytest.approx(-1.9125107153, abs=1e-10)
        events = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        for side in (d, d.swapped(), events):
            val, err = lt_mod._log_ml(side, Hypothesis.H1, prior)
            assert abs(val - ref) <= 1e-11, side
            assert abs(val - ref) <= err + ref_err, side


@functools.cache
def _tensor_rule(n, k):
    x, w = roots_hermite(n)
    with np.errstate(divide="ignore"):  # the outermost weights underflow
        lw = np.log(w) + x * x + 0.5 * math.log(2.0)
    axes = np.meshgrid(*[math.sqrt(2.0) * x] * k, indexing="ij")
    z = np.stack([a.ravel() for a in axes], axis=-1)
    return z, sum(np.meshgrid(*[lw] * k, indexing="ij")).ravel()


def _tensor_gauss_hermite(logf, mode, cov, n):
    """log of the integral of exp(logf) by the n^k-node tensor Gauss-Hermite
    rule centred on ``mode`` and whitened by the Cholesky factor of ``cov``."""
    z, lw = _tensor_rule(n, mode.size)
    chol = np.linalg.cholesky(cov)
    return float(logsumexp(lw + logf(*(mode + z @ chol.T).T))) + float(np.sum(np.log(np.diag(chol))))


#: Studies of this module with a count at 0 or n, and the extremes' mirrors.
_BOUNDARY_STUDIES = [
    (0, 100, 0, 100), (0, 50, 0, 50), (0, 1000, 0, 1000), (0, 40, 7, 33),
    (10**6, 10**6, 10**6, 10**6), (0, 10**6, 0, 10**6),
    (10**7, 10**7, 0, 10**7), (0, 10**7, 10**7, 10**7),
]


def _schedule_cases(which):
    if which == "corpus":
        grid = default_grids()["lt"]
        return [(s.data, LTPrior(**p)) for s in load_bundled_corpus() for p in grid]
    if which == "sensitivity":  # the studies of sensitivity_curve(100)
        return [(TwoByTwoData(y, 100, y, 100), LTPrior()) for y in range(51)]
    return [(TwoByTwoData(*c), LTPrior()) for c in _BOUNDARY_STUDIES]


class TestScheduleAccuracy:
    @pytest.mark.parametrize("which", ["corpus", "sensitivity", "boundary"])
    def test_marginals_match_fixed_241_node_rule(self, which):
        # the schedule stops as early as 21/31 nodes; it must agree with a
        # fixed 241-node rule around the same mode, and its error estimate
        # must cover the difference
        misses, fits = [], set()
        for d, prior in _schedule_cases(which):
            for hyp in (Hypothesis.H0, Hypothesis.H1):
                key = (d, hyp, prior if hyp is Hypothesis.H1 else prior.sigma_beta)
                if key in fits:
                    continue
                fits.add(key)
                logf, _, _ = lt_mod._lt_problem(d, hyp, prior)
                mode, cov, val, err = lt_mod._fit(d, hyp, prior)
                coeffs = lt_mod._log_coeffs(d)
                ref = _tensor_gauss_hermite(logf, mode, cov, 241)
                diff = abs((coeffs + val) - (coeffs + ref))
                if diff <= 1e-10 and err >= diff:
                    continue
                # only a case whose reference is itself resolved (241 and 481
                # nodes agree to 1e-12) can fail
                if abs(_tensor_gauss_hermite(logf, mode, cov, 481) - ref) <= 1e-12:
                    misses.append((d, hyp.name, prior.sigma_psi, diff, err))
        assert not misses, misses[:5]
