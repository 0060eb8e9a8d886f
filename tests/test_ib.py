"""Closed-form independent-Beta Bayes factor."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln

from bf2p.ib import (
    bf01_ib,
    ib_posterior,
    log_binomial_coeff,
    log_ml_h0_ib,
    log_ml_h1_ib,
)
from bf2p.model import Method, TwoByTwoData, ValidationError
from mc_oracle import mc_log_marginal
from bf2p.averaging import M0_IB, M1_IB, ApproachParams
from conftest import random_small_datasets
from oracles import ib_bf01_exact


class TestNullMarginal:
    def test_all_zero_counts(self):
        d = TwoByTwoData(0, 100, 0, 100)
        assert log_ml_h0_ib(d, 1.0) == pytest.approx(math.log(1 / 201), rel=1e-14)

    def test_smallest_case(self):
        d = TwoByTwoData(0, 1, 0, 1)
        assert log_ml_h0_ib(d, 1.0) == pytest.approx(math.log(1 / 3), rel=1e-14)

    def test_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        est = mc_log_marginal(M0_IB, d, n_draws=400_000, seed=11)
        assert abs(log_ml_h0_ib(d, 1.0) - est.log_value) < 3 * est.std_error


class TestAlternativeMarginal:
    def test_all_zero_counts(self):
        d = TwoByTwoData(0, 100, 0, 100)
        assert log_ml_h1_ib(d, 1.0) == pytest.approx(2 * math.log(1 / 101), rel=1e-14)

    def test_opposite_singletons(self):
        d = TwoByTwoData(0, 1, 1, 1)
        assert log_ml_h1_ib(d, 1.0) == pytest.approx(math.log(1 / 4), rel=1e-14)

    def test_matches_monte_carlo(self):
        d = TwoByTwoData(3, 10, 5, 12)
        est = mc_log_marginal(M1_IB, d, n_draws=400_000, seed=12)
        assert abs(log_ml_h1_ib(d, 1.0) - est.log_value) < 3 * est.std_error

    def test_factorizes_over_groups(self):
        # no information crosses groups: the joint marginal is the exact
        # product of two single-group beta-binomial marginals
        d = TwoByTwoData(7, 30, 2, 19)
        a = 1.5

        def one_group(y, n):
            return log_binomial_coeff(n, y) + betaln(a + y, a + n - y) - betaln(a, a)

        assert log_ml_h1_ib(d, a) == pytest.approx(
            one_group(d.y1, d.n1) + one_group(d.y2, d.n2), abs=1e-12
        )


class TestBayesFactor:
    def test_extreme_endpoint_is_exact_rational(self):
        res = bf01_ib(TwoByTwoData(0, 100, 0, 100), 1.0)
        assert res.bf01 == pytest.approx(10201 / 201, rel=1e-12)
        assert res.method_tag is Method.ANALYTIC
        assert res.abs_error_estimate == 0.0

    @pytest.mark.parametrize(
        "counts, published",
        [
            ((0, 100, 0, 100), 50.75),
            ((50, 100, 50, 100), 5.70),
            ((18, 493, 10, 488), 12.30),
        ],
    )
    def test_reproduces_published_values(self, counts, published):
        assert bf01_ib(TwoByTwoData(*counts), 1.0).bf01 == pytest.approx(
            published, abs=0.01
        )

    @pytest.mark.parametrize(
        "counts",
        [
            (18, 493, 10, 488),
            (15, 493, 13, 488),
            (26, 11034, 10, 11037),
            (50, 100, 50, 100),
            (3, 10, 5, 12),
        ],
    )
    def test_matches_exact_fraction_arithmetic(self, counts):
        d = TwoByTwoData(*counts)
        # log-gamma rounding grows with n; 1e-10 relative is the realistic
        # double-precision envelope at n ~ 2e4
        assert bf01_ib(d, 1.0).bf01 == pytest.approx(ib_bf01_exact(d), rel=1e-10)

    def test_group_swap_symmetry_exact(self):
        d = TwoByTwoData(15, 493, 13, 488)
        assert bf01_ib(d, 1.3).log_bf01 == bf01_ib(d.swapped(), 1.3).log_bf01

    def test_event_nonevent_symmetry_exact(self):
        d = TwoByTwoData(15, 493, 13, 488)
        flipped = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        assert bf01_ib(d, 2.0).log_bf01 == bf01_ib(flipped, 2.0).log_bf01

    def test_decreases_toward_central_counts(self):
        vals = [bf01_ib(TwoByTwoData(y, 100, y, 100), 1.0).log_bf01 for y in range(51)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_non_integer_concentration_accepted(self):
        res = bf01_ib(TwoByTwoData(5, 20, 8, 20), 2.75)
        assert math.isfinite(res.log_bf01)

    def test_concentration_below_one_rejected(self):
        with pytest.raises(ValidationError):
            bf01_ib(TwoByTwoData(1, 2, 1, 2), 0.99)

    def test_marginals_match_oracle_on_random_datasets(self):
        params = ApproachParams()
        for i, d in enumerate(random_small_datasets(25, n_max=30, seed=21)):
            for model, exact in (
                (M0_IB, log_ml_h0_ib(d, 1.0)),
                (M1_IB, log_ml_h1_ib(d, 1.0)),
            ):
                est = mc_log_marginal(model, d, params, n_draws=100_000, seed=100 + i)
                assert abs(exact - est.log_value) < 3 * est.std_error, (d, model)


class TestPosterior:
    def test_conjugate_update(self):
        p = ib_posterior(TwoByTwoData(15, 493, 13, 488), 1.0)
        assert (p.a1_post, p.b1_post, p.a2_post, p.b2_post) == (16, 479, 14, 476)

    def test_update_with_a2(self):
        p = ib_posterior(TwoByTwoData(0, 100, 0, 100), 2.0)
        assert (p.a1_post, p.b1_post) == (2, 102)
        assert (p.a2_post, p.b2_post) == (2, 102)

    def test_invalid_data_rejected(self):
        with pytest.raises(ValidationError):
            TwoByTwoData(3, 0, 0, 5)


class TestSymmetryProperties:
    @given(
        n1=st.integers(1, 500),
        n2=st.integers(1, 500),
        frac1=st.floats(0, 1),
        frac2=st.floats(0, 1),
        a=st.floats(1.0, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_swap_exact_for_any_data(self, n1, n2, frac1, frac2, a):
        d = TwoByTwoData(int(frac1 * n1), n1, int(frac2 * n2), n2)
        assert bf01_ib(d, a).log_bf01 == bf01_ib(d.swapped(), a).log_bf01

    @given(
        n=st.integers(1, 300),
        frac1=st.floats(0, 1),
        frac2=st.floats(0, 1),
        a=st.floats(1.0, 4.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_event_swap_exact_for_any_data(self, n, frac1, frac2, a):
        d = TwoByTwoData(int(frac1 * n), n, int(frac2 * n), n)
        flipped = TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)
        assert bf01_ib(d, a).log_bf01 == bf01_ib(flipped, a).log_bf01
