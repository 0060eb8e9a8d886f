"""Monte Carlo validation estimators and the sequential decomposition."""

import math

import pytest

from bf2p.averaging import ALL_MODELS, M0_IB, M0_LT, M1_IB, M1_LT
from bf2p.ib import log_ml_h0_ib
from bf2p.lt import log_ml_h1_lt
from bf2p.model import TwoByTwoData
from mc_oracle import (
    group2_log_predictive,
    mc_log_marginal,
    sequential_log_marginal,
)
from conftest import random_small_datasets


class TestPlainEstimator:
    def test_unit_case_against_exact_value(self):
        d = TwoByTwoData(0, 1, 0, 1)
        est = mc_log_marginal(M0_IB, d, n_draws=200_000, seed=1)
        assert abs(est.log_value - math.log(1 / 3)) < 3 * est.std_error

    def test_matches_quadrature_lt_alternative(self):
        d = TwoByTwoData(3, 10, 5, 12)
        est = mc_log_marginal(M1_LT, d, n_draws=400_000, seed=2)
        assert abs(est.log_value - log_ml_h1_lt(d, 1.0, 1.0)) < 3 * est.std_error

    def test_error_shrinks_at_root_n_rate(self):
        d = TwoByTwoData(4, 15, 2, 11)
        small = mc_log_marginal(M1_IB, d, n_draws=100_000, seed=3)
        big = mc_log_marginal(M1_IB, d, n_draws=200_000, seed=3)
        ratio = big.std_error / small.std_error
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.20)

    def test_bit_reproducible(self):
        d = TwoByTwoData(5, 20, 8, 20)
        a = mc_log_marginal(M1_LT, d, n_draws=100_000, seed=7)
        b = mc_log_marginal(M1_LT, d, n_draws=100_000, seed=7)
        assert a.log_value == b.log_value
        assert a.std_error == b.std_error

    def test_minimum_draw_count_enforced(self):
        with pytest.raises(ValueError):
            mc_log_marginal(M0_IB, TwoByTwoData(1, 2, 1, 2), n_draws=10_000)


class TestSequentialDecomposition:
    def test_matches_joint_for_shared_rate_model(self):
        d = TwoByTwoData(3, 10, 5, 12)
        joint = mc_log_marginal(M0_IB, d, n_draws=400_000, seed=4)
        seq = sequential_log_marginal(M0_IB, d, n_draws=400_000, seed=5)
        combined = math.hypot(joint.std_error, seq.std_error)
        assert abs(joint.log_value - seq.log_value) < 3 * combined

    def test_matches_joint_for_logit_alternative(self):
        d = TwoByTwoData(3, 10, 5, 12)
        joint = mc_log_marginal(M1_LT, d, n_draws=400_000, seed=6)
        seq = sequential_log_marginal(M1_LT, d, n_draws=400_000, seed=7)
        combined = math.hypot(joint.std_error, seq.std_error)
        assert abs(joint.log_value - seq.log_value) < 3 * combined

    def test_matches_joint_for_all_models_on_corpus_of_datasets(self):
        for i, d in enumerate(random_small_datasets(10, n_max=20, seed=55)):
            for model in ALL_MODELS:
                joint = mc_log_marginal(model, d, n_draws=120_000, seed=900 + i)
                seq = sequential_log_marginal(model, d, n_draws=120_000, seed=901 + i)
                combined = math.hypot(joint.std_error, seq.std_error)
                assert abs(joint.log_value - seq.log_value) < 3 * combined, (d, model)

    def test_independent_alternative_predictive_ignores_conditioning(self):
        # under independent rate priors the group-1 data carry no
        # information about the group-2 rate: both code paths must agree
        # bit for bit, not just statistically
        d = TwoByTwoData(4, 20, 9, 25)
        with_cond = group2_log_predictive(
            M1_IB, d, n_draws=150_000, seed=8, condition_on_group1=True
        )
        without = group2_log_predictive(
            M1_IB, d, n_draws=150_000, seed=8, condition_on_group1=False
        )
        assert with_cond.log_value == without.log_value

    def test_information_sharing_signature(self):
        # after seeing 0 events in 20, a dependent-prior model finds a
        # second all-null group more credible; the independent model is
        # unmoved
        d = TwoByTwoData(0, 20, 0, 20)
        lt_cond = group2_log_predictive(
            M1_LT, d, n_draws=2_000_000, seed=9, condition_on_group1=True
        )
        lt_prior = group2_log_predictive(
            M1_LT, d, n_draws=2_000_000, seed=9, condition_on_group1=False
        )
        gap_se = math.hypot(lt_cond.std_error, lt_prior.std_error)
        assert lt_cond.log_value - lt_prior.log_value > 3 * gap_se

        ib_cond = group2_log_predictive(
            M1_IB, d, n_draws=200_000, seed=9, condition_on_group1=True
        )
        ib_prior = group2_log_predictive(
            M1_IB, d, n_draws=200_000, seed=9, condition_on_group1=False
        )
        assert ib_cond.log_value == ib_prior.log_value

    def test_null_sequential_identity_against_closed_form(self):
        d = TwoByTwoData(2, 12, 3, 9)
        seq = sequential_log_marginal(M0_IB, d, n_draws=400_000, seed=10)
        assert abs(seq.log_value - log_ml_h0_ib(d, 1.0)) < 3 * seq.std_error

    def test_effective_sample_size_warning(self):
        # a very informative first group collapses the prior-proposal
        # weights and must surface as a precision warning
        d = TwoByTwoData(1, 4000, 3, 10)
        est = group2_log_predictive(
            M0_LT, d, n_draws=100_000, seed=11, condition_on_group1=True
        )
        assert est.ess is not None and est.ess < 100
        assert est.warning is not None
