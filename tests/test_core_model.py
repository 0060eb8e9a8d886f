"""Core types, coordinate conversions, and validation."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import expit as scipy_expit

from bf2p.model import (
    DiffCoords,
    DomainError,
    EvidenceResult,
    LogitCoords,
    Method,
    ProportionPair,
    TwoByTwoData,
    ValidationError,
    diff_to_proportions,
    evidence_label,
    expit,
    expit_pair,
    logit_to_proportions,
    proportions_to_diff,
    proportions_to_logit,
    validate_data,
)


class TestValidation:
    def test_magee_counts_are_valid(self):
        d = TwoByTwoData(15, 493, 13, 488)
        assert validate_data(d) is d

    def test_count_exceeding_sample_size_names_field(self):
        with pytest.raises(ValidationError, match="y1"):
            TwoByTwoData(5, 4, 0, 10)

    def test_zero_sample_size_names_field(self):
        with pytest.raises(ValidationError, match="n1"):
            TwoByTwoData(0, 0, 1, 2)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            TwoByTwoData(-1, 10, 0, 10)

    def test_non_integer_rejected(self):
        with pytest.raises(ValidationError):
            TwoByTwoData(1.5, 10, 0, 10)


class TestLogitToProportions:
    def test_origin_maps_to_center(self):
        p = logit_to_proportions(LogitCoords(0.0, 0.0))
        assert p == ProportionPair(0.5, 0.5)

    def test_quartile_pair(self):
        # psi = 2*logit(0.75) since logit(0.25) = -logit(0.75)
        psi = 2 * math.log(3.0)
        p = logit_to_proportions(LogitCoords(0.0, psi))
        assert p.theta1 == pytest.approx(0.25, abs=1e-12)
        assert p.theta2 == pytest.approx(0.75, abs=1e-12)

    def test_deep_tail_stability(self):
        p = logit_to_proportions(LogitCoords(-6.05, 0.0))
        expected = 1.0 / (1.0 + math.exp(6.05))  # ~0.00235
        assert p.theta1 == pytest.approx(expected, rel=1e-12)
        assert p.theta1 == pytest.approx(0.00235, abs=5e-6)
        assert p.theta2 == p.theta1

    def test_extreme_arguments_do_not_overflow(self):
        p = logit_to_proportions(LogitCoords(0.0, 1400.0))  # log odds +/- 700
        assert 0.0 <= p.theta1 < 1e-300
        assert p.theta2 == 1.0
        assert math.isfinite(p.theta1)

    def test_monotone_in_beta_and_psi(self):
        betas = [-3, -1, 0, 1, 3]
        t1 = [logit_to_proportions(LogitCoords(b, 0.7)).theta1 for b in betas]
        assert t1 == sorted(t1)
        psis = [-2, -1, 0, 1, 2]
        t2 = [logit_to_proportions(LogitCoords(0.3, p)).theta2 for p in psis]
        assert t2 == sorted(t2)


class TestProportionsToLogit:
    @pytest.mark.parametrize(
        "pair, psi_2dp",
        [((0.05, 0.10), 0.75), ((0.50, 0.55), 0.20)],
    )
    def test_log_odds_ratio_examples(self, pair, psi_2dp):
        c = proportions_to_logit(ProportionPair(*pair))
        assert round(c.psi, 2) == psi_2dp

    def test_center_maps_to_origin(self):
        c = proportions_to_logit(ProportionPair(0.5, 0.5))
        assert c.beta == 0.0 and c.psi == 0.0

    def test_boundary_raises(self):
        with pytest.raises(DomainError):
            proportions_to_logit(ProportionPair(0.0, 0.5))
        with pytest.raises(DomainError):
            proportions_to_logit(ProportionPair(0.5, 1.0))

    @given(
        beta=st.floats(-20, 20),
        psi=st.floats(-20, 20),
    )
    def test_round_trip(self, beta, psi):
        p = logit_to_proportions(LogitCoords(beta, psi))
        back = logit_to_proportions(proportions_to_logit(p))
        assert back.theta1 == pytest.approx(p.theta1, abs=1e-12)
        assert back.theta2 == pytest.approx(p.theta2, abs=1e-12)


class TestDiffCoords:
    def test_center(self):
        assert proportions_to_diff(ProportionPair(0.5, 0.5)) == DiffCoords(0.0, 0.5)

    def test_small_rates(self):
        c = proportions_to_diff(ProportionPair(0.05, 0.10))
        assert c.eta == pytest.approx(0.05)
        assert c.zeta == pytest.approx(0.075)

    def test_boundary(self):
        assert proportions_to_diff(ProportionPair(0.0, 1.0)) == DiffCoords(1.0, 0.5)

    @given(t1=st.floats(0.0, 1.0), t2=st.floats(0.0, 1.0))
    def test_round_trip_inside_square(self, t1, t2):
        back = diff_to_proportions(proportions_to_diff(ProportionPair(t1, t2)))
        assert back.theta1 == pytest.approx(t1, abs=1e-12)
        assert back.theta2 == pytest.approx(t2, abs=1e-12)


class TestEvidenceResult:
    def test_log_bf_is_difference_of_marginals(self):
        r = EvidenceResult.from_log_marginals(-4.0, -6.5, 0.0, Method.ANALYTIC)
        assert r.log_bf01 == -4.0 - (-6.5)
        assert r.bf01 == pytest.approx(math.exp(2.5))
        assert r.bf10 == pytest.approx(math.exp(-2.5))

    def test_inconsistent_log_bf_rejected(self):
        with pytest.raises(ValidationError):
            EvidenceResult(-4.0, -6.5, 2.5 + 1e-9, 0.0, Method.ANALYTIC)

    def test_analytic_requires_zero_error(self):
        with pytest.raises(ValidationError):
            EvidenceResult.from_log_marginals(-4.0, -6.5, 1e-9, Method.ANALYTIC)


class TestEvidenceLabel:
    @pytest.mark.parametrize(
        "bf, expected",
        [
            (2.0, "weak evidence for H0"),
            (5.7, "moderate evidence for H0"),
            (12.3, "strong evidence for H0"),
            (1 / 5.36, "moderate evidence for H1"),
            (0.02, "strong evidence for H1"),
        ],
    )
    def test_scale(self, bf, expected):
        assert evidence_label(bf) == expected

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            evidence_label(0.0)


class TestSigmoid:
    X = np.concatenate([np.linspace(-745.0, 745.0, 149_001), np.linspace(-40.0, 40.0, 80_001)])

    @staticmethod
    def ulps(got, ref):
        return np.abs(got - ref) / np.spacing(np.abs(ref))

    def test_within_4_ulp_of_scipy(self):
        # scipy's 1 / (1 + e^-x) underflows to 0 once e^-x overflows, below
        # x = -709.78, where the true value is still a positive float
        ref = scipy_expit(self.X)
        live = ref > 0.0
        assert np.all(self.X[~live] < -709.0)
        assert np.max(self.ulps(expit(self.X), ref)[live]) <= 4.0

    def test_within_4_ulp_of_mpmath_in_both_tails(self):
        x = np.linspace(-745.0, 745.0, 2_981)
        with mp.workdps(40):
            ref = np.array([float(1 / (1 + mp.exp(-mp.mpf(float(t))))) for t in x])
        assert np.max(self.ulps(expit(x), ref)) <= 4.0
        assert np.all(expit(x[x > -745.0]) > 0.0)

    def test_float_pair_matches_the_array_sigmoid(self):
        # same formula; math.exp and numpy's exp may round e^-|x| apart by an ulp
        x = self.X[::97]
        s, c = np.array([expit_pair(float(t)) for t in x]).T
        assert np.max(self.ulps(s, expit(x))) <= 2.0
        assert np.max(self.ulps(c, expit(-x))) <= 2.0
