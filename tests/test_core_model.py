"""Core types, the logistic sigmoid, and validation."""

import math
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import expit as scipy_expit

from bf2p.model import (
    DomainError,
    EvidenceResult,
    Method,
    TwoByTwoData,
    ValidationError,
    evidence_label,
    expit,
    expit_pair,
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

    @pytest.mark.parametrize(
        "count",
        [3.0, np.float64(3.0), np.float32(3.0), np.float16(3.0), Fraction(3), Decimal(3), True, np.bool_(True), "3"],
        ids=["float", "float64", "float32", "float16", "fraction", "decimal", "bool", "bool_", "str"],
    )
    def test_integral_non_integers_rejected(self, count):
        # one rule for every type: a count is an integer, whether or not its value is integral
        with pytest.raises(ValidationError, match="y1 must be an integer"):
            TwoByTwoData(count, 10, 0, 10)

    @pytest.mark.parametrize("count", [3, np.int64(3), np.int32(3), np.uint8(3)], ids=["int", "int64", "int32", "uint8"])
    def test_integers_are_stored_as_plain_ints(self, count):
        d = TwoByTwoData(count, 10, 0, 10)
        assert type(d.y1) is int and d.y1 == 3


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
