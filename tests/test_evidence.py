"""One dispatch from a prior config to an EvidenceResult, and the swap
invariants every non-conjugate family must hold through it."""

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bf2p import dep_ib, lt
from bf2p.averaging import ApproachParams, evidence
from bf2p.dep_ib import bf01_depib
from bf2p.ib import bf01_ib
from bf2p.lt import bf01_lt
from bf2p.model import (
    BetaPriorKind,
    ConfigError,
    DepIBPrior,
    DomainError,
    Hypothesis,
    IBPrior,
    LTPrior,
    NumericalError,
    TwoByTwoData,
    ValidationError,
)
from conftest import POINT_ZETA_LOG_BF01

CASES = [(15, 493, 13, 488), (0, 40, 3, 37), (7, 7, 0, 9), (26, 11034, 10, 11037)]

#: Both sides of a symmetry agree to the sum of two LT error targets.
SWAP_TOL = 2 * lt.DEFAULT_REL_TOL


class TestDispatch:
    @pytest.mark.parametrize("counts", CASES)
    def test_each_prior_selects_its_family(self, counts):
        d = TwoByTwoData(*counts)
        assert evidence(d, IBPrior(2.5)) == bf01_ib(d, 2.5)
        assert evidence(d, LTPrior(0.8, 1.7, BetaPriorKind.LOGISTIC)) == bf01_lt(
            d, 0.8, 1.7, BetaPriorKind.LOGISTIC
        )
        cfg = DepIBPrior(0.4, 0.5, 0.0)
        assert evidence(d, cfg) == bf01_depib(d, cfg)

    @pytest.mark.parametrize("bad", [None, "lt", 1.0, ApproachParams()])
    def test_non_config_rejected(self, bad):
        with pytest.raises(ConfigError):
            evidence(TwoByTwoData(3, 10, 5, 12), bad)


def _outcome(d, prior):
    """log BF01, or the type of the typed error the computation raised."""
    try:
        return evidence(d, prior).log_bf01
    except (ValidationError, ConfigError, DomainError, NumericalError) as exc:
        return type(exc)


def _assert_same(a, b):
    if isinstance(a, type) or isinstance(b, type):
        assert a is b
    else:
        assert abs(a - b) <= SWAP_TOL


@st.composite
def studies(draw, n_max=300):
    n1 = draw(st.integers(1, n_max))
    n2 = draw(st.integers(1, n_max))
    return TwoByTwoData(draw(st.integers(0, n1)), n1, draw(st.integers(0, n2)), n2)


def _event_swapped(d):
    return TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2)


lt_priors = st.builds(
    LTPrior,
    sigma_beta=st.floats(0.25, 4.0),
    sigma_psi=st.floats(0.25, 2.0),
    beta_prior=st.sampled_from(BetaPriorKind),
)

# zeta_center = 1/2 keeps the zeta prior symmetric under theta -> 1 - theta;
# zeta_center = 0 is not an event-swap symmetry
depib_priors = st.builds(
    DepIBPrior, sigma_eta=st.floats(0.1, 1.0), sigma_zeta=st.floats(0.2, 1.0)
)


class TestSwapInvariance:
    @settings(max_examples=40, deadline=None)
    @given(d=studies(), prior=lt_priors)
    def test_lt_group_and_event_swap(self, d, prior):
        here = _outcome(d, prior)
        _assert_same(here, _outcome(d.swapped(), prior))
        _assert_same(here, _outcome(_event_swapped(d), prior))

    @settings(max_examples=40, deadline=None)
    @given(d=studies(), prior=depib_priors)
    def test_depib_group_and_event_swap(self, d, prior):
        here = _outcome(d, prior)
        _assert_same(here, _outcome(d.swapped(), prior))
        _assert_same(here, _outcome(_event_swapped(d), prior))


class TestErrorFloor:
    @pytest.mark.parametrize(
        "counts, prior",
        [((0, 10**8, 10**8, 10**8), LTPrior(1.0, 1.0)), ((3, 10**8, 10**8, 10**8), DepIBPrior())],
    )
    def test_error_estimate_covers_rounding_of_huge_log_marginals(self, counts, prior):
        # the H0 log marginal is near -1.4e8, where one ulp is 3e-8: no rule
        # can report an error below the rounding of its log integral
        res = evidence(TwoByTwoData(*counts), prior)
        assert res.abs_error_estimate >= 2 * sys.float_info.epsilon * abs(res.log_ml_h0)

    @pytest.mark.parametrize(
        "counts, prior",
        [((0, 10**8, 10**8, 10**8), LTPrior(1.0, 1.0)), ((3, 10**8, 10**8, 10**8), DepIBPrior())],
    )
    def test_gauss_hermite_stops_at_the_rounding_floor(self, counts, prior, monkeypatch):
        # two rules that agree to the floor have converged: these H0 fits must
        # not build every rule up to the cap and then run the fallback
        def fallback(*args):
            raise AssertionError("the tanh-sinh fallback ran")

        monkeypatch.setattr(lt, "_whitened_tanhsinh", fallback)
        family = lt if isinstance(prior, LTPrior) else dep_ib
        val, err = family._log_ml(TwoByTwoData(*counts), Hypothesis.H0, prior)
        assert math.isfinite(val)
        assert err == pytest.approx(lt._ROUNDING * abs(val), rel=1e-5)


#: Every prior scale field, with how many times a flat prior's factor 1/scale
#: enters each log marginal: (H0, H1).
_SCALE_FIELDS = [
    (LTPrior, "sigma_beta", (1, 1)),
    (LTPrior, "sigma_psi", (0, 1)),
    (DepIBPrior, "sigma_eta", (0, 0)),
    (DepIBPrior, "sigma_zeta", (0, 0)),
]


class TestExtremePriorScales:
    """A prior scale at either end of the float range gives a value or a
    typed error, never a ZeroDivisionError or OverflowError."""

    @pytest.mark.filterwarnings("ignore::bf2p.model.WidePriorWarning")
    @pytest.mark.parametrize("scale", [1e160, 1e300])
    @pytest.mark.parametrize("family, field, flat", _SCALE_FIELDS)
    def test_huge_scale_is_the_flat_prior_limit(self, family, field, flat, scale):
        # from 1e8 up the prior is flat over the likelihood: the marginals move
        # only by the density's factor 1e8 / scale where that scale enters
        d = TwoByTwoData(18, 493, 10, 488)
        huge, wide = evidence(d, family(**{field: scale})), evidence(d, family(**{field: 1e8}))
        shift = math.log(scale / 1e8)
        assert huge.log_ml_h0 == pytest.approx(wide.log_ml_h0 - flat[0] * shift, abs=1e-9)
        assert huge.log_ml_h1 == pytest.approx(wide.log_ml_h1 - flat[1] * shift, abs=1e-9)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e-300, 1e-170])
    @pytest.mark.parametrize("family, field, flat", _SCALE_FIELDS[:2])
    def test_tiny_scale_raises_numerical_error(self, family, field, flat, scale):
        # the prior precision 1/scale^2 overflows, and Newton reports the infinite Hessian
        with pytest.raises(NumericalError, match="gradient or Hessian is not finite"):
            evidence(TwoByTwoData(18, 493, 10, 488), family(**{field: scale}))

    @pytest.mark.parametrize("scale", [1e-300, 1e-170])
    @pytest.mark.parametrize("field, limit", [("sigma_eta", 0.0), ("sigma_zeta", POINT_ZETA_LOG_BF01)])
    def test_tiny_depib_scale_is_its_limit(self, field, limit, scale):
        # as sigma_eta -> 0 H1 tends to H0; as sigma_zeta -> 0 zeta is a point mass at 1/2
        res = evidence(TwoByTwoData(18, 493, 10, 488), DepIBPrior(**{field: scale}))
        assert abs(res.log_bf01 - limit) <= res.abs_error_estimate

    @pytest.mark.parametrize("sigma_zeta", [1e-4, 1e-12])
    def test_narrow_eta_prior_is_the_null_limit(self, sigma_zeta):
        # at sigma_eta = 1e-12 the rates are one to 1e-12, and H1 is H0 within the estimates
        res = evidence(TwoByTwoData(18, 493, 10, 488), DepIBPrior(1e-12, sigma_zeta))
        assert abs(res.log_bf01) <= res.abs_error_estimate
