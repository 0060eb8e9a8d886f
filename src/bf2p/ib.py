"""Independent-Beta Bayes factor for two proportions, in closed form.

Under H1 each rate gets its own Beta(a, a) prior; under H0 the shared
rate gets a single Beta(a, a) prior.  Conjugacy makes every marginal
likelihood a ratio of beta functions, exact for any counts including
y = 0 and y = n (no continuity correction anywhere).

Reported log marginals include the binomial coefficients, so they are
true log probabilities of the data and can be compared across model
families, even though the coefficients cancel within any single Bayes
factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import EvidenceResult, Hypothesis, IBPrior, Method, TwoByTwoData
from .special import log_beta_fn


def log_binomial_coeff(n: int, y: int) -> float:
    """ln C(n, y); bitwise-invariant under y <-> n - y."""
    return math.lgamma(n + 1) - (math.lgamma(y + 1) + math.lgamma(n - y + 1))


def _log_ml(d: TwoByTwoData, hypothesis: Hypothesis, prior: IBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) under one hypothesis; the error is 0.

    H0: ln[ C(n1,y1) C(n2,y2) B(a + y1+y2, a + n1+n2-y1-y2) / B(a, a) ].
    H1 factorizes over groups: observing one group teaches nothing about
    the other, so it is the product of two beta-binomial marginals.
    """
    a = prior.a
    if hypothesis is Hypothesis.H0:
        y, n = d.pooled
        return (
            log_binomial_coeff(d.n1, d.y1)
            + log_binomial_coeff(d.n2, d.y2)
            + log_beta_fn(a + y, a + (n - y))  # int difference first: exact swaps
            - log_beta_fn(a, a)
        ), 0.0

    def group(y, n):
        return log_binomial_coeff(n, y) + log_beta_fn(a + y, a + (n - y)) - log_beta_fn(a, a)

    # single commutative addition of the two group terms keeps the
    # group-swap symmetry exact in floating point
    return group(d.y1, d.n1) + group(d.y2, d.n2), 0.0


def log_ml_h0_ib(d: TwoByTwoData, a: float = 1.0) -> float:
    """Log marginal likelihood of the shared-rate model."""
    return _log_ml(d, Hypothesis.H0, IBPrior(a))[0]


def log_ml_h1_ib(d: TwoByTwoData, a: float = 1.0) -> float:
    """Log marginal likelihood of the two-independent-rates model."""
    return _log_ml(d, Hypothesis.H1, IBPrior(a))[0]


def bf01_ib(d: TwoByTwoData, a: float = 1.0) -> EvidenceResult:
    """Bayes factor for rate equality under independent Beta(a, a) priors."""
    return EvidenceResult.from_hypotheses(_log_ml, d, IBPrior(a), Method.ANALYTIC)


@dataclass(frozen=True)
class IBPosterior:
    """Per-group Beta posterior parameters after a conjugate update."""

    a1_post: float
    b1_post: float
    a2_post: float
    b2_post: float


def ib_posterior(d: TwoByTwoData, a: float = 1.0) -> IBPosterior:
    """Conjugate update: theta_i | data ~ Beta(a + y_i, a + n_i - y_i)."""
    IBPrior(a)  # validates a
    return IBPosterior(
        a1_post=a + d.y1,
        b1_post=a + (d.n1 - d.y1),
        a2_post=a + d.y2,
        b2_post=a + (d.n2 - d.y2),
    )
