import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from bf2p.lt import _newton
from bf2p.model import TwoByTwoData


@pytest.fixture
def magee_text() -> TwoByTwoData:
    """Counts as quoted in the trial report (pregnancy loss)."""
    return TwoByTwoData(15, 493, 13, 488)


@pytest.fixture
def magee_corpus() -> TwoByTwoData:
    """Counts as carried by the bundled reanalysis corpus (row 3)."""
    return TwoByTwoData(18, 493, 10, 488)


@pytest.fixture
def aspirin() -> TwoByTwoData:
    return TwoByTwoData(26, 11034, 10, 11037)


def random_small_datasets(count: int, n_max: int, seed: int) -> list[TwoByTwoData]:
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    while len(out) < count:
        n1 = int(rng.integers(1, n_max + 1))
        n2 = int(rng.integers(1, n_max + 1))
        y1 = int(rng.integers(0, n1 + 1))
        y2 = int(rng.integers(0, n2 + 1))
        out.append(TwoByTwoData(y1, n1, y2, n2))
    return out


#: log BF01 of (18, 493, 10, 488) under a dep-IB prior with sigma_eta = 0.2 and zeta a point
#: mass at 1/2: the likelihood at 1/2 against one integral over eta of the likelihoods at
#: (1 - eta)/2 and (1 + eta)/2.  mpmath's tanh-sinh at 30 digits gives 1.78807163885927638, and
#: scipy's quad 1.7880716388593783.
POINT_ZETA_LOG_BF01 = 1.7880716388592764


def random_null_datasets(count: int, n_max: int, seed: int) -> list[TwoByTwoData]:
    """Counts simulated under a shared rate; effects stay near zero."""
    rng = np.random.Generator(np.random.Philox(seed))
    out = []
    while len(out) < count:
        n1 = int(rng.integers(20, n_max + 1))
        n2 = int(rng.integers(20, n_max + 1))
        theta = float(rng.uniform(0.05, 0.95))
        y1 = int(rng.binomial(n1, theta))
        y2 = int(rng.binomial(n2, theta))
        out.append(TwoByTwoData(y1, n1, y2, n2))
    return out


def check_newton_mode(logf, grad_hess, x0):
    """Run the engine's Newton search and check it against finite differences of log f.

    In coordinates whitened by the returned covariance (u with
    x = mode + L u, L L' = cov), a central-difference gradient of the
    numpy ``logf`` must vanish at the mode and its Hessian must be -I,
    which says that ``cov`` inverts the negative Hessian.  ``logf`` takes
    one float per coordinate, as the engine's problems do.
    """
    mode, cov = _newton(logf, grad_hess, x0, "test")
    k = mode.size
    assert mode.shape == (k,) and cov.shape == (k, k)
    chol = np.linalg.cholesky(cov)

    def f(u):
        return float(logf(*(mode + chol @ np.asarray(u, dtype=float))))

    # steps of 1e-3 and 1e-2 sd keep the rounding of log f ~ -1e7 below the tolerances
    eye = np.eye(k)
    grad = [(f(1e-3 * e) - f(-1e-3 * e)) / 2e-3 for e in eye]
    h = 1e-2
    hess = [
        [(f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b))) / (4 * h * h) for b in eye]
        for a in eye
    ]
    np.testing.assert_allclose(grad, 0.0, atol=1e-5)
    np.testing.assert_allclose(hess, -eye, atol=1e-4)
    return mode, cov
