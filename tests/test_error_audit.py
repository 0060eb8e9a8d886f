"""``tools/error_audit.py``: dep-IB, LT, clamped-wedge, H0, H1-core and prior-correlation error estimates against
pinned 30-digit references."""

import importlib.util
import math
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "error_audit.py"

#: Six cells of the audit's sample: two narrow eta priors whose H1 core goes to
#: the graded parts, the pair's worst core and worst log BF01 (a clamped wedge at
#: n ~ 1e6), every event at n ~ 5e7, and a core beside a wedge at small n.
CELLS = [
    ((0, 1940, 0, 2), 0.05, 0.3),
    ((0, 5, 47636, 89592), 0.05, 0.1),
    ((0, 167, 0, 20030742), 0.05, 1.0),
    ((826177, 828738, 0, 3562863), 0.2, 0.3),
    ((45877685, 45877685, 32089129, 32089129), 0.1, 0.1),
    ((1391, 1505, 14, 14), 1.0, 0.3),
]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("error_audit", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.sample()
    assert len(sample) == 100
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs())
    assert set(CELLS) <= set(sample)


@pytest.mark.parametrize("cell", CELLS)
def test_error_estimates_cover_the_error(tool, cell):
    row = tool.audit_cell(*cell, tool.load_refs()[tool.cell_key(*cell)])
    for name in ("h0", "core", "log_bf01"):
        assert row[name]["ratio"] <= 1.0, name


#: Five cells of the LT slice: the worst H0 (a count at 0 at n ~ 8e5), the worst
#: H1 and log BF01, a logistic beta prior with a count at 0 in a group of 40,
#: every event against none at n ~ 1e8, and every event in both groups under a
#: logistic prior, whose flat likelihood leaves only the priors' tails.
LT_CELLS = [
    ((13466, 37521, 0, 839247), 2.0, 2.0, "gaussian"),
    ((20, 42, 178319, 245870), 2.0, 1.5, "gaussian"),
    ((758, 2115, 0, 40), 2.0, 0.5, "logistic"),
    ((99044818, 99044818, 0, 412719), 0.5, 2.0, "gaussian"),
    ((42537, 42537, 1313654, 1313654), 1.0, 1.5, "logistic"),
]


def test_lt_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.lt_sample()
    assert len(sample) == 30
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs("lt"))
    assert set(LT_CELLS) <= set(sample)


@pytest.mark.parametrize("cell", LT_CELLS)
def test_lt_error_estimates_cover_the_error(tool, cell):
    row = tool.audit_lt_cell(*cell, tool.load_refs("lt")[tool.cell_key(*cell)])
    for name in ("h0", "h1", "log_bf01"):
        assert row[name]["ratio"] <= 1.0, name


#: Seven cells of the wedge slice: likelihood peaks at u = 1/2 with no events and
#: half of them, a peak past 1/2, a benchmark panel's wedge, a narrow prior at
#: small n, no events at n = 1e6, and a drawn peak near u = 0.87 at n ~ 3e5.
WEDGE_CELLS = [
    ((0, 14), 0.5, 0.2, 0.5),
    ((7, 14), 0.5, 0.2, 0.5),
    ((12, 16), 0.5, 0.2, 0.5),
    ((3, 16), 0.5, 1.0, 0.5),
    ((1, 3), 0.5, 0.1, 0.3),
    ((0, 10**6), 0.5, 0.2, 0.5),
    ((244158, 281872), 0.3, 0.5, 0.5),
]


def test_wedge_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.wedge_sample()
    assert len(sample) == 62
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs("wedge"))
    assert set(WEDGE_CELLS) <= set(sample)


@pytest.mark.parametrize("cell", WEDGE_CELLS)
def test_wedge_error_estimates_cover_the_error(tool, cell):
    row = tool.audit_wedge_cell(*cell, tool.load_refs("wedge")[tool.cell_key(*cell)])
    assert row["wedge"]["ratio"] <= 1.0


def test_wedge_reference_is_reproducible(tool):
    cell = ((7, 14), 0.5, 0.2, 0.5)
    assert tool.wedge_reference(*cell) == tool.load_refs("wedge")[tool.cell_key(*cell)]


#: Seven cells of the H0 slice, each off the pooled pair: (25, 25, 25, 25) at a zeta window
#: of 0.001 about 0, where the log-odds engine raised; half the events at n = 1e8; a narrow
#: window about 1/2 at n = 2e4; windows of 1e-8 and 1e-12 about 0; and one of 1e-12 about
#: 1/2, on which the engine divided by zero, and one of 1e-7 about 0.3, on which it returned
#: a value 182 times its estimate off.
H0_CELLS = [
    ((25, 25, 25, 25), 0.001, 0.0),
    ((25000000, 50000000, 25000000, 50000000), 0.001, 0.3),
    ((2500, 10000, 2600, 10000), 1e-4, 0.5),
    ((0, 10000, 30, 10000), 1e-8, 0.0),
    ((5000, 10000, 5000, 10000), 1e-12, 0.0),
    ((18, 493, 10, 488), 1e-12, 0.5),
    ((0, 10, 0, 10), 1e-7, 0.3),
]


def test_h0_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.SLICES["h0"].sample()
    assert len(sample) == 36
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs("h0"))
    assert set(H0_CELLS) <= set(sample)


@pytest.mark.parametrize("cell", H0_CELLS)
def test_h0_error_estimates_cover_the_error(tool, cell):
    row = tool.audit_h0_cell(*cell, tool.load_refs("h0")[tool.cell_key(*cell)])
    assert row["h0"]["ratio"] <= 1.0


def test_h0_reference_is_reproducible(tool):
    cell = ((25, 25, 25, 25), 0.001, 0.0)
    assert tool.h0_reference(*cell) == tool.load_refs("h0")[tool.cell_key(*cell)]
    # 50 ln 0.001 + ln 49!!, the half-Gaussian's 50th moment, to 15 digits
    assert float(tool.load_refs("h0")[tool.cell_key(*cell)]["h0"]) == pytest.approx(-272.242281734313, abs=1e-12)


#: Six cells of the core slice, every core off its rate pair: the two anchors, zeta a point mass
#: at 1/2, a narrow eta prior under a wide zeta prior, a narrow eta prior at small n whose core
#: the log-odds engine took to tanh-sinh, and a core whose eta window the diamond cuts at zeta = 1.
CORE_CELLS = [
    ((0, 16, 3, 16), 0.2, 1e-12, 0.0),
    ((18, 493, 10, 488), 1e-12, 1e-12, 0.0),
    ((18, 493, 10, 488), 0.2, 1e-300, 0.5),
    ((18, 493, 10, 488), 1e-4, 0.5, 0.5),
    ((0, 3, 0, 3), 0.05, 0.5, 0.5),
    ((2, 2, 4, 4), 2.5e-5, 0.1, 0.5),
]


def test_core_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.SLICES["core"].sample()
    assert len(sample) == 12
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs("core"))
    assert set(CORE_CELLS) <= set(sample)


@pytest.mark.parametrize("cell", CORE_CELLS)
def test_core_error_estimates_cover_the_error(tool, cell):
    row = tool.audit_core_cell(*cell, tool.load_refs("core")[tool.cell_key(*cell)])
    assert row["core"]["ratio"] <= 1.0


def test_core_anchors(tool):
    refs = tool.load_refs("core")

    def core(*cell):
        return float(refs[tool.cell_key(*cell)]["core"])

    # a zeta window of 1e-12 at 0 leaves both rates within 1e-11 of 0, where t2^3 is all that is
    # left of the likelihoods and p_eta(0) of the eta prior: the core is ln(24 sigma_zeta^4 p_eta(0))
    limit = math.log(24.0) + 4 * math.log(1e-12) - math.log(0.2 * math.sqrt(2 * math.pi) * math.erf(5 / math.sqrt(2)))
    assert core((0, 16, 3, 16), 0.2, 1e-12, 0.0) == pytest.approx(limit, abs=1e-9)
    # the log-odds engine's value, where it converged
    assert core((18, 493, 10, 488), 1e-12, 1e-12, 0.0) == pytest.approx(-740.5542120216, abs=5e-11)


#: Correlation cells with an mpmath reference: LT with a Gaussian beta prior at
#: (sigma_beta, sigma_psi) = (1, 1), (1, 3), (5, 1) and (1, 10), with a logistic
#: one at (1, 1), and dep-IB at its defaults, at sigma_eta = 0.4 and 1 and with
#: the zeta prior centred at 0; then LT priors far wider than the extreme grid's;
#: then dep-IB priors whose clamp's knee leaves eta's window inside zeta's, at
#: (sigma_eta, sigma_zeta, zeta_center) = (0.001, 0.5, 0.5), (1e-5, 0.3, 0.5),
#: (0.05, 0.3, 0.5) and (0.01, 0.001, 0.3), with all but flat eta priors, and with a
#: point-mass zeta prior.
CORR_CELLS = [
    ("lt", 1.0, 1.0, "gaussian"),
    ("lt", 1.0, 3.0, "gaussian"),
    ("lt", 5.0, 1.0, "gaussian"),
    ("lt", 1.0, 10.0, "gaussian"),
    ("lt", 1.0, 1.0, "logistic"),
    ("dep_ib", 0.2, 0.5, 0.5),
    ("dep_ib", 0.4, 0.5, 0.5),
    ("dep_ib", 1.0, 0.5, 0.5),
    ("dep_ib", 0.2, 0.5, 0.0),
    ("lt", 150.0, 150.0, "gaussian"),
    ("lt", 1e4, 1.0, "gaussian"),
    ("lt", 1.0, 1e5, "gaussian"),
    ("lt", 100.0, 100.0, "logistic"),
    ("dep_ib", 0.001, 0.5, 0.5),
    ("dep_ib", 1e-5, 0.3, 0.5),
    ("dep_ib", 0.05, 0.3, 0.5),
    ("dep_ib", 0.01, 0.001, 0.3),
    ("dep_ib", 10.0, 0.5, 0.5),
    ("dep_ib", 1e5, 0.5, 0.5),
    ("dep_ib", 0.5, 1e-300, 0.3),
]


def test_correlation_references_are_pinned_for_the_whole_sample(tool):
    sample = tool.correlation_sample()
    assert len(sample) == 39
    assert [tool.cell_key(*c) for c in sample] == list(tool.load_refs("correlation"))
    assert set(CORR_CELLS) <= set(sample)


@pytest.mark.parametrize("cell", CORR_CELLS)
def test_correlations_match_their_references(tool, cell):
    row = tool.audit_correlation_cell(*cell, tool.load_refs("correlation")[tool.cell_key(*cell)])
    assert row["corr"]["ratio"] <= 1.0
    assert row["corr"]["error"] <= 1e-10


def test_dep_ib_correlation_reference_is_reproducible(tool):
    # the dep-IB reference is one integral over zeta, so it is quick to recompute
    cell = ("dep_ib", 0.2, 0.5, 0.0)
    assert tool.correlation_reference(*cell) == tool.load_refs("correlation")[tool.cell_key(*cell)]
