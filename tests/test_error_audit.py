"""``tools/error_audit.py``: dep-IB and LT error estimates against pinned 30-digit references."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "error_audit.py"

#: Six cells of the audit's sample: two narrow eta priors whose H1 core goes to
#: the engine, the pair's worst core and worst log BF01 (a clamped wedge at
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
