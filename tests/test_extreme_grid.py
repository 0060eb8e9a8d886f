"""``tools/extreme_grid.py``: cells, swap-side agreement and the summary."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from bf2p.model import LTPrior

TOOL = Path(__file__).resolve().parent.parent / "tools" / "extreme_grid.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("extreme_grid", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_full_grid_is_36_studies_by_12_priors(tool):
    assert len(set(tool.STUDIES)) == 36
    assert len(tool.PRIORS) == 12
    assert {tool.prior_label(p) for p in tool.PRIORS} >= {"LTPrior(50, 50)", "DepIBPrior(0.01, 0.01)"}


def test_subset_records_every_side_and_a_summary(tool):
    studies = [(0, 1, 1, 1), (0, 10**6, 10**6, 10**6)]
    out = tool.run_grid(studies=studies, priors=[LTPrior(1.0, 1.0)])
    cells, summary = out["cells"], out["summary"]
    assert len(cells) == summary["cells"] == 6
    assert [c["side"] for c in cells[:3]] == ["study", "group_swap", "event_swap"]
    for c in cells:
        assert c["prior"] == "LTPrior(1, 1)"
        assert c["outcome"] == "value" and c["error"] is None
        assert math.isfinite(c["log_bf01"]) and c["abs_error_estimate"] >= 0.0
        assert c["seconds"] > 0.0
    assert summary["failing"] == [] and summary["failed_cells"] == 0
    assert summary["swap_sides_agree"] and summary["disagreeing"] == []
    assert summary["slowest"]["seconds"] == max(c["seconds"] for c in cells)
    assert summary["total_s"] == pytest.approx(sum(c["seconds"] for c in cells))
    json.dumps(out, allow_nan=False)


def test_failed_cells_and_disagreeing_sides_are_listed(tool):
    ok = {"outcome": "value", "error": None, "log_bf01": 1.0, "abs_error_estimate": 1e-12}
    assert tool.sides_agree([ok, {**ok, "log_bf01": 1.0 + 1e-12}])
    assert not tool.sides_agree([ok, {**ok, "log_bf01": 1.0 + 1e-11}])
    failed = {"outcome": "error", "error": "NumericalError", "log_bf01": None, "abs_error_estimate": None}
    assert tool.sides_agree([failed, failed])
    assert not tool.sides_agree([ok, failed])
