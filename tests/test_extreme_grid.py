"""``tools/extreme_grid.py``: cells, swap-side agreement and the summary."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from bf2p.model import DepIBPrior, LTPrior

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
    retimed = summary["retimed"]
    slowest = sorted(c["seconds"] for c in cells)[-tool.RETIMED :]
    assert sorted(r["seconds"] for r in retimed) == slowest
    assert all(r["median_s"] > 0.0 for r in retimed)
    assert summary["total_s"] == pytest.approx(sum(c["seconds"] for c in cells))
    assert list(summary["warmup_s"]) == ["LTPrior"] and summary["warmup_s"]["LTPrior"] > 0.0
    json.dumps(out, allow_nan=False)


def test_one_untimed_warm_up_per_family_runs_first(tool, monkeypatch):
    # the first call of a family pays its imports and rule builds: one cell per
    # family runs before the timed loop and stays out of the cells; the five
    # slowest cells then run three times more
    calls, evidence = [], tool.evidence

    def recording(d, prior):
        calls.append(((d.y1, d.n1, d.y2, d.n2), tool.prior_label(prior)))
        return evidence(d, prior)

    monkeypatch.setattr(tool, "evidence", recording)
    priors = [LTPrior(1.0, 1.0), LTPrior(0.01, 1.0), DepIBPrior(0.5, 0.5)]
    out = tool.run_grid(studies=[(0, 1, 0, 1)], priors=priors)
    assert calls[:2] == [((0, 1, 0, 1), "LTPrior(1, 1)"), ((0, 1, 0, 1), "DepIBPrior(0.5, 0.5)")]
    assert len(calls) == 2 + out["summary"]["cells"] + tool.REPEATS * tool.RETIMED == 2 + 9 + 3 * 5
    warmup = out["summary"]["warmup_s"]
    assert list(warmup) == ["LTPrior", "DepIBPrior"] and min(warmup.values()) > 0.0


def test_failed_cells_and_disagreeing_sides_are_listed(tool):
    ok = {"outcome": "value", "error": None, "log_bf01": 1.0, "abs_error_estimate": 1e-12}
    assert tool.sides_agree([ok, {**ok, "log_bf01": 1.0 + 1e-12}])
    assert not tool.sides_agree([ok, {**ok, "log_bf01": 1.0 + 1e-11}])
    failed = {"outcome": "error", "error": "NumericalError", "log_bf01": None, "abs_error_estimate": None}
    assert tool.sides_agree([failed, failed])
    assert not tool.sides_agree([ok, failed])


def test_retime_reports_the_median_of_the_reruns(tool, monkeypatch):
    # a single timing reads the machine's load; the re-runs' median stands next to it
    times = iter([0.5, 0.1, 0.3, 0.2, 0.2, 0.2])
    monkeypatch.setattr(tool, "run_cell", lambda counts, prior, side: {"seconds": next(times)})
    cells = [
        {"study": [0, 1, 0, 1], "prior": "LTPrior(1, 1)", "side": side, "seconds": sec}
        for side, sec in (("study", 0.9), ("group_swap", 0.01), ("event_swap", 0.4))
    ]
    monkeypatch.setattr(tool, "RETIMED", 2)
    out = tool.retime(cells, [LTPrior(1.0, 1.0)])
    assert [(r["side"], r["seconds"], r["median_s"]) for r in out] == [("study", 0.9, 0.3), ("event_swap", 0.4, 0.2)]


def test_warm_up_builds_every_gauss_hermite_rule(tool):
    # a timed cell that climbs the whole ladder must not pay for the rule builds
    tool._whitened_rule.cache_clear()
    tool.warm_up((0, 1, 0, 1), [DepIBPrior(0.5, 0.5)])
    info = tool._whitened_rule.cache_info()
    assert info.currsize == info.misses == 2 * len(tool.NODE_SCHEDULE)


@pytest.mark.parametrize(
    "failed_cells, agree, status", [(0, True, 0), (3, True, 1), (0, False, 1), (3, False, 1)]
)
def test_exit_status_gates_on_failures_and_disagreement(tool, monkeypatch, tmp_path, failed_cells, agree, status):
    cell = {"study": [0, 1, 0, 1], "prior": "LTPrior(1, 1)", "side": "study", "seconds": 0.01}
    summary = {
        "cells": 3, "failed_cells": failed_cells, "failing": [], "swap_sides_agree": agree,
        "disagreeing": [], "slowest": cell, "retimed": [{**cell, "median_s": 0.01}], "total_s": 0.03,
        "warmup_s": {"LTPrior": 0.01},
    }
    monkeypatch.setattr(tool, "run_grid", lambda: {"summary": summary, "cells": [cell] * 3})
    out = tmp_path / "grid.json"
    assert tool.main(["--out", str(out)]) == status
    assert json.loads(out.read_text())["summary"] == summary
