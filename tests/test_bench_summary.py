"""``tools/bench_summary.py``: pairing, win counts and the gain rule."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_summary.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_summary", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write(path, workload, seed, cmd_ms, rss=100.0):
    record = {"workload": workload, "seed": seed, "seconds": 30.0, "attempted": 24, "failed": 0}
    metrics = {
        "setup_s": {"value": 1.0, "unit": "s"},
        "sweep_s": {"value": 6.0 * cmd_ms / 1000.0, "unit": "s"},
        "cmd_ms_p50": {"value": cmd_ms, "unit": "ms"},
        "cmd_ms_p75": {"value": 1.1 * cmd_ms, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }
    result = {"correct": True, "attempted": 24, "failed": 0, "metrics": metrics}
    path.write_text(json.dumps({"run_record": record}) + "\n" + json.dumps(result) + "\n")
    return path


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_spread(tool, tmp_path):
    parent = [_write(tmp_path / f"p{s}.json", "cli_session", s, 1000.0 + 10 * s) for s in range(10)]
    change = [
        _write(tmp_path / f"c{s}.json", "cli_session", s, 2000.0 if s == 0 else 300.0 + s, rss=100.0)
        for s in range(10)
    ]
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", *map(str, parent), "--change", *map(str, change), "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["cli_session"]
    assert w["pairs"] == 10 and w["seeds"] == list(range(10))
    p50 = w["metrics"]["cmd_ms_p50"]
    assert p50["change_wins"] == 9
    assert p50["gain_resolved"]
    assert p50["parent"]["median"] == pytest.approx(1045.0)
    assert (p50["parent"]["q1"], p50["parent"]["q3"]) == pytest.approx((1022.5, 1067.5))
    rss = w["metrics"]["peak_rss_mb"]
    assert rss["change_wins"] == 0 and not rss["gain_resolved"]  # ties count for neither side


def test_unpaired_runs_are_an_error(tool, tmp_path, capsys):
    p = _write(tmp_path / "p.json", "sweep_lt", 1, 3.0)
    c = _write(tmp_path / "c.json", "sweep_lt", 2, 2.0)
    assert tool.main(["--parent", str(p), "--change", str(c), "--out", str(tmp_path / "B.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
