"""Summarise paired benchmark runs of a parent and a change into a BENCH file.

Each input file is the standard output of one ``perfbench/run.py`` run
(its last two lines: the run record, then the metrics), saved with

    python3 perfbench/run.py --workload W --seed S --seconds 30 > change-W-S.json

The records that ``run.py`` writes to ``perfbench/out/`` hold only the
raw per-pass or per-command times, not ``setup_s`` or ``peak_rss_mb``,
so the standard output is what is read here.  Runs pair up by workload
and seed; for every end-to-end metric that ``BENCHMARK.json`` declares,
the summary gives each side's median and quartiles over the runs, the
number of pairs the change wins (ties count for neither side), and
whether the gap between the medians exceeds the parent's interquartile
spread with at least nine wins in ten, the rule for claiming a gain.

    python3 tools/bench_summary.py --parent bench/parent-*.json \\
        --change bench/change-*.json --out BENCH_<n>.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(path: Path) -> dict:
    """The run record of one run's standard output, with its metric values and failures."""
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    record = next(x["run_record"] for x in lines if "run_record" in x)
    result = lines[-1]
    return {
        "workload": record["workload"],
        "seed": record["seed"],
        "seconds": record["seconds"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of one side's runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarise(parent: list[dict], change: list[dict], declared: list[dict]) -> dict:
    """Per workload and metric: both sides' spreads, pair wins and the gain rule."""
    out = {}
    for workload in sorted({r["workload"] for r in parent + change}):
        p = {r["seed"]: r for r in parent if r["workload"] == workload}
        c = {r["seed"]: r for r in change if r["workload"] == workload}
        seeds = sorted(p.keys() & c.keys())
        if not seeds:
            continue
        metrics = {}
        for m in declared:
            name, lower = m["name"], m["better"] == "lower"
            pv = [p[s]["metrics"][name] for s in seeds]
            cv = [c[s]["metrics"][name] for s in seeds]
            wins = sum((b < a) if lower else (b > a) for a, b in zip(pv, cv))
            ps, cs = spread(pv), spread(cv)
            gap = (ps["median"] - cs["median"]) if lower else (cs["median"] - ps["median"])
            metrics[name] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                "parent": ps,
                "change": cs,
                "change_over_parent": cs["median"] / ps["median"] if ps["median"] else None,
                "change_wins": wins,
                "gain_resolved": wins >= 0.9 * len(seeds) and gap > ps["q3"] - ps["q1"],
            }
        out[workload] = {
            "pairs": len(seeds),
            "seeds": seeds,
            "seconds": sorted({p[s]["seconds"] for s in seeds} | {c[s]["seconds"] for s in seeds}),
            "failed": {"parent": sum(p[s]["failed"] for s in seeds), "change": sum(c[s]["failed"] for s in seeds)},
            "attempted": {"parent": sum(p[s]["attempted"] for s in seeds), "change": sum(c[s]["attempted"] for s in seeds)},
            "metrics": metrics,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True, help="run outputs of the parent commit")
    ap.add_argument("--change", nargs="+", type=Path, required=True, help="run outputs of the change")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    summary = summarise([load_run(f) for f in args.parent], [load_run(f) for f in args.change], declared)
    if not summary:
        print("error: no workload and seed was run on both sides", file=sys.stderr)
        return 1
    args.out.write_text(json.dumps({"workloads": summary}, indent=1) + "\n", encoding="utf-8")
    for workload, w in summary.items():
        for name, m in w["metrics"].items():
            print(
                f"{workload:12s} {name:12s} parent {m['parent']['median']:10.4g} "
                f"change {m['change']['median']:10.4g} {m['unit']:3s} "
                f"wins {m['change_wins']}/{w['pairs']}{'  gain' if m['gain_resolved'] else ''}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
