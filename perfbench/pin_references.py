"""Recompute ``reference_pinned.json``: references that do not depend on the seed.

    python3 perfbench/pin_references.py

Covers every ``sweep_lt`` cell of the bundled corpus, the
``sensitivity_curve(100)`` points, the fixed extremes and their mirrors,
and the two ``priors`` commands of ``cli_session``.  The corpus is read
as plain CSV, without importing bf2p.
"""

import csv
import json
from pathlib import Path

import gate
import inputs
import reference

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "src" / "bf2p" / "data" / "nejm_null_results.csv"

#: bf2p's default sweep grids (``reanalysis.default_grids``), restated so
#: pinning never imports bf2p; a cell they miss is computed per seed.
IB_GRID = [{"a": 1.0 + 0.5 * i} for i in range(9)]
LT_GRID = [{"sigma_beta": 1.0, "sigma_psi": round(1.0 + 0.1 * i, 10)} for i in range(11)]
AVG_GRID = [{"a": 1.0, "sigma_beta": 1.0, "sigma_psi": 1.0}]


def sweep_lt_keys(d) -> set[str]:
    keys = set()
    for method, grid in (("ib", IB_GRID), ("lt", LT_GRID), ("avg", AVG_GRID)):
        for params in grid:
            keys.update(gate.cell_keys(method, d, params))
    return keys


def main() -> None:
    with open(CORPUS, newline="", encoding="utf-8") as fh:
        corpus = [tuple(int(r[k]) for k in ("y1", "n1", "y2", "n2")) for r in csv.DictReader(fh)]
    keys = set()
    for d in corpus + [d for pair in inputs.EXTREME_PAIRS for d in pair]:
        keys |= sweep_lt_keys(d)
    n = 100
    for y in range(n // 2 + 1):
        for method, params in gate.SENSITIVITY_PARAMS.items():
            keys.update(gate.cell_keys(method, (y, n, y, n), params))
    keys.update([gate.ETA_KEY, gate.CORR_KEY])
    out = reference.compute(sorted(keys))
    (HERE / "reference_pinned.json").write_text(json.dumps(out, sort_keys=True, indent=0) + "\n", encoding="utf-8")
    print(f"pinned {len(out)} references")


if __name__ == "__main__":
    main()
