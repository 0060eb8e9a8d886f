"""Run the extreme grid through ``bf2p.evidence`` and write every cell as JSON.

The grid is every study with n1, n2 in {1, 1e6, 1e8} and each count at
0 or n (36 studies), under LTPrior(sigma_beta, sigma_psi) with both in
{0.01, 1, 50} and DepIBPrior(s, s) with s in {0.01, 0.5, 1} (12
priors), each on three swap sides: the study, its group swap and its
event swap.  Per cell the output gives the outcome ("value" or
"error"), the error type, log BF01, its ``abs_error_estimate`` and the
seconds taken.  The summary lists the failing (study, prior) pairs,
whether the swap sides of every pair agree (the same outcome, and
values within the sum of their estimates), the slowest cell and the
total time.

    PYTHONPATH=src python3 tools/extreme_grid.py --out extreme_grid.json
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
import warnings

from bf2p import evidence
from bf2p.model import (
    ConfigError,
    DepIBPrior,
    DomainError,
    LTPrior,
    NumericalError,
    TwoByTwoData,
    ValidationError,
    WidePriorWarning,
)

SIZES = (1, 10**6, 10**8)

STUDIES = [
    (y1, n1, y2, n2)
    for n1, n2 in itertools.product(SIZES, SIZES)
    for y1, y2 in itertools.product((0, n1), (0, n2))
]

with warnings.catch_warnings():
    warnings.simplefilter("ignore", WidePriorWarning)  # sigma_psi = 50 warns
    PRIORS = [LTPrior(sb, sp) for sb, sp in itertools.product((0.01, 1.0, 50.0), repeat=2)] + [
        DepIBPrior(s, s) for s in (0.01, 0.5, 1.0)
    ]

SIDES = {
    "study": lambda d: d,
    "group_swap": TwoByTwoData.swapped,
    "event_swap": lambda d: TwoByTwoData(d.n1 - d.y1, d.n1, d.n2 - d.y2, d.n2),
}


def prior_label(prior) -> str:
    """``LTPrior(50, 50)`` or ``DepIBPrior(0.5, 0.5)``: the family and its two scales."""
    if isinstance(prior, LTPrior):
        return f"LTPrior({prior.sigma_beta:g}, {prior.sigma_psi:g})"
    return f"DepIBPrior({prior.sigma_eta:g}, {prior.sigma_zeta:g})"


def run_cell(counts, prior, side: str) -> dict:
    """One evidence call on one swap side, with its outcome and wall time."""
    cell = {"study": list(counts), "prior": prior_label(prior), "side": side}
    d = SIDES[side](TwoByTwoData(*counts))
    start = time.perf_counter()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WidePriorWarning)
            res = evidence(d, prior)
    except (ValidationError, ConfigError, DomainError, NumericalError) as exc:
        out = {"outcome": "error", "error": type(exc).__name__, "log_bf01": None, "abs_error_estimate": None}
    else:
        out = {"outcome": "value", "error": None, "log_bf01": res.log_bf01}
        out["abs_error_estimate"] = res.abs_error_estimate
    return {**cell, **out, "seconds": time.perf_counter() - start}


def sides_agree(cells: list[dict]) -> bool:
    """The same outcome on every side, and every value within its and the first side's estimates."""
    first = cells[0]
    if any((c["outcome"], c["error"]) != (first["outcome"], first["error"]) for c in cells):
        return False
    return first["outcome"] == "error" or all(
        abs(c["log_bf01"] - first["log_bf01"]) <= c["abs_error_estimate"] + first["abs_error_estimate"]
        for c in cells
    )


def run_grid(studies=STUDIES, priors=PRIORS) -> dict:
    """Every (study, prior, side) cell, and the summary of the grid."""
    cells, failing, disagreeing = [], [], []
    for counts, prior in itertools.product(studies, priors):
        group = [run_cell(counts, prior, side) for side in SIDES]
        cells.extend(group)
        key = {"study": list(counts), "prior": prior_label(prior)}
        if any(c["outcome"] == "error" for c in group):
            failing.append({**key, "errors": [c["error"] for c in group]})
        if not sides_agree(group):
            disagreeing.append(key)
    summary = {
        "cells": len(cells),
        "failed_cells": sum(c["outcome"] == "error" for c in cells),
        "failing": failing,
        "swap_sides_agree": not disagreeing,
        "disagreeing": disagreeing,
        "slowest": max(cells, key=lambda c: c["seconds"]) if cells else None,
        "total_s": sum(c["seconds"] for c in cells),
    }
    return {"summary": summary, "cells": cells}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    result = run_grid()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    s = result["summary"]
    slow = s["slowest"]
    print(
        f"{s['cells']} cells, {s['failed_cells']} failed ({len(s['failing'])} study-prior pairs), "
        f"swap sides agree: {s['swap_sides_agree']}, total {s['total_s']:.1f} s, slowest "
        f"{slow['seconds']:.3f} s at {tuple(slow['study'])} {slow['prior']} {slow['side']}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
