"""Batch reanalysis: CSV ingestion, hyperparameter sweeps, figure data.

Input schema (UTF-8 CSV, header required):

    id,label,y1,n1,y2,n2

Output rows carry one (study, method, parameter point) cell each and
serialize to CSV or JSON with a fixed column order; floats are written
with 17 significant digits so re-parsing reproduces them bit for bit.
Each cell is one ``averaging.evidence`` call (``avg`` cells average the
four {IB, LT} models with equal weights).  The cells of one study share
a memo of its marginal likelihoods, so a sweep fits each study's null
model once per prior, not once per ``sigma_psi`` or ``sigma_eta``.
Unknown methods and parameter names are rejected before any cell runs;
a cell's typed errors are recorded in its row (``error``) and never
abort a batch.  Sweeps are pure per-study computations, so running them
on a process pool is byte-identical to running them serially.

A 39-study corpus of published two-proportion null results ships with
the package; see ``data/nejm_null_results.csv``.
"""

from __future__ import annotations

import csv
import importlib.resources
import io
import json
import math
from dataclasses import dataclass, fields
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import averaging
from .model import (
    ConfigError,
    DepIBPrior,
    DomainError,
    IBPrior,
    LTPrior,
    NumericalError,
    TwoByTwoData,
    ValidationError,
)

__all__ = [
    "StudyRecord",
    "SweepResult",
    "ParseError",
    "METHODS",
    "ingest_csv",
    "default_grids",
    "run_sweep",
    "sensitivity_curve",
    "emit",
    "bundled_corpus_path",
    "load_bundled_corpus",
    "sweep_schema_path",
]

METHODS = ("ib", "lt", "dep_ib", "avg")

#: The prior config each single-family method evaluates.
PRIORS = {"ib": IBPrior, "lt": LTPrior, "dep_ib": DepIBPrior}

CSV_HEADER = ("id", "label", "y1", "n1", "y2", "n2")

#: Hyperparameter columns in serialization order; absent ones stay empty.
PARAM_COLUMNS = ("a", "sigma_beta", "sigma_psi", "sigma_eta", "sigma_zeta")

OUTPUT_COLUMNS = ("study_id", "method") + PARAM_COLUMNS + (
    "log_bf01",
    "bf01",
    "abs_error",
    "error",
)


class ParseError(ValueError):
    """Malformed batch input; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class StudyRecord:
    id: int
    label: str
    data: TwoByTwoData


@dataclass(frozen=True)
class SweepResult:
    """One sweep cell.  ``error`` holds an error code when the cell failed."""

    study_id: int
    method: str
    params: Mapping[str, float]
    log_bf01: float = float("nan")
    abs_error: float = float("nan")
    error: str | None = None

    def sort_key(self):
        return (self.study_id, self.method, tuple(sorted(self.params.items())))


def ingest_csv(path: str | Path) -> list[StudyRecord]:
    """Parse study records, validating counts and id uniqueness.

    An empty (or header-only) file is an empty batch, not an error.
    Errors carry the offending 1-based line number; text that is not
    UTF-8 is a ParseError at the line of its first bad byte.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(raw.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    if not text.strip():
        return []
    rows = list(csv.reader(io.StringIO(text, newline=None)))  # newline=None: universal newlines
    header = tuple(h.strip() for h in rows[0])
    if header != CSV_HEADER:
        raise ParseError(1, f"expected header {','.join(CSV_HEADER)}, got {','.join(header)}")
    records: list[StudyRecord] = []
    seen: set[int] = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 6:
            raise ParseError(lineno, f"expected 6 fields, got {len(row)}")
        try:
            sid = int(row[0])
            label = row[1].strip()
            y1, n1, y2, n2 = (int(c) for c in row[2:])
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from exc
        if sid in seen:
            raise ParseError(lineno, f"duplicate study id {sid}")
        seen.add(sid)
        try:
            data = TwoByTwoData(y1, n1, y2, n2)
        except ValidationError as exc:
            raise ParseError(lineno, f"study {sid}: {exc}") from exc
        records.append(StudyRecord(id=sid, label=label, data=data))
    return records


def default_grids() -> dict[str, list[dict[str, float]]]:
    """Default parameter grids: a in 1..5 step 0.5, sigma_psi in 1..2 step 0.1."""
    return {
        "ib": [{"a": 1.0 + 0.5 * i} for i in range(9)],
        "lt": [
            {"sigma_beta": 1.0, "sigma_psi": round(1.0 + 0.1 * i, 10)} for i in range(11)
        ],
        "dep_ib": [
            {"sigma_eta": s, "sigma_zeta": 0.5} for s in (0.2, 0.4, 0.6, 0.8, 1.0)
        ],
        "avg": [{"a": 1.0, "sigma_beta": 1.0, "sigma_psi": 1.0}],
    }


def _prior_config(cls, values: Mapping[str, object]):
    """A ``cls`` prior config from the entries of ``values`` named after its fields."""
    names = {f.name for f in fields(cls)}
    return cls(**{k: v for k, v in values.items() if k in names})


def _check_points(method: str, points: Iterable[Mapping[str, float]]) -> None:
    """Reject an unknown method, or a parameter name the method does not take."""
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; valid: {METHODS}")
    families = (IBPrior, LTPrior) if method == "avg" else (PRIORS[method],)
    allowed = sorted({f.name for c in families for f in fields(c)} & set(PARAM_COLUMNS))
    unknown = [k for point in points for k in point if k not in allowed]
    if unknown:
        raise ValidationError(f"unknown parameter {unknown[0]!r} for method {method!r}; valid: {allowed}")


def _evaluate_cell(study: StudyRecord, method: str, params: dict, log_ml) -> SweepResult:
    try:
        if method == "avg":
            # the sweep weights the four models equally
            res = averaging.bf_avg01(
                study.data,
                averaging.equal_weights(),
                averaging.ApproachParams(
                    ib=_prior_config(IBPrior, params), lt=_prior_config(LTPrior, params)
                ),
                log_ml=log_ml,
            )
        else:
            res = averaging.evidence(study.data, PRIORS[method](**params), log_ml=log_ml)
    except (ValidationError, ConfigError, DomainError, NumericalError) as exc:
        return SweepResult(
            study_id=study.id, method=method, params=dict(params),
            error=type(exc).__name__,
        )
    return SweepResult(
        study_id=study.id, method=method, params=dict(params),
        log_bf01=res.log_bf01, abs_error=res.abs_error_estimate,
    )


def _evaluate_study(study: StudyRecord, cells: Sequence[tuple[str, dict]]) -> list[SweepResult]:
    """Every (method, parameters) cell of one study, over one memo of its marginals."""
    log_ml = averaging._memoised_marginal()
    return [_evaluate_cell(study, method, params, log_ml) for method, params in cells]


def run_sweep(
    batch: Sequence[StudyRecord],
    methods: Sequence[str] = ("ib", "lt"),
    grids: Mapping[str, Sequence[Mapping[str, float]]] | None = None,
    jobs: int = 1,
) -> list[SweepResult]:
    """Evaluate every (study, method, parameter point) cell.

    A study's cells share its marginals: the null model is fitted once
    per prior, whatever the H1-only parameters, and ``avg`` reuses the
    ``ib`` and ``lt`` cells' marginals.  The result list is sorted by
    (study_id, method, parameters) and is independent of ``jobs``;
    workers only ever compute whole studies.
    """
    all_grids = default_grids()
    if grids:
        all_grids.update({k: [dict(p) for p in v] for k, v in grids.items()})
    for m in methods:
        _check_points(m, all_grids.get(m, ()))
        if not all_grids[m]:
            raise ValidationError(f"empty parameter grid for method {m!r}")
    cells = [(method, dict(params)) for method in methods for params in all_grids[method]]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only for workers

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            per_study = list(pool.map(_evaluate_study, batch, repeat(cells)))
    else:
        per_study = [_evaluate_study(study, cells) for study in batch]
    return sorted(chain.from_iterable(per_study), key=SweepResult.sort_key)


def sensitivity_curve(
    n: int,
    methods: Sequence[str] = ("ib", "lt"),
    params: Mapping[str, Mapping[str, float]] | None = None,
) -> list[tuple[int, str, float]]:
    """log BF01 at simulated equal counts y1 = y2 = y, y in 0..n//2.

    The pattern over the full count range is symmetric about n/2, so
    only the lower half is evaluated.
    """
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    for m in methods:
        _check_points(m, ())
    # each method's default parameters head its default grid
    defaults = {m: dict(grid[0]) for m, grid in default_grids().items()}
    for m, p in (params or {}).items():
        _check_points(m, [p])
        defaults[m].update(p)
    cells = [(m, defaults[m]) for m in methods]
    out = []
    for y in range(n // 2 + 1):
        study = StudyRecord(id=y, label=f"simulated-{y}", data=TwoByTwoData(y, n, y, n))
        out.extend((y, cell.method, cell.log_bf01) for cell in _evaluate_study(study, cells))
    return out


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv_field(v) -> str:
    if v is None:
        return ""
    return str(v) if isinstance(v, (str, int)) else _fmt(v)


def _result_fields(r: SweepResult) -> dict[str, object]:
    row: dict[str, object] = {"study_id": r.study_id, "method": r.method}
    for col in PARAM_COLUMNS:
        row[col] = float(r.params[col]) if col in r.params else None
    failed = r.error is not None
    row["log_bf01"] = None if failed else float(r.log_bf01)
    bf01 = None if failed else math.exp(r.log_bf01)
    row["bf01"] = bf01 if bf01 is None or math.isfinite(bf01) else None
    row["abs_error"] = None if failed else float(r.abs_error)
    row["error"] = r.error
    return row


def emit(results: Iterable[SweepResult], fmt: str, path: str | Path) -> None:
    """Serialize sweep results; ``fmt`` is "csv" or "json".

    Column order is fixed; failed cells leave their numeric fields
    empty (CSV) or null (JSON) and name the exception in ``error``,
    which is empty or null for a cell that returned a value.
    """
    results = list(results)
    path = Path(path)
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(OUTPUT_COLUMNS)
            for r in results:
                fields = _result_fields(r)
                w.writerow([_csv_field(fields[c]) for c in OUTPUT_COLUMNS])
        return
    if fmt == "json":
        # hand-rolled so float values keep the 17-significant-digit form
        lines = []
        for r in results:
            fields = _result_fields(r)
            parts = []
            for col in OUTPUT_COLUMNS:
                v = fields[col]
                if v is None:
                    enc = "null"
                elif isinstance(v, str):
                    enc = json.dumps(v)
                elif col == "study_id":
                    enc = str(int(v))
                else:
                    enc = _fmt(v)
                parts.append(f'"{col}": {enc}')
            lines.append("  {" + ", ".join(parts) + "}")
        body = "[\n" + ",\n".join(lines) + "\n]\n" if lines else "[]\n"
        path.write_text(body, encoding="utf-8")
        return
    raise ValidationError(f"unknown output format {fmt!r}")


def bundled_corpus_path() -> Path:
    return Path(importlib.resources.files("bf2p").joinpath("data/nejm_null_results.csv"))


def sweep_schema_path() -> Path:
    return Path(importlib.resources.files("bf2p").joinpath("data/sweep_schema.json"))


def load_bundled_corpus() -> list[StudyRecord]:
    """The 39-study two-proportion null-result corpus shipped with the package."""
    return ingest_csv(bundled_corpus_path())
