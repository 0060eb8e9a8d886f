"""Batch ingestion, sweeps, sensitivity curves, and serialization."""

import csv
import json
import math

import numpy as np
import pytest

import jsonschema

import bf2p.dep_ib as dep_ib_mod
import bf2p.lt as lt_mod
from bf2p import averaging
from bf2p.ib import bf01_ib
from bf2p.lt import bf01_lt
from bf2p.model import Hypothesis, IBPrior, LTPrior, TwoByTwoData, ValidationError
from bf2p.reanalysis import (
    OUTPUT_COLUMNS,
    PRIORS,
    ParseError,
    StudyRecord,
    SweepResult,
    bundled_corpus_path,
    default_grids,
    emit,
    ingest_csv,
    load_bundled_corpus,
    run_sweep,
    sensitivity_curve,
    sweep_schema_path,
)


@pytest.fixture(scope="module")
def corpus():
    return load_bundled_corpus()


@pytest.fixture(scope="module")
def default_sweep(corpus):
    return run_sweep(corpus, methods=("ib", "lt"))


class TestIngest:
    def test_parses_reference_row(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("id,label,y1,n1,y2,n2\n3,Magee2015,15,493,13,488\n")
        records = ingest_csv(p)
        assert records == [
            StudyRecord(id=3, label="Magee2015", data=TwoByTwoData(15, 493, 13, 488))
        ]

    def test_invalid_counts_carry_line_number(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("id,label,y1,n1,y2,n2\n1,ok,1,10,2,10\n2,bad,12,10,0,5\n")
        with pytest.raises(ParseError, match="line 3"):
            ingest_csv(p)

    def test_empty_file_is_empty_batch(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        assert ingest_csv(p) == []

    def test_header_only_is_empty_batch(self, tmp_path):
        p = tmp_path / "header.csv"
        p.write_text("id,label,y1,n1,y2,n2\n")
        assert ingest_csv(p) == []

    def test_duplicate_ids_rejected(self, tmp_path):
        p = tmp_path / "dup.csv"
        p.write_text("id,label,y1,n1,y2,n2\n1,a,1,10,2,10\n1,b,3,10,4,10\n")
        with pytest.raises(ParseError, match="duplicate"):
            ingest_csv(p)

    def test_wrong_header_rejected(self, tmp_path):
        p = tmp_path / "hdr.csv"
        p.write_text("study,label,y1,n1,y2,n2\n")
        with pytest.raises(ParseError, match="line 1"):
            ingest_csv(p)

    def test_non_utf8_text_rejected_at_its_line(self, tmp_path):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"id,label,y1,n1,y2,n2\r\n1,a,1,10,2,10\r\n2,caf\xe9,1,10,2,10\r\n")
        with pytest.raises(ParseError, match="line 3: not UTF-8 text"):
            ingest_csv(p)

    def test_line_endings_of_any_platform_parse_alike(self, tmp_path):
        rows = ["id,label,y1,n1,y2,n2", "1,a,1,10,2,10", "2,b,3,10,4,10"]
        parsed = []
        for i, end in enumerate(("\n", "\r\n", "\r")):
            p = tmp_path / f"ends{i}.csv"
            p.write_bytes((end.join(rows) + end).encode())
            parsed.append(ingest_csv(p))
        assert parsed[0] == parsed[1] == parsed[2] and len(parsed[0]) == 2

    def test_non_integer_field_rejected(self, tmp_path):
        p = tmp_path / "types.csv"
        p.write_text("id,label,y1,n1,y2,n2\n1,a,1.5,10,2,10\n")
        with pytest.raises(ParseError, match="line 2"):
            ingest_csv(p)


class TestBundledCorpus:
    def test_ships_as_package_data(self):
        assert bundled_corpus_path().exists()

    def test_has_39_studies_with_unique_ids(self, corpus):
        assert len(corpus) == 39
        assert len({s.id for s in corpus}) == 39

    def test_contains_reference_study(self, corpus):
        magee = next(s for s in corpus if s.id == 3)
        assert magee.label == "Magee2015"
        assert magee.data == TwoByTwoData(18, 493, 10, 488)

    def test_medians_match_published_reanalysis(self, corpus):
        ib_vals = [bf01_ib(s.data, 1.0).bf01 for s in corpus]
        lt_vals = [bf01_lt(s.data, 1.0, 1.0).bf01 for s in corpus]
        assert float(np.median(ib_vals)) == pytest.approx(12.30, abs=0.1)
        assert float(np.median(lt_vals)) == pytest.approx(4.79, abs=0.1)

    def test_ib_dominates_lt_for_nearly_all_studies(self, corpus):
        violations = [
            s.id
            for s in corpus
            if bf01_ib(s.data, 1.0).bf01 < bf01_lt(s.data, 1.0, 1.0).bf01
        ]
        assert len(violations) <= 2, violations

    def test_extreme_studies_have_disjoint_sweep_ranges(self, default_sweep):
        by_study: dict[int, dict[str, list[float]]] = {}
        for r in default_sweep:
            by_study.setdefault(r.study_id, {}).setdefault(r.method, []).append(
                r.log_bf01
            )
        for sid in range(1, 13):
            ib_min = min(by_study[sid]["ib"])
            lt_max = max(by_study[sid]["lt"])
            assert ib_min > lt_max, sid


class TestSweep:
    def test_reference_study_cells(self, default_sweep):
        magee_ib = next(
            r for r in default_sweep
            if r.study_id == 3 and r.method == "ib" and r.params["a"] == 1.0
        )
        assert magee_ib.log_bf01 == pytest.approx(math.log(12.30), abs=0.004)
        magee_lt = next(
            r for r in default_sweep
            if r.study_id == 3 and r.method == "lt" and r.params["sigma_psi"] == 1.0
        )
        assert magee_lt.log_bf01 == pytest.approx(math.log(1.17), abs=0.01)

    def test_result_count_and_order(self, default_sweep, corpus):
        grids = default_grids()
        assert len(default_sweep) == len(corpus) * (len(grids["ib"]) + len(grids["lt"]))
        keys = [r.sort_key() for r in default_sweep]
        assert keys == sorted(keys)

    def test_failures_recorded_in_row(self, corpus):
        res = run_sweep(
            corpus[:2], methods=("dep_ib",), grids={"dep_ib": [{"sigma_eta": -1.0}]}
        )
        assert all(r.error == "ValidationError" for r in res)
        assert all(math.isnan(r.log_bf01) for r in res)

    def test_unknown_method_rejected(self, corpus):
        with pytest.raises(ValidationError):
            run_sweep(corpus[:1], methods=("bogus",))

    @pytest.mark.parametrize(
        "method, point",
        [
            ("lt", {"sigma_psii": 2.0}),
            ("ib", {"sigma_psi": 1.0}),
            ("dep_ib", {"zeta_center": 0.0}),  # a config field with no output column
            ("avg", {"sigma_eta": 0.2}),
        ],
    )
    def test_unknown_parameter_rejected(self, corpus, method, point):
        (key,) = point
        with pytest.raises(ValidationError, match=f"'{key}'.*'{method}'"):
            run_sweep(corpus[:1], methods=(method,), grids={method: [point]})

    def test_programming_errors_propagate(self, corpus, monkeypatch):
        def boom(*args, **kwargs):
            raise ValueError("a bug, not a failed cell")

        monkeypatch.setattr(averaging, "evidence", boom)
        with pytest.raises(ValueError, match="a bug"):
            run_sweep(corpus[:1], methods=("ib",))

    def test_averaged_and_dependent_methods_produce_cells(self, corpus):
        res = run_sweep(
            corpus[2:3],
            methods=("avg", "dep_ib"),
            grids={"dep_ib": [{"sigma_eta": 0.2, "sigma_zeta": 0.5}]},
        )
        by_method = {r.method: r for r in res}
        assert set(by_method) == {"avg", "dep_ib"}
        for r in res:
            assert r.error is None and math.isfinite(r.log_bf01)
        # the average of the two setups sits between them on this study
        ib = bf01_ib(corpus[2].data, 1.0).log_bf01
        lt = bf01_lt(corpus[2].data, 1.0, 1.0).log_bf01
        assert min(ib, lt) < by_method["avg"].log_bf01 < max(ib, lt)

    def test_empty_grid_rejected(self, corpus):
        with pytest.raises(ValidationError):
            run_sweep(corpus[:1], methods=("ib",), grids={"ib": []})

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_rejected(self, corpus, jobs):
        with pytest.raises(ValidationError, match="jobs must be >= 1"):
            run_sweep(corpus[:1], methods=("ib",), jobs=jobs)

    def test_parallel_and_serial_outputs_byte_identical(self, corpus, tmp_path):
        grids = {"ib": [{"a": 1.0}, {"a": 2.0}], "lt": [{"sigma_beta": 1.0, "sigma_psi": 1.0}]}
        serial = run_sweep(corpus[:8], methods=("ib", "lt"), grids=grids, jobs=1)
        parallel = run_sweep(corpus[:8], methods=("ib", "lt"), grids=grids, jobs=3)
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit(serial, "csv", p1)
        emit(parallel, "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()


ALL_METHODS = ("ib", "lt", "avg", "dep_ib")


class TestStudyMemo:
    """A study's cells share its marginals; the numbers must not notice."""

    @pytest.fixture(scope="class")
    def studies(self, corpus):
        # rare events at large n, common events, and a zero count
        picked = corpus[:3] + corpus[20:23]
        return picked + [StudyRecord(id=999, label="zero", data=TwoByTwoData(0, 40, 7, 33))]

    def test_cells_repr_identical_to_per_cell_evidence(self, studies):
        data = {s.id: s.data for s in studies}
        for r in run_sweep(studies, methods=ALL_METHODS):
            d, p = data[r.study_id], r.params
            if r.method == "avg":
                params = averaging.ApproachParams(
                    ib=IBPrior(p["a"]), lt=LTPrior(p["sigma_beta"], p["sigma_psi"])
                )
                ref = averaging.bf_avg01(d, averaging.equal_weights(), params)
            else:
                ref = averaging.evidence(d, PRIORS[r.method](**p))
            assert r.error is None
            assert (repr(r.log_bf01), repr(r.abs_error)) == (
                repr(ref.log_bf01), repr(ref.abs_error_estimate)
            ), (r.study_id, r.method, p)

    def test_null_fitted_once_per_study_and_prior(self, studies, monkeypatch):
        calls = []
        for mod in (lt_mod, dep_ib_mod):
            def counted(d, hypothesis, prior, _fit=mod._log_ml):
                calls.append((type(prior).__name__, hypothesis))
                return _fit(d, hypothesis, prior)

            monkeypatch.setattr(mod, "_log_ml", counted)
        run_sweep(studies, methods=ALL_METHODS)
        grids, n = default_grids(), len(studies)
        # avg's LT prior is the lt grid's first point, so it adds no fit
        assert calls.count(("LTPrior", Hypothesis.H0)) == n
        assert calls.count(("LTPrior", Hypothesis.H1)) == n * len(grids["lt"])
        assert calls.count(("DepIBPrior", Hypothesis.H0)) == n
        assert calls.count(("DepIBPrior", Hypothesis.H1)) == n * len(grids["dep_ib"])

    def test_parallel_and_serial_csv_byte_identical_for_all_methods(self, studies, tmp_path):
        p1, p2 = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        emit(run_sweep(studies, methods=ALL_METHODS, jobs=1), "csv", p1)
        emit(run_sweep(studies, methods=ALL_METHODS, jobs=2), "csv", p2)
        assert p1.read_bytes() == p2.read_bytes()


@pytest.fixture(scope="module")
def curve():
    return sensitivity_curve(100, methods=("ib", "lt"))


class TestSensitivityCurve:
    def test_ib_endpoints(self, curve):
        vals = {y: v for (y, m, v) in curve if m == "ib"}
        assert math.exp(vals[0]) == pytest.approx(50.75, abs=0.01)
        assert math.exp(vals[50]) == pytest.approx(5.70, abs=0.01)

    def test_lt_endpoints(self, curve):
        vals = {y: v for (y, m, v) in curve if m == "lt"}
        assert math.exp(vals[0]) == pytest.approx(1.40, abs=0.02)
        assert math.exp(vals[50]) == pytest.approx(3.67, abs=0.02)

    def test_opposite_monotonicity(self, curve):
        ib = [v for (_, m, v) in curve if m == "ib"]
        lt = [v for (_, m, v) in curve if m == "lt"]
        assert all(a > b for a, b in zip(ib, ib[1:]))
        assert all(a < b for a, b in zip(lt, lt[1:]))

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            sensitivity_curve(1)

    def test_unknown_method_or_parameter_rejected(self):
        with pytest.raises(ValidationError, match="bogus"):
            sensitivity_curve(10, methods=("bogus",))
        with pytest.raises(ValidationError, match="'sigma_eta'.*'lt'"):
            sensitivity_curve(10, methods=("lt",), params={"lt": {"sigma_eta": 0.3}})


class TestEmit:
    @pytest.fixture
    def results(self, corpus):
        return run_sweep(
            corpus[:3],
            methods=("ib", "lt"),
            grids={"ib": [{"a": 1.0}], "lt": [{"sigma_beta": 1.0, "sigma_psi": 1.0}]},
        )

    def test_csv_round_trip_is_bitwise(self, results, tmp_path):
        p = tmp_path / "out.csv"
        emit(results, "csv", p)
        lines = p.read_text().strip().split("\n")
        assert lines[0] == ",".join(OUTPUT_COLUMNS)
        parsed = [line.split(",") for line in lines[1:]]
        col = OUTPUT_COLUMNS.index("log_bf01")
        assert [float(row[col]) for row in parsed] == [r.log_bf01 for r in results]

    def test_json_round_trip_is_bitwise(self, results, tmp_path):
        p = tmp_path / "out.json"
        emit(results, "json", p)
        rows = json.loads(p.read_text())
        assert [r["log_bf01"] for r in rows] == [r.log_bf01 for r in results]
        assert list(rows[0].keys()) == list(OUTPUT_COLUMNS)

    def test_json_validates_against_shipped_schema(self, results, tmp_path):
        p = tmp_path / "out.json"
        emit(results, "json", p)
        schema = json.loads(sweep_schema_path().read_text())
        jsonschema.validate(json.loads(p.read_text()), schema)

    def test_empty_results_give_header_only_csv(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit([], "csv", p)
        assert p.read_text() == ",".join(OUTPUT_COLUMNS) + "\n"

    def test_empty_results_give_empty_json_array(self, tmp_path):
        p = tmp_path / "empty.json"
        emit([], "json", p)
        assert json.loads(p.read_text()) == []

    def test_failed_cells_serialize_blank(self, tmp_path):
        bad = SweepResult(study_id=1, method="ib", params={"a": 1.0}, error="ValidationError")
        p = tmp_path / "bad.csv"
        emit([bad], "csv", p)
        fields = p.read_text().strip().split("\n")[1].split(",")
        assert fields[OUTPUT_COLUMNS.index("log_bf01")] == ""
        pj = tmp_path / "bad.json"
        emit([bad], "json", pj)
        rows = json.loads(pj.read_text())
        assert rows[0]["log_bf01"] is None
        schema = json.loads(sweep_schema_path().read_text())
        jsonschema.validate(rows, schema)

    def test_failed_cell_row_names_its_error(self, corpus, tmp_path):
        # a = 0.5 is below IBPrior's range: that cell fails, its neighbour does not
        results = run_sweep(corpus[:1], methods=("ib",), grids={"ib": [{"a": 1.0}, {"a": 0.5}]})
        code = next(r.error for r in results if r.params["a"] == 0.5)
        assert code is not None
        p = tmp_path / "cells.csv"
        emit(results, "csv", p)
        rows = list(csv.DictReader(p.read_text().splitlines()))
        assert {r["a"]: r["error"] for r in rows} == {"1": "", "0.5": code}
        pj = tmp_path / "cells.json"
        emit(results, "json", pj)
        rows = json.loads(pj.read_text())
        assert {r["a"]: r["error"] for r in rows} == {1.0: None, 0.5: code}
        jsonschema.validate(rows, json.loads(sweep_schema_path().read_text()))

    def test_absent_hyperparameters_stay_empty(self, results, tmp_path):
        p = tmp_path / "cols.csv"
        emit(results, "csv", p)
        first_ib = next(
            line for line in p.read_text().split("\n")[1:] if ",ib," in line
        )
        fields = first_ib.split(",")
        assert fields[OUTPUT_COLUMNS.index("sigma_psi")] == ""
        assert fields[OUTPUT_COLUMNS.index("a")] != ""
