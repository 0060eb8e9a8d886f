"""Command-line interface: thin adapters, exit codes, determinism."""

import json
import math
import warnings

import pytest

from bf2p.cli import main
from bf2p.dep_ib import prior_correlation_depib
from bf2p.model import DepIBPrior, NumericalError, WidePriorWarning


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBf:
    def test_ib_reference_value(self, capsys):
        code, out, _ = run(
            capsys, "bf", "--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488",
            "--method", "ib",
        )
        assert code == 0
        assert "BF01 = 12.2994" in out
        assert "BF10 = " in out  # both directions always shown
        assert "strong evidence for H0" in out

    def test_lt_reference_value(self, capsys):
        code, out, _ = run(
            capsys, "bf", "--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488",
            "--method", "lt",
        )
        assert code == 0
        assert "BF01 = 1.16022" in out

    def test_aspirin_reports_both_directions(self, capsys):
        code, out, _ = run(
            capsys, "bf", "--y1", "26", "--n1", "11034", "--y2", "10", "--n2", "11037",
            "--method", "lt",
        )
        assert code == 0
        assert "BF10 = 5.264" in out
        assert "BF01 = 0.189" in out
        assert "moderate evidence for H1" in out

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "bf", "--y1", "3", "--n1", "10", "--y2", "5", "--n2", "12",
            "--method", "ib", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bf01"] * payload["bf10"] == pytest.approx(1.0, abs=1e-12)
        assert payload["method"] == "analytic"

    def test_dep_ib_method(self, capsys):
        code, out, _ = run(
            capsys, "bf", "--y1", "3", "--n1", "10", "--y2", "5", "--n2", "12",
            "--method", "dep-ib",
        )
        assert code == 0
        assert "method = quadrature" in out

    def test_invalid_counts_exit_code(self, capsys):
        code, _, err = run(
            capsys, "bf", "--y1", "11", "--n1", "10", "--y2", "1", "--n2", "10",
            "--method", "ib",
        )
        assert code == 1
        assert "y1" in err

    def test_invalid_prior_exit_code(self, capsys):
        code, _, err = run(
            capsys, "bf", "--y1", "1", "--n1", "10", "--y2", "1", "--n2", "10",
            "--method", "ib", "--a", "0.5",
        )
        assert code == 1
        assert "a" in err


class TestAvg:
    def test_equal_weights_between_pure_tests(self, capsys):
        code, out, _ = run(
            capsys, "avg", "--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488",
            "--format", "json",
        )
        assert code == 0
        bf = json.loads(out)["bf01"]
        assert 1.16 < bf < 12.30

    def test_degenerate_weights_recover_ib(self, capsys):
        code, out, _ = run(
            capsys, "avg", "--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488",
            "--weights", "0.5,0.5,0,0", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["bf01"] == pytest.approx(12.2994, abs=0.001)

    def test_bad_weights_exit_code(self, capsys):
        code, _, err = run(
            capsys, "avg", "--y1", "1", "--n1", "5", "--y2", "1", "--n2", "5",
            "--weights", "1,0,0,0",
        )
        assert code == 1

    def test_non_numeric_weights_exit_code(self, capsys):
        code, _, err = run(
            capsys, "avg", "--y1", "1", "--n1", "5", "--y2", "1", "--n2", "5",
            "--weights", "a,b,c,d",
        )
        assert code == 1
        assert err.startswith("error: ") and "'a'" in err


class TestPriors:
    def test_lt_correlation_vanishes_at_doubled_scale(self, capsys):
        code, out, _ = run(
            capsys, "priors", "--config", "lt", "--sigma-psi", "2", "--quantity",
            "correlation", "--n-draws", "1000000", "--seed", "11",
        )
        assert code == 0
        val = float(out.split("=")[1])
        assert val == pytest.approx(0.0, abs=0.01)

    def test_marginal_density_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "eta.csv"
        code, _, _ = run(
            capsys, "priors", "--config", "ib", "--quantity", "eta",
            "--grid-points", "41", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "eta,density"
        assert len(lines) == 42

    def test_seeded_runs_reproduce(self, capsys):
        args = (
            "priors", "--config", "lt", "--quantity", "correlation",
            "--n-draws", "1000000", "--seed", "5",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("BF2P_SEED", "5")
        import importlib
        import bf2p.cli as cli_mod

        importlib.reload(cli_mod)
        code = cli_mod.main(
            ["priors", "--config", "lt", "--quantity", "correlation",
             "--n-draws", "1000000"]
        )
        env_out = capsys.readouterr().out
        assert code == 0
        monkeypatch.delenv("BF2P_SEED")
        importlib.reload(cli_mod)
        code = cli_mod.main(
            ["priors", "--config", "lt", "--quantity", "correlation",
             "--n-draws", "1000000", "--seed", "5"]
        )
        explicit_out = capsys.readouterr().out
        assert env_out == explicit_out

    def test_malformed_env_seed_fails_only_seeded_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("BF2P_SEED", "abc")
        code, _, err = run(
            capsys, "priors", "--config", "lt", "--quantity", "correlation", "--n-draws", "100000",
        )
        assert code == 1
        assert err.splitlines() == ["error: BF2P_SEED must be an integer, got 'abc'"]
        code, out, err = run(capsys, "bf", "--y1", "1", "--n1", "10", "--y2", "2", "--n2", "10")
        assert code == 0 and "BF01 = " in out and not err


class TestPosterior:
    def test_lt_summary(self, capsys):
        code, out, _ = run(
            capsys, "posterior", "--y1", "15", "--n1", "493", "--y2", "13",
            "--n2", "488", "--method", "lt", "--quantity", "psi",
        )
        assert code == 0
        assert "psi: mean =" in out

    def test_ib_summary_seeded(self, capsys):
        args = (
            "posterior", "--y1", "15", "--n1", "493", "--y2", "13", "--n2", "488",
            "--method", "ib", "--quantity", "eta", "--n-draws", "150000", "--seed", "3",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestReanalyze:
    def test_bundled_corpus_medians(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        code, out, _ = run(
            capsys, "reanalyze", "--input", "bundled", "--format", "json",
            "--out", str(out_path),
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        import numpy as np

        ib = [r["bf01"] for r in rows if r["method"] == "ib" and r["a"] == 1.0]
        lt = [r["bf01"] for r in rows if r["method"] == "lt" and r["sigma_psi"] == 1.0]
        assert float(np.median(ib)) == pytest.approx(12.30, abs=0.1)
        assert float(np.median(lt)) == pytest.approx(4.79, abs=0.1)

    def test_custom_input_csv(self, capsys, tmp_path):
        src = tmp_path / "in.csv"
        src.write_text("id,label,y1,n1,y2,n2\n1,x,3,10,5,12\n")
        out_path = tmp_path / "out.csv"
        code, _, _ = run(
            capsys, "reanalyze", "--input", str(src), "--methods", "ib",
            "--out", str(out_path),
        )
        assert code == 0
        assert len(out_path.read_text().strip().split("\n")) == 10  # header + 9 a-values

    def test_parse_error_exit_code(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("id,label,y1,n1,y2,n2\n1,x,30,10,5,12\n")
        code, _, err = run(capsys, "reanalyze", "--input", str(src))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--input", "{tmp}/missing.csv"], "No such file or directory"),
            (["--input", "{tmp}/latin1.csv"], "line 3: not UTF-8 text"),
            (["--input", "{tmp}/in.csv", "--methods", "ib", "--out", "{tmp}/no/such/dir/x.csv"],
             "No such file or directory"),
        ],
    )
    def test_file_errors_print_one_error_line(self, capsys, tmp_path, argv, message):
        (tmp_path / "latin1.csv").write_bytes(b"id,label,y1,n1,y2,n2\n1,x,3,10,5,12\n2,caf\xe9,1,10,2,10\n")
        (tmp_path / "in.csv").write_text("id,label,y1,n1,y2,n2\n1,x,3,10,5,12\n")
        code, _, err = run(capsys, "reanalyze", *[a.format(tmp=tmp_path) for a in argv])
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_strict_mode_exit_code_on_cell_failure(self, capsys, tmp_path, monkeypatch):
        import bf2p.reanalysis as re_mod

        def boom(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(re_mod.averaging, "evidence", boom)
        src = tmp_path / "in.csv"
        src.write_text("id,label,y1,n1,y2,n2\n1,x,3,10,5,12\n")
        code, _, err = run(
            capsys, "reanalyze", "--input", str(src), "--methods", "ib", "--strict",
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 2
        assert "NumericalError" in err

    def test_non_strict_tolerates_cell_failure(self, capsys, tmp_path, monkeypatch):
        import bf2p.reanalysis as re_mod

        def boom(*args, **kwargs):
            raise NumericalError("forced failure")

        monkeypatch.setattr(re_mod.averaging, "evidence", boom)
        src = tmp_path / "in.csv"
        src.write_text("id,label,y1,n1,y2,n2\n1,x,3,10,5,12\n")
        code, _, _ = run(
            capsys, "reanalyze", "--input", str(src), "--methods", "ib",
            "--out", str(tmp_path / "o.csv"),
        )
        assert code == 0


class TestExtremePriorScales:
    @pytest.mark.filterwarnings("ignore::bf2p.model.WidePriorWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale", ["1e-300", "1e300"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command in (["bf", "--method", "lt"], ["avg"], ["posterior", "--method", "lt"])
            for flag in ("--sigma-beta", "--sigma-psi")
        ]
        + [(["bf", "--method", "dep-ib"], flag) for flag in ("--sigma-eta", "--sigma-zeta")],
    )
    def test_value_or_one_numerical_error_line(self, capsys, command, flag, scale):
        data = ["--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488"]
        code, out, err = run(capsys, *command, *data, flag, scale)
        if scale == "1e300":
            assert (code, err) == (0, "")
            assert out.startswith(("BF01 = ", "psi: mean = "))
        else:
            assert code == 2 and out == ""
            assert err.startswith("numerical error: ") and err.count("\n") == 1


class TestSensitivity:
    def test_curve_output(self, capsys):
        code, out, _ = run(capsys, "sensitivity", "--n", "20", "--method", "ib")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "y,method,log_bf01,bf01"
        assert len(lines) == 12  # header + y in 0..10

    def test_default_methods(self, capsys):
        code, out, _ = run(capsys, "sensitivity", "--n", "10")
        assert code == 0
        assert ",ib," in out and ",lt," in out

    def test_reproduces_published_endpoints(self, capsys):
        code, out, _ = run(
            capsys, "sensitivity", "--n", "100", "--method", "ib", "--method", "lt"
        )
        assert code == 0
        rows = {}
        for line in out.strip().split("\n")[1:]:
            y, m, _, bf = line.split(",")
            rows[(int(y), m)] = float(bf)
        assert rows[(0, "ib")] == pytest.approx(50.75, abs=0.01)
        assert rows[(50, "ib")] == pytest.approx(5.70, abs=0.01)
        assert rows[(0, "lt")] == pytest.approx(1.40, abs=0.02)
        assert rows[(50, "lt")] == pytest.approx(3.67, abs=0.02)


class TestPriorSelection:
    """Only the selected family's prior is built, so only its flags count."""

    DATA = ("--y1", "3", "--n1", "10", "--y2", "5", "--n2", "12")

    def test_unused_family_flags_neither_fail_nor_warn(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", WidePriorWarning)
            code, _, _ = run(
                capsys, "priors", "--config", "ib", "--quantity", "theta",
                "--grid-points", "5", "--sigma-eta", "0", "--sigma-psi", "3",
            )
        assert code == 0

    @pytest.mark.parametrize(
        "command", [("bf", "--method", "lt"), ("posterior", "--method", "lt"), ("avg",)]
    )
    def test_wide_psi_scale_warns_once(self, capsys, command):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, _ = run(capsys, *command, *self.DATA, "--sigma-psi", "3")
        assert code == 0
        assert sum(issubclass(w.category, WidePriorWarning) for w in caught) == 1

    def test_dep_ib_correlation(self, capsys):
        code, out, _ = run(
            capsys, "priors", "--config", "dep-ib", "--quantity", "correlation",
            "--sigma-eta", "0.4", "--seed", "3",
        )
        assert code == 0
        expected = prior_correlation_depib(DepIBPrior(0.4, 0.5), 10**6, 3)
        assert out.strip() == f"prior correlation(theta1, theta2) = {expected:.4f}"

    def test_unknown_sensitivity_method_exit_code(self, capsys):
        code, _, err = run(capsys, "sensitivity", "--n", "10", "--method", "bogus")
        assert code == 1
        assert err.startswith("error:") and "bogus" in err


class TestPriorsTypedErrors:
    """Requests the prior analytics cannot serve exit 1 with a message, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("--config", "dep-ib", "--quantity", "eta"),
            ("--config", "dep-ib", "--quantity", "joint"),
            ("--config", "lt", "--quantity", "conditional", "--theta1", "0"),
            ("--config", "lt", "--quantity", "correlation", "--n-draws", "10"),
            ("--config", "lt", "--quantity", "joint", "--resolution", "32"),
            ("--config", "ib", "--quantity", "eta", "--a", "0.5", "--grid-points", "5"),
            ("--config", "lt", "--quantity", "eta", "--sigma-beta", "40", "--grid-points", "5"),
        ],
    )
    def test_exit_code_and_message(self, capsys, argv):
        code, out, err = run(capsys, "priors", *argv)
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    def test_ib_eta_density_at_large_a(self, capsys):
        # the Euler kernel's powers overflow a float here unless kept in logs
        code, out, _ = run(
            capsys, "priors", "--config", "ib", "--quantity", "eta", "--a", "60", "--grid-points", "2001"
        )
        assert code == 0
        rows = [tuple(map(float, line.split(","))) for line in out.splitlines()[1:]]
        assert len(rows) == 2001
        assert all(math.isfinite(v) and v >= 0.0 for _, v in rows)
        step = rows[1][0] - rows[0][0]
        assert sum(v for _, v in rows) * step == pytest.approx(1.0, abs=1e-4)

    @pytest.mark.parametrize("points", [5, 201, 2001])
    def test_ib_eta_density_at_very_large_a(self, capsys, points):
        # the density is a spike of width ~1e-3 at eta = 0; each rate's two logs cancel there
        code, out, _ = run(
            capsys, "priors", "--config", "ib", "--quantity", "eta", "--a", "1e6", "--grid-points", str(points)
        )
        assert code == 0
        vals = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(vals) == points
        assert all(math.isfinite(v) and v >= 0.0 for v in vals)


class TestHelp:
    def test_flags_document_defaults_and_bounds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bf", "--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())  # undo argparse wrapping
        assert "default 1; must be >= 1" in out
        assert "values > 2 draw a warning" in out
        assert "default 1/5" in out and "default 1/2" in out


class TestPriorsFigureData:
    def test_conditional_grid(self, capsys, tmp_path):
        out_path = tmp_path / "cond.csv"
        code, _, _ = run(
            capsys, "priors", "--config", "lt", "--quantity", "conditional",
            "--theta1", "0.10", "--grid-points", "51", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "theta2,density"
        assert len(lines) == 52

    def test_joint_grid(self, capsys, tmp_path):
        out_path = tmp_path / "joint.csv"
        code, _, _ = run(
            capsys, "priors", "--config", "ib", "--quantity", "joint",
            "--coords", "theta1-eta", "--resolution", "64", "--out", str(out_path),
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "theta1,eta,density"
        assert len(lines) == 1 + 64 * 64
