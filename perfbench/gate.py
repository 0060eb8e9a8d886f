"""Correctness gate: compare bf2p's outputs with the independent reference.

An operation (one sweep cell, one sensitivity point or one CLI command)
fails if it raises, returns a non-finite value, exits non-zero, prints
output that does not parse, misses its reference by more than the
method's tolerance, or disagrees with its event-swapped mirror.

Tolerances come from the accuracy bf2p documents, never from its
current output:

* ``ib`` is closed form, so only floating-point rounding is allowed;
* ``lt`` converges each log marginal until two node counts agree to
  ``bf2p.lt.DEFAULT_REL_TOL`` = 1e-8, so the log BF gets 2e-8;
* ``avg`` reports ``2 * DEFAULT_REL_TOL``, the same 2e-8;
* ``dep_ib`` reports ``2e-6 * (|log ml0| + |log ml1|)``;
* adaptive ``quad`` results (``priors --quantity eta``) get ten times
  the requested ``epsrel = 1e-9`` and ``epsabs = 1e-13``;
* Monte Carlo correlations with ``n`` draws get six standard errors,
  ``6 / sqrt(n)``, plus the printed precision;
* ``posterior --method lt`` gets one spacing of its documented grid,
  401 points over the mode +/- 8 Laplace standard deviations, plus the
  printed precision.

Every tolerance also allows floating-point rounding of the log
marginals, 16 eps * lgamma(n1 + n2 + 2), which the binomial
coefficients and beta functions are built from.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict
from pathlib import Path

LT_REL_TOL = 1e-8
DEPIB_REL_ERR = 2e-6
QUAD_EPSREL, QUAD_EPSABS = 1e-8, 1e-12
CORRELATION_DRAWS = 1_000_000
POSTERIOR_GRID_SPACING_SD = 16.0 / 400.0
PRINT_REL = 5e-6  # "%.6g" output
ETA_POINTS = 201

#: Parameters of the ``avg`` cells and of the CLI commands (bf2p defaults).
AVG_A, AVG_SIGMA_BETA, AVG_SIGMA_PSI = 1.0, 1.0, 1.0
DEPIB_SIGMA_ZETA = 0.5

#: ``sensitivity_curve``'s default methods and parameters.
SENSITIVITY_PARAMS = {"ib": {"a": AVG_A}, "lt": {"sigma_beta": AVG_SIGMA_BETA, "sigma_psi": AVG_SIGMA_PSI}}


def data_key(d) -> str:
    return ",".join(str(int(v)) for v in d)


def _f(x: float) -> str:
    return repr(float(x))


def rounding(d) -> float:
    return 16 * 2.220446049250313e-16 * math.lgamma(d[1] + d[3] + 2)


def cell_keys(method: str, d, params) -> list[str]:
    """Reference keys one (method, params) cell on counts ``d`` needs."""
    k = data_key(d)
    if method == "ib":
        return [f"ib|{k}|{_f(params['a'])}"]
    if method == "lt":
        sb = _f(params.get("sigma_beta", 1.0))
        return [f"lt0|{k}|{sb}", f"lt1|{k}|{sb}|{_f(params.get('sigma_psi', 1.0))}"]
    if method == "avg":
        return cell_keys("ib", d, {"a": params.get("a", AVG_A)}) + cell_keys("lt", d, params)
    if method == "dep_ib":
        sz = _f(params.get("sigma_zeta", DEPIB_SIGMA_ZETA))
        return [f"dep0|{k}|{sz}", f"dep1|{k}|{_f(params['sigma_eta'])}|{sz}"]
    raise ValueError(f"no reference for method {method!r}")


def reference_log_bf01(method: str, d, params, refs) -> tuple[float, float]:
    """(reference log BF01, tolerance) for one cell."""
    keys = cell_keys(method, d, params)
    r = rounding(d)
    if method == "ib":
        ml0, ml1 = refs[keys[0]]
        return ml0 - ml1, 1e-12 + r
    if method == "lt":
        return refs[keys[0]][0] - refs[keys[1]][0], 2 * LT_REL_TOL + r
    if method == "avg":
        ib0, ib1 = refs[keys[0]]
        lt0, lt1 = refs[keys[1]][0], refs[keys[2]][0]
        return _logaddexp(ib0, lt0) - _logaddexp(ib1, lt1), 2 * LT_REL_TOL + r
    ml0, ml1 = refs[keys[0]][0], refs[keys[1]][0]
    return ml0 - ml1, DEPIB_REL_ERR * (abs(ml0) + abs(ml1)) + r


def _logaddexp(a: float, b: float) -> float:
    m = max(a, b)
    return m + math.log(math.exp(a - m) + math.exp(b - m))


def posterior_key(d) -> str:
    return f"post|{data_key(d)}|{_f(AVG_SIGMA_BETA)}|{_f(AVG_SIGMA_PSI)}"


ETA_KEY = f"eta|{_f(AVG_SIGMA_BETA)}|{_f(AVG_SIGMA_PSI)}|{ETA_POINTS}"
CORR_KEY = f"corr|{_f(AVG_SIGMA_BETA)}|{_f(AVG_SIGMA_PSI)}"


def cli_keys(kind: str, d) -> list[str]:
    if kind == "bf-ib":
        return cell_keys("ib", d, {"a": AVG_A})
    if kind == "bf-lt":
        return cell_keys("lt", d, {})
    if kind == "avg":
        return cell_keys("avg", d, {})
    if kind == "posterior-lt":
        return [posterior_key(d)]
    return [ETA_KEY] if kind == "priors-eta" else [CORR_KEY]


class KnownFailures:
    """Cells listed in known_failures.json, keyed by (counts, method)."""

    def __init__(self, path: Path):
        spec = json.loads(path.read_text(encoding="utf-8"))
        self.cells = {
            (tuple(c["data"]), m): c["error"] for c in spec["cells"] for m in c["methods"]
        }

    def expects(self, d, method: str, error: str | None) -> bool:
        return error is not None and self.cells.get((tuple(d), method)) == error


class Gate:
    """Tallies attempted, failed and known-failed operations and accuracy."""

    def __init__(self, refs: dict, known: KnownFailures):
        self.refs = refs
        self.known = known
        self.attempted = 0
        self.failed = 0
        self.known_failed = 0
        self.failures: list[str] = []
        self.max_abs = defaultdict(float)
        self.violations = defaultdict(int)

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _compare(self, what, method, d, params, value, abs_error=None) -> bool:
        if value is None or not math.isfinite(value):
            self._fail(f"{what}: non-finite result {value!r}")
            return False
        ref, tol = reference_log_bf01(method, d, params, self.refs)
        delta = abs(value - ref)
        self.max_abs[method] = max(self.max_abs[method], delta)
        if abs_error is not None and delta > abs_error + rounding(d):
            self.violations[method] += 1
        if delta > tol:
            self._fail(f"{what}: |dlogBF01| = {delta:.3g} > tol {tol:.3g}")
            return False
        return True

    # -- sweeps ------------------------------------------------------------

    def check_sweep(self, results, expected: int, data_of: dict, pairs) -> None:
        """Check one pass of ``run_sweep`` output (a list of SweepResult)."""
        self.attempted += expected
        if len(results) != expected:
            self._fail(f"run_sweep returned {len(results)} cells, expected {expected}")
            self.failed += max(expected - len(results), 1) - 1  # every missing cell fails
        ok = {}
        for r in results:
            d = data_of[r.study_id]
            what = f"study {r.study_id} {d} {r.method} {dict(r.params)}"
            if r.error is not None:
                if self.known.expects(d, r.method, r.error):
                    self.known_failed += 1
                else:
                    self._fail(f"{what}: raised {r.error}")
                continue
            if self._compare(what, r.method, d, r.params, r.log_bf01, r.abs_error):
                ok[(r.study_id, r.method, tuple(sorted(r.params.items())))] = r.log_bf01
        for orig, mirror in pairs:
            for (sid, method, params), value in ok.items():
                if sid != orig or (mirror, method, params) not in ok:
                    continue
                d = data_of[mirror]
                gap = abs(ok[(mirror, method, params)] - value)
                _, tol = reference_log_bf01(method, d, dict(params), self.refs)
                if gap > tol:
                    self._fail(f"mirror {mirror} of {orig} {method} {dict(params)}: differs by {gap:.3g}")

    def check_sensitivity(self, rows, n: int) -> None:
        """Check ``sensitivity_curve(n)`` rows (y, method, log_bf01)."""
        self.attempted += len(rows)
        if len(rows) != 2 * (n // 2 + 1):
            self._fail(f"sensitivity_curve returned {len(rows)} rows")
        for y, method, value in rows:
            d = (y, n, y, n)
            self._compare(f"sensitivity y={y} {method}", method, d, SENSITIVITY_PARAMS[method], value)

    # -- CLI ---------------------------------------------------------------

    def check_cli(self, kind: str, d, argv, code: int, out: str) -> None:
        self.attempted += 1
        what = f"bf2p {' '.join(argv)}"
        if code != 0:
            self._fail(f"{what}: exit code {code}")
            return
        try:
            self._check_cli_output(kind, d, out, what)
        except (ValueError, KeyError, IndexError, AttributeError) as exc:  # AttributeError: no regex match
            self._fail(f"{what}: unparseable output ({exc})")

    def _check_cli_output(self, kind, d, out, what):
        if kind in ("bf-ib", "bf-lt", "avg"):
            res = json.loads(out)
            method = {"bf-ib": "ib", "bf-lt": "lt", "avg": "avg"}[kind]
            params = {"a": AVG_A, "sigma_beta": AVG_SIGMA_BETA, "sigma_psi": AVG_SIGMA_PSI}
            self._compare(what, method, d, params, float(res["log_bf01"]), float(res["abs_error_estimate"]))
        elif kind == "posterior-lt":
            m = re.search(r"mean = (\S+), 95% CI = \[(\S+), (\S+)\]", out)
            got = [float(v) for v in m.groups()]
            mean, lo, hi, sd = self.refs[posterior_key(d)]
            for name, g, r in zip(("mean", "ci_low", "ci_high"), got, (mean, lo, hi)):
                tol = POSTERIOR_GRID_SPACING_SD * sd + PRINT_REL * abs(r)
                if not (math.isfinite(g) and abs(g - r) <= tol):
                    self._fail(f"{what}: {name} {g!r} vs reference {r:.6g} (tol {tol:.3g})")
                    return
        elif kind == "priors-eta":
            lines = out.strip().splitlines()
            if lines[0] != "eta,density" or len(lines) != ETA_POINTS + 1:
                raise ValueError("expected an eta,density table")
            ref = self.refs[ETA_KEY]
            for line, r in zip(lines[1:], ref):
                g = float(line.split(",")[1])
                if not (math.isfinite(g) and abs(g - r) <= QUAD_EPSREL * abs(r) + QUAD_EPSABS):
                    self._fail(f"{what}: density {g!r} vs reference {r!r}")
                    return
        else:
            g = float(re.search(r"= (-?[0-9.]+)", out).group(1))
            r = self.refs[CORR_KEY][0]
            tol = 6.0 / math.sqrt(CORRELATION_DRAWS) + 5e-5
            if abs(g - r) > tol:
                self._fail(f"{what}: correlation {g} vs reference {r:.6f}")

    # -- summary -----------------------------------------------------------

    def accuracy_metrics(self) -> dict[str, tuple[float, str]]:
        out = {}
        for m in ("ib", "lt", "avg", "dep_ib"):
            out[f"accuracy.{m}.max_abs_dlogbf01"] = (self.max_abs.get(m, 0.0), "nat")
            out[f"accuracy.{m}.bound_violations"] = (self.violations.get(m, 0), "count")
        return out
