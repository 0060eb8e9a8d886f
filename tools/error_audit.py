"""Audit the dep-IB error estimates against 30-digit mpmath references.

A seeded sample of 100 (study, prior) cells: n1 and n2 log-uniform in
1..1e8, each count at 0, at n or uniform in between, sigma_eta in
{0.05, 0.1, 0.2, 0.5, 1} and sigma_zeta in {0.1, 0.3, 0.5, 1}.  Per cell
three numbers are checked, each with the error estimate bf2p reports
for it: the H0 log integral, the log integral of the H1 core (both rates
interior) and log BF01.  The output gives, per cell and number, the
value, the reference, the error and the ratio error / estimate; the exit
status is 1 when any ratio exceeds 1.

The references are computed in mpmath at 30 digits from the model's
definition, sharing no code with bf2p: H0 and the clamped wedges by
mpmath's tanh-sinh quadrature, split at the likelihood's peak and
shoulders, and the core by tensor Gauss-Jacobi rules of 48 nodes and
more per rate from mpmath's own builder, whose sizes grow until two
agree.  Each reaches a relative error of 1e-20.  They take
minutes, so they are pinned in ``error_audit_refs.json`` next to this
file; ``--pin`` recomputes them.

    PYTHONPATH=src python3 tools/error_audit.py --out error_audit.json
    PYTHONPATH=src python3 tools/error_audit.py --pin
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import lru_cache
from pathlib import Path

import mpmath as mp
import numpy as np

from bf2p.dep_ib import _log_core, _log_ml_h0, bf01_depib
from bf2p.lt import _log_coeffs
from bf2p.model import DepIBPrior, TwoByTwoData

REFS = Path(__file__).resolve().with_name("error_audit_refs.json")

SEED = 20261019
SIGMA_ETA = (0.05, 0.1, 0.2, 0.5, 1.0)
SIGMA_ZETA = (0.1, 0.3, 0.5, 1.0)

#: Working digits of the references, and the relative error each quadrature must reach.
DIGITS, REF_TOL = 30, mp.mpf("1e-20")

#: Gauss-Jacobi nodes per rate of the reference core's rules, tried in pairs.
CORE_NODES = (48, 64, 96, 128)


def sample() -> list[tuple[tuple[int, int, int, int], float, float]]:
    """The audit's 100 (counts, sigma_eta, sigma_zeta) cells."""
    rng = np.random.default_rng(SEED)
    out = []
    for _ in range(100):
        counts = []
        for _group in range(2):
            n = int(round(10.0 ** rng.uniform(0.0, 8.0)))
            kind = rng.integers(3)
            y = 0 if kind == 0 else n if kind == 1 else int(rng.integers(0, n + 1))
            counts += [y, n]
        out.append((tuple(counts), float(rng.choice(SIGMA_ETA)), float(rng.choice(SIGMA_ZETA))))
    return out


# --------------------------------------------------------------------------
# References
# --------------------------------------------------------------------------


def _quad(f, points):
    """Tanh-sinh over the sorted, distinct ``points`` in [0, 1], to ``REF_TOL`` relative.

    mpmath's error estimate has an absolute floor, so f is scaled by its
    largest value at the inner points first.
    """
    pts = sorted(set(p for p in points if 0 <= p <= 1))
    scale = max(abs(f(p)) for p in pts[1:-1] or [mp.mpf(1) / 2])
    val, err = mp.quad(lambda t: f(t) / scale, pts, error=True, maxdegree=10)
    if not err <= REF_TOL * abs(val):
        raise ArithmeticError(f"reference quadrature reached only {mp.nstr(err / abs(val), 3)}")
    return val * scale


@lru_cache(maxsize=None)
def _jacobi(a: int, b: int, m: int):
    """Nodes t and weights of mpmath's m-point Gauss-Jacobi rule for t^b (1 - t)^a on (0, 1), at 50 digits."""
    with mp.workdps(50):
        x, w = mp.gauss_quadrature(m, "jacobi", a, b)
        return [(1 + xi) / 2 for xi in x], [wi / mp.mpf(2) ** (a + b + 1) for wi in w]


def _peak_points(y: int, n: int):
    """The peak of the likelihood t^y (1 - t)^(n - y), and points 1.5, 4.5, 14 and 37 of its widths either side."""
    mode = mp.mpf(y) / n
    width = mp.sqrt(max(mode * (1 - mode), mp.mpf(1) / n) / n)
    return [mode] + [mode + s * k * width for k in (1.5, 4.5, 14, 37) for s in (-1, 1)]


class _Reference:
    """The marginals of one (study, prior) cell, without binomial coefficients, in mpmath."""

    def __init__(self, counts, sigma_eta: float, sigma_zeta: float, zeta_center: float = 0.5):
        self.y1, self.n1, self.y2, self.n2 = counts
        self.se, self.sz, self.zc = mp.mpf(sigma_eta), mp.mpf(sigma_zeta), mp.mpf(zeta_center)
        self.log_norm_eta = mp.log(mp.ncdf(1 / self.se) - mp.ncdf(-1 / self.se)) + mp.log(self.se * mp.sqrt(2 * mp.pi))
        self.log_norm_zeta = mp.log(mp.ncdf((1 - self.zc) / self.sz) - mp.ncdf(-self.zc / self.sz)) + mp.log(
            self.sz * mp.sqrt(2 * mp.pi)
        )

    @staticmethod
    def _log_peak(y, n):
        return sum(k * mp.log(mp.mpf(k) / n) for k in (y, n - y) if k)

    @staticmethod
    def _lik(y, n, t, log_peak):
        return mp.exp(y * mp.log(t) + (n - y) * mp.log1p(-t) - log_peak) if 0 < t < 1 else mp.mpf(0)

    def _log_p_eta(self, e):
        return -((e / self.se) ** 2) / 2 - self.log_norm_eta

    def _log_p_zeta(self, z):
        return -(((z - self.zc) / self.sz) ** 2) / 2 - self.log_norm_zeta

    def h0(self):
        y, n = self.y1 + self.y2, self.n1 + self.n2
        peak = self._log_peak(y, n)
        f = lambda t: self._lik(y, n, t, peak) * mp.exp(self._log_p_zeta(t))
        return peak + mp.log(_quad(f, [0, 1] + _peak_points(y, n)))

    def core(self):
        """Tensor Gauss-Jacobi rules of mpmath in the rates, whose weights carry the likelihoods.

        The rule sizes in ``CORE_NODES`` are tried in pairs until two agree to ``REF_TOL``.
        """
        prev = None
        for m in CORE_NODES:
            (t1, w1), (t2, w2) = _jacobi(self.n1 - self.y1, self.y1, m), _jacobi(self.n2 - self.y2, self.y2, m)
            total = mp.fsum(
                a * b * mp.exp(self._log_p_eta(u - v) + self._log_p_zeta((u + v) / 2))
                for v, a in zip(t1, w1)
                for u, b in zip(t2, w2)
            )
            cur = mp.log(total)
            if prev is not None and abs(cur - prev) <= REF_TOL:
                return cur
            prev = cur
        raise ArithmeticError(f"reference core rules disagree by {mp.nstr(abs(cur - prev), 3)}")

    def wedge(self, y, n, center):
        """One clamped wedge: the free rate u from its partner's bound, e = |eta| in (u, min(2u, 1))."""
        peak = self._log_peak(y, n)
        # the exponent in e is -A e^2 + B e + C, integrated in closed form
        a = 1 / (2 * self.se**2) + 1 / (8 * self.sz**2)

        def f(u):
            lik = self._lik(y, n, u, peak)
            if not lik:
                return lik
            b = (u - center) / (2 * self.sz**2)
            c = -((u - center) ** 2) / (2 * self.sz**2)
            r = mp.sqrt(a)
            with mp.extradps(40):  # the window (u, 2u) narrows with u, and erf differences cancel on it
                lo, hi = r * (u - b / (2 * a)), r * (min(2 * u, 1) - b / (2 * a))
                diff = mp.erfc(lo) - mp.erfc(hi) if lo > 0 else mp.erfc(-hi) - mp.erfc(-lo)
            mass = mp.sqrt(mp.pi) / (2 * r) * diff
            return lik * mp.exp(c + b * b / (4 * a) - self.log_norm_eta - self.log_norm_zeta) * mass

        return peak + mp.log(_quad(f, [0, mp.mpf(1) / 2, 1] + _peak_points(y, n)))

    def h1(self, core):
        zc = self.zc
        parts = [core]
        wedges = (
            (self.y1 == 0, self.y2, self.n2, zc),
            (self.y2 == self.n2, self.n1 - self.y1, self.n1, 1 - zc),
            (self.y2 == 0, self.y1, self.n1, zc),
            (self.y1 == self.n1, self.n2 - self.y2, self.n2, 1 - zc),
        )
        parts += [self.wedge(y, n, c) for on, y, n, c in wedges if on]
        top = max(parts)
        return top + mp.log(mp.fsum(mp.exp(p - top) for p in parts))


def reference(counts, sigma_eta: float, sigma_zeta: float) -> dict[str, str]:
    """30-digit references of one cell, as decimal strings."""
    with mp.workdps(DIGITS):
        ref = _Reference(counts, sigma_eta, sigma_zeta)
        h0, core = ref.h0(), ref.core()
        h1 = ref.h1(core)
        return {"h0": mp.nstr(h0, DIGITS), "core": mp.nstr(core, DIGITS), "log_bf01": mp.nstr(h0 - h1, DIGITS)}


# --------------------------------------------------------------------------
# The audit
# --------------------------------------------------------------------------


def cell_key(counts, sigma_eta, sigma_zeta) -> str:
    return f"{','.join(map(str, counts))}|{sigma_eta!r}|{sigma_zeta!r}"


def audit_cell(counts, sigma_eta: float, sigma_zeta: float, refs: dict[str, str]) -> dict:
    """bf2p's three numbers for one cell against its references."""
    d, cfg = TwoByTwoData(*counts), DepIBPrior(sigma_eta, sigma_zeta)
    ml0, err0 = _log_ml_h0(d, cfg)
    res = bf01_depib(d, cfg)
    got = {
        # taking the coefficients off again adds about one ulp of the log integral
        "h0": (ml0 - _log_coeffs(d), err0),
        "core": _log_core(d, cfg),
        "log_bf01": (res.log_bf01, res.abs_error_estimate),
    }
    out = {"counts": list(counts), "sigma_eta": sigma_eta, "sigma_zeta": sigma_zeta}
    for name, (value, estimate) in got.items():
        error = abs(float(mp.mpf(value) - mp.mpf(refs[name])))
        out[name] = {
            "value": value,
            "reference": refs[name],
            "error": error,
            "estimate": estimate,
            "ratio": error / estimate,
        }
    return out


def run_audit(cells, refs: dict[str, dict[str, str]]) -> dict:
    """Every cell's audit and a summary: the worst ratio per number, and the cells above 1."""
    rows = [audit_cell(c, se, sz, refs[cell_key(c, se, sz)]) for c, se, sz in cells]
    names = ("h0", "core", "log_bf01")
    summary = {
        "cells": len(rows),
        "worst_ratio": {k: max(r[k]["ratio"] for r in rows) for k in names},
        "over_estimate": [
            {"counts": r["counts"], "sigma_eta": r["sigma_eta"], "sigma_zeta": r["sigma_zeta"], "number": k}
            for r in rows
            for k in names
            if r[k]["ratio"] > 1.0
        ],
    }
    return {"cells": rows, "summary": summary}


def load_refs() -> dict[str, dict[str, str]]:
    return json.loads(REFS.read_text())


def pin(cells) -> None:
    """Compute every cell's references and write them to ``REFS``."""
    refs = {}
    for i, (c, se, sz) in enumerate(cells):
        t0 = time.perf_counter()
        refs[cell_key(c, se, sz)] = reference(c, se, sz)
        print(f"{i + 1}/{len(cells)} {c} {se} {sz}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    REFS.write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the per-cell audit as JSON here")
    ap.add_argument("--pin", action="store_true", help="recompute the mpmath references and exit")
    args = ap.parse_args(argv)
    cells = sample()
    if args.pin:
        pin(cells)
        return 0
    out = run_audit(cells, load_refs())
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    summary = out["summary"]
    print(json.dumps(summary, indent=1))
    return 1 if summary["over_estimate"] else 0


if __name__ == "__main__":
    sys.exit(main())
