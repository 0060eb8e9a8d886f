"""Audit the dep-IB and LT error estimates against 30-digit mpmath references.

The dep-IB slice is a seeded sample of 100 (study, prior) cells: n1
and n2 log-uniform in 1..1e8, each count at 0, at n or uniform in
between, sigma_eta in {0.05, 0.1, 0.2, 0.5, 1} and sigma_zeta in
{0.1, 0.3, 0.5, 1}.  Per cell
three numbers are checked, each with the error estimate bf2p reports
for it: the H0 log integral, the log integral of the H1 core (both rates
interior) and log BF01.  The output gives, per cell and number, the
value, the reference, the error and the ratio error / estimate; the exit
status is 1 when any ratio of either slice exceeds 1.

The references are computed in mpmath at 30 digits from the model's
definition, sharing no code with bf2p: H0 and the clamped wedges by
mpmath's tanh-sinh quadrature, split at the likelihood's peak and
shoulders, and the core by tensor Gauss-Jacobi rules of 48 nodes and
more per rate from mpmath's own builder, whose sizes grow until two
agree.  Each reaches a relative error of 1e-20.

The LT slice is a seeded sample of 30 cells: n1 and n2 log-uniform in
1..1e8 with counts drawn as above, sigma_beta in {0.5, 1, 2}, sigma_psi
in {0.5, 1, 1.5, 2} and a Gaussian or logistic beta prior.  Its numbers
are the H0 and H1 log integrals, without binomial coefficients, and log
BF01.  Their references integrate in the groups' log odds (beta alone
under H0), whitened at the mode by the Cholesky factor of the inverse
negative Hessian that an mpmath Newton search finds there: the
trapezoid rule over each whole line, nested under H1, whose step halves
until two levels agree to 1e-20 at the integrand's peak of 1.  The
integrands are analytic, so the rule converges geometrically, and
log-concave, so along each line a sum stops once its terms have begun
to fall and are below 1e-23.

The references take minutes, so they are pinned next to this file, in
``error_audit_refs.json`` (dep-IB) and ``error_audit_lt_refs.json``
(LT); ``--pin`` recomputes both.

    PYTHONPATH=src python3 tools/error_audit.py --out error_audit.json
    PYTHONPATH=src python3 tools/error_audit.py --pin
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import warnings
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import mpmath as mp
import numpy as np

from bf2p.dep_ib import _log_core, _log_ml_h0, bf01_depib
from bf2p.lt import _fit, _log_coeffs, bf01_lt
from bf2p.model import BetaPriorKind, DepIBPrior, Hypothesis, LTPrior, TwoByTwoData, WidePriorWarning

REFS = Path(__file__).resolve().with_name("error_audit_refs.json")
LT_REFS = Path(__file__).resolve().with_name("error_audit_lt_refs.json")

SEED = 20261019
SIGMA_ETA = (0.05, 0.1, 0.2, 0.5, 1.0)
SIGMA_ZETA = (0.1, 0.3, 0.5, 1.0)

#: Working digits of the references, and the relative error each quadrature must reach.
DIGITS, REF_TOL = 30, mp.mpf("1e-20")

#: Gauss-Jacobi nodes per rate of the reference core's rules, tried in pairs.
CORE_NODES = (48, 64, 96, 128)


LT_SEED = 20261020
SIGMA_BETA = (0.5, 1.0, 2.0)
SIGMA_PSI = (0.5, 1.0, 1.5, 2.0)

#: Absolute error target of each whitened LT integral, whose integrand peaks at 1.
LT_ATOL = mp.mpf("1e-20")


def _counts(rng) -> tuple[int, int, int, int]:
    """n1 and n2 log-uniform in 1..1e8, each count at 0, at n or uniform in between."""
    counts = []
    for _group in range(2):
        n = int(round(10.0 ** rng.uniform(0.0, 8.0)))
        kind = rng.integers(3)
        y = 0 if kind == 0 else n if kind == 1 else int(rng.integers(0, n + 1))
        counts += [y, n]
    return tuple(counts)


def sample() -> list[tuple[tuple[int, int, int, int], float, float]]:
    """The dep-IB slice's 100 (counts, sigma_eta, sigma_zeta) cells."""
    rng = np.random.default_rng(SEED)
    return [(_counts(rng), float(rng.choice(SIGMA_ETA)), float(rng.choice(SIGMA_ZETA))) for _ in range(100)]


def lt_sample() -> list[tuple[tuple[int, int, int, int], float, float, str]]:
    """The LT slice's 30 (counts, sigma_beta, sigma_psi, beta prior) cells."""
    rng = np.random.default_rng(LT_SEED)
    out = []
    for _ in range(30):
        counts = _counts(rng)
        sb, sp = float(rng.choice(SIGMA_BETA)), float(rng.choice(SIGMA_PSI))
        out.append((counts, sb, sp, str(rng.choice(["gaussian", "logistic"]))))
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


def _line(f, atol):
    """Integral of f over the real line by the trapezoid rule, to ``atol``.

    f is analytic and log-concave, so the rule converges geometrically as
    its step halves from 1/2 (until two levels agree to ``atol``), and on
    each side of 0 f falls for good once it falls: each sum stops there
    once its terms are below atol / 1000.
    """
    total, prev = mp.mpf(0), None
    for level in range(10):
        h = mp.mpf(2) ** -(level + 1)
        first, stride = (0, 1) if level == 0 else (1, 2)  # new nodes: all at level 0, odd multiples after
        for sign in (1, -1):
            last, k = None, first if sign == 1 else max(first, 1)
            while True:
                fz = f(sign * k * h)
                total += fz
                if last is not None and fz < last and fz * h < atol / 1000:
                    break
                if k * h > 10**4:
                    raise ArithmeticError("reference integrand not negligible at |z| = 1e4")
                last, k = fz, k + stride
        cur = h * total
        if prev is not None and abs(cur - prev) <= atol:
            return cur
        prev = cur
    raise ArithmeticError("reference trapezoid levels did not agree")


def _log_lik(y, n, x):
    """y log sigma(x) + (n - y) log sigma(-x), as two terms of one sign."""
    if x > 0:
        return -(n - y) * x - n * mp.log1p(mp.exp(-x))
    return y * x - n * mp.log1p(mp.exp(x))


def _lik_derivatives(y, n, x):
    s, c = 1 / (1 + mp.exp(-x)), 1 / (1 + mp.exp(x))
    return y * c - (n - y) * s, -n * s * c


class _LTReference:
    """The LT marginals of one (study, prior) cell, without binomial coefficients, in mpmath.

    H1 is integrated in the groups' log odds x = (beta - psi/2, beta + psi/2),
    whose Jacobian is 1, H0 in beta; each whitened at its mode.
    """

    def __init__(self, counts, sigma_beta: float, sigma_psi: float, beta_prior: str):
        self.y1, self.n1, self.y2, self.n2 = counts
        self.sb, self.sp, self.logistic = mp.mpf(sigma_beta), mp.mpf(sigma_psi), beta_prior == "logistic"
        self.log_cb = mp.log(self.sb) if self.logistic else mp.log(self.sb * mp.sqrt(2 * mp.pi))
        self.log_cp = mp.log(self.sp * mp.sqrt(2 * mp.pi))

    def _log_p_beta(self, b):
        if self.logistic:
            z = abs(b) / self.sb
            return -z - 2 * mp.log1p(mp.exp(-z)) - self.log_cb
        return -((b / self.sb) ** 2) / 2 - self.log_cb

    def _p_beta_derivatives(self, b):
        if self.logistic:
            t = mp.tanh(b / (2 * self.sb))
            return -t / self.sb, -(1 - t * t) / (2 * self.sb**2)
        return -b / self.sb**2, -1 / self.sb**2

    def _log_p_psi(self, p):
        return -((p / self.sp) ** 2) / 2 - self.log_cp

    @staticmethod
    def _mode(g, derivatives, x):
        """Damped Newton to the mode of the concave g; the mode and the Hessian there, as (a,) or (a, b, c)."""
        gx = g(*x)
        for _ in range(500):
            grad, hess = derivatives(*x)
            if len(x) == 1:
                step = [-grad[0] / hess[0]]
            else:
                a, b, c = hess
                det = a * c - b * b
                step = [-(c * grad[0] - b * grad[1]) / det, -(a * grad[1] - b * grad[0]) / det]
            t = mp.mpf(1)
            while True:
                trial = [xi + t * si for xi, si in zip(x, step)]
                g_trial = g(*trial)
                if g_trial >= gx or t < mp.mpf(10) ** -40:
                    break
                t /= 2
            x, gx = trial, g_trial
            if max(abs(t * si) for si in step) <= 100 * mp.eps * (1 + max(abs(xi) for xi in x)):
                return x, derivatives(*x)[1]
        raise ArithmeticError("reference mode search did not converge")

    @staticmethod
    def _start(y, n):
        return mp.log((y + mp.mpf(1) / 2) / (n - y + mp.mpf(1) / 2))

    def h0(self):
        y, n = self.y1 + self.y2, self.n1 + self.n2

        def g(b):
            return _log_lik(y, n, b) + self._log_p_beta(b)

        def derivatives(b):
            (gl, hl), (gp, hp) = _lik_derivatives(y, n, b), self._p_beta_derivatives(b)
            return [gl + gp], [hl + hp]

        (m,), (h,) = self._mode(g, derivatives, [self._start(y, n)])
        s, peak = 1 / mp.sqrt(-h), g(m)
        return peak + mp.log(s * _line(lambda z: mp.exp(g(m + s * z) - peak), LT_ATOL))

    def h1(self):
        y1, n1, y2, n2 = self.y1, self.n1, self.y2, self.n2

        def g(x1, x2):
            return _log_lik(y1, n1, x1) + _log_lik(y2, n2, x2) + self._log_p_beta((x1 + x2) / 2) + self._log_p_psi(x2 - x1)

        def derivatives(x1, x2):
            (g1, h1), (g2, h2) = _lik_derivatives(y1, n1, x1), _lik_derivatives(y2, n2, x2)
            pg, ph = self._p_beta_derivatives((x1 + x2) / 2)
            qg, qh = -(x2 - x1) / self.sp**2, -1 / self.sp**2
            grad = [g1 + pg / 2 - qg, g2 + pg / 2 + qg]
            return grad, [h1 + ph / 4 + qh, ph / 4 - qh, h2 + ph / 4 + qh]

        (m1, m2), (a, b, c) = self._mode(g, derivatives, [self._start(y1, n1), self._start(y2, n2)])
        # x = mode + L z, with L L' the inverse of minus the Hessian
        det = a * c - b * b
        l11 = mp.sqrt(-c / det)
        l21 = b / det / l11
        l22 = mp.sqrt(-a / det - l21 * l21)
        peak = g(m1, m2)

        def outer(z1):
            x1 = m1 + l11 * z1
            base, x2_at_0 = _log_lik(y1, n1, x1) - peak, m2 + l21 * z1

            def inner(z2):
                x2 = x2_at_0 + l22 * z2
                return mp.exp(base + _log_lik(y2, n2, x2) + self._log_p_beta((x1 + x2) / 2) + self._log_p_psi(x2 - x1))

            # an inner error enters the outer sum times the step, over some
            # 100 / step nodes: at 1 / 1000 of the outer target their sum stays below a tenth of it
            return _line(inner, LT_ATOL / 1000)

        return peak + mp.log(l11 * l22 * _line(outer, LT_ATOL))


def lt_reference(counts, sigma_beta: float, sigma_psi: float, beta_prior: str) -> dict[str, str]:
    """30-digit references of one LT cell, as decimal strings."""
    with mp.workdps(DIGITS):
        ref = _LTReference(counts, sigma_beta, sigma_psi, beta_prior)
        h0, h1 = ref.h0(), ref.h1()
        return {"h0": mp.nstr(h0, DIGITS), "h1": mp.nstr(h1, DIGITS), "log_bf01": mp.nstr(h0 - h1, DIGITS)}


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


def cell_key(counts, *prior) -> str:
    """The refs key of a cell: its counts, then its prior's fields."""
    return "|".join([",".join(map(str, counts)), *map(str, prior)])


def _checked(got: dict, refs: dict[str, str]) -> dict:
    """Per number: bf2p's value and error estimate against the reference, and error / estimate."""
    out = {}
    for name, (value, estimate) in got.items():
        with mp.workdps(DIGITS):  # the reference keeps its digits
            error = abs(float(mp.mpf(value) - mp.mpf(refs[name])))
        out[name] = {"value": value, "reference": refs[name], "error": error, "estimate": estimate, "ratio": error / estimate}
    return out


def audit_cell(counts, sigma_eta: float, sigma_zeta: float, refs: dict[str, str]) -> dict:
    """bf2p's three numbers for one dep-IB cell against its references."""
    d, cfg = TwoByTwoData(*counts), DepIBPrior(sigma_eta, sigma_zeta)
    ml0, err0 = _log_ml_h0(d, cfg)
    res = bf01_depib(d, cfg)
    got = {
        # taking the coefficients off again adds about one ulp of the log integral
        "h0": (ml0 - _log_coeffs(d), err0),
        "core": _log_core(d, cfg),
        "log_bf01": (res.log_bf01, res.abs_error_estimate),
    }
    return {"counts": list(counts), "sigma_eta": sigma_eta, "sigma_zeta": sigma_zeta} | _checked(got, refs)


def audit_lt_cell(counts, sigma_beta: float, sigma_psi: float, beta_prior: str, refs: dict[str, str]) -> dict:
    """bf2p's three numbers for one LT cell against its references."""
    d, prior = TwoByTwoData(*counts), LTPrior(sigma_beta, sigma_psi, BetaPriorKind(beta_prior))
    res = bf01_lt(d, sigma_beta, sigma_psi, prior.beta_prior)
    got = {
        "h0": tuple(_fit(d, Hypothesis.H0, prior)[2:]),
        "h1": tuple(_fit(d, Hypothesis.H1, prior)[2:]),
        "log_bf01": (res.log_bf01, res.abs_error_estimate),
    }
    head = {"counts": list(counts), "sigma_beta": sigma_beta, "sigma_psi": sigma_psi, "beta_prior": beta_prior}
    return head | _checked(got, refs)


class Slice(NamedTuple):
    """One family's audit: its sample, the audit of a cell, the numbers each cell checks,
    the file of its pinned references and the function that computes them."""

    sample: Callable[[], list]
    audit: Callable[..., dict]
    names: tuple[str, ...]
    refs: Path
    reference: Callable[..., dict[str, str]]


SLICES = {
    "dep_ib": Slice(sample, audit_cell, ("h0", "core", "log_bf01"), REFS, reference),
    "lt": Slice(lt_sample, audit_lt_cell, ("h0", "h1", "log_bf01"), LT_REFS, lt_reference),
}


def run_audit(name: str, refs: dict[str, dict[str, str]]) -> dict:
    """One slice's audit of every cell and a summary: the worst ratio per number, and the numbers above 1."""
    slice_ = SLICES[name]
    names = slice_.names
    rows = [slice_.audit(*c, refs[cell_key(*c)]) for c in slice_.sample()]
    summary = {
        "cells": len(rows),
        "worst_ratio": {k: max(r[k]["ratio"] for r in rows) for k in names},
        "over_estimate": [
            {**{f: v for f, v in r.items() if f not in names}, "number": k}
            for r in rows
            for k in names
            if r[k]["ratio"] > 1.0
        ],
    }
    return {"cells": rows, "summary": summary}


def load_refs(name: str = "dep_ib") -> dict[str, dict[str, str]]:
    return json.loads(SLICES[name].refs.read_text())


def pin(name: str) -> None:
    """Compute every cell's references of one slice and write them to its file."""
    slice_, refs = SLICES[name], {}
    cells = slice_.sample()
    for i, c in enumerate(cells):
        t0 = time.perf_counter()
        refs[cell_key(*c)] = slice_.reference(*c)
        print(f"{name} {i + 1}/{len(cells)} {c}: {time.perf_counter() - t0:.1f} s", file=sys.stderr, flush=True)
    slice_.refs.write_text(json.dumps(refs, indent=1) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", help="write the per-cell audit as JSON here")
    ap.add_argument("--pin", action="store_true", help="recompute the mpmath references and exit")
    args = ap.parse_args(argv)
    if args.pin:
        for name in SLICES:
            pin(name)
        return 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WidePriorWarning)
        out = {name: run_audit(name, load_refs(name)) for name in SLICES}
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps({name: slice_["summary"] for name, slice_ in out.items()}, indent=1))
    return 1 if any(slice_["summary"]["over_estimate"] for slice_ in out.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
