"""Independent reference values for the benchmark's correctness gate.

Everything here is computed from the model definitions with numpy and
mpmath only; nothing imports bf2p or scipy, so a reference never shares
a quadrature, a mode finder or a special function with the program it
checks.

* IB: closed-form beta-function marginals in mpmath at 40 digits.
* LT: trapezoid rule on a wide grid centred on the integrand mode and
  whitened by its Laplace covariance.  The box grows until every border
  sits 46 nats below the peak; convergence is shown by halving the step.
* dep-IB: composite Gauss-Legendre (16 nodes per panel) on each piece of
  the clamp-split (eta, zeta) domain, mapped to (eta, t) with
  zeta = g(eta) + t (h(eta) - g(eta)); convergence is shown by doubling
  the panel count.  Every piece's integrand is analytic on its panels.

Each marginal comes back as ``[value, gap]``: ``gap`` is the difference
between the last two refinement levels.

Requests are string keys (see ``compute``).  Run as a script, this file
reads a JSON list of keys on stdin and writes a JSON object
``{key: value}`` to ``--out``; the benchmark runs it in a child process
so its memory never counts towards the program's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import defaultdict

import mpmath
import numpy as np

#: A reference level is accepted once two refinements agree this well.
CONVERGED = 1e-11

#: Borders of an integration box must sit this far below the peak (nats).
BORDER_DROP = 46.0


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def parse_data(text: str) -> tuple[int, int, int, int]:
    y1, n1, y2, n2 = (int(v) for v in text.split(","))
    return y1, n1, y2, n2


def _log_choose(n: int, y: int) -> mpmath.mpf:
    return mpmath.loggamma(n + 1) - mpmath.loggamma(y + 1) - mpmath.loggamma(n - y + 1)


def _log_coeffs(d) -> float:
    y1, n1, y2, n2 = d
    with mpmath.workdps(40):
        return float(_log_choose(n1, y1) + _log_choose(n2, y2))


def _lse(a: np.ndarray) -> float:
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + math.log(float(np.sum(np.exp(a - m))))


def _log_sigmoid(x):
    return -np.logaddexp(0.0, -x)


def _sigmoid(x):
    return np.exp(_log_sigmoid(x))


# --------------------------------------------------------------------------
# IB: closed form
# --------------------------------------------------------------------------


def ib_log_ml(d, a: float) -> list[float]:
    """[log p(D | H0), log p(D | H1)] under Beta(a, a) priors."""
    y1, n1, y2, n2 = d
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        lb = mpmath.log(mpmath.beta(a, a))

        def lbeta(p, q):
            return mpmath.loggamma(p) + mpmath.loggamma(q) - mpmath.loggamma(p + q)

        coeff = _log_choose(n1, y1) + _log_choose(n2, y2)
        ml0 = coeff + lbeta(a + y1 + y2, a + (n1 - y1) + (n2 - y2)) - lb
        ml1 = coeff + lbeta(a + y1, a + n1 - y1) + lbeta(a + y2, a + n2 - y2) - 2 * lb
        return [float(ml0), float(ml1)]


# --------------------------------------------------------------------------
# LT: mode-local whitened trapezoid
# --------------------------------------------------------------------------


def _lt_loglik(y, n, x):
    return y * _log_sigmoid(x) + (n - y) * _log_sigmoid(-x)


def _lt_newton(f, grad_hess, v0, max_iter=200):
    """Damped Newton on a strictly concave function; returns the last iterate."""
    v = np.array(v0, dtype=float)
    fv = float(f(v))
    for _ in range(max_iter):
        g, h = grad_hess(v)
        step = np.linalg.solve(h, -g)
        for _ in range(60):
            f_new = float(f(v + step))
            if f_new >= fv - 1e-12 * abs(fv):
                break
            step = 0.5 * step
        v, fv = v + step, f_new
        if np.max(np.abs(step)) <= 1e-12 * (1.0 + np.max(np.abs(v))):
            break
    return v


def _clip_start(y, n):
    return math.log((y + 0.5) / (n - y + 0.5))


def _lt_h1_parts(d, sb, sp):
    y1, n1, y2, n2 = d

    def logf(beta, psi):
        return (
            _lt_loglik(y1, n1, beta - 0.5 * psi)
            + _lt_loglik(y2, n2, beta + 0.5 * psi)
            - 0.5 * (beta / sb) ** 2
            - 0.5 * (psi / sp) ** 2
        )

    def grad_hess(v):
        b, p = v
        x1, x2 = b - 0.5 * p, b + 0.5 * p
        # swap-symmetric form: exact for counts at 0 or n
        g1 = y1 * _sigmoid(-x1) - (n1 - y1) * _sigmoid(x1)
        g2 = y2 * _sigmoid(-x2) - (n2 - y2) * _sigmoid(x2)
        w1 = n1 * _sigmoid(x1) * _sigmoid(-x1)
        w2 = n2 * _sigmoid(x2) * _sigmoid(-x2)
        g = np.array([g1 + g2 - b / sb**2, 0.5 * (g2 - g1) - p / sp**2])
        h = np.array(
            [
                [-(w1 + w2) - 1.0 / sb**2, 0.5 * (w1 - w2)],
                [0.5 * (w1 - w2), -0.25 * (w1 + w2) - 1.0 / sp**2],
            ]
        )
        return g, h

    x1, x2 = _clip_start(y1, n1), _clip_start(y2, n2)
    mode = _lt_newton(lambda v: logf(v[0], v[1]), grad_hess, [0.5 * (x1 + x2), x2 - x1])
    _, h = grad_hess(mode)
    cov = np.linalg.inv(-h)
    # order (psi, beta): psi then depends on the first whitened axis only
    chol = np.linalg.cholesky(cov[::-1, ::-1])
    const = _log_coeffs(d) - math.log(2.0 * math.pi * sb * sp)

    def eval_grid(axes):
        """log f on the whitened grid axes (u1, u2); psi depends on u1 only."""
        u1, u2 = np.meshgrid(axes[0], axes[1], indexing="ij")
        psi = mode[1] + chol[0, 0] * u1
        beta = mode[0] + chol[1, 0] * u1 + chol[1, 1] * u2
        return logf(beta, psi)

    return eval_grid, mode, chol, const


class _Box:
    """Integer node ranges [lo, hi] per axis at a base step."""

    def __init__(self, dims: int, half: int):
        self.lo = [-half] * dims
        self.hi = [half] * dims


def _grid_axes(box, step, refine):
    return [step / refine * np.arange(lo * refine, hi * refine + 1) for lo, hi in zip(box.lo, box.hi)]


def _fit_box(eval_grid, dims, step=0.5, half=24, cap=1200):
    """Grow the node box until every border is BORDER_DROP below the peak."""
    box = _Box(dims, half)
    while True:
        vals = eval_grid(_grid_axes(box, step, 1))
        peak = float(np.max(vals))
        grown = False
        for ax in range(dims):
            for side, idx in (("lo", 0), ("hi", -1)):
                border = float(np.max(np.take(vals, idx, axis=ax)))
                if border > peak - BORDER_DROP:
                    cur = getattr(box, side)
                    if abs(cur[ax]) < cap:
                        cur[ax] += (-1 if side == "lo" else 1) * max(8, abs(cur[ax]) // 2)
                        grown = True
        if not grown:
            return box


def _converged_trapezoid(eval_grid, dims, step=0.5):
    """log of the trapezoid sum over the fitted box, refined by step halving."""
    box = _fit_box(eval_grid, dims, step)
    prev = None
    for refine in (1, 2, 4, 8):
        h = step / refine
        val = _lse(eval_grid(_grid_axes(box, step, refine))) + dims * math.log(h)
        if prev is not None and abs(val - prev) <= CONVERGED:
            return val, abs(val - prev)
        prev = val
    return val, abs(val - prev)


def lt_log_ml_h1(d, sb: float, sp: float) -> list[float]:
    eval_grid, _, chol, const = _lt_h1_parts(d, sb, sp)
    val, gap = _converged_trapezoid(eval_grid, 2)
    return [val + math.log(chol[0, 0] * chol[1, 1]) + const, gap]


def lt_log_ml_h0(d, sb: float) -> list[float]:
    y1, n1, y2, n2 = d
    y, n = y1 + y2, n1 + n2

    def grad_hess(v):
        b = v[0]
        g = y * _sigmoid(-b) - (n - y) * _sigmoid(b) - b / sb**2
        h = -n * _sigmoid(b) * _sigmoid(-b) - 1.0 / sb**2
        return np.array([g]), np.array([[h]])

    def logf(v):
        return _lt_loglik(y, n, v[0]) - 0.5 * (v[0] / sb) ** 2

    mode = float(_lt_newton(logf, grad_hess, [_clip_start(y, n)])[0])
    sd = math.sqrt(-1.0 / float(grad_hess([mode])[1][0, 0]))

    def eval_grid(axes):
        beta = mode + sd * axes[0]
        return _lt_loglik(y, n, beta) - 0.5 * (beta / sb) ** 2

    val, gap = _converged_trapezoid(eval_grid, 1)
    const = _log_coeffs(d) - 0.5 * math.log(2.0 * math.pi) - math.log(sb)
    return [val + math.log(sd) + const, gap]


def lt_posterior_psi(d, sb: float, sp: float) -> list[float]:
    """[mean, 2.5% quantile, 97.5% quantile, Laplace sd] of the LT psi posterior."""
    eval_grid, mode, chol, _ = _lt_h1_parts(d, sb, sp)
    box = _fit_box(eval_grid, 2)
    step = 0.5
    u1 = step / 25 * np.arange(box.lo[0] * 25, box.hi[0] * 25 + 1)
    u2 = step / 2 * np.arange(box.lo[1] * 2, box.hi[1] * 2 + 1)
    vals = eval_grid([u1, u2])
    peak = float(np.max(vals))
    marg = np.sum(np.exp(vals - peak), axis=1)  # trapezoid over u2, up to a constant
    psi = mode[1] + chol[0, 0] * u1
    mean = float(np.sum(psi * marg) / np.sum(marg))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (marg[1:] + marg[:-1]))])
    cdf /= cdf[-1]
    lo, hi = (float(np.interp(q, cdf, psi)) for q in (0.025, 0.975))
    return [mean, lo, hi, float(chol[0, 0])]


# --------------------------------------------------------------------------
# dep-IB: composite Gauss-Legendre on the clamp-split domain
# --------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl(a: float, b: float, panels: int):
    edges = np.linspace(a, b, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, np.log(w)


def _log_truncnorm(x, sigma: float, lo: float, hi: float, center: float):
    with mpmath.workdps(30):
        s2 = mpmath.sqrt(2) * sigma
        mass = (mpmath.erf((hi - center) / s2) - mpmath.erf((lo - center) / s2)) / 2
        log_norm = float(mpmath.log(mass) + mpmath.log(sigma) + mpmath.log(2 * mpmath.pi) / 2)
    return -0.5 * ((x - center) / sigma) ** 2 - log_norm


def _log_rate_lik(y, n, theta):
    """y log(theta) + (n - y) log(1 - theta); zero counts contribute exactly 0."""
    out = np.zeros_like(theta)
    if y:
        out = out + y * np.log(theta)
    if n - y:
        out = out + (n - y) * np.log1p(-theta)
    return out


def _dep_pieces(d):
    """(eta interval, g, h, theta1(eta, zeta), theta2(eta, zeta)) per piece.

    The core has both rates interior; a wedge, where one rate clamps to
    0 or 1, carries likelihood only when that group's count sits at the
    same bound.
    """
    y1, n1, y2, n2 = d
    free1 = lambda e, z: z - 0.5 * e  # noqa: E731
    free2 = lambda e, z: z + 0.5 * e  # noqa: E731
    pieces = [
        ((-1.0, 0.0), lambda e: -0.5 * e, lambda e: 1.0 + 0.5 * e, free1, free2),
        ((0.0, 1.0), lambda e: 0.5 * e, lambda e: 1.0 - 0.5 * e, free1, free2),
    ]
    if y1 == 0:
        pieces.append(((0.0, 1.0), lambda e: 0.0 * e, lambda e: 0.5 * e, lambda e, z: 0.0, free2))
    if y2 == n2:
        pieces.append(((0.0, 1.0), lambda e: 1.0 - 0.5 * e, lambda e: 1.0 + 0.0 * e, free1, lambda e, z: 1.0))
    if y2 == 0:
        pieces.append(((-1.0, 0.0), lambda e: 0.0 * e, lambda e: -0.5 * e, free1, lambda e, z: 0.0))
    if y1 == n1:
        pieces.append(((-1.0, 0.0), lambda e: 1.0 + 0.5 * e, lambda e: 1.0 + 0.0 * e, lambda e, z: 1.0, free2))
    return pieces


def _dep_inner(d, sz: float, zc: float, panels: int):
    """Per piece: eta nodes, eta log weights, log of the inner zeta integral."""
    y1, n1, y2, n2 = d
    out = []
    t, lwt = _gl(0.0, 1.0, panels)
    for (e_lo, e_hi), g, h, th1, th2 in _dep_pieces(d):
        eta, lwe = _gl(e_lo, e_hi, panels)
        lo, hi = g(eta), h(eta)
        zeta = lo[:, None] + t[None, :] * (hi - lo)[:, None]
        e2 = np.broadcast_to(eta[:, None], zeta.shape)
        t1 = np.broadcast_to(np.asarray(th1(e2, zeta), dtype=float), zeta.shape)
        t2 = np.broadcast_to(np.asarray(th2(e2, zeta), dtype=float), zeta.shape)
        with np.errstate(divide="ignore"):
            lf = (
                _log_rate_lik(y1, n1, t1)
                + _log_rate_lik(y2, n2, t2)
                + _log_truncnorm(zeta, sz, 0.0, 1.0, zc)
                + lwt[None, :]
            )
            peak = np.max(lf, axis=1)
            safe = np.where(np.isfinite(peak), peak, 0.0)
            inner = safe + np.log(np.sum(np.exp(lf - safe[:, None]), axis=1)) + np.log(hi - lo)
        out.append((eta, lwe, inner))
    return out


def depib_log_ml_h1(d, sigmas_eta, sz: float, zc: float = 0.5) -> list[list[float]]:
    """[[value, gap], ...] for each sigma_eta, sharing the likelihood grid."""
    panels = max(16, 4 * math.ceil(math.sqrt(max(d[1], d[3]))))
    coeff = _log_coeffs(d)
    prev = None
    for _ in range(4):
        pieces = _dep_inner(d, sz, zc, panels)
        cur = []
        for se in sigmas_eta:
            terms = [
                _lse(inner + lwe + _log_truncnorm(eta, se, -1.0, 1.0, 0.0))
                for eta, lwe, inner in pieces
            ]
            cur.append(_lse(np.array(terms)) + coeff)
        if prev is not None:
            gaps = [abs(a - b) for a, b in zip(cur, prev)]
            if max(gaps) <= CONVERGED:
                break
        prev = cur
        panels *= 2
    return [[v, g] for v, g in zip(cur, gaps)]


def depib_log_ml_h0(d, sz: float, zc: float = 0.5) -> list[float]:
    y1, n1, y2, n2 = d
    panels = 64
    prev = None
    for _ in range(5):
        z, lw = _gl(0.0, 1.0, panels)
        with np.errstate(divide="ignore"):
            lf = _log_rate_lik(y1 + y2, n1 + n2, z) + _log_truncnorm(z, sz, 0.0, 1.0, zc) + lw
        cur = _lse(lf) + _log_coeffs(d)
        if prev is not None and abs(cur - prev) <= CONVERGED:
            break
        prev = cur
        panels *= 2
    return [cur, abs(cur - prev)]


# --------------------------------------------------------------------------
# LT prior summaries
# --------------------------------------------------------------------------


def lt_eta_density(sb: float, sp: float, points: int) -> list[float]:
    """Density of theta2 - theta1 under the LT prior on linspace(-1, 1, points).

    p(e) = int N(beta; sb) N(psi; sp) / [t2 (1 - t2)] d logit(t1), with
    t2 = t1 + e, by tanh-sinh quadrature over t1 at 30 digits.
    """
    out = []
    with mpmath.workdps(30):
        norm = 1 / (2 * mpmath.pi * sb * sp)
        for e in np.linspace(-1.0, 1.0, points):
            e = mpmath.mpf(float(e))
            lo, hi = max(mpmath.mpf(0), -e), min(mpmath.mpf(1), 1 - e)
            if not lo < hi:
                out.append(0.0)
                continue

            def f(t1):
                t2 = t1 + e
                if not (0 < t1 < 1 and 0 < t2 < 1):
                    return mpmath.mpf(0)
                l1 = mpmath.log(t1 / (1 - t1))
                l2 = mpmath.log(t2 / (1 - t2))
                beta, psi = (l1 + l2) / 2, l2 - l1
                dens = norm * mpmath.exp(-(beta / sb) ** 2 / 2 - (psi / sp) ** 2 / 2)
                return dens / (t1 * (1 - t1) * t2 * (1 - t2))

            out.append(float(mpmath.quad(f, [lo, (lo + hi) / 2, hi])))
    return out


def lt_prior_correlation(sb: float, sp: float) -> list[float]:
    """[corr(theta1, theta2), gap] under the LT prior by a Gaussian trapezoid."""
    prev = None
    for h in (0.2, 0.1):
        z = h * np.arange(-round(14 / h), round(14 / h) + 1)
        w = np.exp(-0.5 * z**2)
        w2 = np.outer(w, w)
        w2 /= w2.sum()
        beta, psi = np.meshgrid(sb * z, sp * z, indexing="ij")
        t1, t2 = _sigmoid(beta - 0.5 * psi), _sigmoid(beta + 0.5 * psi)
        m1, m2 = np.sum(w2 * t1), np.sum(w2 * t2)
        v1, v2 = np.sum(w2 * t1 * t1) - m1 * m1, np.sum(w2 * t2 * t2) - m2 * m2
        cur = float((np.sum(w2 * t1 * t2) - m1 * m2) / math.sqrt(v1 * v2))
        gap = None if prev is None else abs(cur - prev)
        prev = cur
    return [cur, gap]


# --------------------------------------------------------------------------
# key dispatch
# --------------------------------------------------------------------------


def compute(keys) -> dict[str, list]:
    """Reference values for request keys.

    ``ib|y1,n1,y2,n2|a``            [log ml0, log ml1]
    ``lt0|y1,n1,y2,n2|sb``          [log ml0, gap]
    ``lt1|y1,n1,y2,n2|sb|sp``       [log ml1, gap]
    ``dep0|y1,n1,y2,n2|sz``         [log ml0, gap]
    ``dep1|y1,n1,y2,n2|se|sz``      [log ml1, gap]
    ``post|y1,n1,y2,n2|sb|sp``      [mean, q025, q975, Laplace sd] of psi
    ``eta|sb|sp|points``            LT prior density of eta on a grid
    ``corr|sb|sp``                  [LT prior correlation, gap]
    """
    out: dict[str, list] = {}
    dep1 = defaultdict(list)
    for key in keys:
        kind, *f = key.split("|")
        if kind == "dep1":
            dep1[(f[0], f[2])].append((float(f[1]), key))
            continue
        if kind == "ib":
            out[key] = ib_log_ml(parse_data(f[0]), float(f[1]))
        elif kind == "lt0":
            out[key] = lt_log_ml_h0(parse_data(f[0]), float(f[1]))
        elif kind == "lt1":
            out[key] = lt_log_ml_h1(parse_data(f[0]), float(f[1]), float(f[2]))
        elif kind == "dep0":
            out[key] = depib_log_ml_h0(parse_data(f[0]), float(f[1]))
        elif kind == "post":
            out[key] = lt_posterior_psi(parse_data(f[0]), float(f[1]), float(f[2]))
        elif kind == "eta":
            out[key] = lt_eta_density(float(f[0]), float(f[1]), int(f[2]))
        elif kind == "corr":
            out[key] = lt_prior_correlation(float(f[0]), float(f[1]))
        else:
            raise ValueError(f"unknown reference key {key!r}")
    for (data, sz), items in dep1.items():
        vals = depib_log_ml_h1(parse_data(data), [se for se, _ in items], float(sz))
        for (_, key), v in zip(items, vals):
            out[key] = v
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write {key: value} to")
    args = ap.parse_args(argv)
    keys = json.load(sys.stdin)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(compute(keys), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
