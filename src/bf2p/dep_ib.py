"""Dependent independent-Beta variant: truncated-Gaussian priors on the
rate difference and grand mean, with a clamped rate mapping.

This setup exists to separate two stories about why logit-based and
direct-rate priors disagree: it keeps the rates on their natural scale
(no logit transform) while making them strongly dependent a priori.
The difference ``eta`` gets N(0, sigma_eta) truncated to (-1, 1), the
grand mean ``zeta`` gets a Gaussian truncated to (0, 1), and

    theta1 = min(max(zeta - eta/2, 0), 1)
    theta2 = min(max(zeta + eta/2, 0), 1)

so the prior places point mass exactly at rates 0 and 1.  The null model
pins eta = 0 and keeps the same zeta prior, mirroring the shared-rate
construction of the other two tests.

Under H0 the marginal integrates over the shared rate.  Under H1 the
domain splits along the clamp boundaries: on the core both rates are
interior; a clamped wedge, where one rate sits on 0 or 1, carries
likelihood only when that group's count sits on the same bound, and
its prior eta integral is a difference of two normal CDFs, leaving a
1-D integral over the free rate.

H0 and the core are integrated in the rates, with no Jacobian
(eta = t2 - t1, zeta = (t1 + t2)/2), by Gauss-Jacobi rules whose
weights are the binomial kernels t^y (1 - t)^(n - y): what is left to
integrate is the smooth product of the two truncated-Gaussian
densities, however large n is.  Each takes a ladder of two rules
(``RATE_NODES``, 20 and 40 nodes per rate) under the stop test and
error floor of ``bf2p.lt``'s ladders, as each wedge does on its kernel's
rules; the rules are cached per group count, so a sweep builds a
study's rules once for its whole prior grid.  A core whose two rules
disagree (a prior narrower than a polynomial in the rates follows, such
as a narrow eta prior's ridge along t1 = t2) goes to a ladder of graded
Gauss-Legendre parts in (zeta, eta), as the prior correlation does;
H0 and the wedges, 1-D integrals over a rate, go to tanh-sinh over its
pieces (``_log_rate_pieces``), and H0 under a zeta prior narrower than
the floats about its centre is the likelihood there.  The error estimate
sums those for H0, the core and each wedge, each weighted by its share.

Prior draws and the prior correlation come from ``bf2p.priors``, which
samples every family and computes every family's correlation by
quadrature; ``prior_correlation_depib`` delegates to it.
"""

from __future__ import annotations

import math

import numpy as np

from .lt import _ROUNDING, _first_agreement, _log_coeffs, _logsumexp
from .model import (
    DepIBPrior,
    EvidenceResult,
    Hypothesis,
    Method,
    NumericalError,
    TwoByTwoData,
    expit_pair,
)
from .priors import _NODES, _grading, _parts_rule, _zeta_is_point, prior_correlation
from .special import (
    _LN_SQRT_2PI,
    _TS_REL_TOL,
    _jacobi_rule,
    _log_gaussian_mass,
    _log_truncation_mass,
    _tanh_sinh,
    log_density_truncated_gaussian,
)

__all__ = [
    "log_ml_h0_depib",
    "log_ml_h1_depib",
    "bf01_depib",
    "prior_correlation_depib",
]

#: Gauss-Jacobi nodes per rate of the coarse and fine rules over H0 and the
#: H1 core; the fine rule's value stands when the two agree.
RATE_NODES = (20, 40)

#: Nats under the integrand at the pooled peak where the H1 core's windows close; its least first part, per window.
_WINDOW_NATS, _FINEST = 100.0, 1e-13


def _log_prior_zeta(z, cfg: DepIBPrior):
    return log_density_truncated_gaussian(z, cfg.sigma_zeta, 0.0, 1.0, center=cfg.zeta_center)


def _kernel_rule(y: int, n: int, m: int):
    """The m-point Gauss-Jacobi rule whose weight is the binomial kernel t^y (1 - t)^(n - y)."""
    return _jacobi_rule(n - y, y, m)


def _log_core_rates(d: TwoByTwoData, cfg: DepIBPrior, m: int) -> float:
    """Log integral of the H1 core over the rates' unit square by the m x m tensor rule.

    In (t1, t2) the core is the two binomial kernels, which the rules'
    weights carry, times the eta and zeta densities, with no Jacobian
    (eta = t2 - t1, zeta = (t1 + t2)/2).
    """
    t1, log_mass1, lw1 = _kernel_rule(d.y1, d.n1, m)
    t2, log_mass2, lw2 = _kernel_rule(d.y2, d.n2, m)
    t1, t2 = t1[:, None], t2[None, :]
    logf = (
        (lw1[:, None] + lw2[None, :])
        + log_density_truncated_gaussian(t2 - t1, cfg.sigma_eta, -1.0, 1.0)
        + _log_prior_zeta(0.5 * (t1 + t2), cfg)
    )
    return (log_mass1 + log_mass2) + _logsumexp(logf.ravel())


def _log_rate_pieces(y: int, n: int, log_prior, center: float, ends, log_scale: float, what: str):
    """(log integral, error estimate) of u^y (1 - u)^(n - y) exp(log_prior(u, 1 - u, u - center)) over
    u in (0, 1), H0's and the wedges' fallback: tanh-sinh on the pieces between 0, 1/2, ``center``, 1
    and ``ends`` (clipped to [0, 1]), each measured from its end nearer to u's bound for u and 1 - u,
    and from its end on center's side for u - center, so that all three keep their digits.  Pieces
    that do not matter next to exp(``log_scale``) stop early; ``what`` names the problem in errors.
    """
    ends = np.array(sorted({0.0, 0.5, center, 1.0, *np.clip(ends, 0.0, 1.0).tolist()}))
    lo, hi = ends[:-1, None], ends[1:, None]
    below, right = hi <= 0.5, lo >= center
    with np.errstate(divide="ignore"):  # log of the piece's end nearer to u's bound 0 or 1
        log_end, log_width = np.log(np.where(below, lo, 1.0 - hi)), np.log(hi - lo)

    def log_f(rows, log_s, log_1m_s):
        # below 1/2, u = lo + width s and log(1 - u) is log1p(-u); above,
        # v = 1 - u = (1 - hi) + width (1 - s) and log u is log1p(-v)
        low, width = below[rows], log_width[rows]
        log_near = np.logaddexp(log_end[rows], width + np.where(low, log_s, log_1m_s))
        log_far = np.log1p(-np.exp(log_near))
        log_u, log_v = np.where(low, log_near, log_far), np.where(low, log_far, log_near)
        w = np.where(right[rows], lo[rows] - center + np.exp(width + log_s), hi[rows] - center - np.exp(width + log_1m_s))
        return y * log_u + (n - y) * log_v + log_prior(np.exp(log_u), np.exp(log_v), w) + width

    val = _logsumexp(_tanh_sinh(log_f, ends[:-1], what, log_scale))
    return val, max(_TS_REL_TOL, _ROUNDING * (1.0 + abs(val)))


def _pooled_peak(y: int, n: int, c: float, sz: float):
    """(u, 1 - u, 1 / width) at the peak of the concave y ln u + (n - y) ln(1 - u) - (u - c)^2 / (2 sz^2): 64
    halvings of its slope's sign in the log odds; width 1 / sqrt(slope^2 + curvature) is a bound peak's decay."""
    lo, hi = -700.0, 700.0
    for _ in range(64):
        u, v = expit_pair(x := 0.5 * (lo + hi))
        g = y * v - (n - y) * u - (u - c) / sz * (u / sz) * v  # its slope in x, of the sign of its slope in u
        lo, hi = (x, hi) if g > 0.0 else (lo, x)
    return u, v, math.hypot(g / u / v, math.sqrt(y) / u, math.sqrt(n - y) / v, 1.0 / sz)


def _log_ml_h0(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) with eta = 0: the likelihood at zeta's centre c where zeta is a
    point mass (``bf2p.priors._zeta_is_point``), else the pooled counts' ``RATE_NODES`` rules, else
    ``_log_rate_pieces`` (in 1 - u where c > 1/2), with ends at the integrand's peak and 16 of its
    widths either side, stopping early against the peak's value times its width."""
    y, n = d.pooled
    c, sz = cfg.zeta_center, cfg.sigma_zeta
    if _zeta_is_point(cfg):
        val = y * math.log(c) + (n - y) * math.log1p(-c)
        return _log_coeffs(d) + val, _ROUNDING * (1.0 + abs(val))
    rules = (_kernel_rule(y, n, m) for m in RATE_NODES)
    found = _first_agreement(mass + _logsumexp(lw + _log_prior_zeta(t, cfg)) for t, mass, lw in rules)
    if found is None:
        y, c = (n - y, 1.0 - c) if c > 0.5 else (y, c)  # u -> 1 - u: a window near 1 keeps its digits near 0
        u, v, root = _pooled_peak(y, n, c, sz)
        log_norm = _log_truncation_mass(0.0, 1.0, c, sz) + math.log(sz) + _LN_SQRT_2PI
        log_prior = lambda u, v, w: -0.5 * (w / sz) * (w / sz) - log_norm  # noqa: E731
        log_scale = y * math.log(u) + (n - y) * math.log(v) + log_prior(u, v, u - c) - math.log(root)
        found = _log_rate_pieces(y, n, log_prior, c, (u - 16.0 / root, u, u + 16.0 / root), log_scale, "dep-IB H0")
    return _log_coeffs(d) + found[0], found[1]


def _log_core_parts(d: TwoByTwoData, cfg: DepIBPrior):
    """Log integrals of the H1 core on ever finer graded Gauss-Legendre parts in (zeta, eta).

    There the core runs over the diamond |eta| < 2 min(zeta, 1 - zeta) with no Jacobian, here in units
    of the priors' scales (zeta = c + sigma_zeta x, eta = sigma_eta s), so that narrow priors keep their
    digits.  Its log is concave and below the likelihoods' peaks times the priors' Gaussian factors, a
    bound ``_WINDOW_NATS`` under the integrand at (u, 0), u the pooled peak, r scales out: there both
    windows close.  Per x node, s's parts are graded towards the row's peak from its width there.
    """
    (y1, n1), (y2, n2), c, se, sz = (d.y1, d.n1), (d.y2, d.n2), cfg.zeta_center, cfg.sigma_eta, cfg.sigma_zeta
    if c > 0.5:  # zeta -> 1 - zeta with eta -> -eta, y -> n - y: a window near 1 keeps its digits near 0
        y1, y2, c = n1 - y1, n2 - y2, 1.0 - c
    # (count, 1 - rate or not, slope in s) of the likelihoods' factors t1 = zeta - se s / 2, t2 = zeta + se s / 2
    factors = [(k, f, 0.5 * se * g) for k, f, g in ((y1, 0, -1), (n1 - y1, 1, 1), (y2, 0, 1), (n2 - y2, 1, -1)) if k]
    u, v, root = (c, 1.0 - c, 1.0 / sz) if _zeta_is_point(cfg) else _pooled_peak(y1 + y2, n1 + n2, c, sz)
    peaks = sum(k * math.log(k / m) for k, m in ((y1, n1), (n1 - y1, n1), (y2, n2), (n2 - y2, n2)) if k)
    r = math.sqrt(2.0 * (_WINDOW_NATS + peaks - sum(k * math.log((u, v)[f]) for k, f, _ in factors)) + ((u - c) / sz) ** 2)
    lo, hi, half, peak = max(-c / sz, -r), min((1.0 - c) / sz, r), (0.5 - c) / sz, (u - c) / sz
    # x's parts are graded towards the peak (u, then the last rung's highest row) and the kink 1/2, where a
    # rate at 0 or 1 leaves a layer 1 / (2 n) wide, and towards the tips, where the diamond cuts eta's window
    first, tip = (_grading(max(min(1 / root, w) / sz, _FINEST * (hi - lo)), hi - lo) for w in (0.5 / (n1 + n2), se / 2))
    fixed = np.concatenate(((lo, hi, half), half - first, half + first, -c / sz + tip, (1.0 - c) / sz - tip))
    log_norm = _log_truncation_mass(-1.0, 1.0, 0.0, se) + _log_truncation_mass(0.0, 1.0, c, sz) + 2.0 * _LN_SQRT_2PI
    for m in _NODES:
        breaks = np.unique(np.clip(np.concatenate((fixed, (peak,), peak - first, peak + first)), lo, hi))
        x, w = (a.reshape(-1, 1) for a in _parts_rule(breaks[None], m))
        base = (c + sz * x, 1.0 - (c + sz * x))
        s, top = 0.0 * x, np.minimum(2.0 * np.minimum(*base) / se, r)
        for j in range(1, 53):  # the row's peak: s keeps a bit of the distance to eta's ends
            s = np.where(sum(k * g / (base[f] + g * s) for k, f, g in factors) > s, s + top / 2**j, s - top / 2**j)
        profile = sum(k * np.log(base[f] + g * s) for k, f, g in factors) - 0.5 * (x * x + s * s)
        peak = float(x.flat[np.nanargmax(profile)])
        # the profile is concave in x: rows _WINDOW_NATS below the highest, or at zeta = 0 or 1, hold nothing
        keep = (profile > np.nanmax(profile) - _WINDOW_NATS)[:, 0]
        x, w, s, top, base = x[keep], w[keep], s[keep], top[keep], tuple(a[keep] for a in base)
        slopes = [k * g / (base[f] + g * s) for k, f, g in factors]
        width = 1.0 / np.hypot(sum(slopes) - s, np.sqrt(1.0 + sum(a * a / k for a, (k, _, _) in zip(slopes, factors))))
        steps = width * _grading(1.0, max(1.0, float(np.max(2.0 * top / width))))
        s, w_s = _parts_rule(np.sort(np.clip(np.hstack((s - steps, s, s + steps)), -top, top), axis=1), m)
        logf = np.log(w * w_s) - 0.5 * (x * x + s * s)
        logf += sum(k * np.log(np.maximum(base[f] + g * s, 0.0)) for k, f, g in factors)
        yield _logsumexp(logf.ravel()) - log_norm


def _log_core(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log integral, error estimate) of the H1 core, both rates interior: the ``RATE_NODES`` pair's,
    or where it disagrees (a prior narrower than a polynomial in the rates follows), the parts'."""
    with np.errstate(divide="ignore", invalid="ignore"):  # rows at zeta = 0 or 1, ends of eta's windows: log 0
        found = _first_agreement(_log_core_rates(d, cfg, m) for m in RATE_NODES)
        if found is None and (found := _first_agreement(_log_core_parts(d, cfg))) is not None:
            found = found[0], max(found[1], _ROUNDING * (d.n1 + d.n2))  # n counts, each log rate rounded
    if found is None:
        raise NumericalError("dep-IB H1 core did not converge")
    return found


def _log_wedge_rates(y: int, n: int, center: float, s_w: float, s_e: float, slope: float):
    """(log integral, error) of a wedge's u integral on Gauss-Jacobi rules, or None.

    With x = u if 2y <= n, else 1 - u, and j = min(y, n - y), the kernel x^j (1 - x)^(n - j)
    weights the rules, and the e window's kink at u = 1/2 is taken out: the wedge is A - B, A over
    x in (0, 1) with e in (u, 2u), or in (u, 1) reflected to 1 - e, and B the window's excess, t
    wide, over x = (1 + t)/2 in (1/2, 1), where the kernel is 2^-(n - j) (1 - t)^(n - j) x^j.  Each
    takes the ``RATE_NODES`` ladder, all four rules in one mass call.  None where a ladder does not
    agree, or B > A/2 would cost over a bit; B <= 2^-(n + 1) is left out below the rounding of A.
    """
    j, flip = min(y, n - y), 2 * y > n
    c = 1.0 - center if flip else center
    rules = [_kernel_rule(j, n, m) for m in RATE_NODES] + [_jacobi_rule(n - j, 0, m) for m in RATE_NODES]
    t = np.concatenate([r[0] for r in rules])
    in_a = np.arange(t.size) < sum(RATE_NODES)
    x = np.where(in_a, t, 0.5 * (1.0 + t))
    if flip:  # 1 - e in (0, x) for A, (0, t) for B, about 1 - slope (u - center)
        lo, hi, mid = 0.0, t, 1.0 + slope * (x - c)
    else:  # e in (x, 2x) for A, 1 + (0, t) for B, about slope (u - center)
        lo, hi, mid = np.where(in_a, x, 0.0), np.where(in_a, 2.0 * x, t), slope * (x - c) - np.where(in_a, 0.0, 1.0)
    logf = np.where(in_a, 0.0, j * np.log(x)) - 0.5 * ((x - c) / s_w) ** 2 + _log_gaussian_mass(lo, hi, mid, s_e)
    vals = [mass + _logsumexp(lw + logf[end - lw.size : end]) for (_, mass, lw), end in zip(rules, np.cumsum(2 * RATE_NODES))]
    a = _first_agreement(vals[: len(RATE_NODES)])
    if a is None or -(n + 1) * math.log(2.0) < a[0] + math.log(_ROUNDING):
        return a
    b = _first_agreement(v - (n - j + 1) * math.log(2.0) for v in vals[len(RATE_NODES) :])
    if b is None or b[0] - a[0] > -math.log(2.0):
        return None
    r = math.exp(b[0] - a[0])
    return a[0] + math.log1p(-r), (a[1] + r * b[1]) / (1.0 - r)


def _log_wedge(y: int, n: int, center: float, cfg: DepIBPrior, log_scale: float):
    """(log integral, error estimate) over one clamped wedge.

    The free rate u is measured from its partner's bound (theta at 0,
    1 - theta at 1), as are its counts (y, n) and the zeta prior's
    ``center``.  Given u, e = |eta| runs over (u, min(2u, 1)) with
    zeta = u - e/2, and the product of the two priors is Gaussian in e.
    The u integral runs on Gauss-Jacobi rules (``_log_wedge_rates``) or, where they disagree, on
    ``_log_rate_pieces``, whose pieces that do not matter next to exp(``log_scale``) stop early.
    """
    se, sz = cfg.sigma_eta, cfg.sigma_zeta
    s_w = math.hypot(sz, 0.5 * se)  # sd of u - center, marginal over e
    s_e = se * sz / s_w  # sd of e given u
    log_norm = _log_truncation_mass(-1.0, 1.0, 0.0, se) + _log_truncation_mass(0.0, 1.0, center, sz)
    log_norm += math.log(s_w) + _LN_SQRT_2PI
    slope = 0.5 * (se / s_w) ** 2  # the mean of e given u is slope (u - center)
    found = _log_wedge_rates(y, n, center, s_w, s_e, slope)
    if found is not None:
        val = found[0] - log_norm
        return val, max(found[1], _ROUNDING * (1.0 + abs(val)))

    def log_prior(u, v, w):  # above 1/2 the window (u, 1) is reflected to 1 - e in (0, v), which keeps its digits
        low, mean = u <= 0.5, slope * (u - center)  # of one rounding with the window's ends
        lo_e, hi_e, c_e = np.where(low, u, 0.0), np.where(low, 2.0 * u, v), np.where(low, mean, 1.0 - mean)
        return _log_gaussian_mass(lo_e, hi_e, c_e, s_e) - 0.5 * (w / s_w) ** 2 - log_norm

    # at large n the likelihood peak near u_hat is too narrow for one piece to resolve
    return _log_rate_pieces(y, n, log_prior, center, ((y + 1.5) / (n + 3.0),), log_scale, "dep-IB clamped wedge")


def _log_ml_h1(d: TwoByTwoData, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) of the free-(eta, zeta) model."""
    parts = [_log_core(d, cfg)]
    zc = cfg.zeta_center
    wedges = (
        (d.y1 == 0, d.y2, d.n2, zc),  # theta1 clamped to 0
        (d.y2 == d.n2, d.n1 - d.y1, d.n1, 1.0 - zc),  # theta2 clamped to 1
        (d.y2 == 0, d.y1, d.n1, zc),  # theta2 clamped to 0
        (d.y1 == d.n1, d.n2 - d.y2, d.n2, 1.0 - zc),  # theta1 clamped to 1
    )
    # wedge tolerances are judged against the core, a lower bound of the total
    parts += [_log_wedge(y, n, c, cfg, parts[0][0]) for on, y, n, c in wedges if on]
    total = _logsumexp(np.array([v for v, _ in parts]))
    err = sum(e * math.exp(v - total) for v, e in parts)
    return _log_coeffs(d) + total, err


def _log_ml(d: TwoByTwoData, hypothesis: Hypothesis, cfg: DepIBPrior) -> tuple[float, float]:
    """(log marginal, error estimate) under one hypothesis.

    A prior scale near the float minimum overflows a Gaussian kernel's
    square, which is right (a density of 0), so numpy's warning is
    silenced once per marginal here rather than per density call.
    """
    with np.errstate(over="ignore"):
        return (_log_ml_h0 if hypothesis is Hypothesis.H0 else _log_ml_h1)(d, cfg)


def log_ml_h0_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal with eta = 0: a single rate zeta under its truncated prior."""
    return _log_ml(d, Hypothesis.H0, cfg)[0]


def log_ml_h1_depib(d: TwoByTwoData, cfg: DepIBPrior) -> float:
    """Log marginal of the free-(eta, zeta) model: core plus clamped wedges."""
    return _log_ml(d, Hypothesis.H1, cfg)[0]


def bf01_depib(d: TwoByTwoData, cfg: DepIBPrior | None = None) -> EvidenceResult:
    """Bayes factor for eta = 0 under the clamped truncated-Gaussian prior."""
    cfg = cfg if cfg is not None else DepIBPrior()
    return EvidenceResult.from_hypotheses(_log_ml, d, cfg, Method.QUADRATURE)


def prior_correlation_depib(cfg: DepIBPrior, n_draws: int = 1_000_000, seed: int = 0) -> float:
    """Pearson correlation of the two rates under the clamped prior, by quadrature.

    ``n_draws`` and ``seed`` are ignored: the value is deterministic
    (``bf2p.priors.prior_correlation``).
    """
    return prior_correlation(cfg)
