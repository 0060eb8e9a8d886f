"""Command-line front end.

Every subcommand is a thin adapter over the library: it parses flags,
calls one library entry point, and renders the result.  No numerical
logic lives here.  Both Bayes factor directions are always printed,
since published analyses switch direction between examples and that is
a classic source of reading errors.

Exit codes: 0 success, 1 invalid input, an unreadable or unwritable file,
or an unsupported request, 2 numerical failure (in any cell, under
``--strict``).  Seeded commands read their
default seed from the ``BF2P_SEED`` environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .averaging import ApproachParams, bf_avg01, equal_weights, evidence, ALL_MODELS
from .model import (
    ConfigError,
    DomainError,
    EvidenceResult,
    NumericalError,
    TwoByTwoData,
    UnsupportedFeatureError,
    ValidationError,
    evidence_label,
)
from .posterior import posterior_draws_ib, posterior_grid_lt, summarize_posterior
from .priors import conditional_theta2_density, joint_density_grid, marginal_density, prior_correlation
from .reanalysis import (
    PRIORS,
    ParseError,
    _prior_config,
    emit,
    ingest_csv,
    load_bundled_corpus,
    run_sweep,
    sensitivity_curve,
)

DEFAULT_SEED = 20150493


def _seed_default() -> int:
    env = os.environ.get("BF2P_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ConfigError(f"BF2P_SEED must be an integer, got {env!r}") from None


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--y1", type=int, required=True, help="events in group 1")
    p.add_argument("--n1", type=int, required=True, help="size of group 1")
    p.add_argument("--y2", type=int, required=True, help="events in group 2")
    p.add_argument("--n2", type=int, required=True, help="size of group 2")


def _add_prior_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--a", type=float, default=1.0,
        help="Beta(a, a) concentration for the IB test (default 1; must be >= 1)",
    )
    p.add_argument(
        "--sigma-beta", type=float, default=1.0,
        help="prior sd of the grand-mean log odds (default 1)",
    )
    p.add_argument(
        "--sigma-psi", type=float, default=1.0,
        help="prior sd of the log odds ratio (default 1; values > 2 draw a warning)",
    )
    p.add_argument(
        "--sigma-eta", type=float, default=0.2,
        help="dep-ib: prior sd of the rate difference (default 1/5)",
    )
    p.add_argument(
        "--sigma-zeta", type=float, default=0.5,
        help="dep-ib: prior sd of the grand-mean rate (default 1/2)",
    )


def _prior(args, name: str):
    """The config of prior ``name`` from its own flags; other families' flags are ignored."""
    return _prior_config(PRIORS[name.replace("-", "_")], vars(args))


def _render_evidence(res: EvidenceResult, as_json: bool) -> str:
    fields = {
        "bf01": res.bf01,
        "bf10": res.bf10,
        "log_bf01": res.log_bf01,
        "log_bf10": res.log_bf10,
        "log_ml_h0": res.log_ml_h0,
        "log_ml_h1": res.log_ml_h1,
        "abs_error_estimate": res.abs_error_estimate,
        "method": res.method_tag.value,
        "evidence_label": evidence_label(res.bf01),
    }
    if as_json:
        return json.dumps(fields, indent=2)
    lines = [
        f"BF01 = {res.bf01:.6g}   (log BF01 = {res.log_bf01:.6g})",
        f"BF10 = {res.bf10:.6g}   (log BF10 = {res.log_bf10:.6g})",
        f"log p(D|H0) = {res.log_ml_h0:.10g}",
        f"log p(D|H1) = {res.log_ml_h1:.10g}",
        f"error estimate = {res.abs_error_estimate:.3g}   method = {res.method_tag.value}",
        f"label (interpretive): {fields['evidence_label']}",
    ]
    return "\n".join(lines)


def _cmd_bf(args) -> int:
    d = TwoByTwoData(args.y1, args.n1, args.y2, args.n2)
    res = evidence(d, _prior(args, args.method))
    print(_render_evidence(res, args.format == "json"))
    return 0


def _cmd_avg(args) -> int:
    d = TwoByTwoData(args.y1, args.n1, args.y2, args.n2)
    params = ApproachParams(ib=_prior(args, "ib"), lt=_prior(args, "lt"))
    if args.weights is None:
        weights = equal_weights()
    else:
        try:
            vals = [float(w) for w in args.weights.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--weights takes numbers: {exc}") from None
        if len(vals) != 4:
            raise ConfigError(
                "--weights needs 4 comma-separated values for "
                "M0^IB, M1^IB, M0^LT, M1^LT"
            )
        weights = dict(zip(ALL_MODELS, vals))
    res = bf_avg01(d, weights, params)
    print(_render_evidence(res, args.format == "json"))
    return 0


def _cmd_priors(args) -> int:
    cfg = _prior(args, args.config)
    if args.quantity == "correlation":
        r = prior_correlation(cfg, args.n_draws, args.seed)
        print(f"prior correlation(theta1, theta2) = {r:.4f}")
        return 0
    if args.quantity in ("eta", "psi", "theta"):
        lo, hi = {"eta": (-1, 1), "psi": (-8, 8), "theta": (0.001, 0.999)}[args.quantity]
        grid = np.linspace(lo, hi, args.grid_points)
        _write_density(args.quantity, marginal_density(cfg, args.quantity, grid, seed=args.seed), args.out)
        return 0
    if args.quantity == "conditional":
        grid = np.linspace(0.001, 0.999, args.grid_points)
        _write_density("theta2", conditional_theta2_density(cfg, args.theta1, grid), args.out)
        return 0
    if args.quantity == "joint":
        coords = args.coords.replace("-", "_")
        dg = joint_density_grid(cfg, coords, resolution=args.resolution)
        x_name, y_name = args.coords.split("-")
        rows = [f"{x_name},{y_name},density"]
        for i, x in enumerate(dg.x_axis):
            rows.extend(
                f"{x:.17g},{y:.17g},{dg.values[i, j]:.17g}"
                for j, y in enumerate(dg.y_axis)
            )
        _write_lines(rows, args.out)
        return 0
    raise ConfigError(f"unknown quantity {args.quantity!r}")


def _cmd_posterior(args) -> int:
    d = TwoByTwoData(args.y1, args.n1, args.y2, args.n2)
    if args.method == "ib":
        src = posterior_draws_ib(d, args.a, args.n_draws, args.seed)
    else:
        src = posterior_grid_lt(d, args.sigma_beta, args.sigma_psi)
    s = summarize_posterior(src, args.quantity)
    print(
        f"{args.quantity}: mean = {s.mean:.6g}, 95% CI = [{s.ci_low:.6g}, "
        f"{s.ci_high:.6g}]  (n = {s.n_draws}, mc_se = {s.mc_se:.3g})"
    )
    return 0


def _cmd_reanalyze(args) -> int:
    batch = load_bundled_corpus() if args.input == "bundled" else ingest_csv(args.input)
    methods = args.methods.split(",") if args.methods else ["ib", "lt"]
    results = run_sweep(batch, methods=methods, jobs=args.jobs)
    failed = [r for r in results if r.error is not None]
    for r in failed:
        print(f"warning: cell failed: study {r.study_id} {r.method} {dict(r.params)}: {r.error}",
              file=sys.stderr)
    if args.out:
        emit(results, args.format, args.out)
        print(f"wrote {len(results)} rows to {args.out}")
    else:
        for r in results:
            print(r.study_id, r.method, dict(r.params), r.log_bf01)
    if failed and args.strict:
        return 2
    return 0


def _cmd_sensitivity(args) -> int:
    rows = sensitivity_curve(args.n, methods=args.method)
    lines = ["y,method,log_bf01,bf01"] + [
        f"{y},{m},{v:.17g},{math.exp(v):.17g}" for (y, m, v) in rows
    ]
    _write_lines(lines, args.out)
    return 0


def _write_density(x_name: str, dg, out) -> None:
    rows = [f"{x_name},density"] + [f"{x:.17g},{v:.17g}" for x, v in zip(dg.x_axis, dg.values)]
    _write_lines(rows, out)


def _write_lines(lines, out) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bf2p",
        description=(
            "Bayes factors for the equality of two binomial proportions "
            "(independent-Beta, logit-transformation, dependent variants)."
        ),
    )
    ap.add_argument("--version", action="version", version=f"bf2p {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bf", help="Bayes factor for one dataset")
    _add_data_flags(p)
    p.add_argument("--method", choices=("ib", "lt", "dep-ib"), default="ib")
    _add_prior_flags(p)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_bf)

    p = sub.add_parser("avg", help="model-averaged Bayes factor")
    _add_data_flags(p)
    _add_prior_flags(p)
    p.add_argument(
        "--weights",
        help="prior model weights 'w(M0_IB),w(M1_IB),w(M0_LT),w(M1_LT)'; default equal",
    )
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_avg)

    p = sub.add_parser("priors", help="induced prior densities and correlations")
    p.add_argument("--config", choices=("ib", "lt", "dep-ib"), required=True)
    p.add_argument(
        "--quantity",
        choices=("correlation", "eta", "psi", "theta", "conditional", "joint"),
        required=True,
    )
    _add_prior_flags(p)
    p.add_argument("--n-draws", type=int, default=1_000_000)
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument(
        "--theta1", type=float, default=0.10,
        help="conditioning value for --quantity conditional",
    )
    p.add_argument(
        "--coords", choices=("theta1-theta2", "theta1-eta", "theta1-psi"),
        default="theta1-theta2", help="axes for --quantity joint",
    )
    p.add_argument("--resolution", type=int, default=128, help="joint grid axis size")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_priors)

    p = sub.add_parser("posterior", help="posterior mean and 95% interval")
    _add_data_flags(p)
    p.add_argument("--method", choices=("ib", "lt"), default="ib")
    p.add_argument("--quantity", choices=("psi", "eta"), default="psi")
    _add_prior_flags(p)
    p.add_argument("--n-draws", type=int, default=200_000)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_posterior)

    p = sub.add_parser("reanalyze", help="batch sweep over a study corpus")
    p.add_argument(
        "--input", default="bundled",
        help="input CSV path, or 'bundled' for the shipped 39-study corpus",
    )
    p.add_argument("--methods", help="comma-separated subset of ib,lt,dep_ib,avg")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument(
        "--strict", action="store_true",
        help="exit with code 2 if any cell fails numerically",
    )
    p.set_defaults(func=_cmd_reanalyze)

    p = sub.add_parser("sensitivity", help="equal-count Bayes factor curves")
    p.add_argument("--n", type=int, default=100, help="per-group sample size")
    p.add_argument(
        "--method", action="append", default=None,
        help="repeatable; defaults to ib and lt",
    )
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_sensitivity)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "method", None) is None and args.command == "sensitivity":
        args.method = ["ib", "lt"]
    try:
        if "seed" in args and args.seed is None:
            args.seed = _seed_default()
        return args.func(args)
    except (ValidationError, ConfigError, DomainError, UnsupportedFeatureError, ParseError, OSError) as exc:
        # OSError: an input file that cannot be read or an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
