"""Span tracer for the benchmark's traced run.

The tracer wraps bf2p's public functions from the outside: it rebinds
module attributes, including names bound by ``from .x import y``, so no
file under ``src/`` changes.  Three kinds of wrapper exist:

* span: records (id, parent id, name, start, end) and the time its
  child spans cover, so self time is duration minus that time;
* leaf: for hot integrands; aggregates calls, array points and time per
  name and charges the time to the enclosing span as child time;
* count: counts calls only (``validate_data``).

Spans are kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "child")

    def __init__(self, sid, parent, name, start):
        self.id, self.parent, self.name, self.start = sid, parent, name, start
        self.end = start
        self.child = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0, 0.0])  # calls, points, s
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            label = name if isinstance(name, str) else name(args, kwargs)
            span = Span(len(self.spans), parent.id if parent else None, label, perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.seconds

        return wrapper

    def _leaf(self, name, points_arg):
        agg = self.leaves[name]

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    agg[0] += 1
                    agg[1] += int(np.size(args[points_arg]))
                    agg[2] += dt
                    if self._stack:
                        self._stack[-1].child += dt

            return wrapper

        return make

    def _count(self, name):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    # -- patching ----------------------------------------------------------

    def _patch(self, original, make, modules):
        """Rebind every attribute of ``modules`` that is ``original``."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, make(original))

    def install(self) -> None:
        """Wrap the public entry points of every loaded bf2p module.

        ``bf2p.oracle`` is left alone: only the tests use it.
        """
        mods = [
            m
            for name, m in sorted(sys.modules.items())
            if (name == "bf2p" or name.startswith("bf2p.")) and name != "bf2p.oracle"
        ]
        by_name = {m.__name__: m for m in mods}
        spans = {
            "bf2p.reanalysis": {"run_sweep": None, "sensitivity_curve": None},
            "bf2p.ib": {"bf01_ib": None, "log_ml_h0_ib": None, "log_ml_h1_ib": None, "ib_posterior": None},
            "bf2p.lt": {"bf01_lt": None, "log_ml_h0_lt": None, "log_ml_h1_lt": None, "find_mode_and_scale": _mode_name},
            "bf2p.dep_ib": {
                "bf01_depib": None,
                "log_ml_h0_depib": "dep_ib.h0",
                "log_ml_h1_depib": "dep_ib.h1",
                "prior_correlation_depib": "priors.prior_correlation",
            },
            "bf2p.averaging": {"bf_avg01": None, "log_ml": None},
            "bf2p.posterior": {"posterior_grid_lt": "posterior.grid_lt", "summarize_posterior": "posterior.summarize"},
            "bf2p.priors": {"marginal_density": None, "prior_correlation": None},
            "bf2p.cli": {"main": None},
        }
        for modname, funcs in spans.items():
            home = by_name.get(modname)
            if home is None:
                continue
            short = modname.split(".")[1]
            for attr, label in funcs.items():
                label = label or f"{short}.{attr}"
                self._patch(getattr(home, attr), lambda fn, label=label: self._span(label, fn), mods)
        lt, dep_ib = by_name["bf2p.lt"], by_name["bf2p.dep_ib"]
        self._patch(lt.log_integrand_h0_lt, self._leaf("lt.integrand", 1), mods)
        self._patch(lt.log_integrand_h1_lt, self._leaf("lt.integrand", 1), mods)
        # only calls made through the dep_ib namespace are the dep-IB integrand
        self._patch(dep_ib.log_density_truncated_gaussian, self._leaf("dep_ib.integrand", 0), [dep_ib])
        self._patch(by_name["bf2p.model"].validate_data, self._count("model.validate_data"), mods)

    def restore(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def seconds(self, *names: str) -> float:
        return sum(s.seconds for s in self.spans if s.name in names)

    def self_seconds(self, *names: str) -> float:
        return sum(s.self_seconds for s in self.spans if s.name in names)

    def calls(self, *names: str) -> int:
        return sum(1 for s in self.spans if s.name in names)

    def busy(self, prefix: str) -> float:
        """Wall time inside spans named ``prefix.*``, not counting nested ones twice."""
        names = {s.id: s.name for s in self.spans}
        return sum(
            s.seconds
            for s in self.spans
            if s.name.startswith(prefix) and not (s.parent is not None and names[s.parent].startswith(prefix))
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start, "end": s.end, "self": s.self_seconds}
                    )
                    + "\n"
                )
            for name, (calls, points, secs) in sorted(self.leaves.items()):
                fh.write(json.dumps({"leaf": name, "calls": calls, "points": points, "seconds": secs}) + "\n")
            for name, calls in sorted(self.counts.items()):
                fh.write(json.dumps({"count": name, "calls": calls}) + "\n")


def _mode_name(args, kwargs) -> str:
    hyp = args[1] if len(args) > 1 else kwargs["hypothesis"]
    return f"lt.mode_{hyp.value}"


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run (values, units)."""
    lt_leaf = tr.leaves.get("lt.integrand", [0, 0, 0.0])
    dep_leaf = tr.leaves.get("dep_ib.integrand", [0, 0, 0.0])
    lt_marginals = ("lt.bf01_lt", "lt.log_ml_h0_lt", "lt.log_ml_h1_lt")
    ib_names = ("ib.bf01_ib", "ib.log_ml_h0_ib", "ib.log_ml_h1_ib", "ib.ib_posterior")
    return {
        "cli.main_s": (tr.seconds("cli.main"), "s"),
        "reanalysis.self_s": (tr.self_seconds("reanalysis.run_sweep", "reanalysis.sensitivity_curve"), "s"),
        "lt.bf01_lt.calls": (tr.calls("lt.bf01_lt"), "count"),
        "lt.mode_h0.calls": (tr.calls("lt.mode_h0"), "count"),
        "lt.mode_h1.calls": (tr.calls("lt.mode_h1"), "count"),
        "lt.mode_s": (tr.seconds("lt.mode_h0", "lt.mode_h1"), "s"),
        "lt.integrand.calls": (lt_leaf[0], "count"),
        "lt.integrand.points": (lt_leaf[1], "count"),
        "lt.integrand_s": (lt_leaf[2], "s"),
        "lt.quad_self_s": (tr.self_seconds(*lt_marginals), "s"),
        "dep_ib.h0_s": (tr.seconds("dep_ib.h0"), "s"),
        "dep_ib.h1_s": (tr.seconds("dep_ib.h1"), "s"),
        "dep_ib.integrand.calls": (dep_leaf[0], "count"),
        "dep_ib.integrand.points": (dep_leaf[1], "count"),
        "averaging.log_ml.calls": (tr.calls("averaging.log_ml"), "count"),
        "averaging.self_s": (tr.self_seconds("averaging.bf_avg01", "averaging.log_ml"), "s"),
        "ib.calls": (tr.calls(*ib_names), "count"),
        "ib.busy_s": (tr.busy("ib."), "s"),
        "model.validate_data.calls": (tr.counts.get("model.validate_data", 0), "count"),
        "posterior.grid_lt_s": (tr.seconds("posterior.grid_lt"), "s"),
        "posterior.summarize_s": (tr.seconds("posterior.summarize"), "s"),
        "priors.marginal_density_s": (tr.seconds("priors.marginal_density"), "s"),
        "priors.prior_correlation_s": (tr.seconds("priors.prior_correlation"), "s"),
    }
