"""bf2p benchmark: three workloads, end-to-end timings, a traced per-layer run.

    python3 perfbench/run.py --workload sweep_lt --seed 1 --seconds 30 --trace 0

Workloads (all load is serial and comes from this process):

* ``sweep_lt``: in-process ``run_sweep(batch, methods=("ib", "lt", "avg"))``
  on the default grids, then ``sensitivity_curve(100)``; the batch is the
  bundled corpus plus a seeded synthetic batch (see inputs.py);
* ``sweep_depib``: in-process ``run_sweep(batch, methods=("dep_ib",))`` on
  a seeded batch of moderate-n studies;
* ``cli_session``: a closed loop of fresh ``python -m bf2p.cli``
  subprocesses, one at a time, cycling through six commands.

With ``--trace 0`` the run is untraced and prints the end-to-end
metrics; with ``--trace 1`` it wraps bf2p's public functions (tracer.py)
and prints the per-layer metrics.  Every output is checked against an
independent reference (reference.py, gate.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
The line before it is the run record, also written to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = HERE / "reference_pinned.json"

sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402

WORKLOADS = ("sweep_lt", "sweep_depib", "cli_session")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_PASSES = 3
MIN_CYCLES = 4
#: Distinct study draws for ``cli_session``; later cycles reuse them.
CLI_DATASETS = 30
SENSITIVITY_N = 100
REFINED_KINDS = ("lt0", "lt1", "dep0", "dep1", "corr")


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------


def bf2p_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> dict:
    """Run one child to completion: output, exit code, wall time, peak RSS.

    Wall time runs from spawn to exit; the child is reaped with wait4 so
    its own ``ru_maxrss`` is available.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return {
        "out": out.decode(),
        "err": err[0].decode(),
        "code": proc.returncode,
        "wall": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
    }


def setup_seconds(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter importing bf2p and building inputs."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    walls = []
    for _ in range(SETUP_REPEATS):
        child = run_child(argv, bf2p_env())
        if child["code"] != 0:
            raise RuntimeError(f"set-up probe failed:\n{child['err']}")
        walls.append(child["wall"])
    return statistics.median(walls)


def package_import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative import time of ``package`` from a ``-X importtime`` log.

    Sums the cumulative column over the outermost entries named
    ``package`` or ``package.*``: scipy loads some subpackages lazily, and
    then the log has lines for their submodules but none for the package.
    A package that is not imported reads 0.
    """
    stack: list[tuple[int, float]] = []  # (depth, matched seconds in that subtree)
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        name = field.strip()
        depth = len(field) - len(field.lstrip())
        below = 0.0
        while stack and stack[-1][0] > depth:
            below += stack.pop()[1]
        matched = name == package or name.startswith(package + ".")
        stack.append((depth, int(cumulative) / 1e6 if matched else below))
    return sum(s for _, s in stack)


def import_times() -> dict[str, tuple[float, str]]:
    """Import times of bf2p, scipy.stats and scipy.integrate.

    Each is the median over IMPORT_REPEATS runs of
    ``python -X importtime -c 'import bf2p'``.
    """
    wanted = {"bf2p": [], "scipy.stats": [], "scipy.integrate": []}
    for _ in range(IMPORT_REPEATS):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import bf2p"], bf2p_env())
        if child["code"] != 0:
            raise RuntimeError(f"import probe failed:\n{child['err']}")
        for name, vals in wanted.items():
            vals.append(package_import_seconds(child["err"], name))
    return {f"import.{name}_s": (statistics.median(v), "s") for name, v in wanted.items()}


def load_references(keys, workload: str, seed: int) -> dict:
    """Pinned references, the per-seed cache, and a child run for the rest."""
    refs = json.loads(PINNED.read_text(encoding="utf-8")) if PINNED.is_file() else {}
    cache = OUT / "cache" / f"{workload}-{seed}.json"
    if cache.is_file():
        refs.update(json.loads(cache.read_text(encoding="utf-8")))
    missing = sorted(set(keys) - set(refs))
    if missing:
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py"), "--out", str(tmp)],
            cwd=ROOT, input=json.dumps(missing), text=True, capture_output=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"reference computation failed:\n{proc.stderr}")
        fresh = json.loads(tmp.read_text(encoding="utf-8"))
        old = json.loads(cache.read_text(encoding="utf-8")) if cache.is_file() else {}
        cache.write_text(json.dumps({**old, **fresh}), encoding="utf-8")
        tmp.unlink()
        refs.update(fresh)
    # these kinds come as [value, gap]; a reference that has not converged
    # cannot judge the program
    unconverged = [k for k in keys if k.split("|")[0] in REFINED_KINDS and refs[k][1] > 1e-9]
    if unconverged:
        raise RuntimeError(f"reference did not converge for {unconverged[:5]}")
    return refs


def build_inputs(workload: str, seed: int):
    """bf2p objects for a workload: (batch, mirror pairs) or the CLI commands."""
    if workload == "cli_session":
        return inputs.cli_commands(seed, CLI_DATASETS)
    from bf2p import reanalysis
    from bf2p.model import TwoByTwoData

    if workload == "sweep_lt":
        studies, pairs = inputs.sweep_lt_studies(seed)
        corpus = reanalysis.load_bundled_corpus()
    else:
        studies, pairs, corpus = inputs.sweep_depib_studies(seed), [], []
    batch = corpus + [reanalysis.StudyRecord(i, label, TwoByTwoData(*d)) for i, label, d in studies]
    return batch, pairs


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q) - 1]


def traced_pairs(run, pairs: int):
    """Alternate ``pairs`` untraced and traced calls of ``run``.

    ``run()`` returns (wall seconds, output).  Per-layer metrics come
    from the last traced call; ``trace.overhead_frac`` compares the
    median traced and untraced wall times, since one call is short
    against the machine's own drift.
    """
    untraced, traced = [], []
    for _ in range(pairs):
        untraced.append(run()[0])
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall, output = run()
        finally:
            tracer.restore()
        traced.append(wall)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1.0, "frac")
    return metrics, {"untraced_s": untraced, "traced_s": traced, "tracer": tracer}, output


# --------------------------------------------------------------------------
# sweep workloads
# --------------------------------------------------------------------------


def sweep(workload: str, seed: int, seconds: float, traced: bool):
    from bf2p import reanalysis

    methods = ("ib", "lt", "avg") if workload == "sweep_lt" else ("dep_ib",)
    batch, pairs = build_inputs(workload, seed)
    data_of = {s.id: (s.data.y1, s.data.n1, s.data.y2, s.data.n2) for s in batch}
    grids = reanalysis.default_grids()
    cells = [(data_of[s.id], m, p) for s in batch for m in methods for p in grids[m]]
    sens = SENSITIVITY_N if workload == "sweep_lt" else 0
    sens_cells = [((y, sens, y, sens), m, p) for y in range(sens // 2 + 1) for m, p in gate.SENSITIVITY_PARAMS.items()] if sens else []
    keys = {k for d, m, p in cells + sens_cells for k in gate.cell_keys(m, d, p)}
    checker = gate.Gate(load_references(keys, workload, seed), gate.KnownFailures(HERE / "known_failures.json"))

    main = methods[1] if workload == "sweep_lt" else methods[0]
    reanalysis.run_sweep(batch[:1], methods=(main,), grids={main: grids[main][:1]})  # warm-up cell

    def one_pass():
        t0 = time.perf_counter()
        results = reanalysis.run_sweep(batch, methods=methods, jobs=1)
        rows = reanalysis.sensitivity_curve(sens) if sens else []
        wall = time.perf_counter() - t0
        checker.check_sweep(results, len(cells), data_of, pairs)
        if sens:
            checker.check_sensitivity(rows, sens)
        return wall, results

    ops = len(cells) + len(sens_cells)
    if not traced:
        walls = []
        start = time.perf_counter()
        while True:
            walls.append(one_pass()[0])
            elapsed = time.perf_counter() - start
            if len(walls) >= MIN_PASSES and elapsed + 0.5 * statistics.median(walls) >= seconds:
                break
        per_op = [1000.0 * w / ops for w in walls]
        metrics = {
            "sweep_s": (statistics.median(walls), "s"),
            "cmd_ms_p50": (statistics.median(per_op), "ms"),
            "cmd_ms_p75": (percentile(per_op, 75), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return checker, metrics, {"passes": len(walls), "pass_seconds": walls, "operations_per_pass": ops}

    metrics, extra, results = traced_pairs(one_pass, pairs=2)
    metrics["reanalysis.cells"] = (len(results) + len(sens_cells), "count")
    metrics["reanalysis.cells_failed"] = (sum(r.error is not None for r in results), "count")
    return checker, metrics, extra


# --------------------------------------------------------------------------
# CLI workload
# --------------------------------------------------------------------------


def cli_session(seed: int, seconds: float, traced: bool):
    commands = build_inputs("cli_session", seed)
    keys = {k for kind, d, _ in commands for k in gate.cli_keys(kind, d)}
    checker = gate.Gate(load_references(keys, "cli_session", seed), gate.KnownFailures(HERE / "known_failures.json"))
    per_cycle = len(inputs.CLI_KINDS)
    env = bf2p_env()

    def subprocess_cycle(c: int):
        walls, rss = [], []
        for kind, d, argv in commands[(c % CLI_DATASETS) * per_cycle:][:per_cycle]:
            child = run_child([sys.executable, "-m", "bf2p.cli", *argv], env)
            checker.check_cli(kind, d, argv, child["code"], child["out"])
            walls.append(child["wall"])
            rss.append(child["rss_mb"])
        return walls, rss

    if not traced:
        walls, rss, cycles = [], [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            w, r = subprocess_cycle(len(cycles))
            cycles.append(time.perf_counter() - t0)
            walls += w
            rss += r
            elapsed = time.perf_counter() - start
            if len(cycles) >= MIN_CYCLES and elapsed + 0.5 * statistics.median(cycles) >= seconds:
                break
        ms = [1000.0 * w for w in walls]
        metrics = {
            "sweep_s": (statistics.median(cycles), "s"),
            "cmd_ms_p50": (statistics.median(ms), "ms"),
            "cmd_ms_p75": (percentile(ms, 75), "ms"),
            "peak_rss_mb": (max(rss), "MB"),
        }
        return checker, metrics, {"cycles": len(cycles), "commands": len(walls), "command_ms": ms}

    sub_walls, _ = subprocess_cycle(0)
    from bf2p import cli

    def in_process_cycle():
        t0 = time.perf_counter()
        outputs = []
        for kind, d, argv in commands[:per_cycle]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            outputs.append((kind, d, argv, code, buf.getvalue()))
        return time.perf_counter() - t0, outputs

    in_process_cycle()  # warm-up: caches start cold only in the subprocesses
    metrics, extra, outputs = traced_pairs(in_process_cycle, pairs=3)
    for kind, d, argv, code, out in outputs:
        checker.check_cli(kind, d, argv, code, out)
    metrics["reanalysis.cells"] = (0, "count")
    metrics["reanalysis.cells_failed"] = (0, "count")
    extra["subprocess_cmd_ms_p50"] = 1000.0 * statistics.median(sub_walls)
    return checker, metrics, extra


# --------------------------------------------------------------------------
# split check
# --------------------------------------------------------------------------


def split_check(workload: str, metrics: dict, extra: dict) -> tuple[dict, dict]:
    """Shares the traced run attributes to its main layer, and whether they match.

    Expected from earlier measurements: on ``sweep_lt`` LT spans cover at
    least 80% of a pass; on ``cli_session`` ``import bf2p`` is at least
    70% of the median command; on ``sweep_depib`` the dep-IB H1 marginal
    dominates (more than half of a pass).
    """
    tracer = extra["tracer"]
    traced = extra["traced_s"][-1]  # the pass or cycle the tracer saw
    shares = {
        "split.lt_share_of_pass": tracer.busy("lt.") / traced,
        "split.dep_ib_h1_share_of_pass": metrics["dep_ib.h1_s"][0] / traced,
        "split.import_share_of_cmd_p50": (
            metrics["import.bf2p_s"][0] / (extra["subprocess_cmd_ms_p50"] / 1000.0)
            if workload == "cli_session"
            else 0.0
        ),
    }
    rule = {
        "sweep_lt": ("split.lt_share_of_pass", 0.8),
        "sweep_depib": ("split.dep_ib_h1_share_of_pass", 0.5),
        "cli_session": ("split.import_share_of_cmd_p50", 0.7),
    }[workload]
    share = shares[rule[0]]
    check = {"metric": rule[0], "share": share, "expected_at_least": rule[1], "matches": share >= rule[1]}
    return {k: (v, "frac") for k, v in shares.items()}, check


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bf2p benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bf2p" / "__init__.py").is_file():
        print(f"error: bf2p sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    traced = bool(args.trace)

    metrics: dict[str, tuple[float, str]] = {}
    if not traced:
        metrics["setup_s"] = (setup_seconds(args.workload, args.seed), "s")
    else:
        metrics.update(import_times())
    if args.workload == "cli_session":
        checker, measured, extra = cli_session(args.seed, args.seconds, traced)
    else:
        checker, measured, extra = sweep(args.workload, args.seed, args.seconds, traced)
    metrics.update(measured)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "known_failed": checker.known_failed,
        "failures": checker.failures,
    }
    if traced:
        metrics.update(checker.accuracy_metrics())
        shares, record["split_check"] = split_check(args.workload, metrics, extra)
        metrics.update(shares)
        tracer = extra.pop("tracer")
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    record.update(extra)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(json.dumps({"run_record": record}))
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
