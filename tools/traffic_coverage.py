"""Record which lines of ``bf2p`` the benchmark's own inputs execute.

For each seed the inputs are rebuilt by ``perfbench/run.py``'s
``build_inputs`` (read-only) and run in this process as the benchmark
runs them: the ``sweep_lt`` batch through ``run_sweep`` under ib, lt and
avg plus ``sensitivity_curve``, the ``sweep_depib`` batch under dep_ib,
and one cycle of ``cli_commands`` through ``bf2p.cli.main``.  Executed
lines of ``src/bf2p/*.py`` are recorded with ``sys.settrace``, which is
set before ``bf2p`` is imported, so import-time lines count too.  The
executable lines of a module are the line numbers of its compiled code
objects.  The output gives, per module, the executable lines, the lines
hit and the lines never hit, and its function-body lines (those that do
not run at import time).

    PYTHONPATH=src python3 tools/traffic_coverage.py --seeds 1 2 3 --out traffic.json
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import inspect
import io
import json
import sys
from collections import defaultdict
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
#: Methods of each sweep workload, as ``perfbench/run.py``'s ``sweep`` runs them.
SWEEPS = {"sweep_lt": ("ib", "lt", "avg"), "sweep_depib": ("dep_ib",)}


def executable_lines(path: Path) -> tuple[set[int], set[int]]:
    """(all lines, function-body lines) that carry bytecode in the module at ``path``.

    Function-body lines belong to code objects with ``CO_OPTIMIZED`` set
    (functions, not module or class bodies), less the lines a module or
    class body also owns: ``def`` lines, defaults and decorators, which
    run at import time.
    """
    owned = {True: set(), False: set()}  # by whether the code object is a function
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        owned[bool(code.co_flags & inspect.CO_OPTIMIZED)].update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return owned[True] | owned[False], owned[True] - owned[False]


def run_traffic(seeds) -> None:
    """Run the benchmark's inputs for ``seeds`` through ``bf2p``."""
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True  # no __pycache__ in perfbench/
    import run as bench

    from bf2p import cli, reanalysis

    for seed in seeds:
        for workload, methods in SWEEPS.items():
            batch, _ = bench.build_inputs(workload, seed)
            reanalysis.run_sweep(batch, methods=methods)
        reanalysis.sensitivity_curve(bench.SENSITIVITY_N)
        for _, _, argv in bench.inputs.cli_commands(seed, 1):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)


def trace(seeds) -> dict:
    """Per module of ``bf2p``: executable lines, lines hit and lines never hit."""
    package = Path(importlib.util.find_spec("bf2p").origin).parent
    if "bf2p" in sys.modules:
        raise RuntimeError("bf2p was imported before tracing started")
    files = {str(p): p.stem for p in sorted(package.glob("*.py"))}
    hit = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hit[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(on_call)
    try:
        run_traffic(seeds)
    finally:
        sys.settrace(None)
    modules = {}
    for path, name in files.items():
        lines, body = executable_lines(Path(path))
        modules[name] = {
            "executable": sorted(lines),
            "hit": sorted(hit[path]),
            "never_hit": sorted(lines - hit[path]),
            "body": sorted(body),
        }
    return {"seeds": list(seeds), "modules": modules}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3], help="benchmark seeds (default 1 2 3)")
    ap.add_argument("--out", required=True, help="JSON file to write")
    args = ap.parse_args(argv)
    result = trace(args.seeds)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for name, m in result["modules"].items():
        body_hit = set(m["body"]) & set(m["hit"])
        print(
            f"{name}: {len(m['hit'])} of {len(m['executable'])} lines hit,"
            f" {len(body_hit)} of {len(m['body'])} function-body lines",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
