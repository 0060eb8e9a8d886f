"""``import bf2p`` and the CLI's IB, LT, averaging, prior-density and prior-correlation paths stay on numpy alone.

Importing ``scipy.special`` and ``scipy.integrate`` costs about twice as
much as numpy itself, and a one-off ``bf2p bf`` call is almost all
import.  Each check runs in a fresh interpreter and lists the scipy
modules loaded at its end; only the normal CDFs of dep-IB's marginal
likelihoods and prior draws may load ``scipy.special``, on first use
(its prior correlation takes ``math.erf``).  No module imports
``scipy.integrate``: every integral runs on numpy.  Nor does ``import
bf2p`` load ``multiprocessing``, about 25 ms of imports that only a
sweep with worker processes needs.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bf2p

RARE = ["--y1", "18", "--n1", "493", "--y2", "10", "--n2", "488"]
BOUNDARY = ["--y1", "0", "--n1", "40", "--y2", "3", "--n2", "37"]


def _run(*code_and_args):
    src = str(Path(bf2p.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", *code_and_args], capture_output=True, text=True, env=env, check=True,
    ).stdout


def _cli(argv):
    """(exit code, scipy modules loaded) after ``bf2p.cli.main(argv)`` in a fresh interpreter."""
    out = _run(
        "import json, sys\n"
        "from bf2p.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        *argv,
    )
    code, loaded = json.loads(out.strip().splitlines()[-1])
    return code, loaded


def test_import_does_not_load_scipy_stats():
    out = _run("import bf2p, sys; print('scipy.stats' in sys.modules)")
    assert out.strip() == "False"


def test_import_does_not_load_scipy():
    out = _run("import bf2p, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_import_does_not_load_multiprocessing():
    # run_sweep imports its process pool only when it runs workers
    out = _run(
        "import bf2p, sys; print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    assert out.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["bf", "--method", "ib", *RARE], id="bf-ib-rare"),
        pytest.param(["bf", "--method", "ib", *BOUNDARY], id="bf-ib-boundary"),
        pytest.param(["bf", "--method", "lt", *RARE], id="bf-lt-rare"),
        pytest.param(["bf", "--method", "lt", *BOUNDARY], id="bf-lt-boundary"),
        pytest.param(["avg", *RARE], id="avg-rare"),
        pytest.param(["avg", *BOUNDARY], id="avg-boundary"),
        pytest.param(["posterior", "--method", "lt", *RARE], id="posterior-lt"),
        pytest.param(["priors", "--config", "lt", "--quantity", "correlation"], id="priors-lt-correlation"),
        pytest.param(["priors", "--config", "dep-ib", "--quantity", "correlation"], id="priors-dep-ib-correlation"),
        pytest.param(["priors", "--config", "lt", "--quantity", "eta"], id="priors-lt-eta"),
        pytest.param(["priors", "--config", "lt", "--quantity", "theta"], id="priors-lt-theta"),
        pytest.param(["priors", "--config", "ib", "--quantity", "eta"], id="priors-ib-eta"),
    ],
)
def test_cli_path_does_not_load_scipy(argv):
    assert _cli(argv) == (0, [])


def test_dep_ib_wedge_path_does_not_load_scipy_integrate():
    # BOUNDARY has y1 = 0, so its H1 marginal integrates a clamped wedge
    code, loaded = _cli(["bf", "--method", "dep-ib", *BOUNDARY])
    assert code == 0
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_integrate():
    # checked over the source, so that a path no test reaches is covered too
    package = Path(bf2p.__file__).resolve().parent
    offenders = [
        (p.name, m)
        for p in sorted(package.rglob("*.py"))
        for m in _imported_modules(p)
        if m == "scipy.integrate" or m.startswith("scipy.integrate.")
    ]
    assert offenders == []


def test_dep_ib_path_loads_scipy():
    # control: dep-IB takes its truncated Gaussians' normal CDFs from
    # scipy.special, so the check above would see scipy if a path loaded it
    code, loaded = _cli(["bf", "--method", "dep-ib", *RARE])
    assert code == 0
    assert "scipy.special" in loaded
