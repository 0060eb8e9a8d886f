"""``import bf2p`` stays off ``scipy.stats``, whose import costs over half a second."""

import os
import subprocess
import sys
from pathlib import Path

import bf2p


def test_import_does_not_load_scipy_stats():
    src = str(Path(bf2p.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", "import bf2p, sys; print('scipy.stats' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out.strip() == "False"
