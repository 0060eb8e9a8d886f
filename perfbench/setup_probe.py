"""Set-up probe: a fresh interpreter imports bf2p and builds one workload's inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this script from spawn to exit to get ``setup_s``;
it expects ``src`` on ``PYTHONPATH``.
"""

import sys

import bf2p  # noqa: F401  (the import is what is being timed)
from run import build_inputs

if __name__ == "__main__":
    build_inputs(sys.argv[1], int(sys.argv[2]))
