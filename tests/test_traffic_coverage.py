"""``tools/traffic_coverage.py``: one seed's line record covers every module of ``bf2p``,
and that seed's benchmark traffic enters the function bodies of each."""

import json
import os
import subprocess
import sys
from pathlib import Path

import bf2p

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(bf2p.__file__).resolve().parent


def test_seed_one_lists_every_module(tmp_path):
    out = tmp_path / "traffic.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "traffic_coverage.py"), "--seeds", "1", "--out", str(out)],
        env=env, check=True, capture_output=True,
    )
    result = json.loads(out.read_text())
    assert result["seeds"] == [1]
    assert set(result["modules"]) == {p.stem for p in PACKAGE.glob("*.py")}
    for name, m in result["modules"].items():
        executable, hit = set(m["executable"]), set(m["hit"])
        assert hit <= executable, name
        assert set(m["never_hit"]) == executable - hit, name
        assert hit, f"{name}: no line recorded, so tracing began after its import"
        body = set(m["body"])
        assert body <= executable, name
        # a shipped module whose functions the benchmark never enters is test-only code
        assert not body or body & hit, f"{name}: the traffic runs none of its {len(body)} function-body lines"
