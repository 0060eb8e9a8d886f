"""``tools/traffic_coverage.py``: one seed's line record covers every module of ``bf2p``,
and that seed's benchmark traffic enters the function bodies of each; and every name
``bf2p`` exports is used by the package, its tools, its benchmark or the acceptance tests."""

import ast
import json
import os
import re
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


def test_every_export_has_a_user_beyond_the_unit_tests():
    # a name is used in src/ where code loads it outside its own definition (not in a docstring or
    # __all__), and elsewhere where any of the files names it: perfbench wraps names by string
    exports = {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    loaded = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem != "__init__":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Name, ast.Attribute)):
                    loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    others = [*(ROOT / "tools").glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    text = "\n".join(p.read_text(encoding="utf-8") for p in others)
    unused = sorted(n for n in exports - loaded if not re.search(rf"\b{re.escape(n)}\b", text))
    assert not unused, f"exported but used only by unit tests: {unused}"
