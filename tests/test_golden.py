"""Every artifact and stdout of a fixed command set, against tests/golden.json.

A refactor keeps ``report.json``, ``model.json`` and the rest byte-identical
on the synthetic fixture unless it names the change. To record a named
change, run ``PYTHONPATH=src python scripts/update_golden.py``.
"""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "update_golden.py"


def load_script():
    spec = importlib.util.spec_from_file_location("update_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_artifacts_match_the_golden_manifest(tmp_path):
    golden = load_script()
    expected = json.loads(golden.GOLDEN.read_text())
    got = golden.manifest(tmp_path)
    want, have = expected["files"], got["files"]
    differences = {
        "changed": sorted(p for p in want.keys() & have.keys() if want[p] != have[p]),
        "missing": sorted(want.keys() - have.keys()),
        "new": sorted(have.keys() - want.keys()),
        "stdout of": sorted(
            c for c in expected["stdout"].keys() | got["stdout"].keys()
            if expected["stdout"].get(c) != got["stdout"].get(c)
        ),
    }
    differences = {what: names for what, names in differences.items() if names}
    assert not differences, (
        f"artifacts differ from tests/golden.json: {differences}; the manifest was made "
        f"with Python {expected['python']} and numpy {expected['numpy']}, this run used "
        f"Python {got['python']} and numpy {got['numpy']}"
    )
