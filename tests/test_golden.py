"""Every output of the golden call list (scripts/golden.py) against the
recorded manifest, tests/golden.json: exit codes, stdout and stderr as
text, and each written file by SHA-256."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("golden", ROOT / "scripts" / "golden.py")
golden = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden)

RECORDED = json.loads(golden.MANIFEST.read_text())


def test_manifest_covers_the_call_list():
    assert [entry["argv"] for entry in RECORDED] == golden.calls()


@pytest.mark.parametrize("entry", RECORDED, ids=lambda entry: " ".join(entry["argv"]))
def test_call_matches_manifest(entry, tmp_path):
    assert golden.run(entry["argv"], tmp_path) == entry
