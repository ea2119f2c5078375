"""Replays the golden CLI calls and compares their hashes with the manifest.

A mismatch means a change of output: either a bug, or an intended change
that must be recorded by rerunning ``tests/golden.py``.
"""

import json

import golden


def test_golden_artifacts_unchanged(tmp_path):
    expected = json.loads(golden.MANIFEST.read_text())
    got = golden.replay(tmp_path)
    assert list(got) == list(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert not changed, f"outputs changed: {changed}"
