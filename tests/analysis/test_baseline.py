"""Baseline mechanics: grandfathering, staleness, validation."""

import json

import pytest

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.rules import get_rules

SOURCE = """\
import time
t = time.time()
"""


def _report(tree, baseline):
    return tree.run(get_rules(), baseline=baseline)


def test_baselined_finding_is_silenced(tree, tmp_path):
    tree.write("repro/hw/legacy.py", SOURCE)
    first = _report(tree, None)
    assert len(first.findings) == 1

    baseline = Baseline.from_findings(first.findings,
                                      reason="grandfathered seed code")
    second = _report(tree, baseline)
    assert second.findings == []
    assert len(second.baselined) == 1
    assert second.clean


def test_stale_entry_is_reported_and_fails(tree):
    tree.write("repro/hw/fixed.py", "x = 1\n")
    # A baseline whose entry matches nothing: the finding was fixed.
    from repro.analysis.baseline import BaselineEntry
    baseline = Baseline([BaselineEntry(
        fingerprint="deadbeefdeadbeef", rule="DET001",
        path="repro/hw/fixed.py", context="<module>",
        message="long gone", reason="was real once")])
    report = _report(tree, baseline)
    assert len(report.stale_baseline) == 1
    assert report.stale_baseline[0].fingerprint == "deadbeefdeadbeef"
    assert not report.clean


def test_fingerprint_survives_line_drift(tree):
    tree.write("repro/hw/drift.py", SOURCE)
    before = _report(tree, None).findings[0]
    # Unrelated code added above shifts lines but not the fingerprint.
    tree.write("repro/hw/drift.py", "PAD = 1\nPAD2 = 2\n" + SOURCE)
    after = _report(tree, None).findings[0]
    assert before.line != after.line
    assert before.fingerprint == after.fingerprint


def test_roundtrip_save_load(tree, tmp_path):
    tree.write("repro/hw/legacy2.py", SOURCE)
    report = _report(tree, None)
    path = tmp_path / "baseline.json"
    Baseline.from_findings(report.findings, reason="known debt").save(path)

    loaded = Baseline.load(path)
    assert len(loaded.entries) == 1
    assert loaded.entries[0].reason == "known debt"
    assert _report(tree, loaded).clean


def test_missing_file_is_empty_baseline(tmp_path):
    baseline = Baseline.load(tmp_path / "nope.json")
    assert baseline.entries == []


def test_entry_without_reason_is_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 2, "entries": [{
        "fingerprint": "abc", "rule": "DET001",
        "path": "x.py", "reason": "   "}]}))
    with pytest.raises(BaselineError, match="justified"):
        Baseline.load(path)


def test_unsupported_version_is_rejected(tmp_path):
    path = tmp_path / "v1.json"
    path.write_text(json.dumps({"version": 1, "entries": [{
        "fingerprint": "abc", "rule": "DET001",
        "path": "x.py", "reason": "grandfathered"}]}))
    with pytest.raises(BaselineError, match="version 1"):
        Baseline.load(path)


def test_malformed_file_is_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("not json at all")
    with pytest.raises(BaselineError):
        Baseline.load(path)
