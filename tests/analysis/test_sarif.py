"""SARIF 2.1.0 output: schema shape, rule metadata, fingerprints."""

import io
import json

from repro.analysis.cli import main
from repro.analysis.sarif import FINGERPRINT_KEY, SARIF_VERSION


def run_sarif(argv):
    out = io.StringIO()
    code = main(argv + ["--format", "sarif"], out=out)
    return code, json.loads(out.getvalue())


def make_dirty(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text("import time\nt = time.time()\n")
    return tmp_path


def test_sarif_shape_on_findings(tmp_path):
    root = make_dirty(tmp_path)
    code, doc = run_sarif([str(root)])
    assert code == 1

    assert doc["version"] == SARIF_VERSION
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(doc["runs"]) == 1
    run = doc["runs"][0]

    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.analysis"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert "DET001" in rule_ids and "SEC002" in rule_ids
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]

    assert len(run["results"]) == 1
    result = run["results"][0]
    assert result["ruleId"] == "DET001"
    # ruleIndex must agree with the driver's rule table.
    assert driver["rules"][result["ruleIndex"]]["id"] == "DET001"
    assert result["level"] == "error"
    assert result["message"]["text"]
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 2
    assert region["startColumn"] >= 1  # SARIF columns are 1-based
    assert result["partialFingerprints"][FINGERPRINT_KEY]

    invocation = run["invocations"][0]
    assert invocation["executionSuccessful"] is False


def test_sarif_clean_run(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
    code, doc = run_sarif([str(tmp_path)])
    assert code == 0
    run = doc["runs"][0]
    assert run["results"] == []
    assert run["invocations"][0]["executionSuccessful"] is True


def test_sarif_reports_parse_errors_as_notifications(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "broken.py").write_text("def oops(:\n")
    code, doc = run_sarif([str(tmp_path)])
    assert code == 1
    notes = doc["runs"][0]["invocations"][0]["toolExecutionNotifications"]
    assert len(notes) == 1
    assert "broken.py" in notes[0]["message"]["text"]


def test_sarif_reports_unused_suppressions_as_notifications(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ok.py").write_text(
        "x = 1  # repro: allow(DET001) — nothing to allow\n")
    code, doc = run_sarif([str(tmp_path)])
    assert code == 1
    invocation = doc["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    (note,) = invocation["toolExecutionNotifications"]
    assert "unused suppression" in note["message"]["text"]


def test_fingerprint_survives_line_drift(tree):
    """partialFingerprints keep a finding's identity when unrelated code
    above it shifts its line."""
    from repro.analysis.rules import get_rules

    source = "import time\nt = time.time()\n"
    tree.write("repro/hw/drift.py", source)
    before = tree.run(get_rules()).findings[0]
    tree.write("repro/hw/drift.py", "PAD = 1\nPAD2 = 2\n" + source)
    after = tree.run(get_rules()).findings[0]
    assert before.line != after.line
    assert before.fingerprint == after.fingerprint
