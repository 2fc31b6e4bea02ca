"""CLI behaviour: exit codes, --json schema, baseline flags."""

import io
import json
import subprocess
import sys

from repro.analysis.cli import JSON_SCHEMA_VERSION, main

DIRTY = """\
import time
t = time.time()
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def make_dirty(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(DIRTY)
    return tmp_path


def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
    code, text = run_cli([str(tmp_path), "--no-baseline"])
    assert code == 0
    assert "clean" in text


def test_findings_exit_one(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--no-baseline"])
    assert code == 1
    assert "DET001" in text
    assert "FAILED" in text


def test_missing_path_exits_two(tmp_path):
    code, text = run_cli([str(tmp_path / "nowhere")])
    assert code == 2
    assert "no such path" in text


def test_unknown_rule_exits_two_and_names_it(tmp_path):
    code, text = run_cli([str(tmp_path), "--rules", "NOPE999"])
    assert code == 2
    assert "NOPE999" in text
    assert "SEC002" in text  # the known ids are listed for correction


def test_unknown_rule_reported_among_valid_ones(tmp_path):
    code, text = run_cli([str(tmp_path), "--rules", "TB001,NOPE999,SEC003"])
    assert code == 2
    assert "NOPE999" in text


def test_rules_filter(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--no-baseline", "--rules", "TB001"])
    assert code == 0  # DET001 not selected, so the clock read passes


def test_list_rules(tmp_path):
    code, text = run_cli(["--list-rules"])
    assert code == 0
    for rule_id in ("TB001", "DET001", "CYC001", "ERR001", "SEC001", "API001"):
        assert rule_id in text


def test_json_schema_is_stable(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--no-baseline", "--json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "repro.analysis"
    assert set(payload) == {
        "schema_version", "tool", "rules", "files_checked", "findings",
        "stale_baseline", "parse_errors", "counts", "clean",
    }
    finding = payload["findings"][0]
    assert set(finding) == {
        "rule", "path", "line", "col", "context", "message", "snippet",
        "fingerprint",
    }
    assert finding["rule"] == "DET001"
    assert finding["snippet"] == "t = time.time()"
    assert payload["counts"]["findings"] == 1
    assert payload["clean"] is False


def test_write_baseline_then_clean(tmp_path):
    root = make_dirty(tmp_path)
    baseline = tmp_path / "bl.json"
    code, text = run_cli([str(root), "--baseline", str(baseline),
                          "--write-baseline", "legacy clock until PR 9"])
    assert code == 0
    assert baseline.exists()

    code, text = run_cli([str(root), "--baseline", str(baseline)])
    assert code == 0

    # Fix the violation: the baseline entry goes stale and fails.
    (root / "repro" / "hw" / "clock.py").write_text("t = 0\n")
    code, text = run_cli([str(root), "--baseline", str(baseline)])
    assert code == 1
    assert "stale baseline entry" in text


def test_write_baseline_requires_reason(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--write-baseline", "  "])
    assert code == 2


def test_format_sarif_flag(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--no-baseline", "--format", "sarif"])
    assert code == 1
    doc = json.loads(text)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "DET001"


def test_json_flag_is_an_alias_for_format_json(tmp_path):
    root = make_dirty(tmp_path)
    _, via_json = run_cli([str(root), "--no-baseline", "--json"])
    _, via_format = run_cli([str(root), "--no-baseline", "--format", "json"])
    assert json.loads(via_json) == json.loads(via_format)


def _git(root, *args):
    subprocess.run(
        ["git", "-C", str(root), "-c", "user.email=t@t", "-c",
         "user.name=t", *args],
        check=True, capture_output=True)


def test_changed_only_checks_only_changed_files(tmp_path, monkeypatch):
    root = make_dirty(tmp_path)
    (root / "pyproject.toml").write_text(
        "[tool.repro-analysis]\npaths = [\"repro\"]\n")
    (root / "repro" / "hw" / "stable.py").write_text("x = 1\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "seed")
    monkeypatch.chdir(root)

    # Nothing changed: nothing rule-checked, exit 0.
    code, text = run_cli(["--no-baseline", "--changed-only"])
    assert code == 0
    assert "0 finding(s)" in text

    # Touch only the clock module: its DET001 comes back, stable.py
    # stays out of the checked count.
    clock = root / "repro" / "hw" / "clock.py"
    clock.write_text(clock.read_text() + "u = time.time()\n")
    code, text = run_cli(["--no-baseline", "--changed-only"])
    assert code == 1
    assert "DET001" in text
    assert "1 files" in text

    # Untracked files count as changed too.
    (root / "repro" / "hw" / "fresh.py").write_text("y = 2\n")
    code, text = run_cli(["--no-baseline", "--changed-only"])
    assert "2 files" in text


def test_changed_only_bad_ref_exits_two(tmp_path, monkeypatch):
    root = make_dirty(tmp_path)
    (root / "pyproject.toml").write_text(
        "[tool.repro-analysis]\npaths = [\"repro\"]\n")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-qm", "seed")
    monkeypatch.chdir(root)
    code, text = run_cli(["--no-baseline", "--changed-only",
                          "--since", "no-such-ref"])
    assert code == 2
    assert "error:" in text


def test_module_entry_point_runs():
    """`python -m repro.analysis --list-rules` is wired up."""
    import os
    from pathlib import Path

    import repro

    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "--list-rules"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "TB001" in proc.stdout
