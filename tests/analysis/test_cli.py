"""CLI behaviour: exit codes, usage errors, the --format json schema."""

import io
import json
import subprocess
import sys

import pytest

from repro.analysis.cli import JSON_SCHEMA_VERSION, main

DIRTY = """\
import time
t = time.time()
"""


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_cli_stderr(argv, capsys):
    """Run the CLI for a usage error: the message goes to stderr."""
    code, text = run_cli(argv)
    assert text == ""
    return code, capsys.readouterr().err


def make_dirty(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "clock.py").write_text(DIRTY)
    return tmp_path


def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "repro").mkdir()
    (tmp_path / "repro" / "ok.py").write_text("x = 1\n")
    code, text = run_cli([str(tmp_path)])
    assert code == 0
    assert "clean" in text


def test_findings_exit_one(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root)])
    assert code == 1
    assert "DET001" in text
    assert "FAILED" in text


def test_missing_path_exits_two(tmp_path, capsys):
    code, text = run_cli_stderr([str(tmp_path / "nowhere")], capsys)
    assert code == 2
    assert "no such path" in text


def test_unknown_rule_exits_two_and_names_it(tmp_path, capsys):
    code, text = run_cli_stderr([str(tmp_path), "--rules", "NOPE999"],
                                capsys)
    assert code == 2
    assert "NOPE999" in text
    assert "SEC002" in text  # the known ids are listed for correction


def test_unknown_rule_reported_among_valid_ones(tmp_path, capsys):
    code, text = run_cli_stderr(
        [str(tmp_path), "--rules", "TB001,NOPE999,SEC003"], capsys)
    assert code == 2
    assert "NOPE999" in text


def test_rules_filter(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--rules", "TB001"])
    assert code == 0  # DET001 not selected, so the clock read passes


def test_list_rules(tmp_path):
    code, text = run_cli(["--list-rules"])
    assert code == 0
    for rule_id in ("TB001", "DET001", "CYC001", "ERR001", "SEC001", "API001"):
        assert rule_id in text


def test_json_schema_is_stable(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--format", "json"])
    assert code == 1
    payload = json.loads(text)
    assert payload["schema_version"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "repro.analysis"
    assert set(payload) == {
        "schema_version", "tool", "rules", "files_checked", "findings",
        "unused_suppressions", "parse_errors", "counts", "clean",
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


def test_format_sarif_flag(tmp_path):
    root = make_dirty(tmp_path)
    code, text = run_cli([str(root), "--format", "sarif"])
    assert code == 1
    doc = json.loads(text)
    assert doc["version"] == "2.1.0"
    assert doc["runs"][0]["results"][0]["ruleId"] == "DET001"


@pytest.mark.parametrize("argv", [
    ["--bogus"],
    ["--rules", "NOPE999"],
    ["no/such/dir"],
])
def test_usage_errors_exit_two_on_stderr(argv, capsys):
    """Malformed argv returns 2 (never raises SystemExit), prints the
    error on stderr, and writes nothing to stdout."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert "error:" in captured.err
    assert captured.out == ""


def test_default_paths_do_not_depend_on_cwd(tmp_path, monkeypatch):
    """With no paths the installed package is analysed, from anywhere."""
    monkeypatch.chdir(tmp_path)
    code, text = run_cli([])
    assert code == 0, text
    assert "repro.analysis: clean" in text


def test_unused_allow_fails_only_the_full_rule_set(tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "fine.py").write_text(
        "# repro: allow(DET001) — nothing here reads a clock\nx = 1\n")
    code, text = run_cli([str(tmp_path)])
    assert code == 1
    assert "fine.py:1: allow for DET001 matched no finding" in text
    assert "FAILED" in text
    # A narrowed run cannot tell an unused allow from one for an
    # unselected rule, so it does not check them.
    code, text = run_cli([str(tmp_path), "--rules", "TB001"])
    assert code == 0, text


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
