"""Command-line interface: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings / unused suppressions / parse errors,
2 usage errors (printed to stderr).  With no paths the installed
``repro`` package is analysed.  A run with the full rule set also
fails on inline allows that matched no finding; ``--rules`` narrows
the run and skips that check, since an allow for an unselected rule
would look unused.  ``--format json`` emits a stable machine-readable
report (schema version in the payload); ``--format sarif`` emits
SARIF 2.1.0 for code-scanning consumers.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import cli
from repro.analysis.engine import REPO_ROOT, SRC_REPRO, Analyzer, Report
from repro.analysis.rules import ALL_RULES, get_rules
from repro.analysis.sarif import as_sarif

#: Bump when the --format json payload shape changes.
JSON_SCHEMA_VERSION = 5


def _existing_path(text: str) -> Path:
    path = Path(text)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"no such path: {text}")
    return path


def _rule_set(text: str) -> List[object]:
    try:
        return get_rules(cli.comma_list(text))
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis", allow_abbrev=False,
        description="Static invariant checker for the Overshadow "
                    "reproduction (trust boundary, determinism, cycle "
                    "accounting, exception/secret hygiene, layering).",
    )
    parser.add_argument("paths", nargs="*", type=_existing_path,
                        default=[SRC_REPRO],
                        help="files/directories to analyse (default: the "
                             "repro package, src/repro)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text",
                        help="report format (default: text)")
    parser.add_argument("--rules", metavar="IDS", type=_rule_set,
                        help="comma-separated rule ids to run (default: "
                             "all, which also fails on unused allows)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list available rules and exit")
    parser.add_argument("--sanitize-run", metavar="WORKLOAD",
                        help="replay a benchmark workload with the "
                             "dynamic STATE001/MMU001 sanitizer attached "
                             "and differentially compare with the static "
                             "verdict (workloads: mb-suite)")
    return parser


def _print_human(report: Report, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=out)
    for path, line, rule_id in report.unused_suppressions:
        print(f"unused suppression {path}:{line}: allow for {rule_id} "
              "matched no finding; remove it or fix the rule id", file=out)
    status = "clean" if report.clean else "FAILED"
    print(
        f"repro.analysis: {status} — {report.files_checked} files, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed",
        file=out,
    )


def _as_json(report: Report, rule_ids: List[str]) -> dict:
    return {
        "schema_version": JSON_SCHEMA_VERSION,
        "tool": "repro.analysis",
        "rules": rule_ids,
        "files_checked": report.files_checked,
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "context": f.context,
                "message": f.message,
                "snippet": f.snippet,
                "fingerprint": f.fingerprint,
            }
            for f in report.findings
        ],
        "unused_suppressions": [
            {"path": path, "line": line, "rule": rule_id}
            for path, line, rule_id in report.unused_suppressions
        ],
        "parse_errors": list(report.parse_errors),
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
        },
        "clean": report.clean,
    }


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args, status = cli.parse(build_parser(), argv)
    if args is None:
        return status

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name}: {rule.summary}", file=out)
        return 0

    if args.sanitize_run is not None:
        from repro.analysis.sanitize import sanitize_run
        return sanitize_run(args.sanitize_run, out)

    rules = args.rules or get_rules()
    report = Analyzer(rules).run(
        args.paths, root=REPO_ROOT,
        collect_unused=len(rules) == len(ALL_RULES))
    if args.format == "json":
        payload = _as_json(report, [r.rule_id for r in rules])
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "sarif":
        print(json.dumps(as_sarif(report, rules), indent=2), file=out)
    else:
        _print_human(report, out)
    return 0 if report.clean else 1
