"""Command-line interface: ``python -m repro.analysis [paths...]``.

Exit codes: 0 clean, 1 findings / stale baseline entries / parse
errors, 2 usage errors.  ``--format json`` (alias ``--json``) emits a
stable machine-readable report (schema version in the payload);
``--format sarif`` emits SARIF 2.1.0 for code-scanning consumers;
``--write-baseline`` grandfathers the current findings with a shared
reason; ``--changed-only`` checks only files git reports changed
against ``--since`` (default ``HEAD``) while still loading the whole
tree for interprocedural summaries.
"""

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline, BaselineError
from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import Analyzer, Report
from repro.analysis.incremental import IncrementalError, changed_files
from repro.analysis.rules import ALL_RULES, get_rules
from repro.analysis.sarif import as_sarif

#: Bump when the --json payload shape changes.
JSON_SCHEMA_VERSION = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static invariant checker for the Overshadow "
                    "reproduction (trust boundary, determinism, cycle "
                    "accounting, exception/secret hygiene, layering).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyse (default: "
                             "[tool.repro-analysis] paths in pyproject.toml)")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        dest="format", default="text",
                        help="report format (default: text)")
    parser.add_argument("--json", action="store_const", const="json",
                        dest="format",
                        help="shorthand for --format json")
    parser.add_argument("--changed-only", action="store_true",
                        help="rule-check only files changed per git "
                             "(the whole tree is still loaded for "
                             "interprocedural summaries)")
    parser.add_argument("--since", metavar="REF", default="HEAD",
                        help="base ref for --changed-only "
                             "(default: HEAD)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="baseline file of grandfathered findings")
    parser.add_argument("--no-baseline", action="store_true",
                        help="ignore any configured baseline")
    parser.add_argument("--write-baseline", metavar="REASON",
                        help="record current findings as the baseline, "
                             "justified by REASON, then exit 0")
    parser.add_argument("--rules", metavar="IDS",
                        help="comma-separated rule ids to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list available rules and exit")
    parser.add_argument("--unused-suppressions", action="store_true",
                        help="also report inline allows that matched no "
                             "finding (requires the full rule set); any "
                             "unused allow fails the run")
    parser.add_argument("--sanitize-run", metavar="WORKLOAD",
                        help="replay a benchmark workload with the "
                             "dynamic STATE001/MMU001 sanitizer attached "
                             "and differentially compare with the static "
                             "verdict (workloads: mb-suite)")
    return parser


def _select_rules(spec: Optional[str]):
    if not spec:
        return get_rules()
    return get_rules([s for s in spec.split(",") if s.strip()])


def _print_human(report: Report, out) -> None:
    for finding in report.findings:
        print(finding.render(), file=out)
    for error in report.parse_errors:
        print(f"parse error: {error}", file=out)
    for entry in report.stale_baseline:
        print(f"stale baseline entry {entry.fingerprint} "
              f"({entry.rule} {entry.path}): the finding no longer "
              "exists; remove it from the baseline", file=out)
    for path, line, rule_id in report.unused_suppressions:
        print(f"unused suppression {path}:{line}: allow for {rule_id} "
              "matched no finding; remove it or fix the rule id", file=out)
    status = "clean" if report.clean else "FAILED"
    print(
        f"repro.analysis: {status} — {report.files_checked} files, "
        f"{len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed, "
        f"{len(report.baselined)} baselined, "
        f"{len(report.stale_baseline)} stale baseline entr(y/ies)",
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
        "stale_baseline": [e.as_dict() for e in report.stale_baseline],
        "parse_errors": list(report.parse_errors),
        "counts": {
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "baselined": len(report.baselined),
            "stale_baseline": len(report.stale_baseline),
        },
        "clean": report.clean,
    }


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.name}: {rule.summary}", file=out)
        return 0

    if args.sanitize_run is not None:
        from repro.analysis.sanitize import sanitize_run
        return sanitize_run(args.sanitize_run, out)

    if args.unused_suppressions and args.rules:
        print("error: --unused-suppressions needs the full rule set "
              "(a suppression for an unselected rule would look unused); "
              "drop --rules", file=out)
        return 2

    try:
        rules = _select_rules(args.rules)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=out)
        return 2

    config = AnalysisConfig.load()
    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = config.resolved_paths()
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): "
              f"{', '.join(str(p) for p in missing)}", file=out)
        return 2

    baseline_path = (Path(args.baseline) if args.baseline
                     else config.resolved_baseline())
    analyzer = Analyzer(rules)

    if args.write_baseline is not None:
        if not args.write_baseline.strip():
            print("error: --write-baseline requires a non-empty reason",
                  file=out)
            return 2
        report = analyzer.run(paths, baseline=None, root=config.root)
        Baseline.from_findings(report.findings,
                               args.write_baseline).save(baseline_path)
        print(f"wrote {len(report.findings)} entr(y/ies) to "
              f"{baseline_path}", file=out)
        return 0

    baseline = None
    if not args.no_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except BaselineError as exc:
            print(f"error: {exc}", file=out)
            return 2

    check_only = None
    if args.changed_only:
        try:
            check_only = set(changed_files(config.root, args.since))
        except IncrementalError as exc:
            print(f"error: {exc}", file=out)
            return 2

    report = analyzer.run(paths, baseline=baseline, root=config.root,
                          check_only=check_only,
                          collect_unused=args.unused_suppressions)
    if args.format == "json":
        payload = _as_json(report, [r.rule_id for r in rules])
        print(json.dumps(payload, indent=2), file=out)
    elif args.format == "sarif":
        print(json.dumps(as_sarif(report, rules), indent=2), file=out)
    else:
        _print_human(report, out)
    ok = report.clean and not report.unused_suppressions
    return 0 if ok else 1
