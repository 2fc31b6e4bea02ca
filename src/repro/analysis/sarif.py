"""SARIF 2.1.0 serialization of an analysis report.

One ``run`` per invocation; rule metadata comes from each ``Rule``'s
``summary``.  The payload targets code-scanning consumers (GitHub's
SARIF upload, VS Code SARIF viewers), so it sticks to the widely
implemented core: ``tool.driver.rules``, ``results`` with physical
locations and ``partialFingerprints`` (the finding fingerprint, which
is location-drift tolerant by construction), and one ``invocation``
carrying the success flag plus any parse errors and unused
suppressions as tool notifications.
"""

from typing import List, Sequence

from repro.analysis.engine import Report

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

#: Key under partialFingerprints; bump with Finding.fingerprint changes.
FINGERPRINT_KEY = "reproAnalysis/v2"


def as_sarif(report: Report, rules: Sequence[object]) -> dict:
    """Serialize ``report`` (produced by rules ``rules``) as SARIF."""
    rule_index = {rule.rule_id: i for i, rule in enumerate(rules)}
    results: List[dict] = []
    for finding in report.findings:
        location = {
            "physicalLocation": {
                "artifactLocation": {"uri": finding.path},
                "region": {
                    "startLine": finding.line,
                    # SARIF columns are 1-based; AST cols are 0-based.
                    "startColumn": finding.col + 1,
                },
            },
            "logicalLocations": [{
                "fullyQualifiedName": finding.context,
            }],
        }
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": rule_index.get(finding.rule, -1),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [location],
            "partialFingerprints": {FINGERPRINT_KEY: finding.fingerprint},
        })
    notifications = [
        {"level": "error", "message": {"text": error}}
        for error in report.parse_errors
    ]
    for path, line, rule_id in report.unused_suppressions:
        notifications.append({
            "level": "error",
            "message": {"text": (f"unused suppression {path}:{line}: allow "
                                 f"for {rule_id} matched no finding")},
        })
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "informationUri": "docs/ANALYSIS.md",
                    "rules": [
                        {
                            "id": rule.rule_id,
                            "name": rule.name,
                            "shortDescription": {"text": rule.summary},
                        }
                        for rule in rules
                    ],
                },
            },
            "results": results,
            "invocations": [{
                "executionSuccessful": report.clean,
                "toolExecutionNotifications": notifications,
            }],
        }],
    }
