"""Baseline (grandfathered-finding) support.

A baseline entry silences one existing finding by fingerprint.  Every
entry must carry a ``reason`` — the baseline is for *deliberate design
exceptions*, not for parking unexplained debt.  Entries whose finding
no longer exists are *stale* and reported as failures, so the baseline
can only shrink unless a human consciously edits it.

Entries use the content-anchored fingerprint
(rule|path|context|snippet|message) and carry the ``snippet`` field.
Only files of :data:`BASELINE_VERSION` load; any other version is
rejected rather than guessed at.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Set

from repro.analysis.engine import Finding

BASELINE_VERSION = 2


@dataclass(frozen=True)
class BaselineEntry:
    fingerprint: str
    rule: str
    path: str
    context: str
    message: str
    reason: str
    snippet: str = ""

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "rule": self.rule,
            "path": self.path,
            "context": self.context,
            "message": self.message,
            "reason": self.reason,
            "snippet": self.snippet,
        }


class BaselineError(ValueError):
    """Malformed baseline file."""


class Baseline:
    """An in-memory baseline, loadable from / writable to JSON."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()):
        self.entries: List[BaselineEntry] = list(entries)
        self._fingerprints = {e.fingerprint for e in self.entries}

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        if not path.exists():
            return cls()
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError) as exc:
            raise BaselineError(f"cannot read baseline {path}: {exc}")
        if not isinstance(payload, dict) or "entries" not in payload:
            raise BaselineError(f"baseline {path} lacks an 'entries' list")
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise BaselineError(
                f"baseline {path} has unsupported version {version!r} "
                f"(expected {BASELINE_VERSION})")
        entries = []
        for raw in payload["entries"]:
            missing = {"fingerprint", "rule", "path", "reason"} - set(raw)
            if missing:
                raise BaselineError(
                    f"baseline entry {raw.get('fingerprint', '?')} missing "
                    f"fields: {sorted(missing)}"
                )
            if not str(raw["reason"]).strip():
                raise BaselineError(
                    f"baseline entry {raw['fingerprint']} has an empty "
                    "reason; deliberate exceptions must be justified"
                )
            entries.append(BaselineEntry(
                fingerprint=raw["fingerprint"],
                rule=raw["rule"],
                path=raw["path"],
                context=raw.get("context", ""),
                message=raw.get("message", ""),
                reason=raw["reason"],
                snippet=raw.get("snippet", ""),
            ))
        return cls(entries)

    @classmethod
    def from_findings(cls, findings: Iterable[Finding],
                      reason: str) -> "Baseline":
        return cls(
            BaselineEntry(
                fingerprint=f.fingerprint,
                rule=f.rule,
                path=f.path,
                context=f.context,
                message=f.message,
                reason=reason,
                snippet=f.snippet,
            )
            for f in findings
        )

    def save(self, path: Path) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "entries": [e.as_dict() for e in sorted(
                self.entries, key=lambda e: (e.path, e.rule, e.fingerprint))],
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    def covers(self, finding: Finding) -> bool:
        return finding.fingerprint in self._fingerprints

    def stale_entries(self, seen_fingerprints: Set[str]) -> List[BaselineEntry]:
        """Entries whose finding no longer occurs anywhere."""
        return [e for e in self.entries
                if e.fingerprint not in seen_fingerprints]
