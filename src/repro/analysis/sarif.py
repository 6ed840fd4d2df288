"""SARIF 2.1.0 export for the unified analyzer suite.

SARIF (Static Analysis Results Interchange Format) is what code-scanning
UIs ingest — one `runs[0]` entry with the tool's full rule catalog and
one `results[]` element per finding, each carrying a partial fingerprint
so downstream consumers can track findings across commits exactly like
the local baseline does.

The output is deterministic: rules sorted by id, results in report
order (the driver sorts findings before export), keys sorted by
``json.dumps``.  Artifact URIs are repo-root-relative (the same
normalization the baseline fingerprints use), so logs from different
checkouts diff cleanly, and interprocedural findings carry one
``relatedLocations`` entry per call-chain hop — code-scanning UIs
render the chain from the blame site down to the root cause.
"""

from __future__ import annotations

import json

from repro.analysis.pipeline import normalize_path
from repro.analysis.rules import RULES
from repro.sanitize.findings import Finding, Report, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
                "master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {
    Severity.NOTE: "note",
    Severity.WARNING: "warning",
    Severity.ERROR: "error",
}


def _rule_entries() -> list[dict]:
    entries = []
    for rule_id in sorted(RULES):
        rule = RULES[rule_id]
        entries.append({
            "id": rule.id,
            "shortDescription": {"text": rule.title},
            "help": {"text": rule.hint},
            "defaultConfiguration": {
                "level": _LEVELS.get(rule.severity, "warning"),
            },
        })
    return entries


def _location(file: str, line: int, message: str | None = None) -> dict:
    loc = {
        "physicalLocation": {
            "artifactLocation": {"uri": normalize_path(file)},
            "region": {"startLine": max(line, 1)},
        },
    }
    if message is not None:
        loc["message"] = {"text": message}
    return loc


def _result(finding: Finding, fp: str | None) -> dict:
    result = {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "warning"),
        "message": {"text": finding.message},
        "locations": [_location(finding.file, finding.line)],
    }
    if finding.chain:
        result["relatedLocations"] = [
            _location(hop_file, hop_line, label)
            for hop_file, hop_line, label in finding.chain
        ]
    if fp is not None:
        result["partialFingerprints"] = {"reproAnalysis/v1": fp}
    return result


def to_sarif(report: Report,
             annotated: "list[tuple[Finding, str]] | None" = None
             ) -> dict:
    """The SARIF log object for one report.  When ``annotated``
    (finding, fingerprint) pairs are given they are exported in that
    order with fingerprints attached; otherwise the report's own sorted
    order is used."""
    if annotated is None:
        pairs: list[tuple[Finding, str | None]] = \
            [(f, None) for f in report.sorted()]
    else:
        pairs = list(annotated)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro.analysis",
                    "informationUri":
                        "https://example.invalid/repro/docs/analysis",
                    "rules": _rule_entries(),
                },
            },
            "results": [_result(f, fp) for f, fp in pairs],
        }],
    }


def render_sarif(report: Report,
                 annotated: "list[tuple[Finding, str]] | None" = None
                 ) -> str:
    return json.dumps(to_sarif(report, annotated), indent=2,
                      sort_keys=True)


def from_sarif(log: dict) -> Report:
    """Rebuild a :class:`Report` from a SARIF log (round-trip support:
    severities and locations survive; hints are looked up from the rule
    catalog when the rule is still registered)."""
    levels = {v: k for k, v in _LEVELS.items()}
    report = Report()
    for run in log.get("runs", ()):
        for result in run.get("results", ()):
            loc = (result.get("locations") or [{}])[0] \
                .get("physicalLocation", {})
            rule_id = result.get("ruleId", "")
            rule = RULES.get(rule_id)
            chain = tuple(
                (rel.get("physicalLocation", {})
                    .get("artifactLocation", {}).get("uri", ""),
                 rel.get("physicalLocation", {})
                    .get("region", {}).get("startLine", 0),
                 rel.get("message", {}).get("text", ""))
                for rel in result.get("relatedLocations", ()))
            report.add(Finding(
                rule=rule_id,
                severity=levels.get(result.get("level", "warning"),
                                    Severity.WARNING),
                message=result.get("message", {}).get("text", ""),
                file=loc.get("artifactLocation", {}).get("uri", ""),
                line=loc.get("region", {}).get("startLine", 0),
                context="",
                hint=rule.hint if rule is not None else "",
                chain=chain,
            ))
    return report


__all__ = ["SARIF_VERSION", "to_sarif", "render_sarif", "from_sarif"]
