"""Finding and report types shared by every sanitizer pass.

A :class:`Finding` is one diagnosed problem — static (AST linter), dynamic
(race detector), or environmental (stream/collective hazard checks).  All
passes speak this one vocabulary so the CLI, the tests, and the grading
hook can consume any mixture of them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum


class Severity(IntEnum):
    """Ordered severities, lowest first (so ``max()`` picks the worst)."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    @property
    def label(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem, attributable to a rule and a location.

    ``file``/``line`` point at source for static findings; dynamic findings
    carry the kernel (or stream/collective) name in ``context`` and may
    have no source location (``line == 0``).

    Interprocedural findings additionally carry ``chain`` — the call
    hops from the blamed site down to the root cause, each a
    ``(file, line, label)`` triple.  Intra-procedural findings leave it
    empty, and an empty chain is invisible in every serialization, so
    reports without interprocedural analysis stay byte-identical.
    """

    rule: str
    severity: Severity
    message: str
    file: str = ""
    line: int = 0
    context: str = ""          # kernel / stream / collective name
    hint: str = ""
    chain: tuple = ()          # ((file, line, label), ...) call hops

    @property
    def location(self) -> str:
        if self.file:
            return f"{self.file}:{self.line}"
        return self.context or "<runtime>"

    def to_dict(self) -> dict:
        out = {
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "context": self.context,
            "hint": self.hint,
        }
        if self.chain:
            out["chain"] = [
                {"file": f, "line": n, "label": label}
                for f, n, label in self.chain
            ]
        return out


@dataclass
class Report:
    """An ordered collection of findings plus the two reporters."""

    findings: list[Finding] = field(default_factory=list)

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    def sorted(self) -> list[Finding]:
        # the (context, message) tiebreakers make this a total order, so
        # reports are byte-identical however the findings were collected
        return sorted(self.findings,
                      key=lambda f: (f.file, f.line, -f.severity, f.rule,
                                     f.context, f.message))

    @property
    def ok(self) -> bool:
        return not self.findings

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity == severity)

    # -- reporters ---------------------------------------------------------

    def render_text(self) -> str:
        """compute-sanitizer-style one-line-per-finding text report."""
        lines = []
        for f in self.sorted():
            where = f.location
            ctx = f" [{f.context}]" if f.context and f.file else ""
            lines.append(
                f"{where}: {f.severity.label}: {f.rule}: {f.message}{ctx}")
            if f.hint:
                lines.append(f"    hint: {f.hint}")
            if f.chain:
                lines.append("    call chain:")
                for hop_file, hop_line, label in f.chain:
                    lines.append(f"      -> {hop_file}:{hop_line}: {label}")
        lines.append(self.summary_line())
        return "\n".join(lines)

    def summary_line(self) -> str:
        if self.ok:
            return "repro.analysis: no issues found"
        return (f"repro.analysis: {len(self.findings)} finding(s) "
                f"({self.count(Severity.ERROR)} error, "
                f"{self.count(Severity.WARNING)} warning, "
                f"{self.count(Severity.NOTE)} note)")

    def render_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.sorted()],
                "summary": {
                    "total": len(self.findings),
                    "errors": self.count(Severity.ERROR),
                    "warnings": self.count(Severity.WARNING),
                    "notes": self.count(Severity.NOTE),
                    "ok": self.ok,
                },
            },
            indent=2,
        )
