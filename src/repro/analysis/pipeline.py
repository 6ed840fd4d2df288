"""The unified finding pipeline: fingerprints, suppressions, baselines.

Every analyzer family emits :class:`~repro.sanitize.findings.Finding`
objects; this module is the shared post-processing those findings flow
through before a report reaches the user or CI:

1. **suppressions** — one table,
   :meth:`~repro.analysis.context.AnalysisContext.is_suppressed`:
   ``# repro: disable=RULE`` (or a bare ``# repro: disable``) on the
   offending line removes the finding for every family, and memcheck's
   ``# noqa`` / ``# noqa: MEM-LEAK`` removes MEM-* findings only; both
   read offset-adjusted lines, and the driver applies them for every
   entry point;
2. **fingerprints** — a stable identity for each finding that survives
   unrelated edits: the hash covers the rule, the **repo-root-relative**
   file path, context and the *text* of the flagged line (not its
   number), plus an ordinal so duplicates on identical lines stay
   distinct; normalizing the path makes the same fingerprint come out
   of every checkout regardless of where the tree lives or where the
   analyzer was invoked from;
3. **baseline** — ``.reprolint-baseline.json`` records the accepted
   fingerprints of a legacy codebase; CI then fails only on findings
   whose fingerprint is *not* in the baseline, so a new rule can land
   without a flag-day cleanup.  Version-1 baselines (pre-normalization
   fingerprints) still filter via a legacy-fingerprint fallback until
   ``--update-baseline`` migrates them to version 2 in one shot.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from functools import lru_cache
from pathlib import Path

from repro.sanitize.findings import Finding, Report

BASELINE_NAME = ".reprolint-baseline.json"

#: current baseline schema: version 2 fingerprints hash normalized paths
BASELINE_VERSION = 2

#: directory markers that anchor the repo root, nearest-enclosing wins
_ROOT_MARKERS = (".git", "pyproject.toml")


@lru_cache(maxsize=64)
def _root_for(directory: str) -> Path:
    cur = Path(directory)
    for candidate in (cur, *cur.parents):
        if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
            return candidate
    return cur


def repo_root(start: "str | Path | None" = None) -> Path:
    """The nearest enclosing directory carrying a repo marker
    (``.git`` / ``pyproject.toml``), from ``start`` (default: cwd)."""
    base = Path(start) if start is not None else Path.cwd()
    try:
        base = base.resolve()
    except OSError:  # pragma: no cover - unresolvable cwd
        pass
    if base.is_file():
        base = base.parent
    return _root_for(str(base))


def normalize_path(file: str, root: "Path | None" = None) -> str:
    """``file`` relative to the repo root in posix form, when it lives
    under the root; synthetic names (``<string>``) and paths outside
    the root pass through (posix-normalized) so nothing is invented."""
    if not file or file.startswith("<"):
        return file
    if root is None:
        root = repo_root()
    try:
        resolved = Path(file).resolve()
    except OSError:  # pragma: no cover - unresolvable path
        return Path(file).as_posix()
    try:
        return resolved.relative_to(root).as_posix()
    except ValueError:
        return Path(file).as_posix()


def fingerprint(finding: Finding, line_text: str = "",
                ordinal: int = 0, *, legacy: bool = False) -> str:
    """A stable hex identity for one finding.

    Keyed on rule, repo-root-relative file path, context, and the
    stripped text of the flagged line — but **not** the line number, so
    inserting code above a baselined finding does not resurrect it.
    ``ordinal`` disambiguates repeated findings that hash identically
    (same rule on identical lines of the same file).  ``legacy=True``
    reproduces the version-1 hash (the raw path as reported), used only
    to honor not-yet-migrated baselines.
    """
    path = finding.file if legacy else normalize_path(finding.file)
    payload = "|".join([
        finding.rule,
        path,
        finding.context,
        line_text.strip(),
        str(ordinal),
    ])
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def fingerprint_report(report: Report,
                       line_text_for: "callable | None" = None, *,
                       legacy: bool = False
                       ) -> list[tuple[Finding, str]]:
    """Pair every finding with its fingerprint, assigning ordinals to
    colliding (rule, file, context, line-text) groups in sorted order
    so the assignment is deterministic."""
    line_text_for = line_text_for or (lambda f: "")
    seen: Counter[str] = Counter()
    out: list[tuple[Finding, str]] = []
    for finding in report.sorted():
        text = line_text_for(finding)
        path = finding.file if legacy else normalize_path(finding.file)
        base = "|".join([finding.rule, path, finding.context,
                         text.strip()])
        ordinal = seen[base]
        seen[base] += 1
        out.append((finding, fingerprint(finding, text, ordinal,
                                         legacy=legacy)))
    return out


class Baseline:
    """The accepted-findings ledger (``.reprolint-baseline.json``).

    The file stores sorted fingerprints plus a human-readable summary of
    what they were when recorded — the summary is documentation only;
    membership is decided purely by fingerprint.
    """

    def __init__(self, fingerprints: set[str] | None = None, *,
                 version: int = BASELINE_VERSION) -> None:
        self.fingerprints: set[str] = set(fingerprints or ())
        self.version = version

    def __contains__(self, fp: str) -> bool:
        return fp in self.fingerprints

    def __len__(self) -> int:
        return len(self.fingerprints)

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        path = Path(path)
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        return cls(set(data.get("fingerprints", ())),
                   version=int(data.get("version", 1)))

    def save(self, path: str | Path,
             annotated: list[tuple[Finding, str]] | None = None) -> None:
        payload = {
            "version": BASELINE_VERSION,
            "tool": "repro.analysis",
            "paths": "repo-root-relative",
            "fingerprints": sorted(self.fingerprints),
        }
        if annotated:
            payload["findings"] = [
                {"fingerprint": fp, "rule": f.rule,
                 "file": normalize_path(f.file),
                 "line": f.line, "message": f.message}
                for f, fp in sorted(annotated, key=lambda p: p[1])
            ]
        Path(path).write_text(json.dumps(payload, indent=2,
                                         sort_keys=True) + "\n")

    @classmethod
    def from_report(cls, annotated: list[tuple[Finding, str]]
                    ) -> "Baseline":
        return cls({fp for _, fp in annotated})

    def filter_new(self, annotated: list[tuple[Finding, str]],
                   legacy: "list[str] | None" = None) -> Report:
        """The findings whose fingerprints are *not* baselined — the
        only ones CI should fail on.  ``legacy`` (parallel to
        ``annotated``) carries each finding's version-1 fingerprint, so
        a not-yet-migrated baseline keeps filtering until
        ``--update-baseline`` rewrites it.
        """
        report = Report()
        for i, (finding, fp) in enumerate(annotated):
            if fp in self.fingerprints:
                continue
            if legacy is not None and i < len(legacy) \
                    and legacy[i] in self.fingerprints:
                continue
            report.add(finding)
        return report


__all__ = [
    "BASELINE_NAME",
    "BASELINE_VERSION",
    "Baseline",
    "fingerprint",
    "fingerprint_report",
    "normalize_path",
    "repo_root",
]
