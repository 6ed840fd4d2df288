"""The unified analyzer driver: one parse and one walk per file, every
family, one report.

The driver is the only way from source to a report: the CLI
(``python -m repro.analysis``), :func:`analyze_source`,
:func:`analyze_paths` / :func:`run_paths`, the grader's
``lint_kernel`` and the benchmark all come through it.  It builds one
:class:`AnalysisContext` per file and hands the *same* context to every
requested family; each family package keeps only the ``*_context``
function called here, which reads the module's nodes from the
context's one walk (:func:`~repro.analysis.context.nodes_of`, the
per-class index over ``ctx.nodes``) rather than walking the tree again:

* ``kernel`` — :func:`repro.sanitize.astlint.lint_context` (every
  kernel rule in it is the abstract interpreter's; it adds the
  stream-hazard scan)
* ``perf`` / ``cost`` / ``iam`` — :func:`repro.perflint.analyze_context`
* ``mem`` — :func:`repro.memcheck.analyze_context`
* ``det`` — :func:`repro.analysis.detpass.det_pass`
* ``absint`` — :func:`repro.analysis.absint.absint_context` (opt-in:
  named explicitly, never implied by ``all``; its full report — the
  same SAN-* kernel findings plus the VEC-* notes)

Driver-level post-processing applies to every family uniformly: a file
that does not parse is one ``SAN-SYNTAX`` finding, suppressions go
through :meth:`AnalysisContext.is_suppressed` (``# repro: disable`` for
any rule, memcheck's ``# noqa`` for MEM-* rules), duplicate findings
are removed (so ``kernel,absint`` reports each proof once), and a
deterministic total order makes the JSON report byte-stable across
``--analyzers`` orderings and overlapping path arguments.

Family imports are lazy so importing :mod:`repro.analysis` never drags
in the whole analyzer suite (and cannot cycle with the family modules,
which import the framework's CFG).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.context import AnalysisContext
from repro.analysis.pipeline import fingerprint_report
from repro.analysis.rules import make_finding
from repro.sanitize.findings import Finding, Report

#: every family the unified driver can dispatch, in canonical order
KNOWN_ANALYZERS = ("kernel", "perf", "cost", "iam", "mem", "det")

#: opt-in families — runnable by name but not part of ``all`` (the
#: abstract interpreter adds VEC-* notes that default sweeps and
#: golden reports should not pick up implicitly)
OPT_IN_ANALYZERS = ("absint",)

ALL_ANALYZERS = KNOWN_ANALYZERS + OPT_IN_ANALYZERS

_PERFLINT_FAMILIES = ("perf", "cost", "iam")


def analyze_context(ctx: AnalysisContext,
                    analyzers=KNOWN_ANALYZERS) -> Report:
    """Run the requested families over one shared context."""
    report = Report()
    if ctx.tree is None:
        exc = ctx.syntax_error
        report.add(make_finding(
            "SAN-SYNTAX", f"syntax error: {exc.msg}", file=ctx.filename,
            line=(exc.lineno or 0) + ctx.line_offset))
        return report
    if "kernel" in analyzers:
        from repro.sanitize import astlint
        report.extend(astlint.lint_context(ctx).findings)
    perf_families = tuple(f for f in _PERFLINT_FAMILIES
                          if f in analyzers)
    if perf_families:
        from repro.perflint import analyze_context as perflint_context
        report.extend(perflint_context(ctx,
                                       analyzers=perf_families).findings)
    if "mem" in analyzers:
        from repro.memcheck import analyze_context as memcheck_context
        report.extend(memcheck_context(ctx).findings)
    if "det" in analyzers:
        from repro.analysis.detpass import det_pass
        report.extend(det_pass(ctx).findings)
    if "absint" in analyzers:
        from repro.analysis.absint import absint_context
        report.extend(absint_context(ctx).report.findings)
    kept = Report()
    kept.extend(f for f in dict.fromkeys(report.findings)
                if not ctx.is_suppressed(f.rule, f.line))
    return kept


def analyze_source(source: str, filename: str = "<string>",
                   analyzers=KNOWN_ANALYZERS, *,
                   line_offset: int = 0) -> Report:
    """One-shot convenience: build a context and run the families."""
    ctx = AnalysisContext(source, filename=filename,
                          line_offset=line_offset)
    return analyze_context(ctx, analyzers=analyzers)


def collect_files(paths) -> list[Path]:
    """Expand file/directory arguments to the unique ``*.py`` files,
    first-seen display path wins for overlapping arguments (so passing
    ``src/repro src/repro/jit`` analyzes each file once)."""
    seen: set[Path] = set()
    out: list[Path] = []
    for p in paths:
        p = Path(p)
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p]
        for f in files:
            try:
                key = f.resolve()
            except OSError:  # pragma: no cover - unresolvable path
                key = f
            if key in seen:
                continue
            seen.add(key)
            out.append(f)
    return out


def iter_contexts(paths):
    """One context per unique file under ``paths``
    (:func:`collect_files`), each parsed when it is reached."""
    for f in collect_files(paths):
        yield AnalysisContext.from_file(f)


def _sort_key(f: Finding):
    # same leading key as Report.sorted() with full tiebreakers, so the
    # stored order is a total order independent of analyzer order
    return (f.file, f.line, -f.severity, f.rule, f.context, f.message)


@dataclass
class AnalysisRun:
    """A driver run: the merged report plus the per-file contexts
    (kept for fingerprinting — the fingerprint hashes the flagged
    line's text, which lives in the context).  ``graph`` is the
    resolved project call graph when the run was interprocedural,
    else ``None``."""

    report: Report
    contexts: dict[str, AnalysisContext] = field(default_factory=dict)
    graph: object | None = None

    def line_text(self, finding: Finding) -> str:
        ctx = self.contexts.get(finding.file)
        return ctx.line_text(finding.line) if ctx is not None else ""

    def annotated(self) -> list[tuple[Finding, str]]:
        """(finding, fingerprint) pairs in report order."""
        return fingerprint_report(self.report, self.line_text)


def run_paths(paths, analyzers=KNOWN_ANALYZERS, *,
              interprocedural: bool = False) -> AnalysisRun:
    """Analyze files and/or directories with one parse and one walk per
    file.

    With ``interprocedural=True`` the run additionally resolves the
    project-wide call graph over the same contexts (still one parse and
    one walk per file), composes function summaries bottom-up, and
    appends the cross-function findings — the intra-procedural findings
    are byte-identical either way.
    """
    report = Report()
    contexts: dict[str, AnalysisContext] = {}
    for ctx in iter_contexts(paths):
        contexts[ctx.filename] = ctx
        report.extend(analyze_context(ctx, analyzers=analyzers).findings)
    graph = None
    if interprocedural:
        from repro.analysis.callgraph import build_call_graph
        from repro.analysis.interproc import interprocedural_pass
        from repro.analysis.summaries import build_summaries

        graph = build_call_graph(contexts)
        summaries = build_summaries(graph)
        report.extend(interprocedural_pass(graph, summaries,
                                           analyzers).findings)
    merged = Report()
    merged.extend(sorted(dict.fromkeys(report.findings), key=_sort_key))
    return AnalysisRun(report=merged, contexts=contexts, graph=graph)


def analyze_paths(paths, analyzers=KNOWN_ANALYZERS, *,
                  interprocedural: bool = False) -> Report:
    """Like :func:`run_paths` but returning only the report."""
    return run_paths(paths, analyzers=analyzers,
                     interprocedural=interprocedural).report


__all__ = [
    "ALL_ANALYZERS",
    "KNOWN_ANALYZERS",
    "OPT_IN_ANALYZERS",
    "AnalysisRun",
    "analyze_context",
    "analyze_source",
    "analyze_paths",
    "collect_files",
    "iter_contexts",
    "run_paths",
]
