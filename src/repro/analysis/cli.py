"""``python -m repro.analysis <paths>`` — the one analyzer CLI: lint
kernels the way ``compute-sanitizer`` would have caught them on real
hardware, and (with ``--analyzers``) lint the workflow layer above them
the way a pre-flight cost/perf review would.

Every requested family runs off one shared parse per file (the
:mod:`repro.analysis` driver), with the driver's suppressions
(``# repro: disable=RULE``; ``# noqa`` for MEM-* rules), optional
``.reprolint-baseline.json`` filtering (CI fails only on findings not
in the baseline), and SARIF 2.1.0 output for code-scanning UIs.

Exit codes: 0 clean, 1 findings, 2 usage error (mirroring ruff/flake8 so
the CI lint session can gate on it).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.driver import (
    ALL_ANALYZERS,
    KNOWN_ANALYZERS,
    iter_contexts,
    run_paths,
)
from repro.analysis.pipeline import Baseline, fingerprint_report
from repro.sanitize.findings import Report, Severity


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the simulated GPU stack: the "
                    "kernel sanitizer (OOB guards, shared-memory races, "
                    "barrier divergence, coalescing, bank conflicts, "
                    "cross-stream hazards) plus the perflint workflow "
                    "analyzers (host-side perf anti-patterns, pre-flight "
                    "cloud-plan cost, IAM least privilege), the memcheck "
                    "liveness pass (device-buffer leaks, use-after-free, "
                    "peak-footprint OOM pre-flight), and the DET "
                    "determinism rules (wall-clock reads, unseeded RNG, "
                    "unordered iteration reaching an export).")
    parser.add_argument("paths", nargs="+",
                        help="Python files or directories to lint")
    parser.add_argument("--format", choices=("text", "json", "sarif"),
                        default="text", help="report format")
    parser.add_argument("--errors-only", action="store_true",
                        help="fail (and report) only on error-severity "
                             "findings")
    parser.add_argument("--analyzers", default="kernel", metavar="LIST",
                        help="comma-separated analyzer families to run: "
                             f"{','.join(ALL_ANALYZERS)} (or 'all' for "
                             f"{','.join(KNOWN_ANALYZERS)}; absint is "
                             "opt-in by name; default: kernel)")
    parser.add_argument("--interprocedural", action="store_true",
                        help="resolve the project-wide call graph and "
                             "add cross-function findings (call-chain "
                             "context on each); intra-procedural "
                             "findings are unchanged")
    parser.add_argument("--call-graph", choices=("dot", "json"),
                        default=None, metavar="FORMAT",
                        help="print the resolved call graph (dot or "
                             "json) instead of analyzing; exit 1 if a "
                             "file does not parse, else 0")
    parser.add_argument("--kernel-classes", choices=("json",),
                        default=None, metavar="FORMAT",
                        help="print the abstract interpreter's kernel "
                             "classification (KernelClass JSON) instead "
                             "of analyzing; exit 1 if a file does not "
                             "parse, else 0")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="accepted-findings ledger (JSON); only "
                             "findings whose fingerprint is not in the "
                             "baseline are reported and fail the run")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write the current findings to --baseline "
                             "(default .reprolint-baseline.json) and "
                             "exit 0")
    return parser


def _parse_analyzers(spec: str) -> "tuple[list[str], list[str]]":
    """``(selected, unknown)`` — ``unknown`` names every family the
    spec asked for that does not exist.  ``all`` expands to the six
    default families; opt-in families (``absint``) still join when
    named next to it (``--analyzers all,absint``)."""
    names = [n.strip() for n in spec.split(",") if n.strip()]
    unknown = [n for n in names
               if n != "all" and n not in ALL_ANALYZERS]
    if unknown:
        return [n for n in names if n != "all"], unknown
    if "all" in names:
        extras = [n for n in names if n in ALL_ANALYZERS
                  and n not in KNOWN_ANALYZERS]
        return list(KNOWN_ANALYZERS) + extras, []
    return names, unknown


def _name_unparsed(contexts) -> int:
    """One stderr line per context that did not parse (the artifact
    modes leave such a file out); 1 if there was one, else 0."""
    broken = [ctx for ctx in contexts if not ctx.ok]
    for ctx in broken:
        exc = ctx.syntax_error
        print(f"repro.analysis: {ctx.filename}:{exc.lineno or 0}: "
              f"syntax error: {exc.msg}", file=sys.stderr)
    return 1 if broken else 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    analyzers, unknown = _parse_analyzers(args.analyzers)
    if unknown or not analyzers:
        what = ", ".join(unknown) if unknown else "nothing"
        print(f"repro.analysis: unknown analyzer {what!r} in "
              f"{args.analyzers!r}; choose from "
              f"{', '.join(ALL_ANALYZERS)} (or 'all')",
              file=sys.stderr)
        return 2
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.analysis: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.call_graph:
        from repro.analysis.callgraph import build_call_graph

        contexts = list(iter_contexts(args.paths))
        graph = build_call_graph({ctx.filename: ctx for ctx in contexts})
        print(graph.to_dot() if args.call_graph == "dot"
              else graph.render_json())
        return _name_unparsed(contexts)
    if args.kernel_classes:
        from repro.analysis.absint import absint_context
        from repro.analysis.kernelclass import render_classes_json

        classes = []
        unparsed = []
        for ctx in iter_contexts(args.paths):
            if ctx.ok:
                classes.extend(absint_context(ctx).classes)
            else:
                unparsed.append(ctx)
        print(render_classes_json(classes))
        return _name_unparsed(unparsed)
    # one parse per file, every family on the shared context; findings
    # come back deduplicated (overlapping paths analyze a file once)
    # and in deterministic (file, line, severity, rule) order
    run = run_paths(args.paths, analyzers=analyzers,
                    interprocedural=args.interprocedural)
    report = run.report
    if args.errors_only:
        filtered = Report()
        filtered.extend(f for f in report.findings
                        if f.severity >= Severity.ERROR)
        report = filtered
    annotated = fingerprint_report(report, run.line_text)
    if args.update_baseline:
        path = args.baseline or ".reprolint-baseline.json"
        migrated = Path(path).exists() and Baseline.load(path).version < 2
        Baseline.from_report(annotated).save(path, annotated)
        note = " (migrated to version-2 repo-root-relative paths)" \
            if migrated else ""
        print(f"repro.analysis: wrote {len(annotated)} fingerprint(s) "
              f"to {path}{note}", file=sys.stderr)
        return 0
    if args.baseline:
        baseline = Baseline.load(args.baseline)
        legacy = None
        if baseline.version < 2:
            # not-yet-migrated ledger: honor its version-1 fingerprints
            # until --update-baseline rewrites it
            legacy = [fp for _, fp in
                      fingerprint_report(report, run.line_text,
                                         legacy=True)]
        report = baseline.filter_new(annotated, legacy)
        annotated = fingerprint_report(report, run.line_text)
    if args.format == "sarif":
        from repro.analysis.sarif import render_sarif
        print(render_sarif(report, annotated))
    elif args.format == "json":
        print(report.render_json())
    else:
        print(report.render_text())
    return 0 if report.ok else 1
