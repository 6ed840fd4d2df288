"""``repro.sanitize`` — correctness tooling for the simulated CUDA stack.

The simulator's stand-in for NVIDIA's ``compute-sanitizer``: the class
of silent GPU bugs students actually write (missing bounds guards,
missing ``syncthreads``, divergent barriers, cross-stream hazards,
collective misuse) is caught and explained instead of failing silently
or nondeterministically.

Four cooperating passes, all reporting the same :class:`Finding` type:

* :mod:`repro.sanitize.astlint` — static AST linter for ``@cuda.jit``
  kernels (``SAN-OOB``, ``SAN-SHARED-RACE``, ``SAN-BARRIER-DIV``,
  ``SAN-UNCOALESCED``, ``SAN-BANK-CONFLICT``, ``SAN-STREAM-HAZARD``);
  every kernel rule is the abstract interpreter's
  (:mod:`repro.analysis.absint`).
* :mod:`repro.sanitize.dynamic` — shadow-memory race detector running on
  the simulator's own executor (``SAN-DYN-WW``, ``SAN-DYN-RW``).
* :mod:`repro.sanitize.streamcheck` — exact cross-stream hazard check on
  recorded device timelines.
* :mod:`repro.sanitize.collcheck` — collective preconditions and
  blocking-ring deadlock simulation (``SAN-COLL-*``).

CLI: ``python -m repro.sanitize <paths> [--format json]``.  The same
entry point dispatches the :mod:`repro.perflint` workflow analyzers
(host-side perf anti-patterns, pre-flight plan cost, IAM least
privilege) via ``--analyzers kernel,perf,cost,iam``.  Every rule id
lives in one registry, :mod:`repro.analysis.rules`; ``RULES``, ``Rule``
and ``make_finding`` are re-exported here.  Rule-by-rule documentation
with minimal offending kernels lives in ``docs/sanitizer.md``; the
workflow rules live in ``docs/perflint.md``.
"""

from repro.analysis.rules import RULES, Rule, make_finding
from repro.sanitize.astlint import (
    lint_file,
    lint_kernel,
    lint_paths,
    lint_source,
)
from repro.sanitize.collcheck import (
    check_collective,
    check_ring_allreduce,
    find_ring_deadlock,
    ring_schedule,
)
from repro.sanitize.dynamic import RaceDetector, check_launch
from repro.sanitize.findings import Finding, Report, Severity
from repro.sanitize.streamcheck import find_stream_hazards

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "Rule",
    "RULES",
    "make_finding",
    "lint_source",
    "lint_file",
    "lint_paths",
    "lint_kernel",
    "RaceDetector",
    "check_launch",
    "find_stream_hazards",
    "check_collective",
    "check_ring_allreduce",
    "find_ring_deadlock",
    "ring_schedule",
]
