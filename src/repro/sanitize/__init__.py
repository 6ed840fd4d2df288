"""``repro.sanitize`` — correctness tooling for the simulated CUDA stack.

The simulator's stand-in for NVIDIA's ``compute-sanitizer``: the class
of silent GPU bugs students actually write (missing bounds guards,
missing ``syncthreads``, divergent barriers, cross-stream hazards,
collective misuse) is caught and explained instead of failing silently
or nondeterministically.

Four cooperating passes, all reporting the same :class:`Finding` type:

* :mod:`repro.sanitize.astlint` — the ``kernel`` family of the
  :mod:`repro.analysis` driver (``SAN-OOB``, ``SAN-SHARED-RACE``,
  ``SAN-BARRIER-DIV``, ``SAN-UNCOALESCED``, ``SAN-BANK-CONFLICT``,
  ``SAN-STREAM-HAZARD``); every kernel rule is the abstract
  interpreter's (:mod:`repro.analysis.absint`).  ``lint_kernel`` runs a
  live kernel's source through the driver.
* :mod:`repro.sanitize.dynamic` — shadow-memory race detector running on
  the simulator's own executor (``SAN-DYN-WW``, ``SAN-DYN-RW``).
* :mod:`repro.sanitize.streamcheck` — exact cross-stream hazard check on
  recorded device timelines.
* :mod:`repro.sanitize.collcheck` — collective preconditions and
  blocking-ring deadlock simulation (``SAN-COLL-*``).

Static analysis goes through the :mod:`repro.analysis` driver only:
``python -m repro.analysis <paths> [--format json]`` on the command
line (``python -m repro.sanitize`` still runs it for now), and
``repro.analysis.analyze_source(src, name, analyzers=("kernel",))`` or
``analyze_paths`` from Python; ``--analyzers kernel,perf,cost,iam``
adds the :mod:`repro.perflint` workflow analyzers.  Every rule id
lives in one registry, :mod:`repro.analysis.rules`; ``RULES``, ``Rule``
and ``make_finding`` are re-exported here.  Rule-by-rule documentation
with minimal offending kernels lives in ``docs/sanitizer.md``; the
workflow rules live in ``docs/perflint.md``.
"""

from repro.analysis.rules import RULES, Rule, make_finding
from repro.sanitize.astlint import lint_kernel
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
    "lint_kernel",
    "RaceDetector",
    "check_launch",
    "find_stream_hazards",
    "check_collective",
    "check_ring_allreduce",
    "find_ring_deadlock",
    "ring_schedule",
]
