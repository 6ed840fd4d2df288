"""Serializable kernel classification — a report on each kernel.

The abstract interpreter (:mod:`repro.analysis.absint`) reduces every
``@cuda.jit`` kernel to a :class:`KernelClass`: which vectorizable
archetype the body matches, the per-array access footprints that prove
it, and its safety verdicts.  It is what the student, the CI artifact
(``--kernel-classes json``) and ``CudaKernel.classify()`` read; the JIT
does not consult it, since its launcher admits each launch to the
lowered path by a trace of that launch.  The classes mirror the
course's kernel archetypes (Lab 5):

* ``elementwise`` — every global access reads/writes the thread's own
  cell (zero constant offsets on a thread-affine base);
* ``stencil`` — like elementwise plus constant-offset neighbors
  (``halo`` records the widest offset);
* ``reduction`` — shared-memory tree (or atomic) combine with a
  block-indexed (or scalar) output;
* ``tiled-matmul`` — two or more shared tiles with a multiply-
  accumulate loop between barriers;
* ``divergent-fallback`` — anything the domains cannot prove regular
  (data-dependent barriers, non-affine subscripts): still correct under
  the per-thread simulator, but not vectorizable.

Two informational findings surface the result in reports:
``VEC-VECTORIZABLE`` (a concrete class was proven) and
``VEC-DIVERGENT`` (the fallback).  Both are notes — they gate nothing
by themselves and honor ``# repro: disable=`` like every other rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.analysis.rules import make_finding
from repro.sanitize.findings import Finding

#: concrete (vectorizable) classes, in documentation order
VECTORIZABLE = ("elementwise", "stencil", "reduction", "tiled-matmul")

FALLBACK = "divergent-fallback"


@dataclass(frozen=True)
class Access:
    """One global (parameter) array subscript, abstracted per axis."""

    array: str
    write: bool
    line: int
    #: per-axis ``(base, offset)`` — ``base`` is the affine form minus
    #: its constant, rendered; ``None`` base means non-affine
    axes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "array": self.array,
            "write": self.write,
            "line": self.line,
            "axes": [{"base": b, "offset": o} for b, o in self.axes],
        }


@dataclass
class KernelClass:
    """One kernel's classification: archetype, footprints, verdicts."""

    kernel: str
    file: str
    line: int
    klass: str                       # one of VECTORIZABLE or FALLBACK
    oob: str = "unknown"             # proven_safe | oob | unknown
    verified: bool = False           # oob-proven, no race found, uniform
    barriers: int = 0
    divergent_barriers: int = 0
    races: int = 0
    launches: int = 0
    halo: int = 0
    shared: tuple = ()
    accesses: tuple = ()             # tuple[Access]
    reasons: tuple = ()              # why the fallback, when it is one

    @property
    def vectorizable(self) -> bool:
        return self.klass in VECTORIZABLE

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "file": self.file,
            "line": self.line,
            "class": self.klass,
            "vectorizable": self.vectorizable,
            "oob": self.oob,
            "verified": self.verified,
            "barriers": self.barriers,
            "divergent_barriers": self.divergent_barriers,
            "races": self.races,
            "launches": self.launches,
            "halo": self.halo,
            "shared": sorted(self.shared),
            "accesses": [a.to_dict() for a in sorted(
                self.accesses, key=lambda a: (a.line, a.array, a.write))],
            "reasons": list(self.reasons),
        }


def render_classes_json(classes) -> str:
    """Deterministic JSON for a list of :class:`KernelClass` — the
    ``--kernel-classes json`` artifact."""
    ordered = sorted(classes, key=lambda k: (k.file, k.line, k.kernel))
    return json.dumps(
        {"tool": "repro.analysis.absint", "version": 1,
         "kernels": [k.to_dict() for k in ordered],
         "summary": {
             "total": len(ordered),
             "vectorizable": sum(1 for k in ordered if k.vectorizable),
             "proven_safe": sum(1 for k in ordered
                                if k.oob == "proven_safe"),
             "verified": sum(1 for k in ordered if k.verified),
         }},
        indent=2, sort_keys=True)


@dataclass
class KernelFacts:
    """Everything the interpreter learned that classification needs."""

    kernel: str
    file: str
    line: int
    accesses: list = field(default_factory=list)   # list[Access]
    shared: set = field(default_factory=set)
    barriers: int = 0
    divergent_barriers: int = 0
    races: int = 0
    launches: int = 0
    oob: str = "unknown"
    has_mac_loop: bool = False          # multiply-accumulate inside a loop
    block_indexed_writes: int = 0       # writes whose index is block-only
    thread_varying_accesses: int = 0
    non_affine_accesses: int = 0


def classify(facts: KernelFacts) -> KernelClass:
    """Map interpreter facts to the archetype (most specific first)."""
    reasons: list[str] = []
    if facts.divergent_barriers:
        reasons.append(
            f"{facts.divergent_barriers} barrier(s) under a "
            "thread-varying predicate")
    if facts.non_affine_accesses:
        reasons.append(
            f"{facts.non_affine_accesses} non-affine subscript(s)")
    offsets = [o for a in facts.accesses for _, o in a.axes
               if o is not None]
    halo = max((abs(o) for o in offsets), default=0)
    if reasons:
        klass = FALLBACK
    elif facts.shared and facts.barriers and facts.has_mac_loop \
            and len(facts.shared) >= 2:
        klass = "tiled-matmul"
    elif facts.shared and facts.barriers \
            and facts.block_indexed_writes:
        klass = "reduction"
    elif facts.accesses and facts.thread_varying_accesses \
            and not facts.shared and halo:
        klass = "stencil"
    elif facts.accesses and facts.thread_varying_accesses \
            and not facts.shared:
        klass = "elementwise"
    else:
        klass = FALLBACK
        reasons.append("no thread-affine global access footprint")
    return KernelClass(
        kernel=facts.kernel, file=facts.file, line=facts.line,
        klass=klass, oob=facts.oob,
        verified=(facts.oob == "proven_safe"
                  and not facts.divergent_barriers and not facts.races),
        barriers=facts.barriers,
        divergent_barriers=facts.divergent_barriers,
        races=facts.races, launches=facts.launches,
        halo=halo if klass == "stencil" else 0,
        shared=tuple(sorted(facts.shared)),
        accesses=tuple(facts.accesses),
        reasons=tuple(reasons))


def class_finding(kc: KernelClass) -> Finding:
    """The VEC-* note announcing one kernel's class."""
    if kc.vectorizable:
        detail = f"classified `{kc.klass}`"
        if kc.klass == "stencil":
            detail += f" (halo {kc.halo})"
        arrays = sorted({a.array for a in kc.accesses})
        if arrays:
            detail += f"; global arrays: {', '.join(arrays)}"
        detail += f"; OOB {kc.oob.replace('_', '-')}"
        return make_finding(
            "VEC-VECTORIZABLE",
            f"kernel `{kc.kernel}` {detail}",
            file=kc.file, line=kc.line, context=kc.kernel)
    return make_finding(
        "VEC-DIVERGENT",
        f"kernel `{kc.kernel}` is not vectorizable: "
        f"{'; '.join(kc.reasons) or 'irregular access pattern'}",
        file=kc.file, line=kc.line, context=kc.kernel)


__all__ = [
    "VECTORIZABLE",
    "FALLBACK",
    "Access",
    "KernelClass",
    "KernelFacts",
    "classify",
    "class_finding",
    "render_classes_json",
]
