"""The rule registry: every rule id any analyzer can emit, its default
severity and fix hint, and the one :func:`make_finding`.

Rule ids are stable — tests, the grading hook, ``docs/*.md`` and the
SARIF exporter (which publishes :data:`RULES` as the tool's rule
metadata) refer to them by name.  The families, by prefix:

* ``SAN-*`` — the kernel sanitizer: the ``kernel`` family's static
  checks (each kernel rule from the abstract interpreter), the
  shadow-memory race detector (``SAN-DYN-*``), the
  stream and collective hazard checks, and the interprocedural
  host-call rule;
* ``PERF-*`` / ``COST-*`` / ``IAM-*`` — perflint's host-side workflow
  anti-patterns, pre-flight plan pricing, and least-privilege diff;
* ``MEM-*`` — memcheck's device-memory liveness pass;
* ``DET-*`` — the determinism rules guarding byte-identical output on
  the simulated clock;
* ``VEC-*`` — the abstract interpreter's kernel-classification notes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sanitize.findings import Finding, Severity


@dataclass(frozen=True)
class Rule:
    id: str
    title: str
    severity: Severity
    hint: str


RULES: dict[str, Rule] = {
    r.id: r
    for r in [
        # -- SAN: kernel sanitizer (static, dynamic, stream, collective) -
        Rule("SAN-OOB", "unguarded global index", Severity.ERROR,
             "guard the access: `if i < arr.size:` (or bound the loop by "
             "the array extent) before indexing with a grid-derived index"),
        Rule("SAN-SHARED-RACE", "shared-memory read after write without "
             "syncthreads", Severity.ERROR,
             "insert cuda.syncthreads() between the write phase and the "
             "read phase so every thread sees the finished writes"),
        Rule("SAN-BARRIER-DIV", "syncthreads in thread-divergent branch",
             Severity.ERROR,
             "hoist cuda.syncthreads() out of the thread-dependent "
             "branch; every thread of the block must reach the barrier"),
        Rule("SAN-UNCOALESCED", "strided global memory access",
             Severity.WARNING,
             "make consecutive threads touch consecutive elements "
             "(thread i -> arr[i]); restructure the index or transpose "
             "the layout"),
        Rule("SAN-BANK-CONFLICT", "shared-memory bank conflict stride",
             Severity.WARNING,
             "shared memory has 32 banks; use a stride that is odd "
             "relative to 32 (pad rows by +1) so warp lanes hit distinct "
             "banks"),
        Rule("SAN-STREAM-HAZARD", "same buffer on two streams without a "
             "dependency", Severity.ERROR,
             "record an Event after the first launch and make the second "
             "stream wait_for() it (or synchronize between them)"),
        Rule("SAN-DYN-WW", "write/write race detected at runtime",
             Severity.ERROR,
             "two threads wrote the same cell in the same barrier "
             "interval; separate the writes with cuda.syncthreads() or "
             "use cuda.atomic"),
        Rule("SAN-DYN-RW", "read/write race detected at runtime",
             Severity.ERROR,
             "a thread read a cell another thread wrote in the same "
             "barrier interval; insert cuda.syncthreads() between the "
             "producing and consuming phases"),
        Rule("SAN-COLL-SHAPE", "collective precondition violated",
             Severity.ERROR,
             "all participants must pass same-shape, same-dtype buffers "
             "and exactly one buffer per device"),
        Rule("SAN-COLL-RING", "blocking ring schedule deadlocks",
             Severity.ERROR,
             "phase the ring (even ranks send first, odd ranks receive "
             "first) or use buffered/async sends"),
        Rule("SAN-HOST-CALL-IN-KERNEL", "host-only API reachable from a "
             "kernel body", Severity.ERROR,
             "kernels run on the device: allocation, file/console I/O, "
             "and host-clock reads reachable from a @cuda.jit body (even "
             "through helper calls) either crash the launch or serialize "
             "it on the host — hoist the host work out of the kernel and "
             "pass results in as parameters"),
        Rule("SAN-SYNTAX", "file could not be parsed", Severity.ERROR,
             "fix the Python syntax error; nothing in the file was "
             "linted"),
        # -- PERF: host-side workflow anti-patterns ----------------------
        Rule("PERF-LOOP-TRANSFER", "loop-invariant host<->device transfer "
             "inside a loop", Severity.WARNING,
             "the transferred data does not change across iterations; "
             "hoist the transfer above the loop and reuse the device "
             "array (each iteration pays the PCIe round trip again)"),
        Rule("PERF-LOOP-ALLOC", "loop-invariant device allocation inside "
             "a loop", Severity.WARNING,
             "allocate once before the loop and reuse the buffer; "
             "per-iteration allocation churns the memory pool and "
             "serializes on the allocator"),
        Rule("PERF-BLOCKING-SYNC", "blocking stream/event sync inside a "
             "hot loop", Severity.WARNING,
             "synchronize once after the loop (or every N iterations); "
             "a per-iteration synchronize()/wait() drains the pipeline "
             "and idles the GPU between launches"),
        Rule("PERF-UNBUCKETED", "per-parameter all-reduce inside a loop",
             Severity.WARNING,
             "fuse the gradient list into one bucket with "
             "repro.distributed.collectives.bucketed_allreduce; a ring "
             "all-reduce per tensor pays the per-step latency once per "
             "parameter instead of once per bucket"),
        Rule("PERF-SHAPE", "static shape mismatch in xp/nn call chain",
             Severity.ERROR,
             "the operand shapes cannot broadcast / compose; fix the "
             "shapes before launching — this raises ShapeError at "
             "runtime after the cloud bill has started"),
        Rule("PERF-DTYPE", "silent dtype promotion on a device array",
             Severity.WARNING,
             "mixing float32 and float64 silently promotes to float64, "
             "doubling device memory traffic and halving effective "
             "bandwidth; cast explicitly with .astype()"),
        # -- COST: pre-flight plan economics -----------------------------
        Rule("COST-UNKNOWN-TYPE", "instance type not in the pricing "
             "catalog", Severity.ERROR,
             "use a SKU from repro.cloud.pricing.INSTANCE_CATALOG; an "
             "unknown type fails at RunInstances time with "
             "InvalidParameterValue"),
        Rule("COST-BUDGET-CAP", "plan cost exceeds the per-student hard "
             "cap", Severity.ERROR,
             "the $100/student cap (§III-A1) is enforced at accrual "
             "time: this plan raises BudgetExceededError mid-run; use a "
             "cheaper SKU, fewer instances, or fewer hours"),
        Rule("COST-LAB-ENVELOPE", "plan cost exceeds the Fig 5 per-lab "
             "envelope", Severity.WARNING,
             "the course averages $50-60/student over 12+ labs (~$5 per "
             "lab); right-size the instance (g4dn.xlarge covers every "
             "single-GPU lab) or shorten the session"),
        Rule("COST-IDLE", "plan launches instances with no teardown or "
             "reaper in scope", Severity.WARNING,
             "call script.teardown() when done or run an IdleReaper "
             "sweep; §III-A reports idle instances as the main budget "
             "leak the automation had to close"),
        Rule("COST-SPOT", "long on-demand GPU session with no spot "
             "fallback", Severity.NOTE,
             "sessions this long pay the ~70% on-demand premium; "
             "repro.cloud.spot with checkpoint/restart cuts the bill to "
             "~30% at the price of interruption handling"),
        # -- IAM: least-privilege plan analysis --------------------------
        Rule("IAM-UNDER-GRANT", "plan needs an action the policy denies",
             Severity.ERROR,
             "the plan's simulated API calls will raise "
             "AccessDeniedError at runtime; attach an Allow statement "
             "for the listed action/resource before launching"),
        Rule("IAM-OVER-GRANT", "policy grants write/admin actions the "
             "plan never uses", Severity.WARNING,
             "least privilege: drop the unused statement or scope it to "
             "the actions the plan actually makes (read-only "
             "Describe*/Get*/List* grants are not flagged)"),
        # -- MEM: device-memory liveness ---------------------------------
        Rule("MEM-LEAK", "device buffer never freed", Severity.WARNING,
             "call .free() before the name is rebound or goes out of "
             "scope; on a long-running workflow every leaked buffer "
             "shrinks the pool until an avoidable OOM — the dynamic "
             "counterpart is MemoryPool.leak_report() at teardown"),
        Rule("MEM-UAF", "use of a device buffer after .free()",
             Severity.ERROR,
             "the buffer's storage was returned to the pool on at least "
             "one path reaching this use; reorder the free below the "
             "last use — at runtime this raises DeviceError "
             "('use of freed device buffer')"),
        Rule("MEM-PEAK-OOM", "estimated peak device memory exceeds the "
             "target instance's GPU", Severity.ERROR,
             "right-size before launching: the run would die with "
             "OutOfMemoryError after the cloud bill has started; pick "
             "the suggested SKU, shrink the working set, or free "
             "buffers earlier to lower the peak"),
        Rule("MEM-CHURN", "alloc/free pair inside a hot loop",
             Severity.WARNING,
             "the allocation is loop-invariant: hoist it above the loop "
             "and reuse the buffer, freeing once afterwards — "
             "per-iteration alloc/free churns the pool and serializes "
             "on the allocator (same cure as PERF-LOOP-ALLOC)"),
        Rule("MEM-PINNED-OVERSUB", "pinned host staging exceeds a safe "
             "fraction of host RAM", Severity.WARNING,
             "page-locked memory is wired down and starves the OS when "
             "oversubscribed; stage transfers through a bounded pinned "
             "ring buffer instead of pinning the whole dataset"),
        # -- DET: byte-identical output on the simulated clock -----------
        Rule("DET-WALLCLOCK", "wall-clock read inside simulated-clock "
             "code", Severity.ERROR,
             "the simulated stack advances its own clock; time.time(), "
             "perf_counter(), and datetime.now() smuggle host wall time "
             "into results and break byte-identical reports — thread "
             "the simulated clock (or an injected now()) instead"),
        Rule("DET-UNSEEDED-RNG", "module-level RNG use without a "
             "threaded seed", Severity.WARNING,
             "random.*/np.random.* draw from the process-global "
             "generator, so results change run to run; construct a "
             "seeded generator (random.Random(seed), "
             "np.random.default_rng(seed)) and thread it through, or "
             "seed the module RNG before first use"),
        Rule("DET-UNORDERED-ITER", "iteration over an unordered "
             "collection reaches a report/export", Severity.WARNING,
             "set iteration order varies with PYTHONHASHSEED; sort the "
             "elements (sorted(...)) before anything derived from the "
             "iteration is printed, dumped, or exported so the emitted "
             "bytes are stable"),
        # -- VEC: kernel classification notes ----------------------------
        Rule("VEC-VECTORIZABLE", "kernel matches a vectorizable "
             "archetype", Severity.NOTE,
             "the access footprint is regular; a JIT dispatcher may "
             "lower this kernel to the equivalent vectorized host "
             "expression instead of the per-thread interpreter"),
        Rule("VEC-DIVERGENT", "kernel falls back to the scalar "
             "per-thread path", Severity.NOTE,
             "a data-dependent barrier or an irregular (non-affine) "
             "subscript blocks vectorization; restructure the kernel "
             "around an affine index if lowering matters"),
    ]
}


def make_finding(rule_id: str, message: str, *, file: str = "",
                 line: int = 0, context: str = "",
                 severity: Severity | None = None) -> Finding:
    """Build a :class:`Finding` for a registered rule (hint filled in)."""
    rule = RULES[rule_id]
    return Finding(
        rule=rule_id,
        severity=rule.severity if severity is None else severity,
        message=message,
        file=file,
        line=line,
        context=context,
        hint=rule.hint,
    )


__all__ = ["RULES", "Rule", "make_finding"]
