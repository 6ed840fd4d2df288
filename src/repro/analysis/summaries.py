"""Composable per-function summaries for the interprocedural layer.

Each function in the call graph gets one :class:`FunctionSummary` — the
externally-visible effects of calling it:

* **transfer/alloc** — a host↔device transfer or device allocation the
  function performs unconditionally (outside its own loops) with
  arguments fully determined by its inputs or module state.  A caller
  that invokes the function inside a loop with loop-invariant arguments
  repeats that transfer every iteration (the interprocedural PERF-*
  rules).
* **host** — a host-only API call (allocation, file/console I/O, host
  clock) — only tracked for functions reachable from ``@cuda.jit``
  kernels, where reaching one is the SAN-HOST-CALL-IN-KERNEL error.
* **draw** — a draw from an RNG namespace received as a *parameter*
  (``def jitter(rng): return rng.random()``); the DET rule fires at the
  call site that feeds the process-global ``random``/``np.random``
  module in unseeded.
* **escape** — a device allocation (``pool.alloc(...)``) the function
  returns; the MEM rule blames the caller that drops the handle.
* **plan** — a cloud launch plan (``BootstrapScript`` & co.) whose
  fields come from the function's parameters; the COST rules price it
  at call sites that bind the fields to literals.

Summaries compose bottom-up over :meth:`CallGraph.summary_order`:
effects lift through resolved call sites with the hop recorded in the
effect's chain, SCCs iterate to a fixpoint (effect sets are keyed and
monotone, so iteration terminates), and **unresolved calls contribute
nothing** — the conservative top summary claims no effects, so nothing
is reported through an edge the resolver could not prove (precision
over recall, like every pass in the suite).

Local summaries are cached on ``(function fingerprint, file salt)`` —
the fingerprint hashes the function's own source, the salt hashes the
file-level alias environment the classification depends on — so a
repeated sweep re-extracts only what changed.  ``summary_cache_info()``
exposes the hit/miss counters the benchmark asserts against.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field

from repro.analysis.callgraph import CallGraph, CallSite, FunctionInfo
from repro.analysis.context import LEAVES, AnalysisContext, children, nodes_of
from repro.analysis.detpass import _NP_RNG_FNS, _STD_RNG_FNS, _Aliases
from repro.perflint.perfpass import (
    _ALLOCS,
    _TRANSFERS,
    _XP_ALLOCS,
    _XP_TRANSFERS,
    _arg_names,
)

#: call-chain hops are capped so recursive lifting cannot grow paths
#: without bound (the effect *key* ignores the chain, so the cap only
#: trims display depth, never correctness)
MAX_CHAIN_HOPS = 8

#: host-only console/file I/O recognizable by bare name / attribute
_HOST_IO_NAMES = {"print", "open", "input"}
_HOST_IO_ATTRS = {"write", "writelines"}

#: allocation attrs that are host API even without an xp alias
_HOST_ALLOC_ATTRS = {"alloc"}

_RNG_FNS = _STD_RNG_FNS | _NP_RNG_FNS

_LOOP_TYPES = (ast.For, ast.While, ast.AsyncFor)
#: what :func:`_scope_walk` yields but does not expand: nested scopes
#: and leaves
_NOT_EXPANDED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef, *LEAVES)


@dataclass(frozen=True)
class Effect:
    """One externally-visible effect of calling a function.

    ``chain`` holds the hops from just below a would-be blame site down
    to the root cause — the last hop is always the root API call.  The
    identity ``key`` ignores the chain, so fixpoint iteration over a
    recursive cycle converges (the first, shortest path wins).
    """

    kind: str          # "transfer" | "alloc" | "host" | "draw" | "escape"
    label: str         # display label of the root API (e.g. "xp.asarray")
    chain: tuple       # ((file, line, label), ...), root last
    param: str = ""    # draw effects: the parameter the RNG arrives by

    @property
    def root(self) -> tuple:
        return self.chain[-1]

    @property
    def key(self) -> tuple:
        return (self.kind, self.label, self.param,
                self.root[0], self.root[1])


@dataclass(frozen=True)
class PlanTemplate:
    """A launch plan whose fields may still be parameter-shaped.

    ``fields`` maps each tracked constructor field to ``("lit", value)``
    or ``("param", name)``; the COST rule completes the template at a
    call site whose arguments are literals.
    """

    kind: str                  # "bootstrap" | "endpoint" | "notebook"
    fields: tuple              # ((field, ("lit"|"param", value)), ...)
    file: str
    line: int                  # the constructor line (the chain root)
    chain: tuple

    @property
    def key(self) -> tuple:
        return (self.kind, self.file, self.line, self.fields)


@dataclass
class FunctionSummary:
    """Everything callers can observe about one function."""

    fid: str
    effects: dict = field(default_factory=dict)   # key -> Effect
    plans: dict = field(default_factory=dict)     # key -> PlanTemplate
    returned_names: frozenset = frozenset()

    def add_effect(self, effect: Effect) -> bool:
        if effect.key in self.effects:
            return False
        self.effects[effect.key] = effect
        return True

    def add_plan(self, plan: PlanTemplate) -> bool:
        if plan.key in self.plans:
            return False
        self.plans[plan.key] = plan
        return True

    def by_kind(self, *kinds: str) -> list[Effect]:
        return [e for e in self.effects.values() if e.kind in kinds]


# ---------------------------------------------------------------------------
# Per-file environment (cached on the context)
# ---------------------------------------------------------------------------


class FileEnv:
    """File-level alias knowledge every extraction shares, built once
    per context and cached on it."""

    def __init__(self, ctx: AnalysisContext) -> None:
        tree = ctx.tree
        imports = nodes_of(tree, ast.Import, ast.ImportFrom)
        self.aliases = _Aliases(imports, ctx.namespaces[2])
        self.xp_names = ctx.namespaces[0]
        # families `seed(...)` is called for anywhere in the file — the
        # same file-level gate the intra DET fast path uses
        self.seeded: set[str] = set()
        for node in nodes_of(tree, ast.Call):
            fam = self.aliases.seed_call(node)
            if fam is not None:
                self.seeded.add(fam)
        self.identifiers = {n.id for n in nodes_of(tree, ast.Name)}
        self.identifiers.update(n.attr
                                for n in nodes_of(tree, ast.Attribute))
        # names bound at module top level: stable across a caller's
        # loop iterations for the transfer-invariance test
        self.module_names: set[str] = set()
        for stmt in tree.body:
            for target in getattr(stmt, "targets", ()):
                if isinstance(target, ast.Name):
                    self.module_names.add(target.id)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.module_names.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self.module_names.add(bound)

    @property
    def salt(self) -> str:
        cached = getattr(self, "_salt", None)
        if cached is None:
            a = self.aliases
            sig = repr((sorted(self.xp_names), sorted(self.module_names),
                        sorted(self.seeded), sorted(a.time_mods),
                        sorted(a.time_funcs), sorted(a.datetime_mods),
                        sorted(a.datetime_classes), sorted(a.random_mods),
                        sorted(a.random_funcs.items()),
                        sorted(a.np_random_mods), sorted(a.np_names)))
            cached = hashlib.sha1(sig.encode("utf-8")).hexdigest()
            self._salt = cached
        return cached


def file_env(ctx: AnalysisContext) -> FileEnv:
    env = getattr(ctx, "_interproc_env", None)
    if env is None:
        env = FileEnv(ctx)
        ctx._interproc_env = env
    return env


# ---------------------------------------------------------------------------
# Local extraction
# ---------------------------------------------------------------------------

_local_cache: dict[tuple, tuple] = {}
_cache_hits = 0
_cache_misses = 0


def summary_cache_info() -> dict:
    """``{"hits": int, "misses": int, "size": int}`` for the local
    summary cache (the benchmark's ledger)."""
    return {"hits": _cache_hits, "misses": _cache_misses,
            "size": len(_local_cache)}


def clear_summary_cache() -> None:
    global _cache_hits, _cache_misses
    _local_cache.clear()
    _cache_hits = 0
    _cache_misses = 0


def _scope_walk(stmts):
    """Yield ``(node, loop_depth)`` for every node in the scope, depth
    first, not descending into nested function/class scopes, nor into
    :data:`~repro.analysis.context.LEAVES` (a name's load/store context
    is the one node it skips: no caller asks for one)."""
    work = [(s, 0) for s in reversed(list(stmts))]
    while work:
        node, depth = work.pop()
        yield node, depth
        if isinstance(node, _NOT_EXPANDED):
            continue
        child_depth = depth + 1 if isinstance(node, _LOOP_TYPES) else depth
        work.extend([(child, child_depth)
                     for child in reversed(children(node))])


def _display(func: ast.AST) -> str:
    try:
        return ast.unparse(func)
    except Exception:  # pragma: no cover - exotic nodes
        return "<call>"


def _transfer_kind(call: ast.Call, env: FileEnv) -> str | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    recv = None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        recv = func.value.id
    is_xp = recv in env.xp_names
    if name in _TRANSFERS or (is_xp and name in _XP_TRANSFERS):
        return "transfer"
    if name in _ALLOCS or (is_xp and name in _XP_ALLOCS):
        return "alloc"
    return None


def _host_label(call: ast.Call, env: FileEnv) -> str | None:
    func = call.func
    if isinstance(func, ast.Name) and func.id in _HOST_IO_NAMES:
        return func.id
    clock = env.aliases.wallclock_call(call)
    if clock is not None:
        return clock
    if isinstance(func, ast.Attribute):
        if func.attr in _HOST_IO_ATTRS or func.attr in _HOST_ALLOC_ATTRS:
            return _display(func)
    if _transfer_kind(call, env) is not None:
        return _display(func)
    return None


def _local_summary(fn: FunctionInfo, *, track_host: bool,
                   cache: bool = True) -> tuple:
    """``(effects, plans, returned_names)`` from the function's own
    body — no callee knowledge.  Cached on content + environment."""
    global _cache_hits, _cache_misses
    env = file_env(fn.ctx)
    key = (fn.fingerprint, env.salt, track_host)
    if cache:
        hit = _local_cache.get(key)
        if hit is not None:
            _cache_hits += 1
            return hit
        _cache_misses += 1

    body = fn.node.body if fn.node is not None else fn.ctx.tree.body
    params = set(fn.params)
    stable = params | env.module_names
    file = fn.file

    effects: list[Effect] = []
    plans: list[PlanTemplate] = []
    returned: set[str] = set()
    alloc_bindings: dict[str, tuple] = {}   # name -> (line, label)

    for node, depth in _scope_walk(body):
        if isinstance(node, ast.Return):
            value = node.value
            if isinstance(value, ast.Name):
                returned.add(value.id)
                hit = alloc_bindings.get(value.id)
                if hit is not None:
                    effects.append(Effect(
                        "escape", hit[1], ((file, hit[0], hit[1]),)))
            elif isinstance(value, ast.Call) \
                    and isinstance(value.func, ast.Attribute) \
                    and value.func.attr in _HOST_ALLOC_ATTRS:
                label = _display(value.func)
                effects.append(Effect(
                    "escape", label, ((file, value.lineno, label),)))
            continue
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Attribute) \
                and node.value.func.attr in _HOST_ALLOC_ATTRS:
            alloc_bindings[node.targets[0].id] = (
                node.value.lineno, _display(node.value.func))
            continue
        if not isinstance(node, ast.Call):
            continue
        call = node
        kind = _transfer_kind(call, env)
        if kind is not None and depth == 0 \
                and _arg_names(call) <= stable:
            label = _display(call.func)
            effects.append(Effect(
                kind, label, ((file, call.lineno, label),)))
        if track_host:
            label = _host_label(call, env)
            if label is not None:
                effects.append(Effect(
                    "host", label, ((file, call.lineno, label),)))
        func = call.func
        if isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in params and func.attr in _RNG_FNS:
            label = f"{func.value.id}.{func.attr}"
            effects.append(Effect(
                "draw", func.attr, ((file, call.lineno, label),),
                param=func.value.id))
        template = _plan_template(call, params, file)
        if template is not None:
            plans.append(template)

    # names bound to an escaped-but-unreturned alloc do not escape; the
    # intra MEM pass owns those.  Dedup by key, first (shortest) wins.
    out_effects: dict = {}
    for e in effects:
        out_effects.setdefault(e.key, e)
    out_plans: dict = {}
    for p in plans:
        out_plans.setdefault(p.key, p)
    result = (tuple(out_effects.values()), tuple(out_plans.values()),
              frozenset(returned))
    if cache:
        _local_cache[key] = result
    return result


#: tracked constructor fields, mirroring ``costpass.extract_plans``
_PLAN_SPECS = {
    "BootstrapScript": ("bootstrap",
                        ("instance_type", "instance_count"),
                        ("instance_type", "instance_count",
                         "expected_hours")),
    "EndpointConfig": ("endpoint",
                       ("name", "instance_type", "initial_replicas",
                        "min_replicas", "max_replicas"),
                       ("instance_type", "max_replicas",
                        "expected_hours")),
    "create_notebook_instance": ("notebook",
                                 (None, "type_name"),
                                 ("type_name",)),
}


def _plan_template(call: ast.Call, params: set,
                   file: str) -> PlanTemplate | None:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    spec = _PLAN_SPECS.get(name or "")
    if spec is None:
        return None
    kind, pos_fields, kw_fields = spec
    fields: dict[str, tuple] = {}
    n_params = 0
    for value, field_name in zip(call.args, pos_fields):
        if field_name is None:
            continue
        slot = _field_value(value, params)
        if slot is None:
            return None
        fields[field_name] = slot
        n_params += slot[0] == "param"
    for kw in call.keywords:
        if kw.arg is None:
            return None                      # **splat: unknowable
        if kw.arg in kw_fields:
            slot = _field_value(kw.value, params)
            if slot is None:
                return None
            fields[kw.arg] = slot
            n_params += slot[0] == "param"
    if n_params == 0:
        return None          # fully literal: the intra COST pass owns it
    label = f"{name}(...)"
    return PlanTemplate(
        kind=kind, fields=tuple(sorted(fields.items())), file=file,
        line=call.lineno, chain=((file, call.lineno, label),))


def _field_value(node: ast.AST, params: set) -> tuple | None:
    if isinstance(node, ast.Name) and node.id in params:
        return ("param", node.id)
    try:
        return ("lit", ast.literal_eval(node))
    except (ValueError, SyntaxError):
        return None


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------


def callee_params(site: CallSite, callee: FunctionInfo) -> tuple:
    """The callee's parameters as positional args see them — a bound
    method call consumes the ``self``/``cls`` slot implicitly."""
    params = callee.params
    if params[:1] in (("self",), ("cls",)) and "." in site.name:
        return params[1:]
    return params


def argument_for(site: CallSite, callee: FunctionInfo,
                 param: str) -> ast.AST | None:
    """The expression the call site passes for ``param`` (accounting
    for ``functools.partial``-bound leading positionals), or ``None``."""
    params = list(callee_params(site, callee))
    if param not in params:
        return None
    idx = params.index(param)
    if idx < len(site.prepend_args):
        return site.prepend_args[idx]
    pos = idx - len(site.prepend_args)
    if pos < len(site.call.args):
        arg = site.call.args[pos]
        if not isinstance(arg, ast.Starred):
            return arg
        return None
    for kw in site.call.keywords:
        if kw.arg == param:
            return kw.value
    return None


def _extend_chain(hop: tuple, chain: tuple) -> tuple:
    if len(chain) >= MAX_CHAIN_HOPS:
        return chain
    return (hop,) + chain


def _lift_site(summary: FunctionSummary, fn: FunctionInfo, env: FileEnv,
               site: CallSite, callee_summary: FunctionSummary,
               callee: FunctionInfo, *, track_host: bool) -> bool:
    """Fold one resolved call site's callee summary into the caller's.
    Returns True when anything new was learned."""
    changed = False
    hop = (fn.file, site.line, f"{site.name}(...)")
    stable = set(fn.params) | env.module_names

    # transfers/allocs forward through plain out-of-loop calls whose
    # own arguments are input- or module-determined
    if site.loop_depth == 0 and _arg_names(site.call) <= stable:
        for e in callee_summary.by_kind("transfer", "alloc"):
            changed |= summary.add_effect(Effect(
                e.kind, e.label, _extend_chain(hop, e.chain)))

    if track_host:
        for e in callee_summary.by_kind("host"):
            changed |= summary.add_effect(Effect(
                "host", e.label, _extend_chain(hop, e.chain)))

    for e in callee_summary.by_kind("draw"):
        arg = argument_for(site, callee, e.param)
        if isinstance(arg, ast.Name) and arg.id in fn.params:
            changed |= summary.add_effect(Effect(
                "draw", e.label, _extend_chain(hop, e.chain),
                param=arg.id))

    if site.returned or (site.bound_to is not None
                         and site.bound_to in summary.returned_names):
        for e in callee_summary.by_kind("escape"):
            changed |= summary.add_effect(Effect(
                "escape", e.label, _extend_chain(hop, e.chain)))

    for plan in callee_summary.plans.values():
        lifted = _lift_plan(plan, site, callee, fn, hop)
        if lifted is not None:
            changed |= summary.add_plan(lifted)
    return changed


def _lift_plan(plan: PlanTemplate, site: CallSite, callee: FunctionInfo,
               fn: FunctionInfo, hop: tuple) -> PlanTemplate | None:
    fields: dict[str, tuple] = {}
    for field_name, slot in plan.fields:
        if slot[0] == "lit":
            fields[field_name] = slot
            continue
        arg = argument_for(site, callee, slot[1])
        if arg is None:
            return None
        lifted = _field_value(arg, set(fn.params))
        if lifted is None:
            return None
        fields[field_name] = lifted
    return PlanTemplate(
        kind=plan.kind, fields=tuple(sorted(fields.items())),
        file=plan.file, line=plan.line,
        chain=_extend_chain(hop, plan.chain))


def device_affine_summary(
        fn: ast.FunctionDef) -> tuple[dict[str, int], int] | None:
    """Affine summary of a straight-line device helper: ``(coeffs,
    const)`` such that the helper returns ``Σ coeffs[p]·p + const``
    over its parameters — or ``None`` when the body is anything richer.

    This is what lets the abstract interpreter
    (:mod:`repro.analysis.absint`) inline a helper call like
    ``flat_index(i, j, width)`` by summary instead of dropping the
    index to top: only simple ``name = <affine>`` assignments followed
    by a final ``return <affine>`` qualify, so the summary is exact
    whenever it exists.
    """
    params = [a.arg for a in fn.args.args]
    if fn.args.vararg or fn.args.kwarg or fn.args.kwonlyargs \
            or fn.args.posonlyargs:
        return None
    env: dict[str, tuple[dict[str, int], int]] = {
        p: ({p: 1}, 0) for p in params}

    def affine_of(node) -> tuple[dict[str, int], int] | None:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) \
                    or not isinstance(node.value, int):
                return None
            return {}, node.value
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub):
            sub = affine_of(node.operand)
            if sub is None:
                return None
            return {k: -v for k, v in sub[0].items()}, -sub[1]
        if isinstance(node, ast.BinOp):
            left = affine_of(node.left)
            right = affine_of(node.right)
            if left is None or right is None:
                return None
            if isinstance(node.op, ast.Add):
                out = dict(left[0])
                for k, v in right[0].items():
                    out[k] = out.get(k, 0) + v
                return out, left[1] + right[1]
            if isinstance(node.op, ast.Sub):
                out = dict(left[0])
                for k, v in right[0].items():
                    out[k] = out.get(k, 0) - v
                return out, left[1] - right[1]
            if isinstance(node.op, ast.Mult):
                for const, form in ((left, right), (right, left)):
                    if not const[0]:
                        return ({k: v * const[1]
                                 for k, v in form[0].items()},
                                form[1] * const[1])
                return None
        return None

    for stmt in fn.body[:-1]:
        if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)):
            return None
        value = affine_of(stmt.value)
        if value is None:
            return None
        env[stmt.targets[0].id] = value
    last = fn.body[-1] if fn.body else None
    if not isinstance(last, ast.Return) or last.value is None:
        return None
    result = affine_of(last.value)
    if result is None:
        return None
    coeffs = {k: v for k, v in result[0].items() if v}
    if any(k not in params for k in coeffs):
        return None
    return coeffs, result[1]


def kernel_reachable(graph: CallGraph) -> frozenset:
    """Every function reachable from a ``@cuda.jit`` kernel through
    resolved edges — the only scope host effects are tracked in."""
    work = [fid for fid, fn in graph.functions.items() if fn.is_kernel]
    seen: set[str] = set(work)
    while work:
        fid = work.pop()
        for site in graph.callees_of(fid):
            if site.callee is not None and site.callee not in seen \
                    and site.callee in graph.functions:
                seen.add(site.callee)
                work.append(site.callee)
    return frozenset(seen)


def build_summaries(graph: CallGraph, *,
                    cache: bool = True) -> dict[str, FunctionSummary]:
    """Compose every function's summary bottom-up over the SCC
    condensation, iterating recursive components to a fixpoint."""
    host_track = kernel_reachable(graph)
    summaries: dict[str, FunctionSummary] = {}
    for scc in graph.summary_order():
        members = set(scc)
        recursive = len(scc) > 1 or any(
            site.callee == scc[0] for site in graph.callees_of(scc[0]))
        for fid in scc:
            fn = graph.functions[fid]
            effects, plans, returned = _local_summary(
                fn, track_host=fid in host_track, cache=cache)
            summary = FunctionSummary(fid, returned_names=returned)
            for e in effects:
                summary.add_effect(e)
            for p in plans:
                summary.add_plan(p)
            summaries[fid] = summary
        while True:
            changed = False
            for fid in scc:
                fn = graph.functions[fid]
                env = file_env(fn.ctx)
                summary = summaries[fid]
                for site in graph.callees_of(fid):
                    callee_summary = summaries.get(site.callee or "")
                    if callee_summary is None:
                        continue
                    changed |= _lift_site(
                        summary, fn, env, site, callee_summary,
                        graph.functions[site.callee],
                        track_host=fid in host_track)
            if not changed or not recursive:
                break
    return summaries


__all__ = [
    "Effect",
    "FunctionSummary",
    "PlanTemplate",
    "build_summaries",
    "clear_summary_cache",
    "device_affine_summary",
    "file_env",
    "kernel_reachable",
    "summary_cache_info",
]
