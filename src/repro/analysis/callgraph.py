"""Project-wide call graph for the interprocedural analyzer layer.

One graph per driver run: every function definition in every analyzed
file is a node, and every call the resolver can bind to a definition is
an edge carrying its call site.  Resolution goes through the same alias
knowledge the :class:`~repro.analysis.context.AnalysisContext` passes
already share — import tables (``import m`` / ``import m as a`` /
``from m import f``, including relative imports), local function
definitions (module-level, nested, and methods), plain name aliases
(``g = f``), and ``functools.partial(f, ...)`` bindings (the bound
arguments are kept so param-sensitive summaries can shift positions).

What the resolver cannot prove, it leaves **unresolved**: a call
through a subscript, a computed attribute, or a name with no known
binding produces an :class:`CallSite` with ``callee=None``.  Summary
composition treats those as the conservative *top* — the callee could
do anything, so nothing specific is claimed through that edge
(precision over recall, like every pass in the suite).

The graph is condensed into strongly-connected components (iterative
Tarjan) and :meth:`CallGraph.summary_order` yields the SCCs in reverse
topological order — callees before callers — which is the order the
summary builder composes in, iterating each recursive cycle to a
fixpoint.

``to_json()`` / ``to_dot()`` export the resolved graph for debugging
(``python -m repro.analysis --call-graph dot|json``).
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field

from repro.analysis.context import (
    LEAVES,
    AnalysisContext,
    _is_kernel_def,
    children,
    loop_bound_names,
    nodes_of,
)

MODULE_SCOPE = "<module>"

_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
#: nodes the call scan does not descend into: scopes whose calls are
#: another scope's, and leaves, which hold none
_NO_CALLS_BELOW = (*_FUNC_TYPES, ast.ClassDef, ast.Lambda, *LEAVES)


def module_name_for(filename: str) -> str:
    """Dotted module name for one analyzed file path.

    ``src/repro/analysis/cfg.py`` -> ``repro.analysis.cfg``; paths with
    no ``src`` segment keep their full dotted form, and package
    ``__init__.py`` files name the package itself.
    """
    parts = [p for p in filename.replace("\\", "/").split("/") if p
             and p != "."]
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    parts = parts[:-1] + ([leaf] if leaf != "__init__" else [])
    return ".".join(parts)


@dataclass
class FunctionInfo:
    """One function definition: the call-graph node."""

    fid: str                    # "<file>::<qualname>", unique per run
    name: str                   # bare name
    qualname: str               # dotted, e.g. "Pool.alloc" / "outer.inner"
    file: str
    node: ast.AST | None        # FunctionDef, or None for module scope
    ctx: AnalysisContext
    is_kernel: bool = False     # decorated @cuda.jit
    params: tuple = ()          # positional-or-keyword + kwonly arg names

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)

    @property
    def fingerprint(self) -> str:
        """Content identity: hashes the function's own source segment,
        so the summary cache survives edits elsewhere in the file."""
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        if self.node is None:
            body = self.ctx.dedented
        else:
            start = self.node.lineno - 1
            end = getattr(self.node, "end_lineno", start + 1)
            body = "\n".join(self.ctx.lines[start:end])
        fp = hashlib.sha1(
            f"{self.qualname}|{body}".encode("utf-8")).hexdigest()
        self._fingerprint = fp
        return fp


@dataclass
class CallSite:
    """One call expression attributed to its enclosing function."""

    caller: str                 # fid of the enclosing scope
    callee: str | None          # fid, or None when unresolvable
    call: ast.Call
    line: int
    name: str                   # display name of what was called
    loop_depth: int = 0         # enclosing loops in the *caller* scope
    loop_bound: frozenset = frozenset()   # names the innermost loop binds
    bound_to: str | None = None   # `x = f(...)` target name, if simple
    returned: bool = False        # `return f(...)`
    prepend_args: tuple = ()      # positional args bound by partial()


@dataclass
class CallGraph:
    """The resolved project call graph plus its SCC condensation."""

    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    sites: list[CallSite] = field(default_factory=list)
    #: caller fid -> its call sites, resolution order
    by_caller: dict[str, list[CallSite]] = field(default_factory=dict)

    def add_site(self, site: CallSite) -> None:
        self.sites.append(site)
        self.by_caller.setdefault(site.caller, []).append(site)

    def callees_of(self, fid: str) -> list[CallSite]:
        return self.by_caller.get(fid, [])

    @property
    def unresolved(self) -> list[CallSite]:
        return [s for s in self.sites if s.callee is None]

    # -- SCC condensation ----------------------------------------------

    def sccs(self) -> list[list[str]]:
        """Tarjan's SCCs (iterative), in discovery order."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        out: list[list[str]] = []
        counter = [0]
        edges = {
            fid: sorted({s.callee for s in self.callees_of(fid)
                         if s.callee is not None and s.callee
                         in self.functions})
            for fid in self.functions
        }

        for root in sorted(self.functions):
            if root in index:
                continue
            work: list[tuple[str, int]] = [(root, 0)]
            while work:
                node, i = work[-1]
                if i == 0:
                    index[node] = low[node] = counter[0]
                    counter[0] += 1
                    stack.append(node)
                    on_stack.add(node)
                advanced = False
                succs = edges[node]
                while i < len(succs):
                    succ = succs[i]
                    i += 1
                    if succ not in index:
                        work[-1] = (node, i)
                        work.append((succ, 0))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[node] = min(low[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if low[node] == index[node]:
                    scc: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    out.append(sorted(scc))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return out

    def summary_order(self) -> list[list[str]]:
        """SCCs in reverse topological order: every callee's component
        appears before (or with) its callers' — the order summaries
        compose bottom-up.  Tarjan emits components exactly in that
        order, so this is :meth:`sccs` by another, intent-revealing
        name."""
        return self.sccs()

    # -- exports --------------------------------------------------------

    def to_json(self) -> dict:
        nodes = []
        for fid in sorted(self.functions):
            fn = self.functions[fid]
            nodes.append({
                "id": fid,
                "file": fn.file,
                "qualname": fn.qualname,
                "line": fn.line,
                "kernel": fn.is_kernel,
            })
        edges = []
        for site in self.sites:
            edges.append({
                "caller": site.caller,
                "callee": site.callee,
                "line": site.line,
                "name": site.name,
                "resolved": site.callee is not None,
            })
        edges.sort(key=lambda e: (e["caller"], e["line"],
                                  e["callee"] or "", e["name"]))
        sccs = [c for c in self.summary_order() if len(c) > 1]
        return {"tool": "repro.analysis", "version": 1,
                "nodes": nodes, "edges": edges, "cycles": sccs}

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def to_dot(self) -> str:
        lines = ["digraph callgraph {", "  rankdir=LR;"]
        for fid in sorted(self.functions):
            fn = self.functions[fid]
            shape = "doubleoctagon" if fn.is_kernel else "box"
            label = f"{fn.qualname}\\n{fn.file}:{fn.line}"
            lines.append(f'  "{fid}" [shape={shape}, label="{label}"];')
        # unresolved callees render as dashed pseudo-nodes ("?::name")
        # so the dot artifact shows every edge the json export has;
        # both passes sort the same way, keeping the bytes stable
        unresolved = sorted({site.name for site in self.sites
                             if site.callee is None})
        for name in unresolved:
            lines.append(f'  "?::{name}" [shape=ellipse, '
                         f'style=dashed, label="{name}?"];')
        seen: set[tuple] = set()
        for site in sorted(self.sites,
                           key=lambda s: (s.caller, s.line, s.name)):
            if site.callee is None:
                key = (site.caller, f"?::{site.name}")
                if key in seen:
                    continue
                seen.add(key)
                lines.append(f'  "{site.caller}" -> "?::{site.name}" '
                             "[style=dashed];")
                continue
            key = (site.caller, site.callee)
            if key in seen:
                continue
            seen.add(key)
            lines.append(f'  "{site.caller}" -> "{site.callee}";')
        lines.append("}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------


class _Binding:
    """What one name refers to in some scope."""

    __slots__ = ("kind", "target", "prepend_args")

    def __init__(self, kind: str, target: str,
                 prepend_args: tuple = ()) -> None:
        self.kind = kind            # "func" | "module" | "import"
        self.target = target        # fid, or dotted module, or "mod:attr"
        self.prepend_args = prepend_args


class _FileScanner:
    """Collects one file's definitions, imports, and call sites."""

    def __init__(self, ctx: AnalysisContext, graph: CallGraph) -> None:
        self.ctx = ctx
        self.graph = graph
        self.module = module_name_for(ctx.filename)
        # pending call sites: (scope fid, call node, scope-local bindings,
        # loop_depth, bound_to, returned) resolved after all files scan
        self.pending: list[tuple] = []
        self.module_bindings: dict[str, _Binding] = {}
        self.classes: dict[str, dict[str, str]] = {}   # Class -> name->fid
        self.def_fids: dict[int, str] = {}             # id(def node) -> fid

    def fid_for(self, qualname: str) -> str:
        return f"{self.ctx.filename}::{qualname}"

    # -- pass 1: definitions -------------------------------------------

    def collect(self) -> None:
        ctx = self.ctx
        mod = FunctionInfo(
            fid=self.fid_for(MODULE_SCOPE), name=MODULE_SCOPE,
            qualname=MODULE_SCOPE, file=ctx.filename, node=None, ctx=ctx)
        self.graph.functions[mod.fid] = mod
        self._collect_defs(ctx.tree.body, prefix="", class_name=None)

    def _collect_defs(self, stmts, prefix: str,
                      class_name: str | None) -> None:
        for stmt in stmts:
            if isinstance(stmt, _FUNC_TYPES):
                qualname = prefix + stmt.name
                fid = self.fid_for(qualname)
                params = tuple(
                    a.arg for a in (stmt.args.posonlyargs + stmt.args.args
                                    + stmt.args.kwonlyargs))
                self.graph.functions[fid] = FunctionInfo(
                    fid=fid, name=stmt.name, qualname=qualname,
                    file=self.ctx.filename, node=stmt, ctx=self.ctx,
                    is_kernel=_is_kernel_def(stmt, self.ctx.cuda_names),
                    params=params)
                self.def_fids[id(stmt)] = fid
                if class_name is not None:
                    self.classes.setdefault(class_name, {})[stmt.name] = fid
                elif prefix == "":
                    self.module_bindings[stmt.name] = _Binding("func", fid)
                self._collect_defs(stmt.body, prefix=qualname + ".",
                                   class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                qualname = prefix + stmt.name
                self.classes.setdefault(stmt.name, {})
                self._collect_defs(stmt.body, prefix=qualname + ".",
                                   class_name=stmt.name)
            elif isinstance(stmt, (ast.If, ast.Try,
                                   getattr(ast, "TryStar", ast.Try))):
                for body in self._compound_bodies(stmt):
                    self._collect_defs(body, prefix, class_name)

    @staticmethod
    def _compound_bodies(stmt):
        if isinstance(stmt, ast.If):
            return [stmt.body, stmt.orelse]
        bodies = [stmt.body, stmt.orelse, stmt.finalbody]
        bodies.extend(h.body for h in stmt.handlers)
        return bodies

    # -- pass 2: imports, aliases, and call sites ----------------------

    def scan(self) -> None:
        self._scan_imports()
        module_fid = self.fid_for(MODULE_SCOPE)
        self._scan_scope(self.ctx.tree.body, module_fid, {},
                         class_name=None)

    def _scan_imports(self) -> None:
        for node in nodes_of(self.ctx.tree, ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname \
                        else alias.name.split(".")[0]
                    self.module_bindings.setdefault(
                        bound, _Binding("module", target))
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if node.level:
                    base = self.module.split(".")
                    base = base[:len(base) - node.level]
                    mod = ".".join(base + ([mod] if mod else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.module_bindings.setdefault(
                        bound, _Binding("import", f"{mod}:{alias.name}"))

    def _scan_scope(self, stmts, scope_fid: str, local: dict,
                    class_name: str | None, loop_depth: int = 0,
                    class_body: bool = False,
                    loop_bound: frozenset = frozenset()) -> None:
        # pre-register sibling defs so mutually-recursive nested
        # functions (and forward calls) resolve regardless of text order
        for stmt in stmts:
            if isinstance(stmt, _FUNC_TYPES) and not class_body:
                fid = self.def_fids.get(id(stmt))
                if fid is not None:
                    local.setdefault(stmt.name, _Binding("func", fid))
        for stmt in stmts:
            if isinstance(stmt, _FUNC_TYPES):
                fn = self.def_fids.get(id(stmt))
                if fn is None:  # pragma: no cover - defensive
                    continue
                # a method body keeps its class in scope for self./cls.
                self._scan_scope(stmt.body, fn, dict(local), class_name)
                continue
            if isinstance(stmt, ast.ClassDef):
                self._scan_scope(stmt.body, scope_fid, dict(local),
                                 stmt.name, loop_depth, class_body=True)
                continue
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name):
                self._record_alias(
                    stmt.targets[0].id, stmt.value, local,
                    module_level=(scope_fid.endswith(f"::{MODULE_SCOPE}")
                                  and not class_body))
            # call sites in this statement (not descending into nested
            # defs — those belong to the inner scope)
            is_loop = isinstance(stmt, (ast.For, ast.While, ast.AsyncFor))
            in_loop = loop_depth + (1 if is_loop else 0)
            in_bound = loop_bound_names(stmt) if is_loop else loop_bound
            self._scan_calls(stmt, scope_fid, local, class_name,
                             loop_depth, loop_bound)
            for body in self._stmt_bodies(stmt):
                self._scan_scope(body, scope_fid, local, class_name,
                                 in_loop, loop_bound=in_bound)

    @staticmethod
    def _stmt_bodies(stmt):
        out = []
        for attr in ("body", "orelse", "finalbody"):
            body = getattr(stmt, attr, None)
            if isinstance(body, list) and body \
                    and isinstance(body[0], ast.stmt):
                out.append(body)
        for handler in getattr(stmt, "handlers", ()):
            out.append(handler.body)
        return out

    def _scan_calls(self, stmt: ast.stmt, scope_fid: str, local: dict,
                    class_name: str | None, loop_depth: int,
                    loop_bound: frozenset = frozenset()) -> None:
        bound_to = None
        returned = isinstance(stmt, ast.Return)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            bound_to = stmt.targets[0].id
        top_value = getattr(stmt, "value", None)
        # the bindings as this statement sees them: one snapshot shared
        # by its call sites, since resolution only reads it
        snapshot = None
        work = [node for node in children(stmt)
                if not isinstance(node, ast.stmt)]
        while work:
            node = work.pop()
            if isinstance(node, _NO_CALLS_BELOW):
                continue
            if isinstance(node, ast.Call):
                if snapshot is None:
                    snapshot = dict(local)
                self.pending.append((
                    scope_fid, node, snapshot, class_name, loop_depth,
                    loop_bound,
                    bound_to if node is top_value else None,
                    returned and node is top_value))
            work.extend(children(node))

    def _record_alias(self, name: str, value: ast.AST, local: dict,
                      module_level: bool = False) -> None:
        def bind(binding: _Binding) -> None:
            local[name] = binding
            if module_level:
                self.module_bindings[name] = binding

        if isinstance(value, ast.Name):
            binding = local.get(value.id) \
                or self.module_bindings.get(value.id)
            if binding is not None:
                bind(binding)
            return
        if isinstance(value, ast.Call):
            func = value.func
            is_partial = (
                (isinstance(func, ast.Name) and func.id == "partial")
                or (isinstance(func, ast.Attribute)
                    and func.attr == "partial"))
            if is_partial and value.args:
                inner = value.args[0]
                if isinstance(inner, ast.Name):
                    binding = local.get(inner.id) \
                        or self.module_bindings.get(inner.id)
                    if binding is not None:
                        bind(_Binding(
                            binding.kind, binding.target,
                            prepend_args=tuple(value.args[1:])))


class _Resolver:
    """Cross-file name resolution over every scanned file."""

    def __init__(self, scanners: list[_FileScanner]) -> None:
        self.scanners = scanners
        self.by_module: dict[str, _FileScanner] = {}
        self.by_suffix: dict[str, list[_FileScanner]] = {}
        for sc in scanners:
            if sc.module:
                self.by_module[sc.module] = sc
                leaf = sc.module.split(".")[-1]
                self.by_suffix.setdefault(leaf, []).append(sc)

    def find_module(self, dotted: str) -> _FileScanner | None:
        sc = self.by_module.get(dotted)
        if sc is not None:
            return sc
        # tolerate unknown roots: a unique dotted-suffix match wins
        # (fixtures and ad-hoc trees are analyzed without a src/ anchor)
        leaf = dotted.split(".")[-1]
        candidates = [
            s for s in self.by_suffix.get(leaf, ())
            if s.module == dotted or s.module.endswith("." + dotted)
            or dotted == leaf]
        exact = [s for s in candidates
                 if s.module == dotted or s.module.endswith("." + dotted)]
        pool = exact or candidates
        if len(pool) == 1:
            return pool[0]
        return None

    def resolve_binding(self, binding: _Binding,
                        attrs: list[str]) -> str | None:
        """fid for ``binding.attr1.attr2...`` if provable."""
        if binding.kind == "func":
            return binding.target if not attrs else None
        if binding.kind == "module":
            return self._resolve_in_module(binding.target, attrs)
        if binding.kind == "import":
            mod, _, name = binding.target.partition(":")
            # `from m import x`: x is a submodule or a function
            sub = self.find_module(f"{mod}.{name}" if mod else name)
            if sub is not None:
                return self._resolve_in_module(sub.module, attrs) \
                    if attrs else None
            return self._resolve_in_module(mod, [name] + attrs)
        return None

    def _resolve_in_module(self, dotted: str,
                           attrs: list[str]) -> str | None:
        if not attrs:
            return None
        # the longest prefix of dotted+attrs that names a known module,
        # then the remainder must be a function (or Class.method)
        best: tuple[_FileScanner, list[str]] | None = None
        cur, rest = dotted, attrs[:]
        sc = self.find_module(cur)
        if sc is not None:
            best = (sc, rest)
        while rest:
            cur = f"{cur}.{rest[0]}"
            rest = rest[1:]
            sc = self.find_module(cur)
            if sc is not None:
                best = (sc, rest[:])
        if best is None:
            return None
        sc, parts = best
        if not parts:
            return None
        if len(parts) == 1:
            binding = sc.module_bindings.get(parts[0])
            if binding is not None and binding.kind == "func":
                return binding.target
            if binding is not None:
                return self.resolve_binding(binding, [])
            return None
        if len(parts) == 2:
            methods = sc.classes.get(parts[0])
            if methods:
                return methods.get(parts[1])
        return None

    def resolve_call(self, scanner: _FileScanner, call: ast.Call,
                     local: dict, class_name: str | None
                     ) -> tuple[str | None, str, tuple]:
        """``(fid_or_None, display_name, prepend_args)`` for one call."""
        func = call.func
        if isinstance(func, ast.Name):
            binding = local.get(func.id) \
                or scanner.module_bindings.get(func.id)
            if binding is None:
                return None, func.id, ()
            return (self.resolve_binding(binding, []), func.id,
                    binding.prepend_args)
        if isinstance(func, ast.Attribute):
            attrs: list[str] = []
            node: ast.AST = func
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            attrs.reverse()
            display = ".".join(attrs)
            if isinstance(node, ast.Name):
                display = f"{node.id}.{display}"
                if node.id in ("self", "cls") and class_name is not None \
                        and len(attrs) == 1:
                    methods = scanner.classes.get(class_name, {})
                    return methods.get(attrs[0]), display, ()
                if node.id in scanner.classes and len(attrs) == 1:
                    return (scanner.classes[node.id].get(attrs[0]),
                            display, ())
                binding = local.get(node.id) \
                    or scanner.module_bindings.get(node.id)
                if binding is not None:
                    return (self.resolve_binding(binding, attrs),
                            display, binding.prepend_args)
            return None, display, ()
        return None, "<dynamic>", ()


def build_call_graph(contexts: dict[str, AnalysisContext]) -> CallGraph:
    """Resolve the project-wide call graph over every parsed context."""
    graph = CallGraph()
    scanners: list[_FileScanner] = []
    for ctx in contexts.values():
        if ctx.tree is None:
            continue
        scanner = _FileScanner(ctx, graph)
        scanner.collect()
        scanners.append(scanner)
    for scanner in scanners:
        scanner.scan()
    resolver = _Resolver(scanners)
    for scanner in scanners:
        for (scope_fid, call, local, class_name, loop_depth, loop_bound,
             bound_to, returned) in scanner.pending:
            fid, name, prepend = resolver.resolve_call(
                scanner, call, local, class_name)
            graph.add_site(CallSite(
                caller=scope_fid, callee=fid, call=call,
                line=call.lineno, name=name, loop_depth=loop_depth,
                loop_bound=loop_bound, bound_to=bound_to,
                returned=returned, prepend_args=prepend))
    return graph


__all__ = [
    "MODULE_SCOPE",
    "CallGraph",
    "CallSite",
    "FunctionInfo",
    "build_call_graph",
    "module_name_for",
]
