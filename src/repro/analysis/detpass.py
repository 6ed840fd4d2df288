"""DET-* — static determinism lint for simulated-clock code.

Every report this reproduction emits — grading, SLO, cost, telemetry
exports — promises byte-identical output on the simulated clock.  The
DET pass is the framework self-hosting that promise: CI runs it over
``src/repro`` itself and must come back clean, so the event-core and
multi-region refactors cannot quietly re-introduce host nondeterminism.

Three rules, all built on the shared CFG (:mod:`repro.analysis.cfg`)
and the fixpoint dataflow engine (:mod:`repro.analysis.dataflow`):

* ``DET-WALLCLOCK`` — a host wall-clock read (``time.time``,
  ``perf_counter``, ``datetime.now`` …) inside simulated-clock code
  (a module that imports from the ``repro`` stack).
* ``DET-UNSEEDED-RNG`` — a draw from the process-global RNG
  (``random.*`` / ``np.random.*``, or an unseeded ``default_rng()`` /
  ``Random()``) that **no** ``seed(...)`` call reaches — a literal
  reaching-definitions query: each seed call generates a
  pseudo-definition and the use is flagged only when the solver proves
  no seed fact reaches it.
* ``DET-UNORDERED-ITER`` — an unordered collection (a ``set``, or a
  dict/list built by iterating one) reaching a report/export emission
  (``print``, ``.write``, ``json.dumps``, ``render_json`` …) on some
  CFG path.  ``sorted(...)`` cleanses the taint; a name is only
  considered unordered when *every* assignment to it is.

Like the other passes, precision beats recall: only namespace aliases
the module visibly binds are tracked, and anything the pass cannot
prove stays silent.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.cfg import CFG, SCOPE_TYPES, build_cfg, scopes
from repro.analysis.context import AnalysisContext, children, nodes_of, walk
from repro.analysis.dataflow import ReachingDefinitions, reaching_at, solve
from repro.analysis.rules import make_finding
from repro.sanitize.findings import Report

# -- wall-clock surface -----------------------------------------------------

_TIME_FNS = {"time", "time_ns", "perf_counter", "perf_counter_ns",
             "monotonic", "monotonic_ns", "process_time",
             "process_time_ns"}
_DATETIME_METHODS = {"now", "utcnow", "today"}

# -- process-global RNG surface ---------------------------------------------

_STD_RNG_FNS = {"random", "randint", "randrange", "choice", "choices",
                "shuffle", "sample", "uniform", "gauss", "normalvariate",
                "betavariate", "expovariate", "triangular", "getrandbits",
                "randbytes"}
_NP_RNG_FNS = {"rand", "randn", "randint", "random", "random_sample",
               "ranf", "sample", "choice", "shuffle", "permutation",
               "uniform", "normal", "standard_normal", "beta", "binomial",
               "poisson", "exponential", "gamma", "bytes"}

# -- report/export emission surface -----------------------------------------

_EMIT_NAMES = {"print"}
_EMIT_ATTRS = {"write", "writelines", "write_text", "dump", "dumps",
               "to_json", "render_json", "render_text", "export"}

#: receiver methods that accumulate into a collection inside a loop
_MUTATORS = {"add", "append", "extend", "update", "insert", "setdefault",
             "push", "appendleft"}
_SET_METHODS = {"union", "intersection", "difference",
                "symmetric_difference", "copy"}
_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _walk_scope(node: ast.AST):
    """Every node under ``node``, depth first, not descending into
    nested function scopes (they are analyzed as their own scopes).  A
    function definition itself contributes nothing — its body belongs
    to the inner scope."""
    work = [node]
    while work:
        n = work.pop()
        yield n
        if isinstance(n, SCOPE_TYPES):
            continue
        work.extend(children(n))


class _Aliases:
    """File-global namespace knowledge shared by all three rules."""

    def __init__(self, import_nodes, np_names: set[str]) -> None:
        self.time_mods: set[str] = set()
        self.time_funcs: set[str] = set()          # bare from-imports
        self.datetime_mods: set[str] = set()
        self.datetime_classes: set[str] = set()    # datetime/date classes
        self.random_mods: set[str] = set()
        self.random_funcs: dict[str, str] = {}     # bare name -> fn
        self.np_random_mods: set[str] = set()      # e.g. `npr` for np.random
        self.np_names = np_names
        for node in import_nodes:
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if a.name == "time":
                        self.time_mods.add(bound)
                    elif a.name == "datetime":
                        self.datetime_mods.add(bound)
                    elif a.name == "random":
                        self.random_mods.add(bound)
                    elif a.name == "numpy.random" and a.asname:
                        self.np_random_mods.add(a.asname)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mod = node.module or ""
                for a in node.names:
                    bound = a.asname or a.name
                    if mod == "time" and a.name in _TIME_FNS:
                        self.time_funcs.add(bound)
                    elif mod == "datetime" and a.name in ("datetime",
                                                          "date"):
                        self.datetime_classes.add(bound)
                    elif mod == "random" and a.name in (_STD_RNG_FNS
                                                        | {"seed"}):
                        self.random_funcs[bound] = a.name
                    elif mod == "numpy" and a.name == "random":
                        self.np_random_mods.add(bound)

    # -- classification helpers ----------------------------------------

    def wallclock_call(self, call: ast.Call) -> str | None:
        """The dotted name of a wall-clock read, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.time_funcs:
            return f"time.{func.id}"
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self.time_mods and func.attr in _TIME_FNS:
                return f"time.{func.attr}"
            if base.id in self.datetime_classes \
                    and func.attr in _DATETIME_METHODS:
                return f"datetime.{func.attr}"
        if isinstance(base, ast.Attribute) \
                and isinstance(base.value, ast.Name) \
                and base.value.id in self.datetime_mods \
                and base.attr in ("datetime", "date") \
                and func.attr in _DATETIME_METHODS:
            return f"datetime.{base.attr}.{func.attr}"
        return None

    def _np_random_base(self, node: ast.AST) -> bool:
        """Is ``node`` the ``np.random`` namespace (any alias)?"""
        if isinstance(node, ast.Name):
            return node.id in self.np_random_mods
        return (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name)
                and node.value.id in self.np_names)

    def global_rng_call(self, call: ast.Call) -> tuple[str, str] | None:
        """``(family, fn)`` for a process-global RNG draw, or ``None``.

        Families: ``"random"`` (stdlib) and ``"np.random"`` (numpy).
        """
        func = call.func
        if isinstance(func, ast.Name):
            fn = self.random_funcs.get(func.id)
            if fn is not None and fn != "seed":
                return "random", fn
            return None
        if not isinstance(func, ast.Attribute):
            return None
        base = func.value
        if isinstance(base, ast.Name) and base.id in self.random_mods:
            if func.attr in _STD_RNG_FNS:
                return "random", func.attr
            if func.attr == "Random" and not call.args \
                    and not call.keywords:
                return "random", "Random"
        if self._np_random_base(base):
            if func.attr in _NP_RNG_FNS:
                return "np.random", func.attr
            if func.attr == "default_rng" and not call.args \
                    and not call.keywords:
                return "np.random", "default_rng"
        return None

    def seed_call(self, call: ast.Call) -> str | None:
        """The RNG family a ``seed(...)`` call initializes, or ``None``."""
        func = call.func
        if isinstance(func, ast.Name) \
                and self.random_funcs.get(func.id) == "seed":
            return "random"
        if isinstance(func, ast.Attribute) and func.attr == "seed":
            if isinstance(func.value, ast.Name) \
                    and func.value.id in self.random_mods:
                return "random"
            if self._np_random_base(func.value):
                return "np.random"
        return None


class _DetPass:
    def __init__(self, ctx: AnalysisContext) -> None:
        self.ctx = ctx
        self.tree = ctx.tree
        # the shared node index feeds every file-level gate: the alias
        # tables, draw/seed presence, and set-construct presence
        imports = nodes_of(self.tree, ast.Import, ast.ImportFrom)
        calls = nodes_of(self.tree, ast.Call)
        self.has_sets = bool(nodes_of(self.tree, ast.Set, ast.SetComp))
        self.has_emitters = False
        for node in calls:
            func = node.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    self.has_sets = True
                elif func.id in _EMIT_NAMES:
                    self.has_emitters = True
            elif isinstance(func, ast.Attribute) \
                    and func.attr in _EMIT_ATTRS:
                self.has_emitters = True
        self.aliases = _Aliases(imports, ctx.namespaces[2])
        self.has_draws = any(self.aliases.global_rng_call(c) is not None
                             for c in calls)
        self.has_seeds = self.has_draws and any(
            self.aliases.seed_call(c) is not None for c in calls)
        self.has_clocks = bool(self.aliases.time_mods
                               or self.aliases.time_funcs
                               or self.aliases.datetime_mods
                               or self.aliases.datetime_classes)
        self.report = Report()
        self._seen: set[tuple] = set()

    def _emit(self, rule: str, message: str, line: int,
              context: str = "") -> None:
        key = (rule, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.add(make_finding(rule, message, file=self.ctx.filename,
                                     line=line, context=context))

    def run(self) -> Report:
        simulated = self.ctx.imports_repro \
            or "repro" in Path(self.ctx.filename).parts
        check_clock = simulated and self.has_clocks
        module_seeded = self._module_seeded_families() \
            if self.has_seeds else frozenset()
        module_env = None
        for scope, body in scopes(self.tree):
            is_module = isinstance(scope, ast.Module)
            cfg: CFG | None = None
            if check_clock:
                self._check_wallclock(body)
            if self.has_draws:
                if self.has_seeds:
                    # seeds exist somewhere: a real reaching-definitions
                    # question, so build the CFG and solve
                    cfg = build_cfg(body)
                    self._check_unseeded_rng(
                        cfg,
                        frozenset() if is_module else module_seeded)
                else:
                    # no seed call anywhere in the file — every draw is
                    # unseeded, no dataflow needed
                    self._flag_unseeded_draws(body)
            if self.has_emitters \
                    and (self.has_sets or (module_env and not is_module)):
                if cfg is None:
                    cfg = build_cfg(body)
                if is_module:
                    module_env = self._check_unordered(cfg, body, None)
                else:
                    # functions see module-level unordered names, but
                    # their bindings never leak into sibling scopes
                    self._check_unordered(cfg, body, module_env)
        return self.report

    # -- DET-WALLCLOCK --------------------------------------------------

    def _check_wallclock(self, stmts) -> None:
        for stmt in stmts:
            for node in _walk_scope(stmt):
                if not isinstance(node, ast.Call):
                    continue
                dotted = self.aliases.wallclock_call(node)
                if dotted is not None:
                    self._emit(
                        "DET-WALLCLOCK",
                        f"`{dotted}()` reads the host wall clock in "
                        "simulated-clock code; results will differ "
                        "between runs and machines — thread the "
                        "simulated clock instead",
                        node.lineno, context=dotted)

    # -- DET-UNSEEDED-RNG -----------------------------------------------

    def _module_seeded_families(self) -> frozenset[str]:
        """Families seeded anywhere at module level — module bodies run
        before any function defined in them is called from outside."""
        seeded: set[str] = set()
        for node in _walk_scope(self.tree):
            if isinstance(node, ast.Call):
                family = self.aliases.seed_call(node)
                if family is not None:
                    seeded.add(family)
        return frozenset(seeded)

    def _check_unseeded_rng(self, cfg: CFG,
                            outer_seeded: frozenset[str]) -> None:
        def seed_defs(stmt: ast.stmt):
            for node in _walk_scope(stmt):
                if isinstance(node, ast.Call):
                    family = self.aliases.seed_call(node)
                    if family is not None:
                        yield (f"<seed:{family}>", node.lineno)

        analysis = ReachingDefinitions(extra_defs=seed_defs)
        solution = solve(cfg, analysis)
        for block in cfg.blocks:
            for stmt in block.stmts:
                draws = [
                    (node, hit) for node in _walk_scope(stmt)
                    if isinstance(node, ast.Call)
                    and (hit := self.aliases.global_rng_call(node))
                    is not None]
                if not draws:
                    continue
                reaching = reaching_at(cfg, analysis, solution, stmt)
                seeded = {f[0] for f in reaching} \
                    | {f"<seed:{fam}>" for fam in outer_seeded}
                for node, (family, fn) in draws:
                    if f"<seed:{family}>" in seeded:
                        continue
                    self._emit_rng(node, family, fn)

    def _flag_unseeded_draws(self, stmts) -> None:
        """Fast path: the file contains global-RNG draws but no
        ``seed(...)`` call at all, so every draw is unseeded."""
        for stmt in stmts:
            for node in _walk_scope(stmt):
                if isinstance(node, ast.Call):
                    hit = self.aliases.global_rng_call(node)
                    if hit is not None:
                        self._emit_rng(node, *hit)

    def _emit_rng(self, node: ast.Call, family: str, fn: str) -> None:
        what = (f"`{family}.{fn}()` constructs an unseeded generator"
                if fn in ("Random", "default_rng")
                else f"`{family}.{fn}()` draws from the "
                f"process-global RNG")
        self._emit(
            "DET-UNSEEDED-RNG",
            f"{what} and no `{family}.seed(...)` reaches "
            "this use; every run produces different numbers",
            node.lineno, context=f"{family}.{fn}")

    # -- DET-UNORDERED-ITER ---------------------------------------------

    def _check_unordered(self, cfg: CFG, body: list[ast.stmt],
                         outer_env: dict | None) -> dict:
        """Taint + CFG reachability: flag an emission call reachable
        from the statement that made one of its arguments unordered.

        Returns the scope's environment so function scopes can see
        module-level unordered names.  ``env[name]`` is ``(tainted,
        origin_stmts)``; a name with any order-restoring assignment
        (``sorted`` et al.) is dropped entirely — precision over recall.
        """
        env: dict[str, tuple[bool, list[ast.stmt]]] = \
            dict(outer_env) if outer_env else {}
        ordered: set[str] = set()

        def is_unordered(expr: ast.AST) -> bool:
            if isinstance(expr, (ast.Set, ast.SetComp)):
                return True
            if isinstance(expr, ast.Name):
                entry = env.get(expr.id)
                return entry is not None and entry[0] \
                    and expr.id not in ordered
            if isinstance(expr, ast.BinOp) \
                    and isinstance(expr.op, _SET_BINOPS):
                return is_unordered(expr.left) or is_unordered(expr.right)
            if isinstance(expr, (ast.ListComp, ast.DictComp,
                                 ast.GeneratorExp)):
                return bool(expr.generators) \
                    and is_unordered(expr.generators[0].iter)
            if isinstance(expr, ast.Call):
                func = expr.func
                if isinstance(func, ast.Name):
                    if func.id in ("set", "frozenset"):
                        return True
                    if func.id in ("sorted", "min", "max", "sum", "len",
                                   "any", "all"):
                        return False
                    if func.id in ("list", "tuple", "iter", "enumerate",
                                   "reversed"):
                        return bool(expr.args) \
                            and is_unordered(expr.args[0])
                if isinstance(func, ast.Attribute):
                    if func.attr in _SET_METHODS:
                        return is_unordered(func.value)
                    if func.attr == "fromkeys" and expr.args:
                        return is_unordered(expr.args[0])
            return False

        def taint(name: str, stmt: ast.stmt) -> None:
            tainted, origins = env.get(name, (True, []))
            if stmt not in origins:
                env[name] = (True, list(origins) + [stmt])

        def is_cleansing(expr: ast.AST) -> bool:
            """An order-restoring value: ``sorted(...)`` possibly wrapped
            in ``list``/``tuple``/``dict``."""
            if not isinstance(expr, ast.Call):
                return False
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "sorted":
                    return True
                if func.id in ("list", "tuple", "dict") and expr.args:
                    return is_cleansing(expr.args[0])
            return False

        def mutated_names(loop: ast.For) -> set[str]:
            out: set[str] = set()
            for node in _walk_scope(loop):
                if isinstance(node, ast.Subscript) \
                        and isinstance(node.ctx, ast.Store) \
                        and isinstance(node.value, ast.Name):
                    out.add(node.value.id)
                elif isinstance(node, ast.AugAssign) \
                        and isinstance(node.target, ast.Name):
                    out.add(node.target.id)
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _MUTATORS \
                        and isinstance(node.func.value, ast.Name):
                    out.add(node.func.value.id)
            return out

        # pass 1: build the taint environment (two passes so loop-built
        # names settle, mirroring the canonical unrolled schedule)
        all_stmts = [s for b in cfg.blocks for s in b.stmts]
        for _ in range(2):
            for stmt in all_stmts:
                if isinstance(stmt, ast.Assign):
                    unordered = is_unordered(stmt.value)
                    for t in stmt.targets:
                        if not isinstance(t, ast.Name):
                            continue
                        if unordered:
                            taint(t.id, stmt)
                        elif is_cleansing(stmt.value):
                            # an explicit sorted(...) rebind restores a
                            # deterministic order for the name
                            ordered.add(t.id)
                elif isinstance(stmt, ast.For) \
                        and is_unordered(stmt.iter):
                    for n in walk(stmt.target):
                        if isinstance(n, ast.Name):
                            taint(n.id, stmt)
                    for name in mutated_names(stmt):
                        taint(name, stmt)

        # pass 2: emissions reachable from a taint origin
        for block in cfg.blocks:
            for stmt in block.stmts:
                for node in _walk_scope(stmt):
                    if not isinstance(node, ast.Call):
                        continue
                    emitter = self._emitter_name(node)
                    if emitter is None:
                        continue
                    culprit = self._unordered_arg(node, is_unordered)
                    if culprit is None:
                        continue
                    name, origin = culprit, env.get(culprit)
                    if origin is not None and origin[1] \
                            and not self._reaches(cfg, origin[1], stmt):
                        continue
                    self._emit(
                        "DET-UNORDERED-ITER",
                        f"`{emitter}(...)` emits data derived from "
                        f"iterating the unordered collection {name!r}; "
                        "the byte order depends on PYTHONHASHSEED — "
                        "sort before exporting",
                        node.lineno, context=name)
        return env

    @staticmethod
    def _reaches(cfg: CFG, origins: list[ast.stmt],
                 stmt: ast.stmt) -> bool:
        target = cfg.block_of.get(id(stmt))
        if target is None:
            return True               # emission outside this CFG: assume
        for origin in origins:
            start = cfg.block_of.get(id(origin))
            if start is None:
                return True           # taint from an outer scope
            if target.id in cfg.reachable_from(origin):
                return True
        return False

    @staticmethod
    def _emitter_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id in _EMIT_NAMES:
            return func.id
        if isinstance(func, ast.Attribute) and func.attr in _EMIT_ATTRS:
            return func.attr
        return None

    def _unordered_arg(self, call: ast.Call, is_unordered) -> str | None:
        """The name of the first unordered value feeding the emission.
        The nested walk stops at order-insensitive calls (``sorted``,
        ``len`` …): ``json.dumps(sorted(s))`` is deterministic."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            if is_unordered(arg):
                if isinstance(arg, ast.Name):
                    return arg.id
                return "<expression>"
            work = [arg]
            while work:
                n = work.pop()
                if isinstance(n, ast.Call) \
                        and isinstance(n.func, ast.Name) \
                        and n.func.id in ("sorted", "min", "max", "sum",
                                          "len", "any", "all"):
                    continue
                if isinstance(n, ast.Name) and is_unordered(n):
                    return n.id
                work.extend(children(n))
        return None


def det_pass(ctx: AnalysisContext) -> Report:
    """Run the DET-* determinism rules over one analysis context."""
    if ctx.tree is None:
        return Report()
    return _DetPass(ctx).run()


__all__ = ["det_pass"]
