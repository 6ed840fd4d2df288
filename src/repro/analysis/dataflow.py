"""Generic forward/backward fixpoint dataflow over the analysis CFG.

One worklist solver, two classic instantiations:

* :class:`ReachingDefinitions` (forward, may) — which ``(name, line)``
  definitions can reach a program point.  The DET pass uses it to decide
  whether a ``seed(...)`` call reaches a global-RNG use; passes can also
  register *pseudo-definitions* (facts generated by calls rather than
  assignments) through ``extra_defs``.
* :class:`Liveness` (backward, may) — which names are live-out of each
  block.  The memcheck plane uses it to reason about buffer lifetimes.

Facts are ``frozenset``s, the meet is union, and transfer functions are
monotone gen/kill compositions over a block's statements — so the
worklist iteration terminates at the least fixpoint.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterable

from repro.analysis.cfg import CFG, BasicBlock
from repro.analysis.context import children, walk

Fact = tuple
Facts = frozenset


_SCOPE_STMTS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_TRY_TYPES = (ast.Try, getattr(ast, "TryStar", ast.Try))


def own_nodes(stmt: ast.stmt):
    """The nodes a statement evaluates *itself*.

    Compound statements contribute only their header expressions — the
    CFG carries their bodies as separate block statements, so walking
    into them here would double-count (and mis-attribute) the body's
    effects to the header's program point.  Nested scope definitions
    contribute their binding, never their body.
    """
    if isinstance(stmt, _SCOPE_STMTS):
        yield stmt
        return
    if isinstance(stmt, (ast.If, ast.While)):
        yield from walk(stmt.test)
        return
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        yield from walk(stmt.target)
        yield from walk(stmt.iter)
        return
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            yield from walk(item.context_expr)
            if item.optional_vars is not None:
                yield from walk(item.optional_vars)
        return
    if isinstance(stmt, _TRY_TYPES):
        return
    todo: list[ast.AST] = [stmt]
    while todo:
        node = todo.pop()
        yield node
        if node is not stmt and isinstance(node, (*_SCOPE_STMTS,
                                                  ast.Lambda)):
            continue
        todo.extend(children(node))


def stmt_defs(stmt: ast.stmt) -> set[str]:
    """Names a statement (re)binds at its own program point."""
    out: set[str] = set()
    for node in own_nodes(stmt):
        if isinstance(node, _SCOPE_STMTS):
            out.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                       (ast.Store,
                                                        ast.Del)):
            out.add(node.id)
    return out


def stmt_uses(stmt: ast.stmt) -> set[str]:
    """Names a statement reads (Load context) at its own program
    point."""
    out: set[str] = set()
    for node in own_nodes(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
    return out


class DataflowAnalysis:
    """Base class: direction + per-statement gen/kill."""

    direction = "forward"          # or "backward"

    def boundary(self) -> Facts:
        """Facts at the entry (forward) / exit (backward) block."""
        return frozenset()

    def gen(self, stmt: ast.stmt) -> Facts:
        return frozenset()

    def kill(self, stmt: ast.stmt, facts: Facts) -> Facts:
        """Facts from ``facts`` the statement invalidates."""
        return frozenset()

    def transfer_stmt(self, stmt: ast.stmt, facts: Facts) -> Facts:
        return (facts - self.kill(stmt, facts)) | self.gen(stmt)

    def transfer_block(self, block: BasicBlock, facts: Facts) -> Facts:
        stmts = block.stmts if self.direction == "forward" \
            else list(reversed(block.stmts))
        for stmt in stmts:
            facts = self.transfer_stmt(stmt, facts)
        return facts


def solve(cfg: CFG, analysis: DataflowAnalysis
          ) -> dict[int, tuple[Facts, Facts]]:
    """Worklist fixpoint.  Returns ``{block_id: (in, out)}`` — for a
    backward analysis ``in`` is the fact set at block *exit* and ``out``
    at block *entry*, i.e. always (before-transfer, after-transfer)."""
    forward = analysis.direction == "forward"
    start = cfg.entry if forward else cfg.exit

    def upstream(b: BasicBlock) -> list[BasicBlock]:
        return b.preds if forward else b.succs

    def downstream(b: BasicBlock) -> list[BasicBlock]:
        return b.succs if forward else b.preds

    in_facts: dict[int, Facts] = {b.id: frozenset() for b in cfg.blocks}
    out_facts: dict[int, Facts] = {b.id: frozenset() for b in cfg.blocks}
    in_facts[start.id] = analysis.boundary()
    work = list(cfg.blocks)
    while work:
        block = work.pop(0)
        merged: Facts = frozenset().union(
            *(out_facts[p.id] for p in upstream(block))) \
            if upstream(block) else in_facts[block.id]
        if block is start:
            merged |= analysis.boundary()
        in_facts[block.id] = merged
        new_out = analysis.transfer_block(block, merged)
        if new_out != out_facts[block.id]:
            out_facts[block.id] = new_out
            for succ in downstream(block):
                if succ not in work:
                    work.append(succ)
    return {b.id: (in_facts[b.id], out_facts[b.id]) for b in cfg.blocks}


# ---------------------------------------------------------------------------
# Reaching definitions
# ---------------------------------------------------------------------------


class ReachingDefinitions(DataflowAnalysis):
    """May-reach ``(name, line)`` definition facts.

    ``extra_defs(stmt)`` lets a pass inject pseudo-definitions — e.g.
    the DET pass registers ``("<seed:random>", line)`` for a
    ``random.seed(...)`` call so "a seed reaches this use" becomes a
    plain reaching-definitions query.  Pseudo-definitions (names that
    are not identifiers) are never killed.
    """

    direction = "forward"

    def __init__(self, extra_defs: Callable[[ast.stmt],
                                            Iterable[Fact]] | None = None
                 ) -> None:
        self.extra_defs = extra_defs
        # gen/kill are pure per statement; the worklist revisits blocks,
        # so memoizing the statement walks keeps the fixpoint linear in
        # practice instead of re-walking every AST on every visit
        self._gen_cache: dict[int, Facts] = {}
        self._defs_cache: dict[int, set[str]] = {}

    def _defs(self, stmt: ast.stmt) -> set[str]:
        defs = self._defs_cache.get(id(stmt))
        if defs is None:
            defs = self._defs_cache[id(stmt)] = stmt_defs(stmt)
        return defs

    def gen(self, stmt: ast.stmt) -> Facts:
        cached = self._gen_cache.get(id(stmt))
        if cached is not None:
            return cached
        line = getattr(stmt, "lineno", 0)
        facts = {(name, line) for name in self._defs(stmt)}
        if self.extra_defs is not None:
            facts |= set(self.extra_defs(stmt))
        out = frozenset(facts)
        self._gen_cache[id(stmt)] = out
        return out

    def kill(self, stmt: ast.stmt, facts: Facts) -> Facts:
        killed = self._defs(stmt)
        if not killed:
            return frozenset()
        return frozenset(f for f in facts if f[0] in killed)


def reaching_at(cfg: CFG, analysis: ReachingDefinitions,
                solution: dict[int, tuple[Facts, Facts]],
                stmt: ast.stmt) -> Facts:
    """The definitions reaching the program point *before* ``stmt``:
    replay the block transfer from block-in up to (not including) it."""
    block = cfg.block_of.get(id(stmt))
    if block is None:
        return frozenset()
    facts = solution[block.id][0]
    for s in block.stmts:
        if s is stmt:
            break
        facts = analysis.transfer_stmt(s, facts)
    return facts


# ---------------------------------------------------------------------------
# Liveness
# ---------------------------------------------------------------------------


class Liveness(DataflowAnalysis):
    """Backward may-analysis: a name is live when some path from the
    program point reads it before (re)writing it."""

    direction = "backward"

    def __init__(self) -> None:
        self._gen_cache: dict[int, Facts] = {}
        self._defs_cache: dict[int, set[str]] = {}

    def gen(self, stmt: ast.stmt) -> Facts:
        cached = self._gen_cache.get(id(stmt))
        if cached is None:
            cached = frozenset((name,) for name in stmt_uses(stmt))
            self._gen_cache[id(stmt)] = cached
        return cached

    def kill(self, stmt: ast.stmt, facts: Facts) -> Facts:
        killed = self._defs_cache.get(id(stmt))
        if killed is None:
            killed = self._defs_cache[id(stmt)] = stmt_defs(stmt)
        if not killed:
            return frozenset()
        return frozenset(f for f in facts if f[0] in killed)

    def transfer_stmt(self, stmt: ast.stmt, facts: Facts) -> Facts:
        # uses are evaluated before the statement's own defs take
        # effect: out = gen ∪ (in − kill)
        return self.gen(stmt) | (facts - self.kill(stmt, facts))


def live_out(cfg: CFG, solution: dict[int, tuple[Facts, Facts]],
             stmt: ast.stmt) -> set[str]:
    """Names live immediately after ``stmt`` (backward solution)."""
    block = cfg.block_of.get(id(stmt))
    if block is None:
        return set()
    facts = solution[block.id][0]       # facts at block *exit*
    analysis = Liveness()
    for s in reversed(block.stmts):
        if s is stmt:
            break
        facts = analysis.transfer_stmt(s, facts)
    return {f[0] for f in facts}


__all__ = [
    "DataflowAnalysis",
    "ReachingDefinitions",
    "Liveness",
    "solve",
    "reaching_at",
    "live_out",
    "own_nodes",
    "stmt_defs",
    "stmt_uses",
]
