"""Per-scope control-flow graphs for the shared analysis framework.

Every statement-level pass in the analyzer suite needs the same two
views of a function body:

* the **CFG** — basic blocks and edges, for the fixpoint dataflow
  engine in :mod:`repro.analysis.dataflow` (reaching definitions,
  liveness, forward reachability);
* the **canonical unrolled schedule** — the linear statement order the
  abstract interpreters walk: loop bodies repeated
  :data:`LOOP_PASSES` times (so iteration *N*'s effect meets iteration
  *N+1*'s uses without path explosion) and ``if`` branches
  concatenated (both arms observed, path-insensitively).

The kernel sanitizer's shared-memory phase analysis and the memcheck
liveness interpreter both ride :func:`unrolled_schedule`; the DET-*
determinism pass rides :func:`build_cfg` directly.  Comprehensions are
expressions, not statements, and never appear in either view.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.context import module_nodes

#: how many times the canonical schedule repeats a loop body: two, so a
#: binding (or free) left by iteration one is observed by iteration two
LOOP_PASSES = 2

#: statement types that open a nested scope with its own CFG
SCOPE_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class BasicBlock:
    """A maximal straight-line run of statements."""

    id: int
    stmts: list[ast.stmt] = field(default_factory=list)
    succs: list["BasicBlock"] = field(default_factory=list)
    preds: list["BasicBlock"] = field(default_factory=list)

    def link(self, other: "BasicBlock") -> None:
        if other not in self.succs:
            self.succs.append(other)
            other.preds.append(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        lines = [getattr(s, "lineno", "?") for s in self.stmts]
        return f"<block {self.id} lines={lines}>"


@dataclass
class CFG:
    """The control-flow graph of one scope (module body or function)."""

    blocks: list[BasicBlock]
    entry: BasicBlock
    exit: BasicBlock
    #: id(stmt) -> containing block, for statement-level queries
    block_of: dict[int, BasicBlock]

    def reachable_from(self, stmt: ast.stmt) -> set[int]:
        """Ids of blocks forward-reachable from ``stmt``'s block
        (including the block itself)."""
        start = self.block_of.get(id(stmt))
        if start is None:
            return set()
        seen: set[int] = set()
        work = [start]
        while work:
            b = work.pop()
            if b.id in seen:
                continue
            seen.add(b.id)
            work.extend(b.succs)
        return seen

    def statements_after(self, stmt: ast.stmt) -> list[ast.stmt]:
        """Every statement on some path out of ``stmt``'s block —
        the rest of its own block plus all reachable successors."""
        start = self.block_of.get(id(stmt))
        if start is None:
            return []
        out: list[ast.stmt] = []
        idx = next((i for i, s in enumerate(start.stmts) if s is stmt),
                   len(start.stmts))
        out.extend(start.stmts[idx + 1:])
        for bid in sorted(self.reachable_from(stmt)):
            if bid == start.id:
                continue
            out.extend(self.blocks[bid].stmts)
        return out


class _Builder:
    """Structured-statement CFG construction (single pass, no goto)."""

    def __init__(self) -> None:
        self.blocks: list[BasicBlock] = []

    def new_block(self) -> BasicBlock:
        block = BasicBlock(id=len(self.blocks))
        self.blocks.append(block)
        return block

    def build(self, stmts: list[ast.stmt]) -> CFG:
        entry = self.new_block()
        exit_block = self.new_block()
        tail = self._run(stmts, entry, exit_block, loops=[])
        if tail is not None:
            tail.link(exit_block)
        block_of: dict[int, BasicBlock] = {}
        for block in self.blocks:
            for stmt in block.stmts:
                block_of[id(stmt)] = block
        return CFG(blocks=self.blocks, entry=entry, exit=exit_block,
                   block_of=block_of)

    # ``loops`` is a stack of (header, after) targets for continue/break.
    # Returns the open tail block, or None when control cannot fall out.

    def _run(self, stmts, current: BasicBlock, exit_block: BasicBlock,
             loops: list) -> BasicBlock | None:
        for stmt in stmts:
            if current is None:
                # unreachable code still gets blocks (passes may want
                # to look at it) but no incoming edge
                current = self.new_block()
            if isinstance(stmt, ast.If):
                current.stmts.append(stmt)
                after = self.new_block()
                for body in (stmt.body, stmt.orelse):
                    if not body:
                        current.link(after)
                        continue
                    arm = self.new_block()
                    current.link(arm)
                    tail = self._run(body, arm, exit_block, loops)
                    if tail is not None:
                        tail.link(after)
                current = after
            elif isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)):
                header = self.new_block()
                header.stmts.append(stmt)
                current.link(header)
                after = self.new_block()
                header.link(after)        # zero-iteration path
                body = self.new_block()
                header.link(body)
                tail = self._run(list(stmt.body), body, exit_block,
                                 loops + [(header, after)])
                if tail is not None:
                    tail.link(header)     # back edge
                if stmt.orelse:
                    tail = self._run(list(stmt.orelse), after, exit_block,
                                     loops)
                    after = self.new_block()
                    if tail is not None:
                        tail.link(after)
                current = after
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                current.stmts.append(stmt)
                after = self.new_block()
                body = self.new_block()
                current.link(body)
                tail = self._run(list(stmt.body) + list(stmt.orelse),
                                 body, exit_block, loops)
                if tail is not None:
                    tail.link(after)
                for handler in stmt.handlers:
                    arm = self.new_block()
                    current.link(arm)
                    tail = self._run(list(handler.body), arm, exit_block,
                                     loops)
                    if tail is not None:
                        tail.link(after)
                if stmt.finalbody:
                    fin = self.new_block()
                    after.link(fin)
                    tail = self._run(list(stmt.finalbody), fin, exit_block,
                                     loops)
                    after = self.new_block()
                    if tail is not None:
                        tail.link(after)
                current = after
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current.stmts.append(stmt)
                body = self.new_block()
                current.link(body)
                current = self._run(list(stmt.body), body, exit_block, loops)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                current.stmts.append(stmt)
                current.link(exit_block)
                current = None
            elif isinstance(stmt, ast.Break):
                current.stmts.append(stmt)
                if loops:
                    current.link(loops[-1][1])
                current = None
            elif isinstance(stmt, ast.Continue):
                current.stmts.append(stmt)
                if loops:
                    current.link(loops[-1][0])
                current = None
            else:
                # plain statement — including nested function/class
                # definitions, whose bodies get their own CFG via scopes()
                current.stmts.append(stmt)
        return current


def build_cfg(stmts: list[ast.stmt]) -> CFG:
    """Build the CFG of one scope's statement list."""
    return _Builder().build(list(stmts))


def scopes(tree: ast.AST):
    """Yield ``(scope_node, body)`` for the module and every (nested)
    function definition — the units a per-scope analysis runs over."""
    if isinstance(tree, ast.Module):
        yield tree, list(tree.body)
        nodes = module_nodes(tree)
    else:
        nodes = ast.walk(tree)
    for node in nodes:
        if isinstance(node, SCOPE_TYPES):
            yield node, list(node.body)


def unrolled_schedule(stmts, loop_passes: int = LOOP_PASSES
                      ) -> list[ast.stmt]:
    """The canonical linear statement order of the abstract
    interpreters: loop bodies ``loop_passes`` times, ``if`` arms
    concatenated, everything else in source order.  Only *leaf*
    statements appear — compound statements contribute their bodies."""
    out: list[ast.stmt] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.For, ast.While)):
            body = unrolled_schedule(stmt.body, loop_passes)
            for _ in range(loop_passes):
                out.extend(body)
            out.extend(unrolled_schedule(stmt.orelse, loop_passes))
        elif isinstance(stmt, ast.If):
            out.extend(unrolled_schedule(stmt.body, loop_passes))
            out.extend(unrolled_schedule(stmt.orelse, loop_passes))
        else:
            out.append(stmt)
    return out


__all__ = [
    "LOOP_PASSES",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "scopes",
    "unrolled_schedule",
]
