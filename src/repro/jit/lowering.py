"""Faster executions of a ``@cuda.jit`` kernel, compiled from its own source.

:mod:`repro.jit.cuda` interprets a kernel one simulated thread at a time.
This module builds the two variants its launcher prefers when they are
sound, each recompiled from the kernel's source with the kernel's own
globals and closure cells, so every name resolves as in the original:

* :func:`generator_variant` — every barrier statement (the analyzer's
  :func:`repro.analysis.context.is_sync`) becomes ``yield``, so the
  threads of a block can be resumed round-robin on the launching thread
  instead of each needing an OS thread.
* :func:`lower` — a kernel whose statements are assignments, tests and
  ``range``/``while`` loops over its parameter arrays, shared arrays and
  the thread indices, with ``cuda.syncthreads()`` between phases,
  becomes one function over a chunk of whole blocks (:class:`Lowered`):
  each statement runs for every thread of the chunk before the next, as
  NumPy on per-thread index arrays and ``(blocks, *shape)`` shared
  arrays, with uniform loops on the host and thread-varying tests as
  masks.  A loop whose test or bound varies by thread (``collatz``'s
  ``while n != 1``) runs pass by pass over the threads still in it,
  dropping each thread once its test fails, and an ``if`` on data runs
  each branch for its own threads; both govern only assignments to
  temporaries.  An elementwise or stencil kernel is the one-phase case
  with no shared array.  :meth:`Lowered.admitted` decides per launch
  signature, from a trace of the launch's tests and subscripts alone,
  whether the result is the interpreter's, byte for byte: the statement
  forms :class:`_Form` takes and the trace's rules (:class:`_Rules`)
  decide that exactly, so no launch consults the static analyzer.

Both return ``None`` when the kernel's source cannot be retrieved, does
not compile to the kernel's live code, or does not have the required
form; the launcher then keeps the per-thread path.
"""

from __future__ import annotations

import ast
import copy
import dis
import inspect
import itertools
import math
import operator
import textwrap
import types

import numpy as np

#: the lowered body computes on arrays where the interpreter computes on
#: scalars; only NEP 50 promotion (NumPy >= 2) gives both the same dtypes
#: (under NumPy 1.x a float32 scalar times a Python float is float64)
_NEP50 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"

#: admission decisions kept per kernel; the oldest is dropped first
_DECISIONS = 256
#: threads one chunk of a lowered launch holds (at least one block): a
#: launch runs a box of whole blocks at a time, so no temporary grows
#: with the grid.  At this size a chunk's arrays stay in cache: a
#: 65,536-thread saxpy or 5-point blur runs 1.3-1.9x faster in chunks of
#: 16,384 threads than in one (2-vCPU x86 VM)
CHUNK_THREADS = 1 << 14

_NUMBERS = (int, float, complex, np.number, np.bool_)

_JUMPS = frozenset(dis.hasjrel + dis.hasjabs)
_MASK_OPS = {ast.And: ast.BitAnd, ast.Or: ast.BitOr}
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
_COUNTER_OPS = (ast.Add, ast.Sub)
_INDEX_OPS = _COUNTER_OPS + (ast.Mult,)
_VALUE_OPS = _INDEX_OPS + (ast.Div, ast.FloorDiv, ast.Mod, ast.Pow)


# ---------------------------------------------------------------------------
# Recompiling a kernel from its source
# ---------------------------------------------------------------------------


def _kernel_def(fn):
    """``(FunctionDef, filename)`` for ``fn`` with its original line
    numbers and no decorators or annotations, or ``None`` when the source
    is not there (``exec``'d or REPL kernels) or does not compile to the
    live code (``inspect`` re-reads a source file edited since the kernel
    was imported)."""
    code = fn.__code__
    if hasattr(fn, "__wrapped__") or code.co_flags & inspect.CO_GENERATOR:
        return None
    try:
        lines, start = inspect.getsourcelines(fn)
        filename = inspect.getsourcefile(fn) or code.co_filename
        tree = ast.parse(textwrap.dedent("".join(lines)))
    except (OSError, TypeError, SyntaxError):
        return None
    node = tree.body[0] if tree.body else None
    if not isinstance(node, ast.FunctionDef):
        return None
    ast.increment_lineno(node, start - 1)
    node.decorator_list = []
    node.returns = None
    for arg in node.args.args:
        arg.annotation = None
    try:
        same = _same_code(
            _recompile(fn, copy.deepcopy(node), filename).__code__, code)
    except SyntaxError:
        return None
    return (node, filename) if same else None


def _same_code(a: types.CodeType, b: types.CodeType) -> bool:
    """Do ``a`` and ``b`` compile the same statements?"""
    fields = ("co_name", "co_argcount", "co_varnames", "co_freevars",
              "co_cellvars")
    return all(getattr(a, f) == getattr(b, f) for f in fields) \
        and _ops(a) == _ops(b)


def _ops(code: types.CodeType) -> tuple:
    """``code``'s instructions as (operation, argument) pairs that do not
    depend on where it was compiled: positions dropped, jumps by
    instruction index, nested code by its own operations, and
    ``LOAD_METHOD`` as ``LOAD_ATTR`` (CPython 3.11 emits the latter for
    ``m.f()`` when ``m`` is imported at the top of the module being
    compiled, which only the kernel's own module knows)."""
    ins = list(dis.get_instructions(code))
    index = {i.offset: k for k, i in enumerate(ins)}
    return tuple(
        (i.opname.replace("LOAD_METHOD", "LOAD_ATTR"),
         index.get(i.argval) if i.opcode in _JUMPS
         else _ops(i.argval) if isinstance(i.argval, types.CodeType)
         else (type(i.argval), i.argval))
        for i in ins)


def _recompile(fn, node: ast.FunctionDef, filename: str):
    """Compile ``node`` into a function sharing ``fn``'s globals and
    closure cells.  The def is nested in a factory whose parameters are
    ``fn``'s free variables, so its names bind as in the original; the
    def's own name stays global unless it was free in ``fn`` as well."""
    free = fn.__code__.co_freevars
    module = ast.parse(f"def _factory({', '.join(free)}):\n    pass\n")
    module.body[0].body = [node] if node.name in free \
        else [ast.Global(names=[node.name]), node]
    code = compile(ast.fix_missing_locations(module), filename, "exec")
    factory = next(c for c in code.co_consts
                   if isinstance(c, types.CodeType))
    body = next(c for c in factory.co_consts
                if isinstance(c, types.CodeType) and c.co_name == node.name)
    cells = dict(zip(free, fn.__closure__ or ()))
    out = types.FunctionType(body, fn.__globals__, fn.__name__,
                             fn.__defaults__,
                             tuple(cells[n] for n in body.co_freevars))
    out.__kwdefaults__ = fn.__kwdefaults__
    return out


def _resolve(fn, name: str):
    """What ``name`` is bound to in ``fn``: its closure cell, else its
    global (``None`` when unbound)."""
    code = fn.__code__
    if name in code.co_freevars:
        try:
            return fn.__closure__[code.co_freevars.index(name)].cell_contents
        except ValueError:      # an empty cell
            return None
    return fn.__globals__.get(name)


def cuda_names(fn, module) -> set:
    """Names through which ``fn`` reaches ``module`` (the cuda namespace)."""
    code = fn.__code__
    return {n for n in code.co_names + code.co_freevars
            if _resolve(fn, n) is module}


def helper_syncs(fn) -> bool:
    """Does a plain function that ``fn`` names, directly or through other
    such functions, name ``syncthreads``?  Every name of the code is
    resolved, attribute names included: a function that merely shares
    one can send a kernel to the slower barrier path, never past a
    barrier."""
    seen = {fn.__code__}
    todo = [fn]
    while todo:
        f = todo.pop()
        for name in f.__code__.co_names + f.__code__.co_freevars:
            g = _resolve(f, name)
            if isinstance(g, types.FunctionType) and g.__code__ not in seen:
                if "syncthreads" in g.__code__.co_names:
                    return True
                seen.add(g.__code__)
                todo.append(g)
    return False


# ---------------------------------------------------------------------------
# Generator blocks
# ---------------------------------------------------------------------------


def _yield_at_barriers(body: list, names: set) -> int:
    """Replace each barrier statement in ``body`` and its nested statement
    lists (not nested scopes) with ``yield``; return how many."""
    from repro.analysis.context import is_sync

    count = 0
    for k, stmt in enumerate(body):
        if is_sync(stmt, names):
            body[k] = ast.copy_location(ast.Expr(value=ast.Yield()), stmt)
            count += 1
        elif not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
            for field in ("body", "orelse", "finalbody"):
                count += _yield_at_barriers(getattr(stmt, field, []), names)
            for handler in getattr(stmt, "handlers", ()):
                count += _yield_at_barriers(handler.body, names)
    return count


def generator_variant(fn, names: set):
    """``fn`` recompiled as a generator that yields at each barrier, or
    ``None`` when its source is unavailable, a ``syncthreads`` remains
    that is not a plain barrier statement of the kernel's own body, or a
    helper it calls reaches one (only an OS thread can wait inside a
    called function)."""
    found = None if helper_syncs(fn) else _kernel_def(fn)
    if found is None:
        return None
    node, filename = found
    if not _yield_at_barriers(node.body, names) or any(
            isinstance(n, ast.Attribute) and n.attr == "syncthreads"
            or isinstance(n, ast.Name) and n.id == "syncthreads"
            for n in ast.walk(node)):
        return None
    return _recompile(fn, node, filename)


# ---------------------------------------------------------------------------
# Whole-block lowering
# ---------------------------------------------------------------------------


class _Reject(Exception):
    """The kernel, or one launch signature of it, is outside what the
    lowering takes; the launcher keeps the per-thread paths."""


_UNIFORM, _INDEX, _VALUE, _COUNTER = "uniform", "index", "value", "counter"
#: the kinds that can differ with the data, not only with the thread
_DATA = (_VALUE, _COUNTER)
#: the operators an index or a counter may be computed with (any other
#: kind takes every one of :data:`_VALUE_OPS`)
_OPS = {_INDEX: _INDEX_OPS, _COUNTER: _COUNTER_OPS}
#: what an ``if``, ``while`` or ``for`` becomes: run on the host, a mask
#: on the indices, an ``if`` on data (or any thread-varying ``if`` inside
#: one) run branch by branch, or a loop run pass by pass per thread
_HOST, _MASK, _SPLIT, _LOOP = "host", "mask", "split", "loop"
_AXES = ("x", "y", "z")
#: ``cuda.<name>.<axis>`` -> the :class:`_Blocks` member that serves it
_INTRINSICS = {"threadIdx": "tid", "blockIdx": "bid", "blockDim": "bdim",
               "gridDim": "gdim"}
_NO_THREADS = np.empty(0, np.intp)


def _join(a: str, b: str) -> str:
    """The kind of a value computed from values of kinds ``a`` and ``b``.
    Uniform values mix with any kind; an index or a counter never mixes
    into data, since the interpreter holds it as a Python int and the
    lowered body as an ``int64`` array, which NumPy promotes differently
    (against ``float32``, say)."""
    if a == b or b == _UNIFORM:
        return a
    if a == _UNIFORM:
        return b
    raise _Reject


_INT64 = np.dtype(np.int64).str


def _flavour(value) -> str:
    """What decides how a temporary promotes: an array's or NumPy
    scalar's dtype, ``int64`` for a Python int (a counter, which becomes
    an ``int64`` array where it varies by thread), else its type."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.dtype.str
    return _INT64 if type(value) is int else type(value).__name__


def _integral(bound):
    """A ``range`` argument as ``range`` takes it: an integer, or per
    thread an ``int64`` array of integers."""
    if not isinstance(bound, np.ndarray):
        return operator.index(bound)
    if bound.dtype.kind not in "iu" or bound.dtype == np.uint64:
        raise TypeError(f"range() takes integers, not {bound.dtype}")
    return bound.astype(np.int64, copy=False)


class Lowered:
    """A kernel as one function over a chunk of whole blocks.

    ``body`` takes a :class:`_Blocks` first, then the kernel's own
    arguments, and runs each statement for every thread of the chunk
    before the next: a shared array is one ``(blocks, *shape)`` array,
    thread and block indices are per-thread ``int64`` arrays, loops and
    tests on launch-uniform values run on the host, and a test on the
    indices narrows the threads its branch runs for.  A loop whose test
    or bound varies by thread runs one pass at a time for the threads
    still in it, and drops each thread whose test fails at the end of a
    pass; an ``if`` on data runs each branch for its own threads.  The
    temporaries such a loop or ``if`` assigns that later code reads, or
    that it reads again on its next pass or run, are merged back per
    thread.  ``free`` names the values the statements
    read by bare name, which must be numbers at launch.
    """

    def __init__(self, fn, body, form: "_Form") -> None:
        self.fn = fn
        self.body = body
        self.params = tuple(form.params)
        self.free = frozenset(form.free)
        self._arrays = frozenset(form.arrays)
        self._written = tuple(k for k, p in enumerate(self.params)
                              if p in form.written)
        #: the free names a test, a subscript, a bound or a counter reads
        self._bound = frozenset(form.bound)
        self._counted = frozenset(form.counted)
        self._int64 = frozenset(form.counter_stores)
        self._globals = tuple(sorted(self.free - set(self.params)))
        self._decisions: dict = {}

    def admitted(self, grid3: tuple, block3: tuple, args) -> tuple | None:
        """Positions of the arguments the launch writes when it may run
        lowered, else ``None``: :meth:`_admit`, decided on the first
        launch of each signature (:meth:`_key`) and kept for the latest
        :data:`_DECISIONS` signatures."""
        key = self._key(grid3, block3, args)
        decisions = self._decisions
        if key in decisions:
            return decisions[key]
        decision = self._admit(grid3, block3, args)
        if len(decisions) >= _DECISIONS:
            del decisions[next(iter(decisions))]
        decisions[key] = decision
        return decision

    def _key(self, grid3: tuple, block3: tuple, args) -> tuple:
        """What :meth:`_admit` decides from: the launch shape, each
        array's dtype and shape, the value of each number a test on the
        indices, a subscript, a host loop's bound or a counter reads
        (directly or through temporaries), and the type of every other
        argument and of each global the statements read.  A number read
        only into values or tests on them cannot move the trace, so a
        relaunch with a new one reuses the verdict."""
        def part(name, value):
            if isinstance(value, np.ndarray):
                return value.dtype.str, value.shape
            if name in self._bound and isinstance(value, _NUMBERS):
                return type(value), value
            return type(value)

        return grid3, block3, tuple(
            part(p, a) for p, a in itertools.zip_longest(self.params, args)
        ), tuple(part(n, _resolve(self.fn, n)) for n in self._globals)

    def _admit(self, grid3: tuple, block3: tuple, args) -> tuple | None:
        """Positions of the arguments the launch writes when it may run
        lowered, else ``None``.

        It may when every value read by bare name is a number (a Python
        or NumPy ``int64`` integer where a counter reads it), every
        parameter used as an array is one (of ``int64`` where a counter
        is stored into it), and a trace of the launch (:class:`_Rules`)
        finds every subscript an in-bounds integer per dimension (a
        negative one counts from the end, as in the interpreter), no
        shared cell that one thread writes touched by another thread of
        its block between two barriers, and no cell of a written argument
        touched by two threads.  Then running each statement for all
        threads before the next computes what running the threads one
        after another does, and no block depends on another.  The
        verdict rests on the masks and subscripts, which read no array
        data in the forms :class:`_Form` takes, so one trace decides
        every launch of the signature.  A
        test on data governs only temporaries, so the trace runs each
        loop or branch under one once with no threads, which checks that
        every temporary it merges back keeps its dtype whatever the data.
        """
        if len(args) != len(self.params):
            return None
        scope = dict(zip(self.params, args))

        def value(name):
            return scope[name] if name in scope else _resolve(self.fn, name)

        if not all(isinstance(value(n), _NUMBERS) for n in self.free) \
                or not all(isinstance(scope[p], np.ndarray)
                           for p in self._arrays) \
                or not all(type(value(n)) in (int, np.int64)
                           for n in self._counted) \
                or not all(scope[p].dtype == np.int64 for p in self._int64):
            return None
        try:
            with np.errstate(all="ignore"):
                self._chunks(grid3, block3, args, _Rules(args, self._written))
        except (_Reject, ArithmeticError, LookupError, NameError, TypeError,
                ValueError):
            return None     # a rule fails, or the launch raises
        return self._written

    def run(self, grid3: tuple, block3: tuple, args, written: tuple) -> bool:
        """Execute the launch as whole-block NumPy.  Returns ``False``,
        having run nothing, when a written array overlaps another
        argument (the trace took them to be distinct)."""
        for w in written:
            if any(k != w and isinstance(a, np.ndarray)
                   and np.may_share_memory(args[w], a)
                   for k, a in enumerate(args)):
                return False
        self._chunks(grid3, block3, args, None)
        return True

    def _chunks(self, grid3: tuple, block3: tuple, args, rules) -> None:
        """Run the body over the launch one box of whole blocks at a
        time, each of at most :data:`CHUNK_THREADS` threads (or one
        block): as many z, then y, then x block planes as fit."""
        room, extent = CHUNK_THREADS // math.prod(block3), []
        for g in reversed(grid3):
            extent.insert(0, max(1, min(g, room)))
            room = room // g if extent[0] == g else 0
        for lo in itertools.product(*(range(0, g, e)
                                      for g, e in zip(grid3, extent))):
            hi = tuple(min(a + e, g) for a, e, g in zip(lo, extent, grid3))
            chunk = _Blocks(grid3, block3, lo, hi, rules)
            self.body(chunk, *args)
            chunk.sync()


class _Blocks:
    """The threads of a chunk of whole blocks, as a lowered body sees
    them: index arrays built on first use, shared arrays with one row per
    block, and the branch or loop the body is in (:meth:`enter`,
    :meth:`branch`, :meth:`loop`).  Under a trace (``rules``) each access
    is checked, stores are skipped, and a branch or loop on data runs
    once with no threads."""

    def __init__(self, grid3: tuple, block3: tuple, lo: tuple, hi: tuple,
                 rules: "_Rules | None") -> None:
        self.gdim, self.bdim = grid3, block3
        self._lo, self._hi = lo, hi
        #: the global thread coordinates the box spans, per axis
        self._coords = [np.arange(a * b, z * b)
                        for a, z, b in zip(lo, hi, block3)]
        self._shape = tuple(len(c) for c in self._coords)
        self._rules = rules
        # per branch depth: (positions among the enclosing threads, or None
        # when it takes them all; index arrays built so far; thread count)
        self._levels = [(None, {}, math.prod(self._shape))]
        #: under a trace, the values each loop being probed started with
        self._probes: list = []

    def _index(self, key: tuple, depth: int = -1) -> np.ndarray:
        selected, built, _ = self._levels[depth]
        arr = built.get(key)
        if arr is None:
            if depth == -len(self._levels):
                arr = self._full(*key)
            else:
                arr = self._index(key, depth - 1)
                if selected is not None:
                    arr = arr[selected]
            built[key] = arr
        return arr

    def _full(self, what: str, axis: int) -> np.ndarray:
        """Index array ``what`` over all threads of the box, in global
        coordinate order, x slowest (as ``np.indices`` would give it)."""
        if what in ("row", "linear"):
            if what == "row":       # the thread's block among the box's
                parts = [c // b - a for c, b, a in
                         zip(self._coords, self.bdim, self._lo)]
                dims = [z - a for a, z in zip(self._lo, self._hi)]
            else:                   # the thread among the launch's
                parts = self._coords
                dims = [g * b for g, b in zip(self.gdim, self.bdim)]
            flat = (parts[0].reshape(-1, 1, 1) * dims[1]
                    + parts[1].reshape(1, -1, 1)) * dims[2] \
                + parts[2].reshape(1, 1, -1)
            return flat.ravel()
        values = self._coords[axis]
        if what == "thread":
            values = values % self.bdim[axis]
        elif what == "block":
            values = values // self.bdim[axis]
        view = [1, 1, 1]
        view[axis] = -1
        return np.broadcast_to(values.reshape(view), self._shape).ravel()

    # -- what the lowered body calls --------------------------------------

    def tid(self, axis: int) -> np.ndarray:
        return self._index(("thread", axis))

    def bid(self, axis: int) -> np.ndarray:
        return self._index(("block", axis))

    def grid(self, ndim: int):
        axes = tuple(self._index(("grid", k)) for k in range(ndim))
        return axes[0] if ndim == 1 else axes

    def shared(self, shape, dtype=np.float32) -> np.ndarray:
        """``cuda.shared.array``: one zeroed array per block of the
        chunk, as the interpreter allocates one per block."""
        shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
        blocks = math.prod(z - a for a, z in zip(self._lo, self._hi))
        return np.zeros((blocks,) + shape, dtype=dtype)

    def ld(self, array: np.ndarray, pos: int, index: tuple):
        if self._rules is not None:
            self._rules.touch(self, array, pos, index)
        return array[index]

    def st(self, array: np.ndarray, pos: int, index: tuple, value) -> None:
        if self._rules is not None:
            self._rules.touch(self, array, pos, index)
        else:
            if isinstance(value, np.ndarray) and not any(
                    isinstance(i, np.ndarray) for i in index):
                value = value[0]    # the trace admits one thread here
            array[index] = value

    def sld(self, tile: np.ndarray, index: tuple):
        index = (self._index(("row", 0)),) + index
        if self._rules is not None:
            self._rules.touch_shared(self, tile, index, write=False)
        return tile[index]

    def sst(self, tile: np.ndarray, index: tuple, value) -> None:
        index = (self._index(("row", 0)),) + index
        if self._rules is not None:
            self._rules.touch_shared(self, tile, index, write=True)
        else:
            tile[index] = value

    def _threads(self, mask) -> np.ndarray:
        """``mask``, per thread or one truth value for all, over the
        current threads."""
        count = self._levels[-1][2]
        if isinstance(mask, np.ndarray) and mask.shape == (count,):
            return mask
        return np.broadcast_to(mask, (count,))

    def enter(self, mask, invert: bool) -> bool:
        """Narrow the threads to those ``mask`` (or, with ``invert``, its
        complement) holds for, kept as their positions among the current
        ones; ``False``, narrowing nothing, when it holds for none: the
        interpreter would not run the branch at all."""
        count = self._levels[-1][2]
        mask = self._threads(mask)
        if invert:
            mask = ~mask
        taken = int(np.count_nonzero(mask))
        if not taken:
            return False
        self._levels.append((None if taken == count else mask.nonzero()[0],
                             {}, taken))
        return True

    def narrow(self, *values) -> tuple:
        """``values``, per-thread arrays among them cut to the threads of
        the branch just entered."""
        selected = self._levels[-1][0]
        if selected is None:
            return values
        return tuple(v[selected] if isinstance(v, np.ndarray) else v
                     for v in values)

    def leave(self) -> None:
        self._levels.pop()

    # -- tests on data ----------------------------------------------------

    def branch(self, mask, invert: bool) -> bool:
        """:meth:`enter` for a test on data; under a trace the branch is
        entered with no threads, so each of its statements is checked
        once whatever the data."""
        if self._rules is None:
            return self.enter(mask, invert)
        self._levels.append((_NO_THREADS, {}, 0))
        return True

    def widen(self, *values) -> tuple:
        """``values`` as per-thread arrays of their own, which a branch or
        loop on data merges its threads' results into."""
        if self._rules is not None:
            return values
        count = self._levels[-1][2]
        return tuple(v.copy() if isinstance(v, np.ndarray)
                     else np.full(count, v) for v in values)

    def merge(self, fulls: tuple, parts: tuple) -> tuple:
        """``fulls`` (from :meth:`widen`) with the branch's threads set to
        ``parts``; under a trace, checks that each part promotes as its
        full value does."""
        if self._rules is not None:
            if any(_flavour(f) != _flavour(p) for f, p in zip(fulls, parts)):
                raise _Reject
            return fulls
        selected = self._levels[-1][0]
        if selected is None:
            return parts
        for full, part in zip(fulls, parts):
            full[selected] = part
        return fulls

    def loop(self, mask, values: tuple) -> tuple | None:
        """Enter a loop whose test varies by thread with the threads
        ``mask`` holds for and ``values`` narrowed to them, or ``None``
        when it holds for none.  Under a trace one pass runs with no
        threads (:meth:`again` ends it)."""
        if not self.branch(mask, False):
            return None
        if self._rules is not None:
            self._probes.append(values)
        return self.narrow(*values)

    def again(self, mask, fulls: tuple, live: tuple, values: tuple):
        """End a pass: write the ``live`` values of the threads whose test
        ``mask`` fails into ``fulls`` (from :meth:`widen`), drop those
        threads, and return ``values`` narrowed to the rest, or ``None``
        (leaving the loop) when none is left.  Under a trace, checks that
        the pass kept each value's and each live value's dtype."""
        selected, _, count = self._levels[-1]
        if self._rules is not None:
            before = self._probes.pop()
            self._levels.pop()
            if any(_flavour(a) != _flavour(b) for a, b in
                   itertools.chain(zip(before, values), zip(fulls, live))):
                raise _Reject
            return None
        still = self._threads(mask)
        left = int(np.count_nonzero(still))
        if left == count:
            return values
        if selected is None:
            selected = np.arange(count)
        done = (~still).nonzero()[0]
        at = selected[done]
        for full, v in zip(fulls, live):
            full[at] = v[done] if isinstance(v, np.ndarray) else v
        if not left:
            self._levels.pop()
            return None
        kept = still.nonzero()[0]
        self._levels[-1] = (selected[kept], {}, left)
        return tuple(v[kept] if isinstance(v, np.ndarray) else v
                     for v in values)

    def span(self, start, stop, step) -> tuple:
        """``range(start, stop, step)`` per thread: the first value and
        the stop, as integers or ``int64`` arrays, and the step (raising
        as ``range`` does on a non-integer or a zero step)."""
        step = operator.index(step)
        if not step:
            raise ValueError("range() arg 3 must not be zero")
        return _integral(start), _integral(stop), step

    def count(self, value):
        """A counter's new value; under a trace, rejects one that is not
        an integer, which would promote unlike the interpreter's."""
        if self._rules is not None and _flavour(value) != _INT64:
            raise _Reject
        return value

    def sync(self) -> None:
        """``cuda.syncthreads()``: every thread has run every statement
        before it, so only a trace has work here, closing the phase."""
        if self._rules is not None:
            self._rules.close_phase()

    def linear(self) -> np.ndarray:
        """The launch-wide linear id of each current thread."""
        return self._index(("linear", 0))


class _Rules:
    """A trace's checks: each subscript names one element per thread, in
    bounds and by integers; within a phase no shared cell that one thread
    writes is touched by another; and no cell of a written argument is
    touched by two threads of the launch."""

    def __init__(self, args, written: tuple) -> None:
        #: per written argument, the thread that touched each cell (-1:
        #: none yet), kept across chunks
        self._owners = {k: np.full(args[k].size, -1, np.int64)
                        for k in written}
        #: per shared array, this phase's (cells, threads, writes) parts
        self._phase: dict = {}

    def touch(self, chunk: _Blocks, array, pos: int, index: tuple) -> None:
        owner = self._owners.get(pos)
        if owner is None:           # read only: the load itself checks bounds
            _integers(array.shape, index)
            return
        threads = chunk.linear()
        cells = _cells(array.shape, index, threads.size)
        seen = owner[cells]
        if np.any((seen >= 0) & (seen != threads)):
            raise _Reject
        del seen
        owner[cells] = threads
        if np.any(owner[cells] != threads):     # two threads in this one
            raise _Reject

    def touch_shared(self, chunk: _Blocks, tile, index: tuple,
                     write: bool) -> None:
        threads = chunk.linear()
        cells = _cells(tile.shape, index, threads.size)
        parts = self._phase.setdefault(id(tile), (tile.size, [], [], []))
        parts[1].append(cells)
        parts[2].append(threads)
        parts[3].append(np.full(cells.size, write))

    def close_phase(self) -> None:
        for size, *parts in self._phase.values():
            cells, threads, writes = map(np.concatenate, parts)
            writer = np.full(size, -1, np.int64)
            writer[cells[writes]] = threads[writes]
            seen = writer[cells]
            if np.any((seen >= 0) & (seen != threads)):
                raise _Reject
        self._phase.clear()


def _integers(shape: tuple, index: tuple) -> None:
    """Raise :class:`_Reject` unless ``index`` has one integer subscript
    per dimension of ``shape``, so it names one element per thread."""
    if len(index) != len(shape) or not all(
            i.dtype.kind in "iu" if isinstance(i, np.ndarray)
            else isinstance(i, (int, np.integer)) and not isinstance(i, bool)
            for i in index):
        raise _Reject


def _cells(shape: tuple, index: tuple, count: int) -> np.ndarray:
    """The flat cell each of ``count`` threads names with ``index`` in an
    array of ``shape``; raises :class:`_Reject` unless each subscript is
    an in-bounds integer (negative ones count from the end, as they do
    in the interpreter)."""
    _integers(shape, index)
    axes = []
    for i, n in zip(index, shape):
        if np.any(np.less(i, 0)):
            i = np.where(np.less(i, 0), i + n, i)
        axes.append(np.broadcast_to(i, (count,)))
    try:
        return np.ravel_multi_index(axes, shape)
    except ValueError:
        raise _Reject from None


def lower(fn, names: set) -> Lowered | None:
    """The whole-block form of ``fn``, or ``None`` when its source is
    unavailable or its statements leave the forms :class:`_Form` takes."""
    if not _NEP50:
        return None
    found = _kernel_def(fn)
    if found is None:
        return None
    node, filename = found
    args = node.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs \
            or any(isinstance(n, ast.Name) and n.id.startswith("_lw")
                   or isinstance(n, ast.arg) and n.arg.startswith("_lw")
                   for n in ast.walk(node)):
        return None
    body = node.body
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant):
        body = body[1:]                                 # docstring
    try:
        form = _Form(fn, [a.arg for a in args.args], body, names)
    except _Reject:
        return None
    out = copy.copy(node)
    out.args = copy.copy(args)
    out.args.args = [ast.arg(arg="_lw")] + list(args.args)
    out.body = form.lowered
    return Lowered(fn, _recompile(fn, out, filename), form)


def _rebind(stmt):
    """``t op= v`` as ``t = t op v``; any other statement as it is."""
    if not isinstance(stmt, ast.AugAssign):
        return stmt
    load = copy.deepcopy(stmt.target)
    load.ctx = ast.Load()
    return ast.copy_location(ast.Assign(
        targets=[stmt.target],
        value=ast.BinOp(left=load, op=stmt.op, right=stmt.value)), stmt)


def _desugar(stmts: list) -> list:
    """``stmts`` with ``t op= v`` as ``t = t op v`` (the interpreter
    rebinds a scalar to the promoted result, where an in-place ufunc
    would cast into the target), an annotated assignment as a plain one,
    and a store of ``a if c else b`` as an ``if`` storing either."""
    out = []
    for s in stmts:
        s = _rebind(s)
        if isinstance(s, ast.AnnAssign) and s.value is not None:
            s = ast.copy_location(
                ast.Assign(targets=[s.target], value=s.value), s)
        if isinstance(s, ast.Assign) and len(s.targets) == 1 \
                and isinstance(s.targets[0], ast.Subscript) \
                and isinstance(s.value, ast.IfExp):
            target, e = s.targets[0], s.value
            s = ast.copy_location(ast.If(test=e.test, body=[
                ast.copy_location(ast.Assign(targets=[target], value=e.body),
                                  s)], orelse=[
                ast.copy_location(ast.Assign(targets=[copy.deepcopy(target)],
                                             value=e.orelse), s)]), s)
        if isinstance(s, (ast.If, ast.For, ast.While)):
            s.body, s.orelse = _desugar(s.body), _desugar(s.orelse)
        out.append(s)
    return out


def _statements(stmts: list):
    """Every statement of ``stmts`` and of the blocks nested in them."""
    for s in stmts:
        yield s
        for field in ("body", "orelse"):
            yield from _statements(getattr(s, field, []))


def _subscripts(node: ast.Subscript) -> list:
    return (node.slice.elts if isinstance(node.slice, ast.Tuple)
            else [node.slice])


def _lw_attr(name: str) -> ast.Attribute:
    """``_lw.name``: a member of the chunk (:class:`_Blocks`)."""
    return ast.Attribute(value=ast.Name(id="_lw", ctx=ast.Load()), attr=name,
                         ctx=ast.Load())


def _lw(method: str, *args) -> ast.Call:
    """``_lw.method(*args)``."""
    return ast.Call(func=_lw_attr(method), args=list(args), keywords=[])


def _tuple(names) -> str:
    """The source of a tuple of ``names``."""
    return f"({', '.join(names)}{',' if len(names) == 1 else ''})"


class _Fill(ast.NodeTransformer):
    """A template's ``_lw_<part>`` placeholders replaced by its parts: a
    placeholder statement by a list of statements, a placeholder name by
    a copy of an expression."""

    def __init__(self, parts: dict) -> None:
        self.parts = parts

    def visit_Expr(self, node):
        if isinstance(node.value, ast.Name) and node.value.id in self.parts:
            return self.parts[node.value.id]
        return self.generic_visit(node)

    def visit_Name(self, node):
        if node.id in self.parts:
            return copy.deepcopy(self.parts[node.id])
        return node


def _template(source: str, at: ast.AST, **parts) -> list:
    """The statements of ``source``, at the line of the statement ``at``
    they stand for, with its placeholders filled (:class:`_Fill`)."""
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        ast.copy_location(node, at)
    return _Fill(parts).visit(tree).body


class _Form:
    """A kernel's statements checked against the forms the lowering
    takes, and rewritten (:attr:`lowered`) into the body of a
    :class:`Lowered`.

    Each temporary (a name the kernel assigns) has one kind, joined over
    all its assignments: ``uniform``, the same for every thread (numbers,
    dimensions, loop counters and arithmetic on them); ``index``, built
    from ``cuda.grid``, ``threadIdx`` and ``blockIdx`` with ``+``, ``-``
    and ``*``; ``value``, computed from array elements; or ``counter``,
    an integer built from uniform ones with ``+`` and ``-`` that varies
    by thread because a test on data governs it (``count = 0`` and
    ``count += 1`` under ``collatz``'s loop) or because its ``range``
    starts per thread.  Masks, subscripts and host loop bounds read no
    value or counter, so a trace decides a launch from them alone; values
    read no index or counter.

    The statements are assignments, ``cuda.syncthreads()`` outside any
    thread-varying branch, ``if`` (an ``else`` too), ``for`` over
    ``range`` and ``while``.  A loop and a test on uniform values run on
    the host; a test on indices is a mask, its branch run for the threads
    it selects with the per-thread values it reads narrowed to them.  A
    temporary assigned in such a branch may occur only in it.

    A test on data is one comparison (a chain or ``and`` would evaluate
    its later parts for threads the interpreter skips); under it, and
    under a loop whose test or ``range`` varies by thread, sit only
    assignments to temporaries and more such tests and loops: no
    subscript, shared array, barrier or call.  So no array is touched
    there, and the trace runs them once with no threads rather than for
    every thread and pass.  Each branch runs for its own
    threads only; each loop pass for the threads whose test still holds.
    A temporary they assign that code outside reads, or that they read
    before assigning it (the next pass, or the next run under an
    enclosing loop, starts from it), is merged back per thread
    (:attr:`_merges`), so it must be assigned before, keep one dtype on
    every path (the trace checks this) and, if a value, never be a
    Python scalar (``masked_temp``'s ``t = 0.0``); a uniform one becomes
    a counter.  So does a uniform temporary a loop on data assigns (its
    ``range`` variable, say) that a host test or loop or a ``**`` under
    a test on data reads: from one pass to the next it may take another
    path, or make ``2 ** k`` a float where it was an int.  As a counter
    it makes a test on data, whose every path the trace runs, and no
    ``**`` takes it.
    A counter must be an integer (the trace checks this), is stored only
    into ``int64`` arrays, and reads only Python or ``int64`` integers;
    like an index, it is taken to stay within ``int64``, past which the
    interpreter's Python int would grow and the array wrap (``*`` is
    refused: ``p = p * 3`` gets there in 40 passes).

    Nothing else is called: no helper, no atomic; there is no
    ``return``, ``break`` or ``continue``.  :attr:`free` collects the
    names read by bare name that are not temporaries, :attr:`bound` those
    of them a mask, a subscript, a host loop's bound, a ``range`` step, a
    counter or a shared shape reads (directly or through temporaries),
    :attr:`counted` those a counter reads, :attr:`arrays` the parameters
    used as arrays, :attr:`written` those stored into and
    :attr:`counter_stores` those a counter is stored into.
    """

    def __init__(self, fn, params: list, body: list, cuda: set) -> None:
        self.fn = fn
        self.params = params
        self._params = set(params)
        self.cuda = cuda
        body = _desugar(body)
        stored = {n.id for s in body for n in ast.walk(s)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        if stored & (self._params | cuda):
            raise _Reject
        self.shared = {s.targets[0].id for s in body
                       if isinstance(s, ast.Assign)
                       and isinstance(s.targets[0], ast.Name)
                       and self._shared_call(s.value)}
        self.temps = stored - self.shared
        self._counters: set = set()
        while True:     # a new counter can make a test read data
            self.kinds, self.deps = {}, {}
            self.free, self.bound, self.arrays = set(), set(), set()
            self._infer(body)
            self._roles, self._nodes, self._uses = {}, {}, {}
            self._steers: set = set()
            self._scan(body, (), False)
            self._find_merges()
            # numbers that vary by thread: those merged back, and those a
            # loop on data assigns that steer a host test or loop or a
            # power under a test on data (the trace runs one pass, so it
            # sees one path and one result type)
            looped = {n for b, names in self._stored.items()
                      if self._roles[b[0]] == _LOOP for n in names}
            more = {n for n in (self._steers & looped).union(
                        *self._merges.values())
                    if self.kinds.get(n, _UNIFORM) in (_UNIFORM, _COUNTER)}
            if more <= self._counters:
                break
            self._counters |= more
        forms = self._forms(body)
        if any(self.kinds.get(n) == _VALUE and _UNIFORM in forms[n]
               for names in self._merges.values() for n in names):
            raise _Reject   # a Python scalar on one path, an element on another
        self.counted = set().union(*(self.deps[n] for n, k in self.kinds.items()
                                     if k == _COUNTER))
        self.bound |= self.counted
        self.written: set = set()
        self.counter_stores: set = set()
        self._narrowed = self._scopes()
        self._serial = 0
        self._governed = False
        self.lowered = self._block(body, masked=False, top=True)

    # -- kinds ----------------------------------------------------------------

    def _infer(self, body: list) -> None:
        """Each temporary's kind and the free names its value reads, to a
        fixpoint over every assignment."""
        defs = [s for s in _statements(body)
                if isinstance(s, (ast.Assign, ast.For))]
        changed = True
        while changed:
            changed = False
            for s in defs:
                for name, kind, deps in self._defines(s):
                    if kind == _UNIFORM and name in self._counters:
                        kind = _COUNTER
                    old = self.kinds.get(name), self.deps.get(name)
                    new = (kind if old[0] is None else _join(old[0], kind),
                           deps | (old[1] or frozenset()))
                    if new != old:
                        self.kinds[name], self.deps[name] = new
                        changed = True

    def _forms(self, body: list) -> dict:
        """Per temporary, the kinds of the values assigned to it."""
        forms: dict = {}
        for s in _statements(body):
            if isinstance(s, (ast.Assign, ast.For)):
                for name, kind, _ in self._defines(s):
                    forms.setdefault(name, set()).add(kind)
        return forms

    def _defines(self, s):
        if isinstance(s, ast.For):
            if isinstance(s.target, ast.Name):
                varies, kind, reads = self._range(s.iter)
                yield s.target.id, kind, frozenset() if varies else reads
            return
        if len(s.targets) != 1:
            raise _Reject
        target, value = s.targets[0], s.value
        ndim = self._grid_call(value)
        if ndim and ndim > 1 and isinstance(target, ast.Tuple):
            for t in target.elts:
                if isinstance(t, ast.Name):
                    yield t.id, _INDEX, frozenset()
        elif isinstance(target, ast.Name) and target.id in self.temps:
            yield (target.id, *self.expr(value))

    def expr(self, node) -> tuple:
        """``(kind, free names read)`` of an expression outside a test."""
        if isinstance(node, ast.Constant) \
                and isinstance(node.value, (int, float, complex)):
            return _UNIFORM, frozenset()
        if isinstance(node, ast.Name):
            if node.id in self.temps:
                return (self.kinds.get(node.id, _UNIFORM),
                        self.deps.get(node.id, frozenset()))
            if node.id in self.cuda or node.id in self.shared:
                raise _Reject
            self.free.add(node.id)
            return _UNIFORM, frozenset([node.id])
        if isinstance(node, ast.BinOp):
            (left, lread), (right, rread) = (self.expr(node.left),
                                             self.expr(node.right))
            kind = _join(left, right)
            if not isinstance(node.op, _OPS.get(kind, _VALUE_OPS)):
                raise _Reject
            return kind, lread | rread
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, (ast.USub, ast.UAdd)):
            return self.expr(node.operand)
        if self._grid_call(node) == 1:
            return _INDEX, frozenset()
        intrinsic = self._intrinsic(node)
        if intrinsic is not None:
            return (_INDEX if intrinsic[0] in ("tid", "bid") else _UNIFORM,
                    frozenset())
        if self._element(node):
            return _VALUE, frozenset()
        if self._array_attr(node):
            return _UNIFORM, frozenset()
        raise _Reject

    def _reads_no_value(self, node) -> str:
        """The kind of an index or bound expression, whose free names
        join :attr:`bound`."""
        kind, reads = self.expr(node)
        if kind in _DATA:
            raise _Reject
        self.bound |= reads
        return kind

    def cond(self, node) -> str:
        """The kind of an ``if`` or ``while`` test: ``uniform`` runs on
        the host, ``index`` is a mask, and one that reads data (a single
        comparison) governs temporaries only; the free names a test on no
        data reads join :attr:`bound`."""
        if isinstance(node, ast.BoolOp):
            kinds = [self.cond(v) for v in node.values]
            if any(k in _DATA for k in kinds):
                raise _Reject
            return _INDEX if _INDEX in kinds else _UNIFORM
        if isinstance(node, ast.Compare):
            if not all(isinstance(op, _COMPARE_OPS) for op in node.ops):
                raise _Reject
            kind, reads = _UNIFORM, frozenset()
            for term in [node.left, *node.comparators]:
                more_kind, more = self.expr(term)
                kind, reads = _join(kind, more_kind), reads | more
            if kind not in _DATA:
                self.bound |= reads
            elif len(node.ops) > 1:
                raise _Reject
            return kind
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) \
                and self.cond(node.operand) == _UNIFORM:
            return _UNIFORM
        if self._reads_no_value(node) != _UNIFORM:
            raise _Reject
        return _UNIFORM

    def _range(self, node) -> tuple:
        """``range(...)``: whether its bounds vary by thread, the kind of
        its loop variable (a counter where the start varies) and the free
        names it reads.  The step is uniform; it joins :attr:`bound` (its
        sign picks the test and zero raises), and so does every argument
        of a range that varies by no thread."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range" and not node.keywords
                and 1 <= len(node.args) <= 3
                and _resolve(self.fn, "range") is None):
            raise _Reject
        kinds, reads = [], frozenset()
        for arg in node.args:
            kind, more = self.expr(arg)
            kinds.append(kind)
            reads |= more
        if len(node.args) == 3:
            if self._reads_no_value(node.args[2]) != _UNIFORM:
                raise _Reject
        varies = any(k != _UNIFORM for k in kinds)
        if not varies:
            self.bound |= reads
        start = kinds[0] if len(kinds) > 1 else _UNIFORM
        return varies, _UNIFORM if start == _UNIFORM else _COUNTER, reads

    # -- recognised forms -----------------------------------------------------

    def _cuda_attr(self, node, attr: str) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == attr \
            and isinstance(node.value, ast.Name) and node.value.id in self.cuda

    def _grid_call(self, node) -> int | None:
        """``n`` when ``node`` is ``cuda.grid(n)``."""
        if isinstance(node, ast.Call) and self._cuda_attr(node.func, "grid") \
                and not node.keywords and len(node.args) == 1 \
                and isinstance(node.args[0], ast.Constant) \
                and node.args[0].value in (1, 2, 3):
            return node.args[0].value
        return None

    def _shared_call(self, node) -> bool:
        return isinstance(node, ast.Call) \
            and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "array" \
            and self._cuda_attr(node.func.value, "shared")

    def _intrinsic(self, node) -> tuple | None:
        """``(member, axis)`` for ``cuda.threadIdx.x`` and its kin."""
        if isinstance(node, ast.Attribute) and node.attr in _AXES \
                and isinstance(node.value, ast.Attribute) \
                and node.value.attr in _INTRINSICS \
                and isinstance(node.value.value, ast.Name) \
                and node.value.value.id in self.cuda:
            return _INTRINSICS[node.value.attr], _AXES.index(node.attr)
        return None

    def _element(self, node) -> bool:
        """``a[i, ...]`` on a parameter or shared array."""
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and (node.value.id in self._params
                     or node.value.id in self.shared)):
            return False
        if node.value.id in self._params:
            self.arrays.add(node.value.id)
        for e in _subscripts(node):
            self._reads_no_value(e)
        return True

    def _array_attr(self, node) -> bool:
        """A parameter's ``size``, ``ndim`` or ``shape[k]``."""
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, int):
            node, attrs = node.value, ("shape",)
        else:
            attrs = ("size", "ndim")
        if isinstance(node, ast.Attribute) and node.attr in attrs \
                and isinstance(node.value, ast.Name) \
                and node.value.id in self._params:
            self.arrays.add(node.value.id)
            return True
        return False

    # -- thread-varying branches ----------------------------------------------

    def _scan(self, stmts: list, branches: tuple, governed: bool) -> None:
        """Give each ``if``, ``while`` and ``for`` its role
        (:attr:`_roles`), and record each occurrence of a temporary with
        the thread-varying branches and loops it sits in (an ``if`` node's
        id and 0 or 1 for ``else``, a loop's id and 0), and the
        temporaries read by the host tests and loops and the powers that a
        test on data governs (:attr:`_steers`).  ``governed``: a test on
        data governs ``stmts``."""
        for s in stmts:
            if isinstance(s, ast.If):
                kind = self.cond(s.test)
                role = _HOST if kind == _UNIFORM else \
                    _MASK if kind == _INDEX and not governed else _SPLIT
                self._occur(s.test, branches)
                for k, block in enumerate((s.body, s.orelse)):
                    self._scan(block, branches if role == _HOST
                               else branches + ((id(s), k),),
                               governed or role == _SPLIT)
            elif isinstance(s, (ast.While, ast.For)):
                if isinstance(s, ast.While):
                    role = _HOST if self.cond(s.test) == _UNIFORM else _LOOP
                    head = s.test           # evaluated again every pass
                else:
                    role = _LOOP if self._range(s.iter)[0] else _HOST
                    self._occur(s.iter, branches)
                    head = s.target
                inner = branches if role == _HOST \
                    else branches + ((id(s), 0),)
                self._occur(head, inner)
                self._scan(s.body, inner, governed or role == _LOOP)
            else:
                self._occur(s, branches)
                if governed:    # ``2 ** k`` is an int or a float by ``k``
                    self._steers |= {n for e in ast.walk(s)
                                     if isinstance(e, ast.BinOp)
                                     and isinstance(e.op, ast.Pow)
                                     for n in self._loads(e)}
                continue
            if governed and role == _HOST:
                self._steers |= self._loads(
                    s.iter if isinstance(s, ast.For) else s.test)
            self._roles[id(s)] = role
            self._nodes[id(s)] = s

    def _occur(self, value, branches: tuple) -> None:
        for n in ast.walk(value):
            if isinstance(n, ast.Name) and n.id in self.temps:
                self._uses.setdefault(n.id, []).append(
                    (isinstance(n.ctx, ast.Store), branches))

    def _find_merges(self) -> None:
        """Set :attr:`_stored`, per branch or loop the temporaries
        assigned in it, and :attr:`_merges`, per split and loop (by node
        id) the temporaries it assigns that are read outside it or that
        it may read before assigning them (:meth:`_entry`), sorted: the
        next pass of a loop, or the next run of a split or loop under an
        enclosing loop, starts from the value each thread left there."""
        stored: dict = {}
        merged = {node: set() for node, role in self._roles.items()
                  if role in (_SPLIT, _LOOP)}
        for name, uses in self._uses.items():
            reads = [other for store, other in uses if not store]
            for b in {b for store, branches in uses if store for b in branches}:
                stored.setdefault(b, set()).add(name)
                if b[0] in merged and any(b not in other for other in reads):
                    merged[b[0]].add(name)
        self._stored = stored
        while True:     # a region reads what it merges where it starts
            self._merges = {node: sorted(names)
                            for node, names in merged.items()}
            more = {(node, name) for node, k in stored if node in merged
                    for name in self._entry(self._nodes[node], k)
                    & (stored[node, k] - merged[node])}
            if not more:
                return
            for node, name in more:
                merged[node].add(name)

    def _scopes(self) -> dict:
        """Per masked branch, the per-thread temporaries it reads from
        outside, sorted; rejects a temporary assigned in a masked branch
        that occurs outside it."""
        reads: dict = {}
        stores: dict = {}
        for name, uses in self._uses.items():
            for store, branches in uses:
                masks = [b for b in branches if self._roles[b[0]] == _MASK]
                if store and masks and any(
                        masks[-1] not in other for _, other in uses):
                    raise _Reject
                for b in masks:
                    (stores if store else reads).setdefault(b, set()).add(name)
        return {b: sorted(n for n in names - stores.get(b, set())
                          if self.kinds.get(n) != _UNIFORM)
                for b, names in reads.items()}

    def _loads(self, node) -> set:
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load) and n.id in self.temps}

    def _entry(self, s, k: int = 0) -> set:
        """The temporaries branch ``k`` of the split ``s``, or a pass of
        the loop ``s`` (its test included), may read before assigning
        them."""
        if isinstance(s, ast.If):
            return self._exposed((s.body, s.orelse)[k], set())
        if isinstance(s, ast.For):
            return self._exposed(s.body, {n.id for n in ast.walk(s.target)
                                          if isinstance(n, ast.Name)})
        return self._loads(s.test) | self._exposed(s.body, set())

    def _exposed(self, stmts: list, defined: set) -> set:
        """The temporaries ``stmts`` may read before assigning them, given
        those ``defined`` before: the values they take from outside.  A
        split or loop reads what it merges back where it starts."""
        out: set = set()
        for s in stmts:
            if not isinstance(s, (ast.If, ast.While, ast.For)):
                out |= self._loads(s) - defined
                defined |= {n.id for n in ast.walk(s) if isinstance(n, ast.Name)
                            and isinstance(n.ctx, ast.Store)}
                continue
            head = s.iter if isinstance(s, ast.For) else s.test
            out |= (self._loads(head) | set(self._merges.get(id(s), ()))) \
                - defined
            if isinstance(s, ast.If):
                taken, other = set(defined), set(defined)
                out |= self._exposed(s.body, taken) \
                    | self._exposed(s.orelse, other)
                defined |= taken & other
            else:       # the body may not run, so defines nothing after it
                inner = set(defined)
                if isinstance(s, ast.For):
                    inner |= {n.id for n in ast.walk(s.target)
                              if isinstance(n, ast.Name)}
                out |= self._exposed(s.body, inner)
        return out

    # -- the rewrite ----------------------------------------------------------

    def _block(self, stmts: list, masked: bool, top: bool = False) -> list:
        out = [new for s in stmts for new in self._stmt(s, masked, top)]
        return out or [ast.Pass()]

    def _stmt(self, s, masked: bool, top: bool) -> list:
        if isinstance(s, ast.Pass):
            return []
        role = self._roles.get(id(s))
        if role == _MASK:
            return self._masked(s)
        if role == _SPLIT:
            return self._split(s)
        if role == _LOOP:
            return self._loop(s)
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
                and self._cuda_attr(s.value.func, "syncthreads") \
                and not s.value.args and not s.value.keywords and not masked:
            new = ast.Expr(_lw("sync"))
        elif isinstance(s, ast.Assign):
            new = self._assign(s, top)
        elif isinstance(s, ast.If):
            new = ast.If(test=self.rewrite(s.test),
                         body=self._block(s.body, masked),
                         orelse=self._block(s.orelse, masked)
                         if s.orelse else [])
        elif isinstance(s, ast.While) and not s.orelse:
            new = ast.While(test=self.rewrite(s.test),
                            body=self._block(s.body, masked), orelse=[])
        elif isinstance(s, ast.For) and not s.orelse \
                and isinstance(s.target, ast.Name):
            self._range(s.iter)
            new = ast.For(target=s.target, iter=self.rewrite(s.iter),
                          body=self._block(s.body, masked), orelse=[])
        else:
            raise _Reject
        return [ast.copy_location(new, s)]

    def _assign(self, s: ast.Assign, top: bool):
        if len(s.targets) != 1:
            raise _Reject
        target, value = s.targets[0], s.value
        ndim = self._grid_call(value)
        if ndim is not None:
            names = [target] if ndim == 1 else getattr(target, "elts", [])
            if len(names) != ndim or self._governed \
                    or not all(isinstance(n, ast.Name) for n in names):
                raise _Reject
            return ast.Assign(targets=[target],
                              value=_lw("grid", ast.Constant(ndim)))
        if self._shared_call(value):
            if not top or not isinstance(target, ast.Name):
                raise _Reject
            self._shared_args(value)
            return ast.Assign(targets=[target], value=ast.Call(
                func=_lw_attr("shared"), args=value.args,
                keywords=value.keywords))
        if isinstance(target, ast.Name) and target.id in self.temps:
            kind = self.kinds.get(target.id)
            if self._governed and _INDEX in (kind, self.expr(value)[0]):
                raise _Reject   # an index that varies with the data
            value = self.rewrite(value)
            return ast.Assign(targets=[target], value=_lw("count", value)
                              if kind == _COUNTER else value)
        if self._governed or not self._element(target):
            raise _Reject
        kind = self.expr(value)[0]
        if kind == _INDEX:
            raise _Reject
        base = target.value.id
        index = ast.Tuple(elts=[self.rewrite(e) for e in _subscripts(target)],
                          ctx=ast.Load())
        array = ast.Name(id=base, ctx=ast.Load())
        if kind == _COUNTER:
            if base in self.shared:
                raise _Reject
            self.counter_stores.add(base)
        if base in self.shared:
            return ast.Expr(_lw("sst", array, index, self.rewrite(value)))
        self.written.add(base)
        return ast.Expr(_lw("st", array, ast.Constant(self.params.index(base)),
                            index, self.rewrite(value)))

    def _shared_args(self, call: ast.Call) -> None:
        """``cuda.shared.array(shape, dtype)``: a shape of uniform values
        and a dtype named by a dotted global."""
        named = {k.arg: k.value for k in call.keywords}
        given = list(call.args) + [named.pop(k) for k in ("shape", "dtype")
                                   if k in named]
        if named or not 1 <= len(given) <= 2:
            raise _Reject
        shape = given[0]
        for dim in shape.elts if isinstance(shape, ast.Tuple) else [shape]:
            if self._reads_no_value(dim) != _UNIFORM:
                raise _Reject
        if len(given) == 2:
            dtype = given[1]
            while isinstance(dtype, ast.Attribute):
                dtype = dtype.value
            if not isinstance(dtype, ast.Name) or dtype.id in self.temps \
                    or dtype.id in self._params:
                raise _Reject

    def _masked(self, s: ast.If) -> list:
        """An ``if`` on the indices: the mask, then each branch under
        ``_lw.enter`` with the temporaries it reads narrowed, and restored
        after it."""
        n = self._fresh()
        mask, saved = f"_lw_m{n}", f"_lw_o{n}"
        out = _template(f"{mask} = _lw_test", s, _lw_test=self.mask(s.test))
        for k, stmts in enumerate((s.body, s.orelse)):
            if not stmts:
                continue
            names = self._narrowed.get((id(s), k), [])
            out += _template(f"""
                if _lw.enter({mask}, {bool(k)}):
                    {saved} = {_tuple(names)}
                    {_tuple(names)} = _lw.narrow({', '.join(names)})
                    _lw_body
                    {_tuple(names)} = {saved}
                    _lw.leave()
                """, s, _lw_body=self._block(stmts, masked=True))
        return out

    def _fresh(self) -> int:
        self._serial += 1
        return self._serial

    def _governed_block(self, stmts: list) -> list:
        """``stmts`` rewritten as a test on data governs them."""
        outer, self._governed = self._governed, True
        out = self._block(stmts, masked=True)
        self._governed = outer
        return out

    def _split(self, s: ast.If) -> list:
        """An ``if`` on data, or any thread-varying ``if`` such a test
        governs: the temporaries read after it widened to per-thread
        arrays, then each branch under ``_lw.branch`` with the
        temporaries it reads narrowed to its threads, and its results for
        the widened ones merged back."""
        n = self._fresh()
        mask, fulls, saved = f"_lw_m{n}", f"_lw_f{n}", f"_lw_o{n}"
        merged = self._merges[id(s)]
        out = _template(f"""
            {mask} = _lw_test
            {fulls} = _lw.widen({', '.join(merged)})
            """, s, _lw_test=self.mask(s.test))
        for k, stmts in enumerate((s.body, s.orelse)):
            if not stmts:
                continue
            kept = sorted(x for x in self._entry(s, k)
                          if x not in merged and self.kinds.get(x) != _UNIFORM)
            out += _template(f"""
                if _lw.branch({mask}, {bool(k)}):
                    {saved} = {_tuple(kept)}
                    {_tuple(kept + merged)} = _lw.narrow({', '.join(
                        [*kept, '*' + fulls])})
                    _lw_body
                    {fulls} = _lw.merge({fulls}, {_tuple(merged)})
                    {_tuple(kept)} = {saved}
                    _lw.leave()
                """, s, _lw_body=self._governed_block(stmts))
        return out + _template(f"{_tuple(merged)} = {fulls}", s)

    def _loop(self, s) -> list:
        """A loop whose test or ``range`` varies by thread: the
        temporaries read after it widened, ``_lw.loop`` entering it with
        the threads whose test holds and the temporaries it reads
        narrowed to them, then passes of the body, each closed by
        ``_lw.again``, which merges back the values of the threads whose
        test fails and drops them, until none is left.  A ``for`` steps a
        hidden per-thread position from the ``range``'s start, evaluated
        once like the stop and step."""
        if s.orelse:
            raise _Reject
        n = self._fresh()
        fulls, saved, state = f"_lw_f{n}", f"_lw_o{n}", f"_lw_v{n}"
        if isinstance(s, ast.For):
            if not isinstance(s.target, ast.Name):
                raise _Reject
            at, stop, step = f"_lw_k{n}", f"_lw_h{n}", f"_lw_d{n}"
            bounds = [self.rewrite(a) for a in s.iter.args]
            if len(bounds) == 1:
                bounds.insert(0, ast.Constant(0))
            if len(bounds) == 2:
                bounds.append(ast.Constant(1))
            start = _template(f"{at}, {stop}, {step} = _lw.span("
                              "_lw_lo, _lw_hi, _lw_by)", s, _lw_lo=bounds[0],
                              _lw_hi=bounds[1], _lw_by=bounds[2])
            test = ast.parse(f"{at} < {stop} if {step} > 0 else {at} > {stop}",
                             mode="eval").body
            head = _template(f"{s.target.id} = {at}", s)
            tail = _template(f"{at} = {at} + {step}", s)
            hidden = [at, stop]
        else:
            start, head, tail, hidden = [], [], [], []
            outer, self._governed = self._governed, True
            test = self.mask(s.test)    # it runs again every pass
            self._governed = outer
        live = self._merges[id(s)]
        carried = sorted(x for x in self._entry(s) | set(live)
                         if self.kinds.get(x) != _UNIFORM) + hidden
        stored = self._stored.get((id(s), 0), set())
        kept = [x for x in carried if x not in stored and x not in hidden]
        body = head + self._governed_block(s.body) + tail
        return start + _template(f"""
            {fulls} = _lw.widen({', '.join(live)})
            {saved} = {_tuple(kept)}
            {state} = _lw.loop(_lw_test, {_tuple(carried)})
            if {state} is not None:
                {_tuple(carried)} = {state}
                while True:
                    _lw_body
                    {state} = _lw.again(_lw_test, {fulls}, {_tuple(live)},
                                        {_tuple(carried)})
                    if {state} is None:
                        break
                    {_tuple(carried)} = {state}
                {_tuple(kept)} = {saved}
            {_tuple(live)} = {fulls}
            """, s, _lw_test=test, _lw_body=body)

    def mask(self, test):
        """The test as one boolean expression over the index arrays:
        ``and``/``or`` become ``&``/``|`` and a chained comparison the
        ``&`` of its links."""
        if isinstance(test, ast.BoolOp):
            parts = [self.mask(v) for v in test.values]
            out = parts[0]
            for part in parts[1:]:
                out = ast.BinOp(left=out, op=_MASK_OPS[type(test.op)](),
                                right=part)
            return out
        if not isinstance(test, ast.Compare):
            raise _Reject
        terms = [self.rewrite(t) for t in [test.left, *test.comparators]]
        out = None
        for a, op, b in zip(terms, test.ops, terms[1:]):
            link = ast.Compare(left=a, ops=[op], comparators=[b])
            out = link if out is None else ast.BinOp(
                left=out, op=ast.BitAnd(), right=link)
        return out

    def rewrite(self, node):
        """``node`` with each CUDA intrinsic and array element as a call
        on the chunk."""
        if self._grid_call(node) == 1:
            return _lw("grid", ast.Constant(1))
        intrinsic = self._intrinsic(node)
        if intrinsic is not None:
            member, axis = intrinsic
            if member in ("tid", "bid"):
                return _lw(member, ast.Constant(axis))
            return ast.Subscript(value=_lw_attr(member),
                                 slice=ast.Constant(axis), ctx=ast.Load())
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) \
                and (node.value.id in self._params
                     or node.value.id in self.shared):
            if self._governed:
                raise _Reject   # a test on data governs no subscript
            base = node.value.id
            index = ast.Tuple(elts=[self.rewrite(e) for e in _subscripts(node)],
                              ctx=ast.Load())
            array = ast.Name(id=base, ctx=ast.Load())
            if base in self.shared:
                return _lw("sld", array, index)
            return _lw("ld", array, ast.Constant(self.params.index(base)),
                       index)
        node = copy.copy(node)
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.expr):
                setattr(node, field, self.rewrite(value))
            elif isinstance(value, list):
                setattr(node, field, [self.rewrite(v)
                                      if isinstance(v, ast.expr) else v
                                      for v in value])
        return node


__all__ = ["CHUNK_THREADS", "Lowered", "cuda_names",
           "generator_variant", "helper_syncs", "lower"]
