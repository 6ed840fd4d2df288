"""Faster executions of a ``@cuda.jit`` kernel, compiled from its own source.

:mod:`repro.jit.cuda` interprets a kernel one simulated thread at a time.
This module builds the two variants its launcher prefers when they are
sound, each recompiled from the kernel's source with the kernel's own
globals and closure cells, so every name resolves as in the original:

* :func:`generator_variant` — every barrier statement (the analyzer's
  :func:`repro.analysis.absint.is_sync`) becomes ``yield``, so the
  threads of a block can be resumed round-robin on the launching thread
  instead of each needing an OS thread.
* :func:`lower` — a kernel whose statements are assignments, tests and
  ``range``/``while`` loops over its parameter arrays, shared arrays and
  the thread indices, with ``cuda.syncthreads()`` between phases,
  becomes one function over a chunk of whole blocks (:class:`Lowered`):
  each statement runs for every thread of the chunk before the next, as
  NumPy on per-thread index arrays and ``(blocks, *shape)`` shared
  arrays, with uniform loops on the host and thread-varying tests as
  masks.  An elementwise or stencil kernel is the one-phase case with no
  shared array.  :meth:`Lowered.admitted` decides per launch signature,
  from the kernel's :class:`~repro.analysis.kernelclass.KernelClass`
  under that launch and a trace of the launch's tests and subscripts,
  whether the result is the interpreter's, byte for byte.

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
import textwrap
import types

import numpy as np

#: the lowered body computes on arrays where the interpreter computes on
#: scalars; only NEP 50 promotion (NumPy >= 2) gives both the same dtypes
#: (under NumPy 1.x a float32 scalar times a Python float is float64)
_NEP50 = np.lib.NumpyVersion(np.__version__) >= "2.0.0"

#: a launch signature first seen on fewer threads than this is classified
#: only when it recurs, and runs on the interpreter until then.
#: Classification takes 1.5-6 ms, about what the interpreter spends on a
#: thousand threads at 2-10 us each (2-vCPU x86 VM), so a one-off small
#: launch is cheaper there.
EAGER_THREADS = 1024
#: admission decisions kept per kernel; the oldest is dropped first
_DECISIONS = 256
_SEEN = object()        # a small launch's signature, not yet classified
#: threads one chunk of a lowered launch holds (at least one block): a
#: launch runs a box of whole blocks at a time, so no temporary grows
#: with the grid.  At this size a chunk's arrays stay in cache: a
#: 65,536-thread saxpy or 5-point blur runs 1.3-1.9x faster in chunks of
#: 16,384 threads than in one (2-vCPU x86 VM)
CHUNK_THREADS = 1 << 14

_LOWERABLE = ("elementwise", "stencil", "reduction", "tiled-matmul")
_NUMBERS = (int, float, complex, np.number, np.bool_)

_JUMPS = frozenset(dis.hasjrel + dis.hasjabs)
_MASK_OPS = {ast.And: ast.BitAnd, ast.Or: ast.BitOr}
_COMPARE_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
_INDEX_OPS = (ast.Add, ast.Sub, ast.Mult)
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
    from repro.analysis.absint import is_sync

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


_UNIFORM, _INDEX, _VALUE = "uniform", "index", "value"
_AXES = ("x", "y", "z")
#: ``cuda.<name>.<axis>`` -> the :class:`_Blocks` member that serves it
_INTRINSICS = {"threadIdx": "tid", "blockIdx": "bid", "blockDim": "bdim",
               "gridDim": "gdim"}


def _join(a: str, b: str) -> str:
    """The kind of a value computed from values of kinds ``a`` and ``b``.
    Uniform values mix with either; an index never mixes into data, since
    the interpreter holds it as a Python int and the lowered body as an
    ``int64`` array, which NumPy promotes differently."""
    if a == b or b == _UNIFORM:
        return a
    if a == _UNIFORM:
        return b
    raise _Reject


class Lowered:
    """A kernel as one function over a chunk of whole blocks.

    ``body`` takes a :class:`_Blocks` first, then the kernel's own
    arguments, and runs each statement for every thread of the chunk
    before the next: a shared array is one ``(blocks, *shape)`` array,
    thread and block indices are per-thread ``int64`` arrays, loops and
    tests on launch-uniform values run on the host, and a test on the
    indices narrows the threads its branch runs for.  ``free`` names the
    values the statements read by bare name, which must be numbers at
    launch.
    """

    def __init__(self, fn, body, form: "_Form") -> None:
        self.fn = fn
        self.body = body
        self.params = tuple(form.params)
        self.free = frozenset(form.free)
        self._arrays = frozenset(form.arrays)
        self._written = tuple(k for k, p in enumerate(self.params)
                              if p in form.written)
        #: the free names a test, a subscript or a bound reads
        self._bound = frozenset(form.bound)
        self._globals = tuple(sorted(self.free - set(self.params)))
        self._decisions: dict = {}

    def admitted(self, grid3: tuple, block3: tuple, args) -> tuple | None:
        """Positions of the arguments the launch writes when it may run
        lowered, else ``None``: :meth:`_admit`, decided once per launch
        signature (:meth:`_key`).  A signature first seen on a launch of
        fewer than :data:`EAGER_THREADS` threads is decided when it
        recurs; that first launch stays on the interpreter."""
        key = self._key(grid3, block3, args)
        decisions = self._decisions
        seen = key in decisions
        if seen and decisions[key] is not _SEEN:
            return decisions[key]
        if not seen and math.prod(grid3 + block3) < EAGER_THREADS:
            decision = _SEEN
        else:
            decision = self._admit(grid3, block3, args)
        if not seen and len(decisions) >= _DECISIONS:
            del decisions[next(iter(decisions))]
        decisions[key] = decision
        return None if decision is _SEEN else decision

    def _key(self, grid3: tuple, block3: tuple, args) -> tuple:
        """What :meth:`_admit` decides from: the launch shape, each
        array's dtype and shape, the value of each number a test, a
        subscript or a loop bound reads (directly or through temporaries),
        and the type of every other argument and of each global the
        statements read.  A number read only into values cannot move the
        verdict."""
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

        It may when every value read by bare name is a number, every
        parameter used as an array is one, the kernel classifies as a
        lowerable archetype and ``verified`` under this launch, and a
        trace of the launch (:class:`_Rules`) finds every subscript an
        in-bounds integer per dimension, no shared cell that one thread
        writes touched by another thread of its block between two
        barriers, and no cell of a written argument touched by two
        threads.  Then running each statement for all threads before the
        next computes what running the threads one after another does,
        and no block depends on another.  The verdict rests on tests and
        subscripts alone, which read no array data in the forms
        :class:`_Form` takes, so one trace decides every launch of the
        signature.
        """
        if len(args) != len(self.params):
            return None
        scope = dict(zip(self.params, args))
        if not all(isinstance(scope[n] if n in scope
                              else _resolve(self.fn, n), _NUMBERS)
                   for n in self.free) or not all(
                isinstance(scope[p], np.ndarray) for p in self._arrays):
            return None
        from repro.analysis.absint import LaunchEnv, classify_kernel
        from repro.analysis.domains import Affine

        env = LaunchEnv(
            block=block3, grid=grid3,
            scalars={p: Affine.constant(int(a)) for p, a in scope.items()
                     if p in self._bound and isinstance(a, (int, np.integer))
                     and not isinstance(a, bool)},
            extents={p: tuple(Affine.constant(d) for d in a.shape)
                     for p, a in scope.items() if isinstance(a, np.ndarray)})
        try:
            kc = classify_kernel(self.fn, env)
        except ValueError:
            return None
        if kc.klass not in _LOWERABLE or not kc.verified:
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
    block, and the branch the body is in (:meth:`enter`, :meth:`leave`).
    Under a trace (``rules``) each access is checked and stores are
    skipped."""

    def __init__(self, grid3: tuple, block3: tuple, lo: tuple, hi: tuple,
                 rules: "_Rules | None") -> None:
        self.gdim, self.bdim = grid3, block3
        self._lo, self._hi = lo, hi
        #: the global thread coordinates the box spans, per axis
        self._coords = [np.arange(a * b, z * b)
                        for a, z, b in zip(lo, hi, block3)]
        self._shape = tuple(len(c) for c in self._coords)
        self._rules = rules
        # per branch depth: (mask over the enclosing threads, or None when
        # it takes them all; index arrays built so far; thread count)
        self._levels = [(None, {}, math.prod(self._shape))]

    def _index(self, key: tuple, depth: int = -1) -> np.ndarray:
        mask, built, _ = self._levels[depth]
        arr = built.get(key)
        if arr is None:
            if depth == -len(self._levels):
                arr = self._full(*key)
            else:
                arr = self._index(key, depth - 1)
                if mask is not None:
                    arr = arr[mask]
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

    def enter(self, mask, invert: bool) -> bool:
        """Narrow the threads to those ``mask`` (or, with ``invert``, its
        complement) holds for; ``False``, narrowing nothing, when it holds
        for none: the interpreter would not run the branch at all."""
        count = self._levels[-1][2]
        mask = np.broadcast_to(mask, (count,))
        if invert:
            mask = ~mask
        taken = int(np.count_nonzero(mask))
        if not taken:
            return False
        self._levels.append((None if taken == count else mask, {}, taken))
        return True

    def narrow(self, *values) -> tuple:
        """``values``, per-thread arrays among them cut to the threads of
        the branch just entered."""
        mask = self._levels[-1][0]
        if mask is None:
            return values
        return tuple(v[mask] if isinstance(v, np.ndarray) else v
                     for v in values)

    def leave(self) -> None:
        self._levels.pop()

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


def _names(names, ctx) -> ast.Tuple:
    return ast.Tuple(elts=[ast.Name(id=n, ctx=ctx()) for n in names],
                     ctx=ctx())


class _Form:
    """A kernel's statements checked against the forms the lowering
    takes, and rewritten (:attr:`lowered`) into the body of a
    :class:`Lowered`.

    Each temporary (a name the kernel assigns) has one kind, joined over
    all its assignments: ``uniform``, the same for every thread (numbers,
    dimensions, loop counters and arithmetic on them); ``index``, built
    from ``cuda.grid``, ``threadIdx`` and ``blockIdx`` with ``+``, ``-``
    and ``*``; or ``value``, computed from array elements.  Tests,
    subscripts and loop bounds read no values, so a trace decides a
    launch from them alone, and values read no index.

    The statements are assignments, ``cuda.syncthreads()`` outside any
    thread-varying branch, ``if`` (an ``else`` too), ``for`` over
    ``range`` and ``while``.  A loop and a test on uniform values run on
    the host; a test on indices is a mask, its branch run for the threads
    it selects with the per-thread values it reads narrowed to them.  A
    temporary assigned in such a branch may occur only in it.  Nothing
    else is called: no helper, no atomic; there is no ``return``,
    ``break`` or ``continue``.  :attr:`free` collects the names read by
    bare name that are not temporaries, :attr:`bound` those of them a
    test, a subscript, a bound or a shared shape reads (directly or
    through temporaries), :attr:`arrays` the parameters used as arrays
    and :attr:`written` those stored into.
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
        self.kinds: dict = {}
        self.deps: dict = {}
        self.free: set = set()
        self.bound: set = set()
        self.arrays: set = set()
        self.written: set = set()
        self._infer(body)
        self._uses: dict = {}
        self._scan(body, ())
        self._narrowed = self._scopes()
        self._masks = 0
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
                    old = self.kinds.get(name), self.deps.get(name)
                    new = (kind if old[0] is None else _join(old[0], kind),
                           deps | (old[1] or frozenset()))
                    if new != old:
                        self.kinds[name], self.deps[name] = new
                        changed = True

    def _defines(self, s):
        if isinstance(s, ast.For):
            if isinstance(s.target, ast.Name):
                yield s.target.id, _UNIFORM, self._range(s.iter)
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
            if not isinstance(node.op, _INDEX_OPS if kind == _INDEX
                              else _VALUE_OPS):
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
        if kind == _VALUE:
            raise _Reject
        self.bound |= reads
        return kind

    def cond(self, node) -> str:
        """The kind of an ``if`` or ``while`` test: ``uniform`` runs on
        the host, ``index`` is a mask."""
        if isinstance(node, ast.BoolOp):
            kinds = [self.cond(v) for v in node.values]
            return _INDEX if _INDEX in kinds else _UNIFORM
        if isinstance(node, ast.Compare):
            if not all(isinstance(op, _COMPARE_OPS) for op in node.ops):
                raise _Reject
            kind = _UNIFORM
            for term in [node.left, *node.comparators]:
                kind = _join(kind, self._reads_no_value(term))
            return kind
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) \
                and self.cond(node.operand) == _UNIFORM:
            return _UNIFORM
        if self._reads_no_value(node) != _UNIFORM:
            raise _Reject
        return _UNIFORM

    def _range(self, node) -> frozenset:
        """The free names read by ``range(...)`` over uniform values."""
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range" and not node.keywords
                and 1 <= len(node.args) <= 3
                and _resolve(self.fn, "range") is None):
            raise _Reject
        reads = frozenset()
        for arg in node.args:
            kind, more = self.expr(arg)
            if kind != _UNIFORM:
                raise _Reject
            reads |= more
        self.bound |= reads
        return reads

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

    def _scan(self, stmts: list, branches: tuple) -> None:
        """Record each occurrence of a temporary with the thread-varying
        branches it sits in (an ``if`` node's id and 0 or 1 for ``else``)."""
        for s in stmts:
            if isinstance(s, ast.If) and self.cond(s.test) == _INDEX:
                self._occur(s.test, branches)
                for k, block in enumerate((s.body, s.orelse)):
                    self._scan(block, branches + ((id(s), k),))
                continue
            for field, value in ast.iter_fields(s):
                if field not in ("body", "orelse"):
                    self._occur(value, branches)
            for field in ("body", "orelse"):
                self._scan(getattr(s, field, []), branches)

    def _occur(self, value, branches: tuple) -> None:
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, ast.AST):
                for n in ast.walk(item):
                    if isinstance(n, ast.Name) and n.id in self.temps:
                        self._uses.setdefault(n.id, []).append(
                            (isinstance(n.ctx, ast.Store), branches))

    def _scopes(self) -> dict:
        """Per branch, the per-thread temporaries it reads from outside,
        sorted; rejects a temporary assigned in a branch that occurs outside it."""
        reads: dict = {}
        stores: dict = {}
        for name, uses in self._uses.items():
            for store, branches in uses:
                if store and branches and any(
                        branches[-1] not in other for _, other in uses):
                    raise _Reject
                for b in branches:
                    (stores if store else reads).setdefault(b, set()).add(name)
        return {b: sorted(n for n in names - stores.get(b, set())
                          if self.kinds.get(n) != _UNIFORM)
                for b, names in reads.items()}

    # -- the rewrite ----------------------------------------------------------

    def _block(self, stmts: list, masked: bool, top: bool = False) -> list:
        out = [new for s in stmts for new in self._stmt(s, masked, top)]
        return out or [ast.Pass()]

    def _stmt(self, s, masked: bool, top: bool) -> list:
        if isinstance(s, ast.Pass):
            return []
        if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call) \
                and self._cuda_attr(s.value.func, "syncthreads") \
                and not s.value.args and not s.value.keywords and not masked:
            new = ast.Expr(_lw("sync"))
        elif isinstance(s, ast.Assign):
            new = self._assign(s, top)
        elif isinstance(s, ast.If) and self.cond(s.test) == _INDEX:
            return self._masked(s)
        elif isinstance(s, ast.If):
            new = ast.If(test=self.rewrite(s.test),
                         body=self._block(s.body, masked),
                         orelse=self._block(s.orelse, masked)
                         if s.orelse else [])
        elif isinstance(s, ast.While) and not s.orelse \
                and self.cond(s.test) == _UNIFORM:
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
            if len(names) != ndim \
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
            self.expr(value)
            return ast.Assign(targets=[target], value=self.rewrite(value))
        if not self._element(target) or self.expr(value)[0] == _INDEX:
            raise _Reject
        base = target.value.id
        index = ast.Tuple(elts=[self.rewrite(e) for e in _subscripts(target)],
                          ctx=ast.Load())
        array = ast.Name(id=base, ctx=ast.Load())
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
        self._masks += 1
        mask = f"_lw_m{self._masks}"
        saved = f"_lw_o{self._masks}"
        out = [ast.Assign(targets=[ast.Name(id=mask, ctx=ast.Store())],
                          value=self.mask(s.test))]
        for k, stmts in enumerate((s.body, s.orelse)):
            if not stmts:
                continue
            names = self._narrowed.get((id(s), k), [])
            body = self._block(stmts, masked=True)
            if names:
                body = [ast.Assign(targets=[ast.Name(id=saved,
                                                     ctx=ast.Store())],
                                   value=_names(names, ast.Load)),
                        ast.Assign(targets=[_names(names, ast.Store)],
                                   value=_lw("narrow", *_names(
                                       names, ast.Load).elts)),
                        *body,
                        ast.Assign(targets=[_names(names, ast.Store)],
                                   value=ast.Name(id=saved, ctx=ast.Load()))]
            out.append(ast.If(
                test=_lw("enter", ast.Name(id=mask, ctx=ast.Load()),
                         ast.Constant(bool(k))),
                body=body + [ast.Expr(_lw("leave"))], orelse=[]))
        return [ast.copy_location(new, s) for new in out]

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


__all__ = ["CHUNK_THREADS", "EAGER_THREADS", "Lowered", "cuda_names",
           "generator_variant", "helper_syncs", "lower"]
