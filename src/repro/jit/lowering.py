"""Faster executions of a ``@cuda.jit`` kernel, compiled from its own source.

:mod:`repro.jit.cuda` interprets a kernel one simulated thread at a time.
This module builds the two variants its launcher prefers when they are
sound, each recompiled from the kernel's source with the kernel's own
globals and closure cells, so every name resolves as in the original:

* :func:`generator_variant` — every barrier statement (the analyzer's
  :func:`repro.analysis.absint.is_sync`) becomes ``yield``, so the
  threads of a block can be resumed round-robin on the launching thread
  instead of each needing an OS thread.
* :func:`lower` — a kernel whose body, after one thread guard, is
  straight-line code over its parameter arrays indexed by
  ``cuda.grid(n)`` becomes two whole-array functions: the guard, which
  yields a mask, and the body, which runs over the masked ``np.arange``
  index arrays.  :meth:`Lowered.admitted` decides per launch signature,
  from the kernel's :class:`~repro.analysis.kernelclass.KernelClass`
  under that launch's grid, block and argument shapes, whether the
  result is the interpreter's, byte for byte.

Both return ``None`` when the kernel's source cannot be retrieved, does
not compile to the kernel's live code, or does not have the required
form; the launcher then keeps the per-thread path.
"""

from __future__ import annotations

import ast
import copy
import dis
import inspect
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

_LOWERABLE = ("elementwise", "stencil")
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
# Whole-array lowering
# ---------------------------------------------------------------------------


class Lowered:
    """A kernel as a mask function and a whole-array body.

    Both take the ``cuda.grid`` index arrays first, then the kernel's own
    arguments.  ``guard`` is ``None`` for a kernel with no thread guard;
    ``free`` names the values the statements read by bare name, which
    must be numbers at launch, and ``bound`` those of them the guard and
    the subscripts depend on.
    """

    def __init__(self, fn, ndim: int, guard, body, free: set,
                 bound: set) -> None:
        self.fn = fn
        self.ndim = ndim
        self.params = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        self.guard = guard
        self.body = body
        self.free = frozenset(free)
        self._bound = tuple(k for k, p in enumerate(self.params)
                            if p in bound)
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
        array's dtype and shape, the value of each integer the guard or
        a subscript reads (it binds into the bounds), and the type of
        every other argument and of each global the statements read.
        An integer read only into values cannot move the verdict."""
        return grid3, block3, tuple(
            (a.dtype.str, a.shape) if isinstance(a, np.ndarray)
            else (type(a), int(a)) if k in self._bound
            and isinstance(a, (int, np.integer))
            else type(a) for k, a in enumerate(args)), tuple(
            type(_resolve(self.fn, n)) for n in self._globals)

    def _admit(self, grid3: tuple, block3: tuple, args) -> tuple | None:
        """Positions of the arguments the launch writes when it may run
        lowered, else ``None``.

        It may when the launch spans only the ``cuda.grid`` axes, every
        value read by bare name is a number, and the kernel classifies
        ``elementwise`` or ``stencil`` and ``verified`` under this
        launch, with every subscript spanning its array's dimensions and
        every access to a written array at the thread's own cell.  Then
        no two threads touch one written cell, so running all threads at
        once computes what running them one after another does.
        """
        if len(args) != len(self.params) or any(
                grid3[k] != 1 or block3[k] != 1 for k in range(self.ndim, 3)):
            return None
        scope = dict(zip(self.params, args))
        if not all(isinstance(scope[n] if n in scope
                              else _resolve(self.fn, n), _NUMBERS)
                   for n in self.free):
            return None
        arrays = {p: a for p, a in scope.items()
                  if isinstance(a, np.ndarray)}
        from repro.analysis.absint import LaunchEnv, classify_kernel
        from repro.analysis.domains import Affine

        env = LaunchEnv(
            block=block3, grid=grid3,
            scalars={self.params[k]: Affine.constant(int(args[k]))
                     for k in self._bound
                     if isinstance(args[k], (int, np.integer))
                     and not isinstance(args[k], bool)},
            extents={p: tuple(Affine.constant(d) for d in a.shape)
                     for p, a in arrays.items()})
        try:
            kc = classify_kernel(self.fn, env)
        except ValueError:
            return None
        if kc.klass not in _LOWERABLE or not kc.verified:
            return None
        own_cell = tuple((env.grid_form(k).render(), 0)
                         for k in range(self.ndim))
        written = {a.array for a in kc.accesses if a.write}
        for access in kc.accesses:
            arr = arrays.get(access.array)
            if arr is None or len(access.axes) != arr.ndim \
                    or access.array in written and access.axes != own_cell:
                return None
        return tuple(k for k, p in enumerate(self.params) if p in written)

    def run(self, grid3: tuple, block3: tuple, args, written: tuple) -> bool:
        """Execute the launch as whole-array NumPy.  Returns ``False``,
        having run nothing, when a written array overlaps another
        argument (the proof took them to be distinct)."""
        for w in written:
            if any(k != w and isinstance(a, np.ndarray)
                   and np.may_share_memory(args[w], a)
                   for k, a in enumerate(args)):
                return False
        index = [axis.ravel() for axis in np.indices(
            [grid3[k] * block3[k] for k in range(self.ndim)])]
        if self.guard is not None:
            mask = np.broadcast_to(self.guard(*index, *args), index[0].shape)
            index = [axis[mask] for axis in index]
        self.body(*index, *args)
        return True


def lower(fn, names: set) -> Lowered | None:
    """The whole-array form of ``fn``, or ``None`` when the kernel is not
    ``i = cuda.grid(n)`` (a name, or a tuple of ``n`` names) followed by
    straight-line assignments and at most one trailing ``if`` guard with
    no ``else`` over more of them.

    The statements call nothing — no CUDA intrinsic besides that
    ``cuda.grid``, no function — and do not branch or loop.  The index
    names appear only in the guard and in subscripts of parameter arrays,
    and before the guard not at all: a value mixing an index into its
    arithmetic would be a Python int in the interpreter but an ``int64``
    array here, which NumPy promotes differently.  For the same reason
    ``t op= v`` becomes ``t = t op v``: the interpreter rebinds a scalar
    to the promoted result, where an in-place ufunc on an array would
    cast into the target's dtype.
    """
    if not _NEP50:
        return None
    found = _kernel_def(fn)
    if found is None:
        return None
    node, filename = found
    args = node.args
    params = [a.arg for a in args.args]
    if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
        return None
    stmts = list(node.body)
    if stmts and isinstance(stmts[0], ast.Expr) \
            and isinstance(stmts[0].value, ast.Constant):
        stmts.pop(0)                                # docstring
    grid = _grid_def(stmts.pop(0), names) if stmts else None
    if grid is None or set(grid[1]) & set(params):
        return None
    ndim, index = grid
    guard = stmts.pop() if stmts and isinstance(stmts[-1], ast.If) else None
    prefix, body = (stmts, guard.body) if guard else ([], stmts)
    prefix, body = [_rebind(s) for s in prefix], [_rebind(s) for s in body]
    check = _Checker(params, index, names)
    if guard is not None and guard.orelse \
            or not all(check.stmt(s, indexed=False) for s in prefix):
        return None
    mask = check.mask(guard.test) if guard is not None else None
    if guard is not None and mask is None \
            or not all(check.stmt(s, indexed=True) for s in body):
        return None
    mask_fn = None
    if mask is not None:
        mask_fn = _recompile(fn, _def_like(node, index, prefix + [
            ast.copy_location(ast.Return(value=mask), guard)]), filename)
    body_fn = _recompile(fn, _def_like(node, index, prefix + body), filename)
    return Lowered(fn, ndim, mask_fn, body_fn, check.free, check.bound)


def _rebind(stmt):
    """``t op= v`` as ``t = t op v``; any other statement as it is."""
    if not isinstance(stmt, ast.AugAssign):
        return stmt
    load = copy.deepcopy(stmt.target)
    load.ctx = ast.Load()
    return ast.copy_location(ast.Assign(
        targets=[stmt.target],
        value=ast.BinOp(left=load, op=stmt.op, right=stmt.value)), stmt)


def _def_like(node: ast.FunctionDef, index: tuple, body: list):
    """``node`` with the index names prepended to its parameters and
    ``body`` as its statements."""
    out = copy.copy(node)
    out.args = copy.copy(node.args)
    out.args.args = [ast.arg(arg=n) for n in index] + list(node.args.args)
    out.body = copy.deepcopy(body)
    return out


def _grid_def(stmt, names: set):
    """``(n, index names)`` when ``stmt`` is ``i = cuda.grid(n)``."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
        return None
    call, target = stmt.value, stmt.targets[0]
    if not (isinstance(call, ast.Call) and not call.keywords
            and len(call.args) == 1
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "grid"
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in names
            and isinstance(call.args[0], ast.Constant)
            and call.args[0].value in (1, 2, 3)):
        return None
    ndim = call.args[0].value
    targets = [target] if ndim == 1 else (
        target.elts if isinstance(target, ast.Tuple) else [])
    index = tuple(t.id for t in targets if isinstance(t, ast.Name))
    if len(index) != ndim or len(set(index)) != ndim:
        return None
    return ndim, index


class _Checker:
    """The statement and expression forms a lowered kernel may use.

    Checking also collects :attr:`free`, every name read by bare name that
    is neither an index name nor a temporary assigned by an earlier
    checked statement, and :attr:`bound`, the free names that the guard
    and the subscripts read, directly or through temporaries: only these
    can move the bounds a launch's proof rests on.
    """

    def __init__(self, params: list, index: tuple, names: set) -> None:
        self.params = set(params)
        self.index = set(index)
        self.cuda = names
        self.temps: dict = {}   # temporary -> the free names its value read
        self.free: set = set()
        self.bound: set = set()
        self._reads: set = set()

    def stmt(self, stmt, indexed: bool) -> bool:
        """Is ``stmt`` a plain assignment?  ``indexed``: the index names
        are bound here (inside the guard, or with no guard at all)."""
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets = [stmt.target]
        else:
            return isinstance(stmt, ast.Pass)
        self._reads = set()
        ok = self.value(stmt.value, indexed) and all(
            self.target(t, indexed) for t in targets)
        self.temps.update((t.id, self._reads) for t in targets
                          if isinstance(t, ast.Name))
        return ok

    def target(self, node, indexed: bool) -> bool:
        if isinstance(node, ast.Name):
            return node.id not in self.index | self.params | self.cuda
        return indexed and self.element(node)

    def element(self, node) -> bool:
        """``array[index, ...]`` on a parameter array."""
        if not (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id in self.params):
            return False
        elts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                else [node.slice])
        return all(self.index_expr(e) for e in elts)

    def name(self, node: ast.Name, bounds: bool) -> bool:
        """``bounds``: read by the guard or a subscript, where the index
        names may appear."""
        if node.id in self.index:
            return bounds
        reads = self.temps.get(node.id)
        if reads is None:
            reads = {node.id}
            self.free.add(node.id)
        (self.bound if bounds else self._reads).update(reads)
        return node.id not in self.cuda

    def index_expr(self, node) -> bool:
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, _INDEX_OPS) \
                and self.index_expr(node.left) and self.index_expr(node.right)
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, ast.USub) \
                and self.index_expr(node.operand)
        if isinstance(node, ast.Name):
            return self.name(node, bounds=True)
        return self.leaf(node)

    def value(self, node, indexed: bool) -> bool:
        if isinstance(node, ast.BinOp):
            return isinstance(node.op, _VALUE_OPS) \
                and self.value(node.left, indexed) \
                and self.value(node.right, indexed)
        if isinstance(node, ast.UnaryOp):
            return isinstance(node.op, (ast.USub, ast.UAdd)) \
                and self.value(node.operand, indexed)
        if isinstance(node, ast.Name):
            return self.name(node, bounds=False)
        if indexed and self.element(node):
            return True
        return self.leaf(node)

    def leaf(self, node) -> bool:
        """A number, or a parameter's ``size``, ``ndim`` or
        ``shape[k]``."""
        if isinstance(node, ast.Constant):
            return isinstance(node.value, (int, float, complex))
        if isinstance(node, ast.Subscript) \
                and isinstance(node.slice, ast.Constant) \
                and isinstance(node.slice.value, int):
            node, attrs = node.value, ("shape",)
        else:
            attrs = ("size", "ndim")
        return (isinstance(node, ast.Attribute) and node.attr in attrs
                and isinstance(node.value, ast.Name)
                and node.value.id in self.params)

    def mask(self, test):
        """The guard as one boolean expression over the index arrays:
        ``and``/``or`` become ``&``/``|`` and a chained comparison the
        ``&`` of its links, or ``None`` for any other form."""
        if isinstance(test, ast.BoolOp):
            parts = [self.mask(v) for v in test.values]
            if any(p is None for p in parts):
                return None
            out = parts[0]
            for part in parts[1:]:
                out = ast.BinOp(left=out, op=_MASK_OPS[type(test.op)](),
                                right=part)
            return out
        if not isinstance(test, ast.Compare) \
                or not all(isinstance(op, _COMPARE_OPS) for op in test.ops):
            return None
        terms = [test.left] + list(test.comparators)
        if not all(self.index_expr(t) for t in terms):
            return None
        out = None
        for a, op, b in zip(terms, test.ops, terms[1:]):
            link = ast.Compare(left=a, ops=[op], comparators=[b])
            out = link if out is None else ast.BinOp(
                left=out, op=ast.BitAnd(), right=link)
        return out


__all__ = ["EAGER_THREADS", "Lowered", "cuda_names", "generator_variant",
           "helper_syncs", "lower"]
