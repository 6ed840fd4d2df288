"""PERF-SHAPE / PERF-DTYPE — abstract shape & dtype interpretation.

A tiny abstract interpreter over ``repro.xp`` / ``repro.nn`` call
chains: array-creating calls with literal arguments produce abstract
arrays ``(shape, dtype, device?)``; elementwise ops broadcast, ``@``
checks inner dimensions, ``reshape`` checks element counts, and calling
an ``nn`` module (``Linear``, ``Sequential``, the shape-preserving
activations named by :data:`repro.nn.layers.PERFLINT_SHAPE_PRESERVING`)
propagates through its forward contract.  Anything the interpreter
cannot prove a shape for becomes *unknown* and never produces a
finding — the pass is precise on what it models and silent elsewhere.

Two rules:

* ``PERF-SHAPE`` (error) — an operation that must raise ``ShapeError``
  at runtime: non-broadcastable operands, disagreeing matmul inner
  dims, an impossible ``reshape``, or a ``Linear`` applied to the wrong
  trailing dimension.  Caught *before* the simulated cloud bill starts.
* ``PERF-DTYPE`` (warning) — a float32 device array meeting a float64
  operand: numpy's promotion silently doubles device memory traffic.
  Only reported when at least one side lives on the device (host↔host
  promotions are numpy's business).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

import numpy as np

from repro.analysis.context import children, nodes_of, walk
from repro.analysis.rules import make_finding
from repro.nn.layers import PERFLINT_SHAPE_PRESERVING
from repro.sanitize.findings import Report

_UNKNOWN = object()

# xp creation calls that take a literal shape first argument
_SHAPE_CREATORS = {"zeros", "ones", "empty", "full"}
_LIKE_CREATORS = {"zeros_like", "ones_like", "empty_like"}
_UNARY_PRESERVE = {"exp", "log", "sqrt", "tanh", "sin", "cos", "abs",
                   "sign", "negative", "relu", "sigmoid", "clip", "copy"}
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.FloorDiv,
           ast.Mod)


@dataclass(frozen=True)
class AbstractArray:
    """What the interpreter knows about one array value."""

    shape: tuple[int, ...]
    dtype: str = "float32"
    device: bool = True        # lives on a (simulated) GPU

    @property
    def size(self) -> int:
        return int(np.prod(self.shape)) if self.shape else 1


@dataclass(frozen=True)
class AbstractModule:
    """What the interpreter knows about one nn module instance."""

    kind: str                  # "linear" | "preserve" | "flatten" | "seq"
    in_features: int = -1
    out_features: int = -1
    children: tuple["AbstractModule", ...] = ()


def broadcast_shapes(a: tuple[int, ...], b: tuple[int, ...]
                     ) -> tuple[int, ...] | None:
    """Numpy broadcasting; ``None`` when the shapes cannot combine."""
    try:
        return tuple(np.broadcast_shapes(a, b))
    except ValueError:
        return None


def matmul_shape(a: tuple[int, ...], b: tuple[int, ...]
                 ) -> tuple[int, ...] | None:
    """Result shape of ``a @ b`` for the 1-D/2-D cases the course uses."""
    if not a or not b:
        return None
    if len(a) == 1 and len(b) == 1:
        return () if a[0] == b[0] else None
    if len(a) == 1:
        return b[:-2] + (b[-1],) if a[0] == b[-2] else None
    if len(b) == 1:
        return a[:-1] if a[-1] == b[0] else None
    if a[-1] != b[-2]:
        return None
    return a[:-2] + (a[-2],) + b[:-2] + (b[-1],) if len(b) == 2 \
        else a[:-1] + (b[-1],)


class ShapeInterp:
    """Abstract interpretation of one scope (module body or function)."""

    def __init__(self, filename: str, report: Report,
                 xp_names: set[str], nn_names: set[str],
                 np_names: set[str]) -> None:
        self.filename = filename
        self.report = report
        self.xp_names = xp_names
        self.nn_names = nn_names
        self.np_names = np_names
        self.env: dict[str, object] = {}
        self._seen: set[tuple] = set()

    # -- findings -------------------------------------------------------

    def _emit(self, rule: str, message: str, line: int) -> None:
        key = (rule, line)
        if key in self._seen:
            return
        self._seen.add(key)
        self.report.add(make_finding(rule, message, file=self.filename,
                                     line=line))

    # -- statement walk -------------------------------------------------

    def run(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value)
            for t in stmt.targets:
                if isinstance(t, ast.Name):
                    self.env[t.id] = value
                elif isinstance(t, (ast.Tuple, ast.List)):
                    for elt in t.elts:
                        if isinstance(elt, ast.Name):
                            self.env[elt.id] = _UNKNOWN
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None and isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = self._eval(stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            result = self._binop_value(
                self._name_value(stmt.target), self._eval(stmt.value),
                stmt.op, stmt.lineno)
            if isinstance(stmt.target, ast.Name):
                self.env[stmt.target.id] = result
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._eval(stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self.run(list(stmt.body))
            self.run(list(stmt.orelse))
        elif isinstance(stmt, ast.For):
            self._eval(stmt.iter)
            for n in walk(stmt.target):
                if isinstance(n, ast.Name):
                    self.env[n.id] = _UNKNOWN
            self.run(list(stmt.body))
            self.run(list(stmt.orelse))
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr)
                if isinstance(item.optional_vars, ast.Name):
                    self.env[item.optional_vars.id] = _UNKNOWN
            self.run(list(stmt.body))
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = ShapeInterp(self.filename, self.report, self.xp_names,
                                self.nn_names, self.np_names)
            inner.env = dict(self.env)        # closures see outer bindings
            inner._seen = self._seen
            for a in (stmt.args.args + stmt.args.kwonlyargs
                      + stmt.args.posonlyargs):
                inner.env[a.arg] = _UNKNOWN
            inner.run(list(stmt.body))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                self._stmt(sub)
        # imports, pass, etc. carry no shape information

    # -- expression evaluation ------------------------------------------

    def _name_value(self, node: ast.AST) -> object:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        return _UNKNOWN

    def _literal(self, node: ast.AST) -> object:
        try:
            return ast.literal_eval(node)
        except (ValueError, SyntaxError):
            return _UNKNOWN

    def _dtype_of(self, node: ast.AST) -> str | None:
        """A literal dtype argument: ``np.float64``, ``"float64"``…"""
        if isinstance(node, ast.Attribute):
            if node.attr in ("float32", "float64", "float16", "int32",
                             "int64", "int8", "uint8", "bool_"):
                return node.attr
            return None
        lit = self._literal(node)
        return lit if isinstance(lit, str) else None

    def _eval(self, node: ast.AST) -> object:
        if isinstance(node, ast.Name):
            return self.env.get(node.id, _UNKNOWN)
        if isinstance(node, ast.BinOp):
            left, right = self._eval(node.left), self._eval(node.right)
            if isinstance(node.op, ast.MatMult):
                return self._matmul_value(left, right, node.lineno)
            if isinstance(node.op, _BINOPS):
                return self._binop_value(left, right, node.op, node.lineno)
            return _UNKNOWN
        if isinstance(node, ast.UnaryOp):
            inner = self._eval(node.operand)
            return inner if isinstance(inner, AbstractArray) else _UNKNOWN
        if isinstance(node, ast.Compare):
            left = self._eval(node.left)
            for comp in node.comparators:
                left = self._binop_value(left, self._eval(comp), ast.Add(),
                                         node.lineno, is_compare=True)
            return _UNKNOWN
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            if isinstance(base, AbstractArray) and node.attr == "T":
                return AbstractArray(shape=base.shape[::-1],
                                     dtype=base.dtype, device=base.device)
            return _UNKNOWN
        if isinstance(node, ast.IfExp):
            self._eval(node.test)
            a, b = self._eval(node.body), self._eval(node.orelse)
            return a if a == b else _UNKNOWN
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._eval(elt)
            return self._literal(node)
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Subscript):
            self._eval(node.value)
            self._eval(node.slice)
            return _UNKNOWN
        for child in children(node):
            self._eval(child)
        return _UNKNOWN

    # -- operators ------------------------------------------------------

    def _promote(self, a: AbstractArray, b: AbstractArray,
                 line: int, is_compare: bool) -> str:
        out = np.result_type(a.dtype, b.dtype).name
        if not is_compare and a.dtype != b.dtype \
                and (a.device or b.device) \
                and {"float32", "float64"} == {a.dtype, b.dtype}:
            self._emit(
                "PERF-DTYPE",
                f"float32 ⊗ float64 operand mix silently promotes the "
                f"result to {out} on the device",
                line)
        return out

    def _binop_value(self, left: object, right: object, op: ast.operator,
                     line: int, is_compare: bool = False) -> object:
        arrays = [v for v in (left, right) if isinstance(v, AbstractArray)]
        if not arrays:
            return _UNKNOWN
        if len(arrays) == 1:
            other = right if arrays[0] is left else left
            if isinstance(other, (int, float, bool)):
                return arrays[0]      # scalars do not promote float32
            return _UNKNOWN
        a, b = arrays
        out_shape = broadcast_shapes(a.shape, b.shape)
        if out_shape is None:
            self._emit(
                "PERF-SHAPE",
                f"operands with shapes {a.shape} and {b.shape} are not "
                "broadcastable",
                line)
            return _UNKNOWN
        dtype = self._promote(a, b, line, is_compare)
        return AbstractArray(shape=out_shape, dtype=dtype,
                             device=a.device or b.device)

    def _matmul_value(self, left: object, right: object,
                      line: int) -> object:
        if not (isinstance(left, AbstractArray)
                and isinstance(right, AbstractArray)):
            return _UNKNOWN
        out = matmul_shape(left.shape, right.shape)
        if out is None:
            self._emit(
                "PERF-SHAPE",
                f"matmul operands {left.shape} @ {right.shape} disagree "
                "on the inner dimension",
                line)
            return _UNKNOWN
        dtype = self._promote(left, right, line, is_compare=False)
        return AbstractArray(shape=out, dtype=dtype,
                             device=left.device or right.device)

    # -- calls ----------------------------------------------------------

    def _call(self, node: ast.Call) -> object:
        for arg in node.args:
            self._eval(arg)
        for kw in node.keywords:
            self._eval(kw.value)
        func = node.func
        # nn module construction / application
        built = self._build_module(node)
        if built is not None:
            return built
        if isinstance(func, ast.Name):
            target = self.env.get(func.id, _UNKNOWN)
            if isinstance(target, AbstractModule) and node.args:
                return self._apply_module(target, self._eval(node.args[0]),
                                          node.lineno)
        # xp / np namespace calls
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            ns, name = func.value.id, func.attr
            if ns in self.xp_names or ns in self.np_names:
                return self._namespace_call(ns in self.xp_names, name, node)
        # methods on known arrays
        if isinstance(func, ast.Attribute):
            base = self._eval(func.value)
            if isinstance(base, AbstractArray):
                return self._method_call(base, func.attr, node)
        return _UNKNOWN

    def _build_module(self, node: ast.Call) -> AbstractModule | None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id if func.id in self.nn_names else None
        elif isinstance(func, ast.Attribute) \
                and isinstance(func.value, ast.Name) \
                and func.value.id in self.nn_names:
            name = func.attr
        if name is None:
            return None
        if name == "Linear" and len(node.args) >= 2:
            a, b = self._literal(node.args[0]), self._literal(node.args[1])
            if isinstance(a, int) and isinstance(b, int):
                return AbstractModule(kind="linear", in_features=a,
                                      out_features=b)
            return AbstractModule(kind="preserve_unknown")
        if name in PERFLINT_SHAPE_PRESERVING:
            return AbstractModule(kind="preserve")
        if name == "Flatten":
            return AbstractModule(kind="flatten")
        if name == "Sequential":
            children = []
            for arg in node.args:
                child = self._eval(arg)
                if not isinstance(child, AbstractModule):
                    return AbstractModule(kind="preserve_unknown")
                children.append(child)
            return AbstractModule(kind="seq", children=tuple(children))
        return None

    def _apply_module(self, mod: AbstractModule, x: object,
                      line: int) -> object:
        if not isinstance(x, AbstractArray) or not x.shape:
            return _UNKNOWN
        if mod.kind == "linear":
            if x.shape[-1] != mod.in_features:
                self._emit(
                    "PERF-SHAPE",
                    f"Linear(in_features={mod.in_features}) applied to "
                    f"input with trailing dimension {x.shape[-1]} "
                    f"(shape {x.shape})",
                    line)
                return _UNKNOWN
            return AbstractArray(shape=x.shape[:-1] + (mod.out_features,),
                                 dtype=x.dtype, device=x.device)
        if mod.kind == "preserve":
            return x
        if mod.kind == "flatten":
            if len(x.shape) < 2:
                return x
            return AbstractArray(
                shape=(x.shape[0], int(np.prod(x.shape[1:]))),
                dtype=x.dtype, device=x.device)
        if mod.kind == "seq":
            for child in mod.children:
                x = self._apply_module(child, x, line)
                if not isinstance(x, AbstractArray):
                    return _UNKNOWN
            return x
        return _UNKNOWN

    def _namespace_call(self, is_xp: bool, name: str,
                        node: ast.Call) -> object:
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        default_dtype = "float32" if is_xp else "float64"
        if name in _SHAPE_CREATORS and node.args:
            shape = self._literal(node.args[0])
            if isinstance(shape, int):
                shape = (shape,)
            if not (isinstance(shape, tuple)
                    and all(isinstance(d, int) for d in shape)):
                return _UNKNOWN
            dtype = default_dtype
            if "dtype" in kw:
                dtype = self._dtype_of(kw["dtype"]) or dtype
            elif name == "full" and len(node.args) >= 3:
                dtype = self._dtype_of(node.args[2]) or dtype
            elif name not in ("full",) and len(node.args) >= 2:
                dtype = self._dtype_of(node.args[1]) or dtype
            return AbstractArray(shape=shape, dtype=dtype, device=is_xp)
        if name in _LIKE_CREATORS and node.args:
            src = self._eval(node.args[0])
            if isinstance(src, AbstractArray):
                return AbstractArray(shape=src.shape, dtype=src.dtype,
                                     device=is_xp)
            return _UNKNOWN
        if name == "arange":
            lits = [self._literal(a) for a in node.args]
            if lits and all(isinstance(v, (int, float)) for v in lits):
                n = len(range(*[int(v) for v in lits[:3]])) if lits else 0
                dtype = self._dtype_of(kw["dtype"]) if "dtype" in kw else None
                return AbstractArray(
                    shape=(n,),
                    dtype=dtype or ("int64" if all(isinstance(v, int)
                                                   for v in lits)
                                    else default_dtype),
                    device=is_xp)
            return _UNKNOWN
        if name == "eye" and node.args:
            n = self._literal(node.args[0])
            if isinstance(n, int):
                m = self._literal(node.args[1]) if len(node.args) > 1 else n
                m = m if isinstance(m, int) else n
                return AbstractArray(shape=(n, m), dtype=default_dtype,
                                     device=is_xp)
            return _UNKNOWN
        if name in ("asarray", "array"):
            if node.args:
                src = self._eval(node.args[0])
                if isinstance(src, AbstractArray):
                    dtype = (self._dtype_of(kw["dtype"])
                             if "dtype" in kw else None)
                    return AbstractArray(shape=src.shape,
                                         dtype=dtype or src.dtype,
                                         device=is_xp)
                lit = self._literal(node.args[0])
                arr = self._from_literal(lit, is_xp)
                if arr is not None:
                    return arr
            return _UNKNOWN
        if name == "matmul" and len(node.args) >= 2:
            return self._matmul_value(self._eval(node.args[0]),
                                      self._eval(node.args[1]), node.lineno)
        if name in ("add", "subtract", "multiply", "divide", "maximum",
                    "minimum", "power") and len(node.args) >= 2:
            return self._binop_value(self._eval(node.args[0]),
                                     self._eval(node.args[1]), ast.Add(),
                                     node.lineno)
        if name in _UNARY_PRESERVE and node.args:
            src = self._eval(node.args[0])
            return src if isinstance(src, AbstractArray) else _UNKNOWN
        if name == "asnumpy" and node.args:
            src = self._eval(node.args[0])
            if isinstance(src, AbstractArray):
                return AbstractArray(shape=src.shape, dtype=src.dtype,
                                     device=False)
            return _UNKNOWN
        return _UNKNOWN

    def _from_literal(self, lit: object, is_xp: bool) -> AbstractArray | None:
        try:
            arr = np.asarray(lit)
        except Exception:
            return None
        if arr.dtype == object or not lit:
            return None
        return AbstractArray(shape=arr.shape, dtype=arr.dtype.name,
                             device=is_xp)

    def _method_call(self, base: AbstractArray, name: str,
                     node: ast.Call) -> object:
        if name == "reshape":
            args = [self._literal(a) for a in node.args]
            if len(args) == 1 and isinstance(args[0], tuple):
                args = list(args[0])
            if not args or not all(isinstance(d, int) for d in args):
                return _UNKNOWN
            shape = tuple(args)
            known = int(np.prod([d for d in shape if d != -1])) or 1
            n_wild = sum(1 for d in shape if d == -1)
            if n_wild > 1:
                return _UNKNOWN
            bad = (base.size % known != 0 if n_wild
                   else known != base.size)
            if bad:
                self._emit(
                    "PERF-SHAPE",
                    f"cannot reshape array of shape {base.shape} "
                    f"({base.size} elements) into {shape}",
                    node.lineno)
                return _UNKNOWN
            if n_wild:
                shape = tuple(base.size // known if d == -1 else d
                              for d in shape)
            return AbstractArray(shape=shape, dtype=base.dtype,
                                 device=base.device)
        if name == "astype":
            if node.args:
                dtype = self._dtype_of(node.args[0])
                if dtype:
                    return AbstractArray(shape=base.shape, dtype=dtype,
                                         device=base.device)
            return _UNKNOWN
        if name in ("sum", "mean", "max", "min"):
            kw = {k.arg: k.value for k in node.keywords if k.arg}
            axis = (self._literal(kw["axis"]) if "axis" in kw
                    else (self._literal(node.args[0]) if node.args
                          else None))
            if axis is None:
                return AbstractArray(shape=(), dtype=base.dtype,
                                     device=base.device)
            if isinstance(axis, int) and -len(base.shape) <= axis \
                    < len(base.shape):
                shape = list(base.shape)
                shape.pop(axis)
                return AbstractArray(shape=tuple(shape), dtype=base.dtype,
                                     device=base.device)
            return _UNKNOWN
        if name in ("ravel", "flatten"):
            return AbstractArray(shape=(base.size,), dtype=base.dtype,
                                 device=base.device)
        if name == "transpose" and not node.args:
            return AbstractArray(shape=base.shape[::-1], dtype=base.dtype,
                                 device=base.device)
        if name == "get":
            return AbstractArray(shape=base.shape, dtype=base.dtype,
                                 device=False)
        if name == "dot" and node.args:
            return self._matmul_value(base, self._eval(node.args[0]),
                                      node.lineno)
        if name == "copy":
            return base
        return _UNKNOWN


# -- module-level entry -----------------------------------------------------


def _namespace_aliases(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(xp-like, nn-related, numpy) names bound by the module's imports.

    Pure in the tree, so the tables are memoized on the module node:
    the context's ``namespaces``, the shape pass and the memory pass
    read the same sets (none of them adds to one)."""
    cached = getattr(tree, "_repro_namespaces", None)
    if cached is not None:
        return cached
    xp, nn, np_names = {"xp"}, set(), {"np", "numpy"}
    for node in nodes_of(tree, ast.Import, ast.ImportFrom):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name in ("repro.xp", "cupy"):
                    xp.add(alias.asname or "xp")
                elif alias.name == "numpy":
                    np_names.add(bound)
                elif alias.name == "repro.nn":
                    nn.add(alias.asname or "nn")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "repro":
                for alias in node.names:
                    if alias.name == "xp":
                        xp.add(alias.asname or alias.name)
                    elif alias.name == "nn":
                        nn.add(alias.asname or alias.name)
            elif node.module in ("repro.nn", "repro.nn.layers"):
                for alias in node.names:
                    nn.add(alias.asname or alias.name)
    tree._repro_namespaces = xp, nn, np_names
    return tree._repro_namespaces


def shape_pass(tree: ast.Module, filename: str) -> Report:
    """Run the abstract shape/dtype interpreter over a parsed module."""
    report = Report()
    xp, nn, np_names = _namespace_aliases(tree)
    interp = ShapeInterp(filename, report, xp, nn, np_names)
    interp.run(list(tree.body))
    return report
