"""Reverse-mode autograd tensor.

Numerics are plain numpy (gradients are exact); *time* is charged to the
tensor's :class:`~repro.nn.device.ComputeDevice` per op, forward and
backward, so training steps have realistic device timelines.

Broadcasting follows numpy; gradients of broadcast operands are reduced
back to the operand shape (``_unbroadcast``), the classic trap of
hand-rolled autograds and therefore heavily property-tested.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.errors import ShapeError
from repro.nn.device import ComputeDevice, resolve_device

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    # sum leading axes numpy added
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum axes that were size-1 in the original
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the autograd graph."""

    __array_priority__ = 200

    def __init__(self, data, requires_grad: bool = False,
                 device: "str | ComputeDevice | None" = None,
                 _parents: tuple["Tensor", ...] = (),
                 _backward: Callable[[np.ndarray], None] | None = None,
                 name: str = "") -> None:
        self.data = np.asarray(data, dtype=np.float32) \
            if not isinstance(data, np.ndarray) else data.astype(np.float32, copy=False)
        self.device = resolve_device(device)
        self.requires_grad = bool(requires_grad) and _grad_enabled
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad or any(
            p.requires_grad for p in _parents) else ()
        self._backward = _backward
        self.name = name
        # Device tensors occupy pool memory for their lifetime, so peak
        # activation footprints are measurable (and OOM is real).  The
        # allocation is tracked: tagged with the tensor name so the pool's
        # leak reports and OOM messages can attribute live bytes.
        self._reserved = 0
        self._allocation = None
        if self.device.is_cuda and self.device._gpu is not None:
            self._allocation = self.device._gpu.memory.allocate(
                self.data.nbytes, tag=f"nn.{name}" if name else "nn.tensor")
            self._reserved = self.data.nbytes

    def __del__(self) -> None:
        allocation = getattr(self, "_allocation", None)
        if allocation is not None and self.device._gpu is not None:
            try:
                self.device._gpu.memory.free(allocation)
            except Exception:  # noqa: BLE001 - pool may have been reset
                pass

    # -- metadata -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nbytes(self) -> int:
        return self.data.nbytes

    def numpy(self) -> np.ndarray:
        """Host copy of the values (detached)."""
        return self.data.copy()

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False, device=self.device)

    def to(self, device) -> "Tensor":
        """Move to a device (detached, as parameters are moved pre-train)."""
        dev = resolve_device(device)
        t = Tensor(self.data.copy(), requires_grad=self.requires_grad,
                   device=dev, name=self.name)
        return t

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, device={self.device.name}{grad})"

    def __len__(self) -> int:
        return self.shape[0]

    # -- graph construction helpers ---------------------------------------------

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...],
              backward: Callable[[np.ndarray], None] | None,
              name: str) -> "Tensor":
        req = _grad_enabled and any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=req, device=self.device,
                      _parents=parents if req else (),
                      _backward=backward if req else None, name=name)

    def _charge(self, flops: float, nbytes: float, name: str,
                gemm: bool = False) -> None:
        self.device.charge(flops, nbytes, name, gemm=gemm)

    @staticmethod
    def _coerce(other, device: ComputeDevice) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=np.float32), device=device)

    # -- binary elementwise -------------------------------------------------------

    def _binop(self, other, np_fn, name: str, grad_self, grad_other,
               flops_per: float = 1.0) -> "Tensor":
        other = self._coerce(other, self.device)
        out_data = np_fn(self.data, other.data)
        traffic = self.nbytes + other.nbytes + out_data.nbytes
        self._charge(flops_per * out_data.size, traffic, name)

        def backward(g: np.ndarray) -> None:
            self._charge(2.0 * flops_per * out_data.size, 2.0 * traffic,
                         name + "_bwd")
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad_self(g, self.data,
                                                        other.data),
                                              self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad_other(g, self.data,
                                                          other.data),
                                               other.shape))

        return self._make(out_data, (self, other), backward, name)

    def __add__(self, other):
        return self._binop(other, np.add, "add",
                           lambda g, a, b: g, lambda g, a, b: g)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract, "sub",
                           lambda g, a, b: g, lambda g, a, b: -g)

    def __rsub__(self, other):
        return self._coerce(other, self.device).__sub__(self)

    def __mul__(self, other):
        return self._binop(other, np.multiply, "mul",
                           lambda g, a, b: g * b, lambda g, a, b: g * a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, np.divide, "div",
                           lambda g, a, b: g / b,
                           lambda g, a, b: -g * a / (b * b), flops_per=4.0)

    def __rtruediv__(self, other):
        return self._coerce(other, self.device).__truediv__(self)

    def __neg__(self):
        out = -self.data
        self._charge(out.size, self.nbytes + out.nbytes, "neg")

        def backward(g):
            if self.requires_grad:
                self._accumulate(-g)

        return self._make(out, (self,), backward, "neg")

    def __pow__(self, exponent: float):
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents unsupported; use exp/log")
        out = self.data ** exponent
        self._charge(8.0 * out.size, self.nbytes + out.nbytes, "pow")

        def backward(g):
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return self._make(out, (self,), backward, "pow")

    # -- matmul ---------------------------------------------------------------------

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other, self.device)
        try:
            out = self.data @ other.data
        except ValueError as exc:
            raise ShapeError(f"matmul: {exc}") from None
        m = out.size // max(out.shape[-1], 1) if out.ndim else 1
        n = out.shape[-1] if out.ndim else 1
        k = self.data.shape[-1]
        flops = 2.0 * m * n * k
        traffic = self.nbytes + other.nbytes + out.nbytes
        self._charge(flops, traffic, "gemm_fwd", gemm=True)

        def backward(g):
            # dA = g @ B.T ; dB = A.T @ g — two more GEMMs
            self._charge(2.0 * flops, 2.0 * traffic, "gemm_bwd", gemm=True)
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))

        return self._make(out, (self, other), backward, "matmul")

    # -- unary ops --------------------------------------------------------------------

    def _unary(self, np_fn, name: str, grad_fn, flops_per: float) -> "Tensor":
        out = np_fn(self.data)
        self._charge(flops_per * out.size, self.nbytes + out.nbytes, name)

        def backward(g):
            self._charge(flops_per * out.size, self.nbytes + out.nbytes,
                         name + "_bwd")
            if self.requires_grad:
                self._accumulate(grad_fn(g, self.data, out))

        return self._make(out, (self,), backward, name)

    def exp(self) -> "Tensor":
        return self._unary(np.exp, "exp", lambda g, x, y: g * y, 16.0)

    def log(self) -> "Tensor":
        return self._unary(np.log, "log", lambda g, x, y: g / x, 16.0)

    def tanh(self) -> "Tensor":
        return self._unary(np.tanh, "tanh",
                           lambda g, x, y: g * (1 - y * y), 20.0)

    def sigmoid(self) -> "Tensor":
        return self._unary(lambda x: 1.0 / (1.0 + np.exp(-x)), "sigmoid",
                           lambda g, x, y: g * y * (1 - y), 20.0)

    def relu(self) -> "Tensor":
        return self._unary(lambda x: np.maximum(x, 0.0), "relu",
                           lambda g, x, y: g * (x > 0), 1.0)

    def sqrt(self) -> "Tensor":
        return self._unary(np.sqrt, "sqrt",
                           lambda g, x, y: g * 0.5 / np.maximum(y, 1e-12), 8.0)

    def abs(self) -> "Tensor":
        return self._unary(np.abs, "abs", lambda g, x, y: g * np.sign(x), 1.0)

    # -- reductions --------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.sum(axis=axis, keepdims=keepdims)
        self._charge(self.size, self.nbytes, "sum")

        def backward(g):
            if self.requires_grad:
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                self._accumulate(np.broadcast_to(gg, self.shape).copy())

        return self._make(np.asarray(out), (self,), backward, "sum")

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        denom = (self.size if axis is None
                 else self.shape[axis if axis >= 0 else self.ndim + axis])
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / denom)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self.data.max(axis=axis, keepdims=keepdims)
        self._charge(self.size, self.nbytes, "max")
        mask_src = self.data.max(axis=axis, keepdims=True)

        def backward(g):
            if self.requires_grad:
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                mask = (self.data == mask_src).astype(np.float32)
                mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
                self._accumulate(mask * gg)

        return self._make(np.asarray(out), (self,), backward, "max")

    # -- shape ops (free) ----------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            out = self.data.reshape(shape)
        except ValueError as exc:
            raise ShapeError(str(exc)) from None
        orig_shape = self.shape

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(orig_shape))

        return self._make(out, (self,), backward, "reshape")

    def transpose(self, *axes) -> "Tensor":
        axes_t = axes if axes else tuple(reversed(range(self.ndim)))
        out = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))

        return self._make(out, (self,), backward, "transpose")

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, key) -> "Tensor":
        out = self.data[key]

        def backward(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, key, g)
                self._accumulate(full)

        return self._make(np.asarray(out), (self,), backward, "getitem")

    # -- autograd engine ----------------------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float32)
        if g.shape != self.data.shape:
            raise ShapeError(
                f"gradient shape {g.shape} != tensor shape {self.data.shape}"
                f" (op {self.name!r})")
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Reverse-mode sweep from this tensor.

        Scalar outputs get a seed of 1.0; non-scalars require an explicit
        ``gradient`` (torch semantics).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor without grad")
        if gradient is None:
            if self.data.size != 1:
                raise RuntimeError(
                    "backward() without gradient needs a scalar output")
            gradient = np.ones_like(self.data)

        # topo order — iterative post-order DFS.  A recursive closure here
        # would be self-referential (function <-> cell cycle) and drag the
        # whole `order` list of graph tensors into cyclic garbage, so an
        # epoch's device buffers would only free when the gc happens to
        # run; plain locals keep frees refcount-deterministic (which the
        # pool's peak accounting in repro.gpu.memory relies on).
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple["Tensor", bool]] = [(self, False)]
        while stack:
            t, expanded = stack.pop()
            if expanded:
                order.append(t)
                continue
            if id(t) in seen:
                continue
            seen.add(id(t))
            stack.append((t, True))
            for p in reversed(t._parents):
                stack.append((p, False))
        grads: dict[int, np.ndarray] = {id(self): np.asarray(gradient,
                                                             dtype=np.float32)}
        self._accumulate(grads[id(self)])
        for t in reversed(order):
            if t._backward is not None and t.grad is not None:
                t._backward(t.grad)
            if t is not self and t._parents:
                # interior nodes don't retain grad (torch default)
                t.grad = None

    def zero_grad(self) -> None:
        self.grad = None


def tensor(data, requires_grad: bool = False, device=None) -> Tensor:
    """Factory mirroring ``torch.tensor``."""
    return Tensor(np.asarray(data, dtype=np.float32),
                  requires_grad=requires_grad, device=device)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along an axis with gradient splitting."""
    if not tensors:
        raise ValueError("need at least one tensor")
    first = tensors[0]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    first._charge(0.0, 2.0 * out.nbytes, "concat")
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                t._accumulate(g[tuple(sl)])

    return first._make(out, tuple(tensors), backward, "concat")


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack along a new axis."""
    expanded = [t.reshape(*t.shape[:axis], 1, *t.shape[axis:])
                for t in tensors]
    return concatenate(expanded, axis=axis)
