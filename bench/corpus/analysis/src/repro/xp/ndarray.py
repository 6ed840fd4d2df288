"""The device-resident ndarray at the heart of :mod:`repro.xp`.

Data lives in a :class:`~repro.gpu.memory.DeviceBuffer`; every operation
launches a costed kernel on the owning device and performs the actual math
with numpy on the backing store.  The numerical results are therefore
exact, while the *timing* is the virtual GPU's analytic model — the same
split CuPy's own test-suite mode (``cupyx.fallback``) uses.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import CrossDeviceError, DeviceError, ShapeError
from repro.gpu.device import VirtualGpu
from repro.gpu.kernelmodel import KernelCost
from repro.gpu.system import current_device

# Effective fraction of peak FLOPs for generic elementwise CUDA code (scalar
# loads, no tensor cores); dense matmul through a tuned library gets more.
ELEMENTWISE_EFF = 0.35
MATMUL_EFF = 0.85
DEFAULT_TPB = 256


def launch_elementwise(device: VirtualGpu, name: str, n_out: int,
                       bytes_read: int, bytes_written: int,
                       flops_per_elem: float = 1.0) -> None:
    """Charge the device for an elementwise kernel over ``n_out`` outputs."""
    cost = KernelCost(
        flops=flops_per_elem * n_out,
        bytes_read=float(bytes_read),
        bytes_written=float(bytes_written),
        name=name,
        compute_efficiency=ELEMENTWISE_EFF,
    )
    device.launch_auto(cost, max(n_out, 1), threads_per_block=DEFAULT_TPB)


class ndarray:
    """A CuPy-style array bound to one virtual GPU.

    Construct via the functions in :mod:`repro.xp.creation`; the raw
    constructor is internal.  ``base`` is set for views so that only the
    owning array releases the device buffer.
    """

    __array_priority__ = 100  # keep numpy from hijacking binary ops

    def __init__(self, data: np.ndarray, device: VirtualGpu,
                 base: "ndarray | None" = None) -> None:
        self.device = device
        self._base = base
        if base is None:
            self._buffer = device.alloc(data, tag="xp.ndarray")
            self._data = data
        else:
            self._buffer = base._buffer
            self._data = data  # a numpy view into base's storage

    # -- lifecycle ----------------------------------------------------------

    def __del__(self) -> None:
        buf = getattr(self, "_buffer", None)
        if buf is not None and self._base is None:
            buf.free()

    # -- metadata -----------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def ndim(self) -> int:
        return self._data.ndim

    @property
    def size(self) -> int:
        return self._data.size

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def T(self) -> "ndarray":
        return ndarray(self._data.T, self.device, base=self._base or self)

    def __len__(self) -> int:
        if self.ndim == 0:
            raise TypeError("len() of unsized 0-d array")
        return self.shape[0]

    def __repr__(self) -> str:
        return (f"xp.ndarray(shape={self.shape}, dtype={self.dtype}, "
                f"device={self.device.name})")

    # -- host/device movement -------------------------------------------------

    def get(self, blocking: bool = True) -> np.ndarray:
        """Copy to host (``cupy.ndarray.get``), charging a D2H transfer."""
        self.device.copy_d2h(self.nbytes, blocking=blocking)
        return self._data.copy()

    def item(self) -> float | int | bool:
        """Transfer a 0-d / single-element array to host and unbox it."""
        if self.size != 1:
            raise ValueError(f"can only convert size-1 arrays, got {self.shape}")
        self.device.copy_d2h(self.nbytes)
        return self._data.reshape(()).item()

    def __array__(self, *args, **kwargs):  # pragma: no cover - guard rail
        raise TypeError(
            "implicit conversion of a device array to a numpy array is not "
            "allowed; call .get() to copy to host (this guard is the same "
            "one CuPy uses to surface hidden transfers)"
        )

    # -- internals -------------------------------------------------------------

    def _unwrap(self) -> np.ndarray:
        """Backing numpy array (validates buffer liveness)."""
        self._buffer.data()
        return self._data

    def _coerce_operand(self, other) -> np.ndarray | float | int:
        """Validate a binary-op operand: same-device ndarray or a scalar."""
        if isinstance(other, ndarray):
            if other.device is not self.device:
                raise CrossDeviceError(
                    f"operands live on {self.device.name} and "
                    f"{other.device.name}; copy explicitly first"
                )
            return other._unwrap()
        if isinstance(other, np.ndarray):
            raise TypeError(
                "cannot mix a host numpy array with a device array; "
                "wrap it with xp.asarray(...) first"
            )
        if isinstance(other, (int, float, bool, np.generic)):
            return other
        raise TypeError(f"unsupported operand type {type(other).__name__}")

    def _binary(self, other, np_op, name: str, flops: float = 1.0) -> "ndarray":
        rhs = self._coerce_operand(other)
        out = np_op(self._unwrap(), rhs)
        rhs_bytes = rhs.nbytes if isinstance(rhs, np.ndarray) else 0
        launch_elementwise(self.device, name, out.size,
                           self.nbytes + rhs_bytes, out.nbytes, flops)
        return ndarray(out, self.device)

    def _rbinary(self, other, np_op, name: str, flops: float = 1.0) -> "ndarray":
        lhs = self._coerce_operand(other)
        out = np_op(lhs, self._unwrap())
        lhs_bytes = lhs.nbytes if isinstance(lhs, np.ndarray) else 0
        launch_elementwise(self.device, name, out.size,
                           self.nbytes + lhs_bytes, out.nbytes, flops)
        return ndarray(out, self.device)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other):
        return self._binary(other, np.add, "elementwise_add")

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract, "elementwise_sub")

    def __rsub__(self, other):
        return self._rbinary(other, np.subtract, "elementwise_sub")

    def __mul__(self, other):
        return self._binary(other, np.multiply, "elementwise_mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide, "elementwise_div", flops=4.0)

    def __rtruediv__(self, other):
        return self._rbinary(other, np.divide, "elementwise_div", flops=4.0)

    def __pow__(self, other):
        return self._binary(other, np.power, "elementwise_pow", flops=8.0)

    def __neg__(self):
        out = -self._unwrap()
        launch_elementwise(self.device, "elementwise_neg", out.size,
                           self.nbytes, out.nbytes)
        return ndarray(out, self.device)

    def __matmul__(self, other):
        from repro.xp.linalg import matmul
        return matmul(self, other)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other):  # type: ignore[override]
        return self._binary(other, np.equal, "elementwise_eq")

    def __ne__(self, other):  # type: ignore[override]
        return self._binary(other, np.not_equal, "elementwise_ne")

    def __lt__(self, other):
        return self._binary(other, np.less, "elementwise_lt")

    def __le__(self, other):
        return self._binary(other, np.less_equal, "elementwise_le")

    def __gt__(self, other):
        return self._binary(other, np.greater, "elementwise_gt")

    def __ge__(self, other):
        return self._binary(other, np.greater_equal, "elementwise_ge")

    __hash__ = None  # arrays are unhashable, as in numpy/cupy

    # -- shape manipulation (metadata-only: free on the device) -------------------

    def reshape(self, *shape) -> "ndarray":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        try:
            view = self._unwrap().reshape(shape)
        except ValueError as exc:
            raise ShapeError(str(exc)) from None
        return ndarray(view, self.device, base=self._base or self)

    def ravel(self) -> "ndarray":
        return self.reshape(-1)

    def transpose(self, *axes) -> "ndarray":
        view = self._unwrap().transpose(*axes) if axes else self._unwrap().T
        return ndarray(view, self.device, base=self._base or self)

    def astype(self, dtype) -> "ndarray":
        out = self._unwrap().astype(dtype)
        launch_elementwise(self.device, "cast", out.size, self.nbytes, out.nbytes)
        return ndarray(out, self.device)

    def copy(self) -> "ndarray":
        out = self._unwrap().copy()
        launch_elementwise(self.device, "device_copy", out.size,
                           self.nbytes, out.nbytes, flops_per_elem=0.0)
        return ndarray(out, self.device)

    # -- indexing -----------------------------------------------------------------

    def __getitem__(self, key) -> "ndarray":
        data = self._unwrap()
        out = data[key]
        if not isinstance(out, np.ndarray):
            out = np.asarray(out)
        if out.base is data or (out.base is not None and out.base is data.base):
            # basic slicing: a view, free on device
            return ndarray(out, self.device, base=self._base or self)
        # advanced indexing materializes: charge a gather kernel
        launch_elementwise(self.device, "gather", out.size,
                           out.nbytes * 2, out.nbytes, flops_per_elem=0.0)
        return ndarray(out, self.device)

    def __setitem__(self, key, value) -> None:
        data = self._unwrap()
        if isinstance(value, ndarray):
            if value.device is not self.device:
                raise CrossDeviceError("scatter source on a different device")
            value = value._unwrap()
        elif isinstance(value, np.ndarray):
            raise TypeError("assign host data via xp.asarray(...) first")
        data[key] = value
        touched = data[key]
        n = touched.size if isinstance(touched, np.ndarray) else 1
        launch_elementwise(self.device, "scatter", n, n * data.itemsize,
                           n * data.itemsize, flops_per_elem=0.0)

    # -- reductions (delegate to the functional API) --------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "ndarray":
        from repro.xp.reduction import sum as _sum
        return _sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "ndarray":
        from repro.xp.reduction import mean as _mean
        return _mean(self, axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "ndarray":
        from repro.xp.reduction import max as _max
        return _max(self, axis=axis, keepdims=keepdims)

    def min(self, axis=None, keepdims: bool = False) -> "ndarray":
        from repro.xp.reduction import min as _min
        return _min(self, axis=axis, keepdims=keepdims)

    def argmax(self, axis=None) -> "ndarray":
        from repro.xp.reduction import argmax as _argmax
        return _argmax(self, axis=axis)

    def dot(self, other) -> "ndarray":
        from repro.xp.linalg import dot as _dot
        return _dot(self, other)


def result_device(*arrays: "ndarray") -> VirtualGpu:
    """Common device of a set of arrays (or the current device if none are
    device arrays), raising :class:`CrossDeviceError` on a mix."""
    devices = {a.device for a in arrays if isinstance(a, ndarray)}
    if not devices:
        return current_device()
    if len(devices) > 1:
        names = ", ".join(sorted(d.name for d in devices))
        raise CrossDeviceError(f"arrays span multiple devices: {names}")
    return devices.pop()
