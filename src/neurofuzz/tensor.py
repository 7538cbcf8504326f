"""Minimal dense tensor arithmetic shared by every other module.

Tensors are immutable n-dimensional arrays of reals with explicit shape and a
precision tag. Two precisions exist: "single" (float32) is the runtime
default, "double" (float64) exists so numerical oracles (finite differences,
scalar-loop recomputation) can use tighter tolerances.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ContractViolation

_DTYPE_OF = {"single": np.float32, "double": np.float64}
_PRECISION_OF = {np.dtype(np.float32): "single", np.dtype(np.float64): "double"}


class Tensor:
    """Immutable dense array with row-major flat storage.

    Invariants: product(shape) == data size, every element finite, shape
    entries are positive integers.
    """

    __slots__ = ("_arr",)

    def __init__(self, values, precision: str = "single"):
        if precision not in _DTYPE_OF:
            raise ContractViolation(f"unknown precision {precision!r}")
        self._arr = _validated(np.asarray(values, dtype=_DTYPE_OF[precision]))

    @staticmethod
    def wrap(arr: np.ndarray) -> "Tensor":
        """Wrap an existing float32/float64 ndarray without copying."""
        t = object.__new__(Tensor)
        t._arr = _validated(np.ascontiguousarray(arr))
        return t

    @staticmethod
    def zeros(shape: Sequence[int], precision: str = "single") -> "Tensor":
        return Tensor.wrap(np.zeros(tuple(shape), dtype=_DTYPE_OF[precision]))

    @property
    def shape(self) -> tuple[int, ...]:
        return self._arr.shape

    @property
    def size(self) -> int:
        return self._arr.size

    @property
    def precision(self) -> str:
        return _PRECISION_OF[self._arr.dtype]

    @property
    def array(self) -> np.ndarray:
        """Read-only ndarray view of the contents."""
        return self._arr

    @property
    def data(self) -> np.ndarray:
        """Read-only flat row-major view of the contents."""
        return self._arr.reshape(-1)

    def astype(self, precision: str) -> "Tensor":
        if precision not in _DTYPE_OF:
            raise ContractViolation(f"unknown precision {precision!r}")
        if precision == self.precision:
            return self
        return Tensor.wrap(self._arr.astype(_DTYPE_OF[precision]))

    def tolist(self):
        return self._arr.tolist()

    def __len__(self) -> int:
        return self.shape[0]

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, precision={self.precision})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self._arr.dtype == other._arr.dtype
            and self.shape == other.shape
            and bool(np.array_equal(self._arr, other._arr))
        )

    def __hash__(self):
        return hash((self.shape, self._arr.dtype, self._arr.tobytes()))


def _validated(arr: np.ndarray) -> np.ndarray:
    if arr.dtype not in _PRECISION_OF:
        raise ContractViolation(f"unsupported dtype {arr.dtype}")
    if arr.ndim == 0 or 0 in arr.shape:
        raise ContractViolation(f"shape {arr.shape} must be rank >= 1 with positive dims")
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ContractViolation("tensor contains NaN or Inf")
    arr = arr.view()
    arr.flags.writeable = False
    return arr


def elementwise_add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of identical shape and precision."""
    if a.shape != b.shape:
        raise ContractViolation(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.precision != b.precision:
        raise ContractViolation(f"precision mismatch: {a.precision} vs {b.precision}")
    return Tensor.wrap(a.array + b.array)


def l2_norm(a: Tensor) -> float:
    """Euclidean norm sqrt(sum(a[i]^2)), accumulated in double precision."""
    flat = a.data.astype(np.float64, copy=False)
    return float(np.sqrt(np.dot(flat, flat)))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp every element into [lo, hi]."""
    if lo > hi:
        raise ContractViolation(f"clip bounds inverted: lo={lo} > hi={hi}")
    return Tensor.wrap(np.clip(a.array, lo, hi))
