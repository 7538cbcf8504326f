"""Minimal dense tensor arithmetic shared by every other module.

Tensors are immutable n-dimensional arrays of reals with explicit shape and a
precision tag. Two precisions exist: "single" (float32) is the runtime
default, "double" (float64) exists so numerical oracles (finite differences,
scalar-loop recomputation) can use tighter tolerances.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ContractViolation

_DTYPE_OF = {"single": np.float32, "double": np.float64}
_PRECISION_OF = {np.dtype(t): p for p, t in _DTYPE_OF.items()}


class Tensor:
    """Immutable dense array with row-major flat storage.

    Invariants: product(shape) == data size, every element finite, shape
    entries are positive integers.
    """

    __slots__ = ("_arr",)

    def __init__(self, values, precision: str = "single"):
        self._arr = _validated(np.asarray(values, dtype=dtype_of(precision), order="C"))

    @staticmethod
    def wrap(arr: np.ndarray) -> "Tensor":
        """Wrap an existing float32/float64 ndarray without copying."""
        t = object.__new__(Tensor)
        t._arr = _validated(np.asarray(arr, order="C"))
        return t

    @staticmethod
    def zeros(shape: Sequence[int], precision: str = "single") -> "Tensor":
        return Tensor.wrap(np.zeros(tuple(shape), dtype=dtype_of(precision)))

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

    def rows(self) -> tuple["Tensor", ...]:
        """The leading-axis rows, each a Tensor over a read-only view of this
        one's memory. A row of a checked array is finite, row-major and of
        positive dims, so it is not checked again; a rank-1 Tensor has no
        rows of rank >= 1 and raises."""
        if self._arr.ndim < 2:
            raise ContractViolation(f"shape {self.shape} has no rows of rank >= 1")
        rows = []
        for row in self._arr:
            t = object.__new__(Tensor)
            t._arr = row
            rows.append(t)
        return tuple(rows)

    def astype(self, precision: str) -> "Tensor":
        return self if precision == self.precision else Tensor(self._arr, precision)

    def tolist(self):
        return self._arr.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self._arr.dtype == other._arr.dtype
            and self.shape == other.shape
            and bool(np.array_equal(self._arr, other._arr))
        )

    def __hash__(self):
        return hash((self.shape, self._arr.dtype, (self._arr + 0.0).tobytes()))  # -0.0 -> 0.0


def dtype_of(precision: str) -> type:
    """The NumPy type of a precision name; any other value raises."""
    if not (isinstance(precision, str) and precision in _DTYPE_OF):
        raise ContractViolation(f"unknown precision {precision!r}")
    return _DTYPE_OF[precision]


def _validated(arr: np.ndarray) -> np.ndarray:
    if arr.dtype not in _PRECISION_OF:
        raise ContractViolation(f"unsupported dtype {arr.dtype}")
    if arr.ndim == 0 or 0 in arr.shape:
        raise ContractViolation(f"shape {arr.shape} must be rank >= 1 with positive dims")
    if not _all_finite(arr):
        raise ContractViolation("tensor contains NaN or Inf")
    arr = arr.view()
    arr.flags.writeable = False
    return arr


def _all_finite(arr: np.ndarray) -> bool:
    """Whether every element of a C-contiguous array is finite.

    The sum of squares x.x over the flat array is finite only when every
    element is: a NaN or an infinity makes it NaN or inf. So one dot
    product, which builds no mask, accepts a finite array: 0.8-0.9 us for a
    batch-1 activation on a 2-vCPU Xeon, against 1.4-2.1 us for an isfinite
    call. np.vdot flattens a C-contiguous array without a copy and, unlike
    np.dot, warns of no overflow. Only a sum that is not finite, from a NaN
    or inf element or from squares that overflow, leads to one exact isfinite
    pass, so the answer is the isfinite predicate's either way. That pass
    builds one bool mask of arr.size bytes, and only for such an array."""
    return math.isfinite(np.vdot(arr, arr)) or bool(np.isfinite(arr).all())


def l2_norm(a: np.ndarray) -> float:
    """Euclidean norm sqrt(sum(a[i]^2)) over every element, accumulated in
    double precision."""
    flat = a.reshape(-1).astype(np.float64, copy=False)
    return float(np.sqrt(np.dot(flat, flat)))

