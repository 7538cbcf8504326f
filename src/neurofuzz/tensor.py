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
CHECK_BLOCK = 1 << 16  # elements per finiteness check, in whole leading-axis rows


class Tensor:
    """Immutable dense array with row-major flat storage.

    Invariants: product(shape) == data size, every element finite, shape
    entries are positive integers.
    """

    __slots__ = ("_arr",)

    def __init__(self, values, precision: str = "single"):
        if precision not in _DTYPE_OF:
            raise ContractViolation(f"unknown precision {precision!r}")
        self._arr = _validated(np.asarray(values, dtype=_DTYPE_OF[precision], order="C"))

    @staticmethod
    def wrap(arr: np.ndarray) -> "Tensor":
        """Wrap an existing float32/float64 ndarray without copying."""
        t = object.__new__(Tensor)
        t._arr = _validated(np.asarray(arr, order="C"))
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

    def astype(self, precision: str) -> "Tensor":
        if precision not in _DTYPE_OF:
            raise ContractViolation(f"unknown precision {precision!r}")
        if precision == self.precision:
            return self
        return Tensor.wrap(self._arr.astype(_DTYPE_OF[precision]))

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
        return hash((self.shape, self._arr.dtype, self._arr.tobytes()))


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
    """Whether every element is finite.

    An array of one block or less, as every batch-1 activation is, takes one
    isfinite call: the row loop below costs about 1 us more per call, which
    is 3% of a batch-1 lenet1 predict plus input gradient (ten checks) on a
    2-vCPU Xeon. A larger array is checked a run of leading-axis rows at a
    time, so that no bool mask larger than CHECK_BLOCK elements (or one row)
    is built, whatever the array's layout."""
    if arr.size <= CHECK_BLOCK:
        return bool(np.logical_and.reduce(np.isfinite(arr), axis=None))
    step = CHECK_BLOCK * arr.shape[0] // arr.size or 1
    return all(
        np.logical_and.reduce(np.isfinite(arr[start : start + step]), axis=None)
        for start in range(0, arr.shape[0], step)
    )


def l2_norm(a: np.ndarray) -> float:
    """Euclidean norm sqrt(sum(a[i]^2)) over every element, accumulated in
    double precision."""
    flat = a.reshape(-1).astype(np.float64, copy=False)
    return float(np.sqrt(np.dot(flat, flat)))

