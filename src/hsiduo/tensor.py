"""Read-only real n-d arrays with flat row-major storage.

A Tensor is immutable after construction: its flat buffer is marked
read-only, so values can be shared freely between threads. The data path
(in-memory cubes, PCA, standardization) hands its arrays around as Tensors;
every other op works on plain numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class Tensor:
    """Real n-d array: a shape tuple plus a flat row-major float buffer.

    Storage is float64, or float32 when built from a float32 array.
    Zero-sized dimensions are allowed (empty tensors).
    """

    shape: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if any(d < 0 for d in shape):
            raise DimensionError(f"negative dimension in shape {shape}")
        data = np.asarray(self.data)
        if data.ndim != 1:
            data = data.reshape(-1)
        if data.dtype not in (np.float64, np.float32):
            data = data.astype(np.float64)
        if data.size != math.prod(shape):
            raise DimensionError(
                f"flat data length {data.size} != product(shape)={math.prod(shape)} for shape {shape}"
            )
        object.__setattr__(self, "data", _freeze(data))

    @staticmethod
    def from_array(arr) -> "Tensor":
        """Wrap an array, copying at most once: no copy at all when it is
        already read-only, C-ordered and float64/float32."""
        a = np.asarray(arr)
        out = np.asarray(a, dtype=np.float32 if a.dtype == np.float32 else np.float64, order="C")
        if out is not a:
            # a private conversion nobody else holds: freeze it in place
            out.flags.writeable = False
        return Tensor(a.shape, out.reshape(-1))

    def as_array(self) -> np.ndarray:
        """Row-major view of the buffer; read-only, no copy."""
        return self.data.reshape(self.shape)
