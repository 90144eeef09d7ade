"""Read-only real n-d arrays.

A Tensor holds one read-only, C-ordered array, so values can be shared
freely between threads. The data path (in-memory cubes, PCA,
standardization) hands its arrays around as Tensors; every other op works
on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tensor:
    """A read-only, C-ordered float64 array, or float32 when built from a
    float32 array; build it with from_array."""

    data: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @staticmethod
    def from_array(arr) -> "Tensor":
        """Wrap an array, copying at most once: no copy at all when it is
        already read-only, C-ordered and float64/float32. A writable array
        is copied, so later writes to it cannot reach the Tensor."""
        a = np.asarray(arr)
        out = np.asarray(a, dtype=np.float32 if a.dtype == np.float32 else np.float64, order="C")
        if out is a and a.flags.writeable:
            out = a.copy()
        # a conversion or copy nobody else holds, or an array already read-only
        out.flags.writeable = False
        return Tensor(out)

    def as_array(self) -> np.ndarray:
        """The array itself; read-only, no copy."""
        return self.data
