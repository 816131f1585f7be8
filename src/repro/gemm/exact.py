"""Exact integer GEMMs on float BLAS, with a per-layer dtype certificate.

The kernels' online matmuls multiply small integers.  A float matmul of
integers is exact when every partial sum it forms is an integer the float
represents exactly: any magnitude below 2**24 in float32, below 2**53 in
float64.  Whatever order BLAS adds in, every partial sum of row ``m`` of
``W @ x`` is a sum of a subset of the terms ``W[m, k] * x[k, n]``, so its
magnitude is at most ``max_m sum_k |W[m, k]| * max|x|``.

:class:`ExactWeight` computes that bound once per layer from the integer
weight and the largest operand magnitude the kernel admits, and keeps the
weight in the narrowest dtype the bound certifies: float32 (sgemm, about
twice as fast), else float64, else int64 (NumPy's integer matmul, for
bounds no float covers).  A certified float result is already an exact
integer, so it casts straight to int64 with no rounding step.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ExactWeight", "exact_matmul"]

#: Each float dtype is exact for integer partial sums below its limit.
_FLOAT_LIMITS = ((np.float32, 1 << 24), (np.float64, 1 << 53))


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integer ``a @ b`` through float64 BLAS, as int64.

    Exact while every partial sum stays below 2**53, which the sliced
    reference paths' 4-bit plane products always do.
    """
    return (np.asarray(a, dtype=np.float64)
            @ np.asarray(b, dtype=np.float64)).astype(np.int64)


class ExactWeight:
    """An integer weight kept in the narrowest dtype certified exact.

    ``x_max`` is the largest right-operand magnitude the caller admits;
    :meth:`matmul` is exact for every operand within it.  Built at prepare
    or load time from ``w_q`` alone, so nothing of it is stored in a plan.
    """

    __slots__ = ("bound", "dtype", "w")

    def __init__(self, w_q: np.ndarray, x_max: int) -> None:
        w_q = np.asarray(w_q, dtype=np.int64)
        self.bound = int(np.abs(w_q).sum(axis=1).max(initial=0)) * int(x_max)
        self.dtype = next((np.dtype(dtype) for dtype, limit in _FLOAT_LIMITS
                           if self.bound < limit), np.dtype(np.int64))
        self.w = w_q.astype(self.dtype, copy=False)

    def matmul(self, x: np.ndarray) -> np.ndarray:
        """``W @ x`` as int64; ``x`` must lie within the certified ``x_max``."""
        return (self.w @ np.asarray(x, dtype=self.dtype)).astype(
            np.int64, copy=False)
