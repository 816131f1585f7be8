"""Slice-vector grouping and compressibility masks (paper Fig. 7a).

The AQS-GEMM groups high-order weight slices into ``v x 1`` column vectors
(``v`` consecutive output rows for one reduction index ``k``) and high-order
activation slices into ``1 x v`` row vectors (one ``k`` for ``v`` consecutive
output columns).  A vector is *compressible* when every slice in it equals
the layer's compressible value — 0 for SBR weights, ``r = zp'_HO`` for
asymmetrically-quantized activations.

Masks returned here use ``True`` = *uncompressed* (work to do), because all
downstream workload math sums uncompressed entries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "pad_to_multiple",
    "weight_vector_mask",
    "activation_vector_mask",
    "expand_weight_mask",
    "expand_activation_mask",
    "vector_sparsity",
]


#: Unsigned words as wide as ``v`` bools, for the one-pass group reduction.
_GROUP_VIEWS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def pad_to_multiple(x: np.ndarray, multiple: int, axis: int,
                    fill: int = 0) -> np.ndarray:
    """Pad ``x`` along ``axis`` up to the next multiple with ``fill``.

    Padding with the compressible value keeps sparsity statistics honest:
    padded vectors are fully compressible and cost nothing.
    """
    size = x.shape[axis]
    target = -(-size // multiple) * multiple
    if target == size:
        return x
    widths = [(0, 0)] * x.ndim
    widths[axis] = (0, target - size)
    return np.pad(x, widths, mode="constant", constant_values=fill)


def weight_vector_mask(ho_plane: np.ndarray, v: int = 4,
                       compress_value: int = 0) -> np.ndarray:
    """Uncompressed mask over weight HO slice vectors.

    ``ho_plane`` is the ``(M, K)`` high-order slice plane; vectors are groups
    of ``v`` consecutive rows per column.  Returns a boolean ``(ceil(M/v), K)``
    array, ``True`` where the vector contains at least one slice different
    from ``compress_value``.
    """
    padded = pad_to_multiple(np.asarray(ho_plane), v, axis=0, fill=compress_value)
    mg = padded.shape[0] // v
    grouped = padded.reshape(mg, v, padded.shape[1])
    return np.any(grouped != compress_value, axis=1)


def activation_vector_mask(ho_plane: np.ndarray, v: int = 4,
                           compress_value: int = 0) -> np.ndarray:
    """Uncompressed mask over activation HO slice vectors.

    ``ho_plane`` is the ``(K, N)`` high-order slice plane; vectors are groups
    of ``v`` consecutive columns per row.  Returns ``(K, ceil(N/v))``,
    ``True`` where the vector has a slice different from ``compress_value``
    (``r`` for asymmetric quantization, 0 for symmetric).
    """
    differs = np.asarray(ho_plane) != compress_value
    k, n = differs.shape
    ng = -(-n // v)
    if ng * v != n or not differs.flags.c_contiguous:
        # Padding with "equal to compress_value" leaves every group's
        # verdict unchanged.
        padded = np.zeros((k, ng * v), dtype=bool)
        padded[:, :n] = differs
        differs = padded
    group = _GROUP_VIEWS.get(v)
    if group is not None:
        # A row of v contiguous bools is one v-byte word: nonzero iff any.
        return differs.view(group) != 0
    return differs.reshape(k, ng, v).any(axis=2)


def expand_weight_mask(mask: np.ndarray, v: int, m: int) -> np.ndarray:
    """Expand a ``(M/v, K)`` vector mask to element granularity ``(m, K)``."""
    expanded = np.repeat(mask, v, axis=0)
    return expanded[:m]


def expand_activation_mask(mask: np.ndarray, v: int, n: int) -> np.ndarray:
    """Expand a ``(K, N/v)`` vector mask to element granularity ``(K, n)``."""
    expanded = np.repeat(mask, v, axis=1)
    return expanded[:, :n]


def vector_sparsity(uncompressed_mask: np.ndarray) -> float:
    """Fraction of vectors that are compressible (the paper's rho)."""
    total = uncompressed_mask.size
    if total == 0:
        return 0.0
    return 1.0 - float(np.count_nonzero(uncompressed_mask)) / total
