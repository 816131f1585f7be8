"""Dense integer GEMM with asymmetric activation folding (paper Eq. 3).

``Wx + b ~= sW*sx*(W_int @ x_uint + b_hat)`` where
``b_hat = b_int - zp_x * W_int @ 1`` folds the zero-point correction into the
bias.  This is both the numerical reference every bit-slice kernel must match
bit-exactly and the workload model of the dense baselines (SIMD, systolic
arrays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..quant.uniform import QuantParams
from .exact import ExactWeight
from .workload import OpCounts

__all__ = ["DenseGemmResult", "Int8DensePlan", "integer_gemm",
           "dense_gemm_reference", "fold_bias", "prepare_int8_dense",
           "execute_int8_dense"]


@dataclass(frozen=True)
class DenseGemmResult:
    """Integer accumulators plus the dequantized output and op counts."""

    acc: np.ndarray
    output: np.ndarray
    ops: OpCounts


def fold_bias(w_int: np.ndarray, bias_int: np.ndarray | None,
              zp_x: int) -> np.ndarray:
    """Compute ``b_hat = bias_int - zp_x * W_int @ 1`` (Eq. 3, precomputed).

    Independent of the activation, so it is evaluated offline; the returned
    vector has shape ``(M,)`` and broadcasts over output columns.
    """
    w_int = np.asarray(w_int, dtype=np.int64)
    correction = zp_x * w_int.sum(axis=1)
    if bias_int is None:
        return -correction
    return np.asarray(bias_int, dtype=np.int64) - correction


def integer_gemm(w_int: np.ndarray, x_q: np.ndarray,
                 b_hat: np.ndarray | None = None) -> np.ndarray:
    """Plain ``W_int @ x_q (+ b_hat)`` in int64 (the exactness reference)."""
    acc = np.asarray(w_int, dtype=np.int64) @ np.asarray(x_q, dtype=np.int64)
    if b_hat is not None:
        acc = acc + np.asarray(b_hat, dtype=np.int64)[:, None]
    return acc


@dataclass
class Int8DensePlan:
    """Prepared state of the dense integer baseline.

    The dense GEMM has almost no offline work — the plan caches the int64
    weight, ``gemm`` (the weight in the narrowest dtype certified exact for
    codes of magnitude below ``2^x_bits``, rebuilt on load) and the widths
    the op accounting needs.
    """

    w_q: np.ndarray
    w_bits: int = 8
    x_bits: int = 8
    count_ops: bool = True
    engine: str = "int8_dense"
    gemm: ExactWeight = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.gemm = ExactWeight(self.w_q, self.x_max)

    @property
    def x_max(self) -> int:
        """Largest code magnitude the certified GEMM admits."""
        return (1 << self.x_bits) - 1

    @property
    def m(self) -> int:
        return self.w_q.shape[0]

    @property
    def k(self) -> int:
        return self.w_q.shape[1]

    def state_dict(self) -> dict:
        return {"engine": self.engine, "w_q": self.w_q,
                "w_bits": self.w_bits, "x_bits": self.x_bits,
                "count_ops": self.count_ops}

    @classmethod
    def from_state(cls, state: dict) -> "Int8DensePlan":
        return cls(w_q=np.asarray(state["w_q"], dtype=np.int64),
                   w_bits=int(state["w_bits"]), x_bits=int(state["x_bits"]),
                   count_ops=bool(state["count_ops"]))


def prepare_int8_dense(w_q: np.ndarray, w_bits: int = 8, x_bits: int = 8,
                       count_ops: bool = True) -> Int8DensePlan:
    """Cache the weight-side state of the dense integer baseline."""
    w_q = np.asarray(w_q, dtype=np.int64)
    if w_q.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {w_q.shape}")
    return Int8DensePlan(w_q=w_q, w_bits=w_bits, x_bits=x_bits,
                         count_ops=count_ops)


def execute_int8_dense(plan: Int8DensePlan,
                       x_q: np.ndarray) -> tuple[np.ndarray, OpCounts]:
    """Dense integer GEMM against a prepared plan; returns ``(acc, ops)``.

    Op accounting follows the dense-baseline convention: an 8b x 8b MAC is
    four 4b x 4b multiplications, and EMA ships both operands dense.  Codes
    outside ``x_bits`` void the GEMM certificate and take NumPy's integer
    matmul instead.
    """
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = plan.w_q.shape
    if x_q.ndim != 2 or k != x_q.shape[0]:
        raise ValueError(
            f"shape mismatch: W is {plan.w_q.shape}, x is {x_q.shape}")
    n = x_q.shape[1]
    if x_q.size and max(-int(x_q.min()), int(x_q.max())) > plan.x_max:
        acc = plan.w_q @ x_q
    else:
        acc = plan.gemm.matmul(x_q)
    ops = OpCounts()
    if plan.count_ops:
        ops.mul4 = 4 * m * k * n
        ops.add = m * k * n
        ops.ema_nibbles = (m * k * -(-plan.w_bits // 4)
                           + k * n * -(-plan.x_bits // 4))
    return acc, ops


def dense_gemm_reference(
    w_int: np.ndarray,
    x_q: np.ndarray,
    w_params: QuantParams,
    x_params: QuantParams,
    bias: np.ndarray | None = None,
    count_ops: bool = True,
) -> DenseGemmResult:
    """Full Eq. 3 pipeline: fold bias, integer GEMM, dequantize.

    Op accounting uses the dense-baseline convention: an 8b x 8b MAC equals
    four 4b x 4b multiplications (the paper's resource-normalization rule),
    and EMA ships both operands dense at their storage width.
    """
    w_int = np.asarray(w_int, dtype=np.int64)
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = w_int.shape
    k2, n = x_q.shape
    if k != k2:
        raise ValueError(f"shape mismatch: W is {w_int.shape}, x is {x_q.shape}")

    bias_int = None
    if bias is not None:
        bias_int = np.rint(
            np.asarray(bias, dtype=np.float64)
            / (np.max(w_params.scale) * np.max(x_params.scale))
        ).astype(np.int64)
    zp_x = int(np.max(x_params.zero_point)) if not x_params.is_symmetric else 0
    b_hat = fold_bias(w_int, bias_int, zp_x)
    acc = integer_gemm(w_int, x_q, b_hat)
    output = acc.astype(np.float64) * np.asarray(w_params.scale) * np.asarray(
        x_params.scale
    )

    ops = OpCounts()
    if count_ops:
        ops.mul4 = 4 * m * k * n            # 8bx8b MAC = four 4bx4b mults
        ops.add = m * k * n
        w_nibbles = m * k * -(-w_params.bits // 4)
        x_nibbles = k * n * -(-x_params.bits // 4)
        ops.ema_nibbles = w_nibbles + x_nibbles
    return DenseGemmResult(acc=acc, output=output, ops=ops)
