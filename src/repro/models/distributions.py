"""Activation/weight distribution families for the paper's benchmark models.

The sparsity behaviour the paper exploits is a property of *distributions*,
not of particular pretrained checkpoints: GELU outputs are asymmetric with a
heavy positive tail and a spike near the negative saturation point (the
source of MLP.FC2's high sparsity in Fig. 14a); LayerNorm outputs are
near-normal; OPT/Llama residual streams carry a few large-magnitude outlier
channels; ReLU outputs are non-negative and exponential-ish.  Each family
here samples a ``(K, N)`` float activation matrix with those characteristics
so full-shape sparsity profiles can be measured without 2.7-B-parameter
forward passes (see DESIGN.md §4).

Weights are sampled from a Student-t (heavy-tailed, like trained weights);
the tail weight controls the SBR HO-slice sparsity the same way trained
weight distributions do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import functional as F

__all__ = [
    "ActivationSpec",
    "sample_activation",
    "sample_weight",
    "FAMILIES",
]

FAMILIES = (
    "layernorm",
    "gelu",
    "swiglu",
    "relu",
    "softmax",
    "residual_outlier",
    "image",
)


@dataclass(frozen=True)
class ActivationSpec:
    """Parameters of one layer's input-activation distribution.

    ``family`` selects the shape; ``spread`` scales the width (later
    transformer blocks produce wider distributions, which is what pushes
    some layers into DBS type-2/3); ``outlier_channels``/``outlier_scale``
    add OPT/Llama-style per-channel outliers.
    """

    family: str
    spread: float = 1.0
    outlier_channels: int = 0
    outlier_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; "
                             f"choose from {FAMILIES}")


def sample_activation(spec: ActivationSpec, k: int, n: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Sample a ``(K, N)`` activation matrix from ``spec``'s family.

    All families are heavy-tailed (Student-t base noise): trained-network
    activations have kurtosis far above Gaussian, and the min/max that set
    the Eq. 2 quantization range are tail events, which is precisely why the
    bulk of the quantized codes piles up around the zero-point (the paper's
    Fig. 5a/8 premise).  ``spread`` widens the *bulk* relative to the tails,
    pushing layers toward DBS type-2/3.
    """
    widen = lambda a: _bulk_widen(a, spec.spread)  # noqa: E731
    if spec.family == "layernorm":
        x = widen(rng.standard_t(4, size=(k, n)))
        # LayerNorm outputs have per-channel affine offsets (gamma/beta).
        x = x * np.exp(0.35 * rng.normal(size=(k, 1))) + 0.4 * rng.standard_t(
            4, size=(k, 1))
    elif spec.family == "gelu":
        pre = widen(rng.standard_t(4, size=(k, n))) + 0.4 * rng.normal(
            size=(k, 1))
        x = F.gelu(pre)
    elif spec.family == "swiglu":
        gate = widen(rng.standard_t(4, size=(k, n)))
        up = widen(rng.standard_t(4, size=(k, n)))
        x = _silu(gate) * up
    elif spec.family == "relu":
        pre = widen(rng.standard_t(4, size=(k, n))) + 0.2 * rng.normal(
            size=(k, 1))
        x = np.maximum(pre, 0.0)
    elif spec.family == "softmax":
        logits = rng.normal(0.0, 2.0, (k, n))
        e = np.exp(logits - logits.max(axis=0, keepdims=True))
        x = e / e.sum(axis=0, keepdims=True)
    elif spec.family == "residual_outlier":
        x = widen(rng.standard_t(4, size=(k, n)))
    elif spec.family == "image":
        x = rng.normal(0.0, 1.0, (k, n))
    else:  # pragma: no cover - guarded by ActivationSpec
        raise ValueError(spec.family)
    if spec.outlier_channels > 0:
        ch_rng = np.random.default_rng(11)  # fixed channels, like real models
        idx = ch_rng.choice(k, size=min(spec.outlier_channels, k),
                            replace=False)
        x[idx] *= spec.outlier_scale
    return x


def sample_weight(m: int, k: int, rng: np.random.Generator,
                  tail_df: float = 4.0) -> np.ndarray:
    """Sample a trained-looking ``(M, K)`` weight matrix.

    Student-t with a few degrees of freedom concentrates mass near zero with
    occasional large entries, matching the HO-slice sparsity trained weights
    show under 7-bit symmetric quantization (paper Fig. 14b: weight vector
    sparsity varies widely by layer).
    """
    scale = 1.0 / np.sqrt(k)
    return rng.standard_t(tail_df, size=(m, k)) * scale


def _bulk_widen(x: np.ndarray, spread: float) -> np.ndarray:
    """Widen the distribution bulk relative to its tails.

    ``|x|^(1/spread)`` grows sub-unit values and shrinks tail values, so the
    *coded* standard deviation after Eq. 2 quantization rises with
    ``spread`` — the knob that pushes later layers toward DBS type-2/3.
    """
    if spread <= 1.0:
        return x
    return np.sign(x) * np.abs(x) ** (1.0 / spread)


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
