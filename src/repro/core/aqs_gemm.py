"""AQS-GEMM: the asymmetrically-quantized bit-slice GEMM (paper Section III-B).

This is the paper's primary contribution.  Weights are symmetric SBR slices
(all-zero HO vectors compress); activations are *asymmetric unsigned* slices
where the compressible HO value is ``r = zp >> l`` — the HO slice of the
zero-point — because asymmetric quantization piles values around ``zp``
(paper Fig. 5a).  Skipping ``r``-valued vectors is *not* exact by itself, so
the kernel adds the Eq. 6 compensation term

``(W_HO + W_LO) x_HO  =  (W_HO + W_LO) x_HO^U  -  r (W_HO + W_LO) J^U  +  b'``

which reuses the weight slices already loaded for the uncompressed products
(no extra memory traffic) plus the offline-precomputed
``b' = (W_HO + W_LO)(r * 1)``.

The kernel is bit-exact against the dense integer GEMM for ``l = 4`` and
bit-exact against the DBS-truncated activation codes for ``l > 4``.

Execution is two-phase: :func:`prepare_aqs` runs the static weight path once
(SBR slicing, compressibility mask, RLE index sizing, compensation rows —
the paper's "offline" work) into an :class:`AqsLayerPlan`, and
:func:`execute_aqs` runs the per-request activation path against it.  The
one-shot :func:`aqs_gemm` is a thin, bit-exact wrapper over the two.

``exec_path`` selects how the online matmuls are issued.  The ``"sliced"``
path mirrors the hardware: one BLAS call per (weight plane, activation
plane) pair plus the compensation call, on float64 plane mirrors.  The
``"fast"`` path (default) exploits that the SBR planes reconstruct ``W``
exactly and that ``ho_weight == 2**ho_shift``, so the whole loop and the
compensation collapse into **one** GEMM:

``acc = W op + b'``,  ``op = 2^s (x_HO - r) J^U + x_low``

where ``x_low`` is the radix-combined stack of lower activation planes.
``x_HO - r`` is zero on every compressed (all-``r``) vector, so the mask
drops out of the numerics and ``op`` is the (DBS-truncated) code minus
``r << s``; the mask lives on in the op ledger, which is derived from it
and not from the matmul, and so is unchanged.  ``|op| <= 2^x_bits - 1``,
so ``max_row(sum|W|) * (2^x_bits - 1)`` bounds every partial sum; the plan
checks that certificate once (:class:`~repro.gemm.exact.ExactWeight`) and
runs the GEMM in float32 when the bound is below 2**24, else in float64
(exact below 2**53).  The activation side reaches ``op`` in a few narrow
passes (uint8/uint16 codes, no slice stack, no int64 ``(K, N)``
temporaries).  ``"sliced"`` is retained as the bit-exact verification
reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bitslice.rle import rle_index_bits_batch
from ..bitslice.slicing import SliceStack, slice_dbs, slice_sbr, slice_unsigned
from ..bitslice.vectors import (
    activation_vector_mask,
    expand_activation_mask,
    vector_sparsity,
    weight_vector_mask,
)
from ..gemm.exact import ExactWeight, exact_matmul
from ..gemm.workload import OpCounts, validate_exec_path

__all__ = ["AqsGemmConfig", "AqsGemmResult", "AqsLayerPlan", "aqs_gemm",
           "prepare_aqs", "execute_aqs", "compensation_bias",
           "frequent_ho_slice"]


@dataclass(frozen=True)
class AqsGemmConfig:
    """Static configuration of the AQS-GEMM kernel.

    ``w_bits`` must be of the SBR form ``3n + 4``; ``x_bits`` is the stored
    activation width (``4k + 4``); ``lo_bits`` is the DBS split ``l`` (4 =
    basic scheme, 5/6 = DBS type-2/3).  ``v`` is the slice-vector length and
    ``index_bits`` the RLE index width.  ``exec_path`` picks the online BLAS
    strategy: ``"fast"`` (one certified GEMM, the default) or ``"sliced"``
    (one call per plane pair, the bit-exact verification reference).
    """

    w_bits: int = 7
    x_bits: int = 8
    lo_bits: int = 4
    v: int = 4
    index_bits: int = 4
    count_ops: bool = True
    exec_path: str = "fast"

    def __post_init__(self) -> None:
        if (self.w_bits - 4) % 3:
            raise ValueError(f"w_bits must be 3n+4, got {self.w_bits}")
        if self.x_bits % 4:
            raise ValueError(f"x_bits must be 4k+4, got {self.x_bits}")
        if self.lo_bits != 4 and self.x_bits != 8:
            raise ValueError("DBS slicing (lo_bits != 4) is defined for 8-bit x")
        if not 4 <= self.lo_bits < self.x_bits:
            raise ValueError(f"lo_bits must be in [4, {self.x_bits - 1}]")
        if self.index_bits < 1:
            raise ValueError(f"index_bits must be >= 1, got {self.index_bits}")
        validate_exec_path(self.exec_path)

    @property
    def ho_shift(self) -> int:
        """Bit position of the activation HO slice.

        ``l`` for the two-slice DBS case, ``x_bits - 4`` for straightforward
        slicing (these coincide at ``l = 4, x_bits = 8``).
        """
        return self.lo_bits if self.lo_bits > 4 else self.x_bits - 4

    @property
    def x_slices(self) -> int:
        """Number of activation slice planes (DBS always has two)."""
        return 2 if self.lo_bits > 4 else self.x_bits // 4


@dataclass
class AqsGemmResult:
    """Output accumulators, op ledger and observed sparsities."""

    acc: np.ndarray
    ops: OpCounts
    rho_w: float
    rho_x: float
    r: int
    uw_mask: np.ndarray | None = field(repr=False, default=None)
    ux_mask: np.ndarray | None = field(repr=False, default=None)


def frequent_ho_slice(zp: int, lo_bits: int = 4) -> int:
    """The compressible HO slice value ``r`` for a given zero-point.

    Asymmetric quantization centres codes around ``zp``; the HO slice that
    dominates is therefore ``zp >> l`` (paper: "r is an HO slice of the 8-bit
    zero point").  After ZPM, ``zp' = 2^l * m + 2^(l-1)`` and this returns
    ``m``, the centre of the widened skip range.
    """
    if zp < 0:
        raise ValueError(f"zero-point must be non-negative, got {zp}")
    return zp >> lo_bits


def compensation_bias(w_q: np.ndarray, r: int, ho_shift: int,
                      n: int) -> np.ndarray:
    """Offline term ``b' = (W_HO + W_LO)(r * 1_{KxN})`` of Eq. 6.

    ``ho_shift`` is the bit position of the activation HO slice (``l`` for
    the two-slice case, ``x_bits - 4`` for three slices).  Because the SBR
    planes reconstruct ``W`` exactly, this is ``r * 2^ho_shift * rowsum(W)``
    broadcast over ``n`` columns; shape ``(M, n)``.
    """
    rowsum = np.asarray(w_q, dtype=np.int64).sum(axis=1)
    return np.broadcast_to((r << ho_shift) * rowsum[:, None],
                           (rowsum.size, n)).copy()


def _slice_activation(x_q: np.ndarray, config: AqsGemmConfig) -> SliceStack:
    if config.lo_bits == 4:
        return slice_unsigned(x_q, total_bits=config.x_bits, slice_bits=4)
    return slice_dbs(x_q, lo_bits=config.lo_bits, total_bits=config.x_bits)


@dataclass
class AqsLayerPlan:
    """Every weight-derived artifact of the AQS-GEMM, computed once.

    Holds the SBR slice stack, the weight compressibility mask and its RLE
    index budget, the compressible activation slice ``r`` and the Eq. 6
    compensation rows ``b'/n = (r << ho_shift) * rowsum(W)``.  A fast-path
    plan also holds ``gemm``, the weight in the narrowest dtype that the
    certificate ``max_row(sum|W|) * max|op|`` proves exact (float32 below
    2**24, else float64); it is derived from ``w_q`` on build and on load,
    never stored.  The float64 mirrors the sliced reference reads are built
    lazily, so fast-path plans never hold one.
    """

    config: AqsGemmConfig
    w_q: np.ndarray
    zp: int
    r: int
    ho_shift: int
    w_stack: SliceStack
    uw: np.ndarray
    rho_w: float
    w_rle_bits: int
    engine: str = "aqs"
    b_row: np.ndarray = field(init=False, repr=False)
    gemm: ExactWeight | None = field(init=False, repr=False, default=None)
    _w_f64: np.ndarray | None = field(init=False, repr=False, default=None)
    _w_planes_f64: tuple[np.ndarray, ...] | None = field(
        init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        rowsum = self.w_q.sum(axis=1)
        self.b_row = (self.r << self.ho_shift) * rowsum
        if self.config.exec_path == "fast":
            # op = x_trunc - (r << s) with x_trunc in [0, 2^x_bits - 1].
            op_max = max((1 << self.config.x_bits) - 1,
                         self.r << self.ho_shift)
            self.gemm = ExactWeight(self.w_q, op_max)

    @property
    def w_f64(self) -> np.ndarray:
        """Float64 weight mirror, built lazily (sliced path only)."""
        if self._w_f64 is None:
            self._w_f64 = self.w_q.astype(np.float64)
        return self._w_f64

    @property
    def w_planes_f64(self) -> tuple[np.ndarray, ...]:
        """Per-plane float64 mirrors, built lazily (sliced path only)."""
        if self._w_planes_f64 is None:
            self._w_planes_f64 = tuple(p.astype(np.float64)
                                       for p in self.w_stack.planes)
        return self._w_planes_f64

    @property
    def m(self) -> int:
        return self.w_q.shape[0]

    @property
    def k(self) -> int:
        return self.w_q.shape[1]

    def state_dict(self) -> dict:
        """Serializable snapshot; derived float caches are rebuilt on load."""
        from dataclasses import asdict

        return {
            "engine": self.engine,
            "config": asdict(self.config),
            "w_q": self.w_q,
            "zp": self.zp,
            "r": self.r,
            "ho_shift": self.ho_shift,
            "w_stack": self.w_stack.to_state(),
            "uw": self.uw,
            "rho_w": self.rho_w,
            "w_rle_bits": self.w_rle_bits,
        }

    @classmethod
    def from_state(cls, state: dict) -> "AqsLayerPlan":
        return cls(
            config=AqsGemmConfig(**state["config"]),
            w_q=np.asarray(state["w_q"], dtype=np.int64),
            zp=int(state["zp"]),
            r=int(state["r"]),
            ho_shift=int(state["ho_shift"]),
            w_stack=SliceStack.from_state(state["w_stack"]),
            uw=np.asarray(state["uw"], dtype=bool),
            rho_w=float(state["rho_w"]),
            w_rle_bits=int(state["w_rle_bits"]),
        )


def prepare_aqs(w_q: np.ndarray, zp: int,
                config: AqsGemmConfig | None = None) -> AqsLayerPlan:
    """Run the offline weight path of the AQS-GEMM once.

    Slices ``w_q`` into SBR planes, derives the all-zero HO vector mask and
    its RLE index bits, and fixes the compressible activation slice
    ``r = zp >> ho_shift`` — everything :func:`execute_aqs` needs that does
    not depend on the activations.
    """
    config = config or AqsGemmConfig()
    w_q = np.asarray(w_q, dtype=np.int64)
    if w_q.ndim != 2:
        raise ValueError(f"W must be 2-D, got shape {w_q.shape}")
    ho_shift = config.ho_shift
    r = frequent_ho_slice(zp, ho_shift)
    w_stack = slice_sbr(w_q, total_bits=config.w_bits)
    uw = weight_vector_mask(w_stack.ho, v=config.v, compress_value=0)
    # A lone 4-bit weight slice has no HO plane, so no weight-side skipping
    # (paper Fig. 19); report zero exploitable weight sparsity.
    rho_w = vector_sparsity(uw) if w_stack.n_slices > 1 else 0.0
    w_rle_bits = 0
    if config.count_ops and w_stack.n_slices > 1:
        # Weight streams run along K, one per mask row; sized as one batch.
        w_rle_bits = int(rle_index_bits_batch(uw, config.index_bits).sum())
    return AqsLayerPlan(config=config, w_q=w_q, zp=zp, r=r, ho_shift=ho_shift,
                        w_stack=w_stack, uw=uw, rho_w=rho_w,
                        w_rle_bits=w_rle_bits)


def execute_aqs(plan: AqsLayerPlan, x_q: np.ndarray) -> AqsGemmResult:
    """Run the per-request activation path against a prepared plan.

    Bit-exact against the one-shot :func:`aqs_gemm` on either ``exec_path``:
    the sliced path reproduces the accumulation order of the hardware loop,
    and the fast path computes the same exact integer sum with one certified
    GEMM (see the module docstring).  The op ledger is mask-derived and
    identical on both paths.
    """
    config = plan.config
    x_q = np.asarray(x_q, dtype=np.int64)
    m, k = plan.w_q.shape
    if x_q.ndim != 2 or k != x_q.shape[0]:
        raise ValueError(
            f"shape mismatch: W is {plan.w_q.shape}, x is {x_q.shape}")
    n = x_q.shape[1]

    if config.exec_path == "fast":
        acc, ux = _execute_fast(plan, x_q)
    else:
        x_stack = _slice_activation(x_q, config)
        ux = activation_vector_mask(x_stack.ho, v=config.v,
                                    compress_value=plan.r)
        acc = _execute_sliced(plan, x_stack, ux, m, n)

    ops = OpCounts()
    if config.count_ops:
        _count_aqs_ops(ops, plan.w_stack, config.x_slices, plan.uw, ux,
                       config, m, k, n, plan.w_rle_bits)
    return AqsGemmResult(
        acc=acc,
        ops=ops,
        rho_w=plan.rho_w,
        rho_x=vector_sparsity(ux),
        r=plan.r,
        uw_mask=plan.uw,
        ux_mask=ux,
    )


def _execute_sliced(plan: AqsLayerPlan, x_stack: SliceStack,
                    ux: np.ndarray, m: int, n: int) -> np.ndarray:
    """Reference path: one BLAS call per (weight, activation) plane pair.

    This mirrors the hardware's slice-product loop and is kept as the
    verification reference for the fast path.
    """
    r, ho_shift = plan.r, plan.ho_shift
    ux_e = expand_activation_mask(ux, plan.config.v, n).astype(np.int64)
    # --- bit-slice GEMMs over uncompressed slices (Eq. 5, first term) -----
    # Compressed weight HO vectors are all-zero, so using the raw HO plane is
    # already the skipped computation; the activation HO plane is masked to
    # its uncompressed vectors and the skipped all-r parts are restored by
    # the compensation term below.  All lower activation planes are dense.
    x_ho_u = (x_stack.ho * ux_e).astype(np.float64)
    x_lo_f = [p.astype(np.float64) for p in x_stack.planes[:-1]]
    acc = np.zeros((m, n), dtype=np.int64)
    for wi, w_plane in enumerate(plan.w_planes_f64):
        w_scale = plan.w_stack.weights[wi]
        acc += (w_scale * x_stack.ho_weight) * exact_matmul(w_plane, x_ho_u)
        for xi in range(x_stack.n_slices - 1):
            acc += (w_scale * x_stack.weights[xi]) * exact_matmul(
                w_plane, x_lo_f[xi])

    # --- compensation (Eq. 6): reuse loaded weight slices -----------------
    # -r*(W_HO+W_LO) J^U + b'   with   b' = (W_HO+W_LO)(r * 1)
    acc += (np.broadcast_to(plan.b_row[:, None], (m, n))
            - (r << ho_shift) * exact_matmul(plan.w_f64, ux_e))
    return acc


def _execute_fast(plan: AqsLayerPlan,
                  x_q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Collapsed path: the plane-pair loop and compensation in one GEMM.

    Returns ``(acc, ux)``.  The SBR planes reconstruct ``W`` exactly and
    ``ho_weight == 2**s``, so the sliced loop's sum is ``W op + b'`` with
    ``op = 2^s (x_HO - r) J^U + x_low``.  ``x_HO - r`` vanishes on every
    compressed vector, so ``op`` is the DBS-truncated code minus ``r << s``.
    The codes are validated once and narrowed to uint8 (uint16 past 8
    bits); the HO plane and vector mask are taken from them, and ``op`` is
    written straight in the certified GEMM dtype.
    """
    config = plan.config
    s = plan.ho_shift
    # Negative codes wrap to huge unsigned values: one pass checks both ends.
    if x_q.size and int(x_q.view(np.uint64).max()) >> config.x_bits:
        raise ValueError(
            f"values out of range for {config.x_bits}-bit unsigned")
    codes = x_q.astype(np.min_scalar_type((1 << config.x_bits) - 1))
    ux = activation_vector_mask(codes >> s, v=config.v, compress_value=plan.r)
    if config.lo_bits > 4:
        # DBS keeps only the top 4 of the l low bits (slice_dbs).
        drop = config.lo_bits - 4
        codes &= ((1 << config.x_bits) - 1) & ~((1 << drop) - 1)
    op = np.subtract(codes, plan.r << s, dtype=plan.gemm.dtype)
    acc = plan.gemm.matmul(op)
    acc += plan.b_row[:, None]
    return acc, ux


def aqs_gemm(
    w_q: np.ndarray,
    x_q: np.ndarray,
    zp: int,
    config: AqsGemmConfig | None = None,
) -> AqsGemmResult:
    """Execute the AQS-GEMM ``W_q @ x_q`` with slice skipping + compensation.

    ``w_q`` is the signed SBR-format weight ``(M, K)``; ``x_q`` the unsigned
    asymmetric activation ``(K, N)``; ``zp`` its zero-point.  The returned
    accumulator excludes the Eq. 3 zero-point bias fold (``b_hat``), which the
    caller applies — it equals ``W_q @ x_codes`` exactly, where ``x_codes``
    is ``x_q`` for ``l = 4`` and the DBS-truncated codes for ``l > 4``.

    One-shot wrapper over :func:`prepare_aqs` + :func:`execute_aqs`; callers
    with static weights should prepare once and execute per request instead.
    """
    config = config or AqsGemmConfig()
    return execute_aqs(prepare_aqs(w_q, zp, config), x_q)


def _count_aqs_ops(
    ops: OpCounts,
    w_stack: SliceStack,
    nx: int,
    uw: np.ndarray,
    ux: np.ndarray,
    config: AqsGemmConfig,
    m: int,
    k: int,
    n: int,
    w_rle_bits: int,
) -> None:
    """Fill the measured-op ledger from the compressibility masks.

    Counting is done at outer-product granularity: each executed product is
    ``v*v`` multiplies plus ``v*v`` accumulator additions.  The Eq. 6
    compensation adds one ``v x v`` outer product per output tile and
    ``v * n_w_planes`` weight-slice accumulations per uncompressed
    activation vector.  ``nx`` is the number of activation slice planes;
    ``w_rle_bits`` is the weight-side RLE index budget,
    already sized offline by :func:`prepare_aqs`.
    """
    v = config.v
    mg, ng = uw.shape[0], ux.shape[1]
    nw = w_stack.n_slices
    unit = v * v
    sum_uw = int(uw.sum())
    sum_ux = int(ux.sum())
    if nw == 1:
        # 4-bit weights have a single slice and no HO plane to skip (paper
        # Fig. 19); the lone plane behaves like a dense LO plane.
        hoho = 0
        loho = mg * sum_ux
        holo = 0
        lolo = (nx - 1) * mg * k * ng
    else:
        # HO(w) x HO(x): both vectors must be uncompressed, joint per-k
        # coupling.
        hoho = int((uw.sum(axis=0).astype(np.int64)
                    * ux.sum(axis=1).astype(np.int64)).sum())
        # lower W planes x HO(x): runs wherever the activation vector
        # survives.
        loho = (nw - 1) * mg * sum_ux
        # HO(w) x LO(x): runs wherever the weight vector survives.
        holo = (nx - 1) * ng * sum_uw
        # lower x lower: fully dense (the SWO workload).
        lolo = (nw - 1) * (nx - 1) * mg * k * ng
    gemm_products = hoho + loho + holo + lolo
    ops.mul4 = unit * gemm_products
    ops.add = unit * gemm_products
    ops.notes["dynamic_products"] = hoho + loho + holo
    ops.notes["static_products"] = lolo

    # Compensation: one outer product per (mg, ng) output tile; weight-slice
    # accumulation for every uncompressed activation vector.
    ops.comp_mul4 = unit * mg * ng
    ops.comp_add = v * nw * mg * sum_ux
    ops.mul4 += ops.comp_mul4
    ops.add += ops.comp_add
    # The naive Eq. 5 compensation would instead reload weights for the
    # *compressed* vectors; Table I prices it at 8K*rho_x adds + EMA.
    ops.notes["naive_comp_add"] = v * nw * mg * (ux.size - sum_ux)

    # EMA: payload HO vectors + dense lower planes, in nibbles; RLE indices
    # accounted separately.
    if nw == 1:
        ops.ema_nibbles = v * mg * k          # dense single weight plane
    else:
        ops.ema_nibbles = v * (sum_uw + (nw - 1) * mg * k)
    ops.ema_nibbles += v * (sum_ux + (nx - 1) * k * ng)
    # Activation streams run along K, one per mask column; sized as a batch.
    ops.rle_index_bits = w_rle_bits + int(
        rle_index_bits_batch(ux.T, config.index_bits).sum())
