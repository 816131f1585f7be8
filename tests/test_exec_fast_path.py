"""Fast execution path: bit-exactness vs the sliced reference, end to end.

The collapsed-BLAS fast path must be bit-identical to the sliced plane-pair
loop on every scheme/config combination — this is the non-negotiable
invariant of the ``exec_path`` knob.  Covered here at three levels: the raw
kernels (AQS across the full ``lo_bits`` x ``w_bits`` grid, Sibia across
``w_bits`` x tracked sides), the engine registry (``EngineConfig`` /
``execute_many``), and the PTQ pipeline (per-tensor and per-channel
weights).  The fast path's float32/float64 GEMM certificate is pinned with
max-magnitude operands just under and just over the float32 bound.
"""

import numpy as np
import pytest

from repro.bitslice.slicing import dbs_reconstruct_codes
from repro.core.aqs_gemm import AqsGemmConfig, execute_aqs, prepare_aqs
from repro.gemm.dense import execute_int8_dense, prepare_int8_dense
from repro.core.pipeline import PtqConfig, PtqPipeline
from repro.engine import EngineConfig, get_engine
from repro.gemm.sibia_gemm import (
    SibiaLayerPlan,
    execute_sibia,
    prepare_sibia,
    sibia_gemm,
)
from repro.nn.layers import Linear
from repro.nn.module import Module


def _aqs_case(rng, m=36, k=60, n=20, zp=168, w_bits=7, x_bits=8):
    w_max = (1 << (w_bits - 1)) - 1
    w = rng.integers(-w_max - 1, w_max + 1, (m, k))
    x = rng.integers(0, 1 << x_bits, (k, n))
    return w, x, zp


def _sbr_case(rng, m=36, k=60, n=20, w_bits=7, x_bits=7):
    w_hi = (1 << (w_bits - 1)) - 1
    x_hi = (1 << (x_bits - 1)) - 1
    return (rng.integers(-w_hi - 1, w_hi + 1, (m, k)),
            rng.integers(-x_hi - 1, x_hi + 1, (k, n)))


class TestAqsFastPath:
    @pytest.mark.parametrize("w_bits", [4, 7, 10])
    @pytest.mark.parametrize("lo_bits", [4, 5, 6])
    def test_bit_exact_vs_sliced(self, w_bits, lo_bits):
        rng = np.random.default_rng(w_bits * 10 + lo_bits)
        w, x, zp = _aqs_case(rng, w_bits=w_bits)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            w_bits=w_bits, lo_bits=lo_bits, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            w_bits=w_bits, lo_bits=lo_bits, exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    @pytest.mark.parametrize("lo_bits", [4, 5, 6])
    def test_op_ledger_identical(self, lo_bits):
        """The ledger is mask-derived, so exec_path must not change it."""
        rng = np.random.default_rng(lo_bits)
        w, x, zp = _aqs_case(rng)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            lo_bits=lo_bits, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            lo_bits=lo_bits, exec_path="sliced")), x)
        for f in ("mul4", "add", "comp_mul4", "comp_add", "ema_nibbles",
                  "rle_index_bits"):
            assert getattr(fast.ops, f) == getattr(sliced.ops, f), f
        assert fast.rho_x == sliced.rho_x
        assert fast.r == sliced.r

    def test_wide_activations(self):
        """Three activation slices (x_bits=12) also collapse exactly."""
        rng = np.random.default_rng(12)
        w, x, zp = _aqs_case(rng, x_bits=12, zp=1900)
        fast = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            x_bits=12, exec_path="fast")), x)
        sliced = execute_aqs(prepare_aqs(w, zp, AqsGemmConfig(
            x_bits=12, exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    def test_default_is_fast(self):
        assert AqsGemmConfig().exec_path == "fast"

    def test_fast_plan_skips_plane_mirrors(self):
        """Fast-path execution must not materialize the per-plane float64
        weight mirrors (they are sliced-path-only plan memory)."""
        rng = np.random.default_rng(5)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="fast"))
        execute_aqs(plan, x)
        assert plan._w_planes_f64 is None
        sib = prepare_sibia(w, exec_path="fast")
        execute_sibia(sib, np.clip(x - 128, -64, 63))
        assert sib._w_planes_f64 is None

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            AqsGemmConfig(exec_path="warp")

    def test_rejects_zero_index_bits(self):
        with pytest.raises(ValueError):
            AqsGemmConfig(index_bits=0)

    def test_config_round_trips_through_state(self):
        rng = np.random.default_rng(3)
        w, x, zp = _aqs_case(rng)
        from repro.core.aqs_gemm import AqsLayerPlan

        plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="sliced"))
        clone = AqsLayerPlan.from_state(plan.state_dict())
        assert clone.config.exec_path == "sliced"
        assert np.array_equal(execute_aqs(clone, x).acc,
                              execute_aqs(plan, x).acc)


class TestSibiaFastPath:
    @pytest.mark.parametrize("w_bits", [4, 7, 10])
    @pytest.mark.parametrize("tracked", ["weight", "activation", "auto"])
    def test_bit_exact_vs_sliced(self, w_bits, tracked):
        rng = np.random.default_rng(w_bits * 10 + len(tracked))
        w, x = _sbr_case(rng, w_bits=w_bits)
        fast = execute_sibia(prepare_sibia(
            w, w_bits=w_bits, tracked=tracked, exec_path="fast"), x)
        sliced = execute_sibia(prepare_sibia(
            w, w_bits=w_bits, tracked=tracked, exec_path="sliced"), x)
        assert np.array_equal(fast.acc, sliced.acc)
        assert fast.ops.mul4 == sliced.ops.mul4
        assert fast.tracked == sliced.tracked

    def test_one_shot_wrapper_accepts_exec_path(self):
        rng = np.random.default_rng(9)
        w, x = _sbr_case(rng)
        assert np.array_equal(sibia_gemm(w, x, exec_path="fast").acc,
                              sibia_gemm(w, x, exec_path="sliced").acc)

    def test_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            prepare_sibia(np.zeros((4, 4)), exec_path="turbo")

    def test_state_round_trip_keeps_exec_path(self):
        rng = np.random.default_rng(4)
        w, x = _sbr_case(rng)
        plan = prepare_sibia(w, exec_path="sliced")
        clone = SibiaLayerPlan.from_state(plan.state_dict())
        assert clone.exec_path == "sliced"
        assert np.array_equal(execute_sibia(clone, x).acc,
                              execute_sibia(plan, x).acc)

    def test_legacy_state_defaults_to_fast(self):
        plan = prepare_sibia(np.zeros((4, 4), dtype=np.int64))
        state = plan.state_dict()
        del state["exec_path"]
        assert SibiaLayerPlan.from_state(state).exec_path == "fast"


F32_LIMIT = 1 << 24


def _boundary_k(w_abs, x_max, over):
    """Largest K whose all-``w_abs`` row keeps the bound below 2**24, or
    one more."""
    return (F32_LIMIT - 1) // (w_abs * x_max) + int(over)


def _extreme_operands(rng, m, k, n, w_abs, x_lo, x_hi):
    """Row 0 all ``-w_abs`` (the bound's max row) against column 0 all
    ``x_hi``; everything else random extremes of both signs."""
    w = rng.choice([-w_abs, w_abs - 1], (m, k))
    w[0] = -w_abs
    x = rng.choice([x_lo, x_hi], (k, n))
    x[:, 0] = x_hi
    return w, x


def _float64_arrays(plan):
    """Every float64 array a plan holds, inside tuples too."""
    found = []
    for value in vars(plan).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray) and item.dtype == np.float64:
                found.append(item)
    return found


class TestExactCertificate:
    """One certified GEMM: float32 below 2**24, float64 at or above it."""

    @pytest.mark.parametrize("over", [False, True])
    @pytest.mark.parametrize("x_bits,lo_bits", [(8, 4), (8, 5), (8, 6),
                                                (12, 4)])
    def test_aqs(self, x_bits, lo_bits, over):
        rng = np.random.default_rng(x_bits * 10 + lo_bits + over)
        x_max = (1 << x_bits) - 1
        k = _boundary_k(64, x_max, over)
        w, x = _extreme_operands(rng, 6, k, 5, 64, 0, x_max)
        # zp below 2^s makes r = 0, so |op| reaches 2^x_bits - 1.
        cfg = dict(x_bits=x_bits, lo_bits=lo_bits)
        plan = prepare_aqs(w, 3, AqsGemmConfig(**cfg))
        fast = execute_aqs(plan, x).acc
        sliced = execute_aqs(prepare_aqs(w, 3, AqsGemmConfig(
            exec_path="sliced", **cfg)), x).acc
        codes = x if lo_bits == 4 else dbs_reconstruct_codes(x, lo_bits)
        ref = w.astype(np.int64) @ codes
        assert plan.gemm.bound == 64 * k * x_max
        assert plan.gemm.dtype == (np.float64 if over else np.float32)
        assert np.array_equal(fast, ref)
        assert np.array_equal(sliced, ref)

    @pytest.mark.parametrize("over", [False, True])
    def test_sibia(self, over):
        rng = np.random.default_rng(70 + over)
        k = _boundary_k(64, 64, over)
        w, x = _extreme_operands(rng, 6, k, 5, 64, 63, -64)
        plan = prepare_sibia(w)
        fast = execute_sibia(plan, x).acc
        sliced = execute_sibia(prepare_sibia(w, exec_path="sliced"), x).acc
        ref = w.astype(np.int64) @ x
        assert plan.gemm.dtype == (np.float64 if over else np.float32)
        assert np.array_equal(fast, ref)
        assert np.array_equal(sliced, ref)

    @pytest.mark.parametrize("over", [False, True])
    def test_int8_dense(self, over):
        rng = np.random.default_rng(80 + over)
        k = _boundary_k(128, 255, over)
        w, x = _extreme_operands(rng, 6, k, 5, 128, 0, 255)
        plan = prepare_int8_dense(w)
        acc, _ = execute_int8_dense(plan, x)
        assert plan.gemm.dtype == (np.float64 if over else np.float32)
        assert np.array_equal(acc, w.astype(np.int64) @ x)

    def test_int8_dense_codes_past_x_bits_stay_exact(self):
        """Codes outside the certified range take the integer matmul."""
        w = np.full((2, 600), -128)
        x = np.full((600, 3), 1 << 20)
        acc, _ = execute_int8_dense(prepare_int8_dense(w), x)
        assert np.array_equal(acc, w.astype(np.int64) @ x)

    def test_fallback_is_needed_over_the_bound(self):
        """Just over the bound, float32 sgemm is wrong and float64 is
        right: odd terms make the exact sum odd and above 2**24, which
        float32 cannot represent."""
        k = _boundary_k(63, 255, over=True)
        w = np.full((4, k), -63)
        x = np.full((k, 3), 255)
        ref = w.astype(np.int64) @ x
        assert abs(int(ref[0, 0])) > F32_LIMIT and ref[0, 0] % 2
        sgemm = (w.astype(np.float32) @ x.astype(np.float32)).astype(np.int64)
        assert not np.array_equal(sgemm, ref)
        plan = prepare_aqs(w, 3)
        assert plan.gemm.dtype == np.float64
        assert np.array_equal(execute_aqs(plan, x).acc, ref)

    def test_certified_plans_hold_no_float64_mirror(self):
        rng = np.random.default_rng(6)
        w, x, zp = _aqs_case(rng)
        plans = [prepare_aqs(w, zp), prepare_sibia(w), prepare_int8_dense(w)]
        execute_aqs(plans[0], x)
        execute_sibia(plans[1], np.clip(x - 128, -64, 63))
        execute_int8_dense(plans[2], x)
        for plan in plans:
            assert plan.gemm.dtype == np.float32
            assert plan.gemm.w.dtype == np.float32
            assert _float64_arrays(plan) == [], type(plan).__name__

    def test_sliced_plan_builds_its_mirror_lazily(self):
        rng = np.random.default_rng(7)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp, AqsGemmConfig(exec_path="sliced"))
        assert plan.gemm is None and _float64_arrays(plan) == []
        execute_aqs(plan, x)
        assert plan.w_f64.dtype == np.float64

    def test_fast_path_rejects_out_of_range_codes(self):
        rng = np.random.default_rng(8)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp)
        for bad in (-1, 256):
            x_bad = x.copy()
            x_bad[3, 2] = bad
            with pytest.raises(ValueError, match="out of range"):
                execute_aqs(plan, x_bad)

    def test_certificate_rebuilt_on_load(self):
        from repro.core.aqs_gemm import AqsLayerPlan

        rng = np.random.default_rng(9)
        w, x, zp = _aqs_case(rng)
        plan = prepare_aqs(w, zp)
        state = plan.state_dict()
        assert not any(isinstance(v, np.ndarray) and v.dtype == np.float32
                       for v in state.values())
        clone = AqsLayerPlan.from_state(state)
        assert clone.gemm.dtype == np.float32
        assert np.array_equal(execute_aqs(clone, x).acc,
                              execute_aqs(plan, x).acc)


class TestEngineLevel:
    def test_engine_config_threads_exec_path(self):
        rng = np.random.default_rng(11)
        w, x, zp = _aqs_case(rng)
        engine = get_engine("aqs")
        fast = engine.execute(
            engine.prepare(w, zp, EngineConfig(exec_path="fast")), x)
        sliced = engine.execute(
            engine.prepare(w, zp, EngineConfig(exec_path="sliced")), x)
        assert np.array_equal(fast.acc, sliced.acc)

    def test_engine_config_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            EngineConfig(exec_path="medium")

    def test_execute_many_reuses_plan(self):
        rng = np.random.default_rng(13)
        w, x, zp = _aqs_case(rng)
        xs = [rng.integers(0, 256, x.shape) for _ in range(4)]
        engine = get_engine("aqs")
        plan = engine.prepare(w, zp, EngineConfig())
        results = engine.execute_many(plan, xs)
        assert len(results) == 4
        for x_q, res in zip(xs, results):
            assert np.array_equal(res.acc, engine.execute(plan, x_q).acc)


class _TwoLayer(Module):
    def __init__(self, seed=0):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, 8, rng=rng)

    def forward(self, x):
        h = np.maximum(self.fc1(x), 0.0)
        return self.fc2(h)


def _converted_output(scheme, x_bits, exec_path, w_granularity):
    rng = np.random.default_rng(0)
    batches = [rng.normal(0, 1, (4, 16)) for _ in range(3)]
    pipe = PtqPipeline(_TwoLayer(), PtqConfig(
        scheme=scheme, x_bits=x_bits, exec_path=exec_path,
        w_granularity=w_granularity))
    pipe.calibrate(batches)
    model = pipe.convert()
    return model(rng.normal(0, 1, (4, 16)))


class TestPipelineLevel:
    @pytest.mark.parametrize("w_granularity", ["per_tensor", "per_channel"])
    @pytest.mark.parametrize("scheme,x_bits", [("aqs", 8), ("sibia", 7)])
    def test_model_outputs_identical(self, scheme, x_bits, w_granularity):
        fast = _converted_output(scheme, x_bits, "fast", w_granularity)
        sliced = _converted_output(scheme, x_bits, "sliced", w_granularity)
        assert np.array_equal(fast, sliced)

    def test_ptq_config_rejects_unknown_path(self):
        with pytest.raises(ValueError):
            PtqConfig(exec_path="jit")
