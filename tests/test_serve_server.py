"""Tests for ModelServer: multi-model hosting, routing, stats, store loads."""

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import BatchPolicy, ModelServer, PlanStore


class TinyNet(Module):
    def __init__(self, seed=0, out_features=8):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, out_features, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _batches(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (4, 16)) for _ in range(n)]


def _session(seed=0, out_features=8, scheme="aqs"):
    return PanaceaSession(
        TinyNet(seed, out_features),
        PtqConfig(scheme=scheme, x_bits=7 if scheme == "sibia" else 8),
        calibration=_batches(seed=seed))


class TestRegistration:
    def test_register_and_submit(self):
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        server.register("tiny", _session())
        ticket = server.submit("tiny", _batches(1, seed=5)[0])
        server.flush()
        assert ticket.result().shape == (4, 8)
        assert "tiny" in server
        assert server.models() == ["tiny"]

    def test_duplicate_name_rejected(self):
        server = ModelServer()
        server.register("tiny", _session())
        with pytest.raises(ValueError, match="already registered"):
            server.register("tiny", _session(seed=1))

    def test_unprepared_session_rejected(self):
        server = ModelServer()
        bare = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"))
        with pytest.raises(ValueError, match="not calibrated"):
            server.register("tiny", bare)

    def test_auto_calibrate_session_allowed(self):
        server = ModelServer(BatchPolicy(max_batch=1))
        session = PanaceaSession(TinyNet(), PtqConfig(scheme="aqs"),
                                 auto_calibrate=True)
        server.register("tiny", session)
        ticket = server.submit("tiny", _batches(1, seed=6)[0])
        assert ticket.result().shape == (4, 8)

    def test_unknown_model_rejected(self):
        server = ModelServer()
        with pytest.raises(KeyError, match="unknown model"):
            server.submit("ghost", np.zeros((1, 16)))

    def test_unregister_drains_queue(self):
        server = ModelServer(BatchPolicy(max_batch=8, max_delay_s=60.0))
        server.register("tiny", _session())
        ticket = server.submit("tiny", _batches(1, seed=7)[0])
        server.unregister("tiny")
        assert ticket.done
        assert "tiny" not in server


class TestMultiModelRouting:
    def test_two_deployments_route_independently(self):
        """Same scheme, different variants — one submit API, per-model
        sessions (the scheme x exec_path x variant hosting matrix)."""
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        server.register("a", _session(seed=1, out_features=8))
        server.register("b", _session(seed=2, out_features=5))
        batch = _batches(1, seed=8)[0]
        ta = server.submit("a", batch)
        tb = server.submit("b", batch)
        server.flush()
        assert ta.result().shape == (4, 8)
        assert tb.result().shape == (4, 5)

    def test_mixed_schemes(self):
        server = ModelServer(BatchPolicy(max_batch=1))
        server.register("aqs", _session(seed=3, scheme="aqs"))
        server.register("sibia", _session(seed=3, scheme="sibia"))
        batch = _batches(1, seed=9)[0]
        out_a = server.submit("aqs", batch).result()
        out_s = server.submit("sibia", batch).result()
        assert out_a.shape == out_s.shape == (4, 8)
        stats = server.stats()
        assert stats["aqs"]["session"]["scheme"] == "aqs"
        assert stats["sibia"]["session"]["scheme"] == "sibia"

    def test_submit_is_bit_exact_vs_solo_session(self):
        reqs = _batches(4, seed=10)
        solo = _session(seed=4)
        expected = [solo.run(r) for r in reqs]
        server = ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0))
        server.register("tiny", _session(seed=4))
        tickets = server.submit_many("tiny", reqs)
        server.flush("tiny")
        for ticket, expect in zip(tickets, expected):
            assert np.array_equal(ticket.result(), expect)

    def test_pump_runs_all_deployments(self):
        server = ModelServer(BatchPolicy(max_batch=8, max_delay_s=0.0))
        server.register("a", _session(seed=5))
        server.register("b", _session(seed=6))
        server.submit("a", _batches(1, seed=11)[0])
        server.submit("b", _batches(1, seed=12)[0])
        assert server.pump() == 2


class TestDeployAndLoad:
    def test_deploy_proxy_lm_gets_pad_axis(self):
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        entry = server.deploy_proxy("gpt", "gpt2", seed=0)
        assert entry.policy.pad_axis == 1
        rng = np.random.default_rng(13)
        tickets = [server.submit("gpt", rng.integers(0, 512, (1, length)))
                   for length in (10, 7)]
        server.flush()
        assert tickets[0].result().shape[1] == 10
        assert tickets[1].result().shape[1] == 7

    def test_deploy_proxy_classifier_has_no_pad_axis(self):
        server = ModelServer()
        entry = server.deploy_proxy("bert", "bert_base", seed=0)
        assert entry.policy.pad_axis is None

    def test_deploy_unknown_proxy_rejected(self):
        with pytest.raises(KeyError, match="no runnable proxy"):
            ModelServer().deploy_proxy("x", "not_a_model")

    def test_load_restores_proxy_pad_axis(self, tmp_path):
        """A causal-LM deployment restored from a store must keep the
        ragged-sequence coalescing a deploy_proxy deployment gets."""
        from repro.core.pipeline import PtqConfig
        from repro.models.zoo import build_proxy, proxy_batches

        model, _ = build_proxy("gpt2", seed=0)
        session = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
        session.calibrate(proxy_batches("gpt2", 2, 2, seed=1))
        PlanStore(tmp_path / "gpt2.npz").save(session, model_name="gpt2")

        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        entry = server.load("lm", tmp_path / "gpt2.npz")
        assert entry.policy.pad_axis == 1
        rng = np.random.default_rng(20)
        tickets = [server.submit("lm", rng.integers(0, 512, (1, length)))
                   for length in (8, 12)]
        server.flush()
        assert tickets[0].result().shape[1] == 8
        assert tickets[1].result().shape[1] == 12

    def test_load_from_plan_store(self, tmp_path):
        session = _session(seed=7)
        PlanStore(tmp_path / "tiny.npz").save(session)
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        server.load("tiny", tmp_path / "tiny.npz", model=TinyNet(seed=7))
        batch = _batches(1, seed=14)[0]
        ticket = server.submit("tiny", batch)
        server.flush()
        assert np.array_equal(ticket.result(), session.run(batch))

    def test_server_created_sessions_bound_their_ledger(self, tmp_path):
        """deploy_proxy, load and ``repro serve`` default to a bounded
        ledger; a bounded session keeps at most its cap after serving
        twice that many requests, with the lifetime stats of an unbounded
        twin."""
        from repro.cli import build_parser
        from repro.serve.server import SERVER_MAX_RECORDS

        assert build_parser().parse_args(
            ["serve", "bert_base"]).max_records == SERVER_MAX_RECORDS
        server = ModelServer(BatchPolicy(max_batch=1, max_delay_s=0.0))
        entry = server.deploy_proxy("bert", "bert_base", seed=0)
        assert entry.session.max_records == SERVER_MAX_RECORDS
        path = tmp_path / "tiny.npz"
        PlanStore(path).save(_session(seed=7))
        entry = server.load("tiny", path, model=TinyNet(seed=7))
        assert entry.session.max_records == SERVER_MAX_RECORDS

        cap = 4
        capped = server.load("capped", path, model=TinyNet(seed=7),
                             max_records=cap).session
        twin = server.load("twin", path, model=TinyNet(seed=7),
                           max_records=None).session
        for x in _batches(2 * cap, seed=15):
            server.submit("capped", x)
            server.submit("twin", x)
        server.flush()
        assert len(capped.requests) == cap
        assert len(twin.requests) == 2 * cap
        lifetime = [key for key in twin.stats()
                    if key not in ("n_retained", "exec_s")]
        assert {key: capped.stats()[key] for key in lifetime} \
            == {key: twin.stats()[key] for key in lifetime}
        assert capped.stats()["n_requests"] == 2 * cap


class TestServerObservability:
    def test_stats_shape(self):
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0))
        server.register("tiny", _session(seed=8))
        server.submit_many("tiny", _batches(4, seed=15))
        server.flush()
        stats = server.stats("tiny")
        assert stats["name"] == "tiny"
        assert stats["session"]["n_requests"] == 4
        assert stats["scheduler"]["n_batches"] == 2
        assert stats["scheduler"]["mean_batch_size"] == 2.0
        assert stats["session"]["n_engine_batches"] == 2
        assert stats["session"]["exec_s"] > 0

    def test_queue_wait_rollup(self):
        server = ModelServer(BatchPolicy(max_batch=1))
        server.register("a", _session(seed=9))
        server.register("b", _session(seed=10))
        server.submit("a", _batches(1, seed=16)[0])
        server.submit("b", _batches(1, seed=17)[0])
        rollup = server.queue_wait_rollup()
        assert rollup.count == 2

    def test_metrics_snapshot_totals(self):
        server = ModelServer(BatchPolicy(max_batch=2, max_delay_s=0.0),
                             cache_bytes=1 << 20)
        server.register("a", _session(seed=11))
        server.register("b", _session(seed=12))
        reqs = _batches(4, seed=18)
        for ticket in server.submit_many("a", reqs):
            ticket.result()
        for ticket in server.submit_many("a", reqs):   # replay: cache hits
            ticket.result()
        for ticket in server.submit_many("b", reqs[:2]):
            ticket.result()
        metrics = server.metrics()
        assert metrics.n_deployments == 2
        assert metrics.n_requests + metrics.n_cache_hits == 10
        assert metrics.n_cache_hits == 4
        assert metrics.cache_hit_rate == pytest.approx(4 / 10)
        assert metrics.workers is None                 # inline server
        assert metrics.cache["hits"] == 4
        summary = metrics.summary()
        assert summary["n_deployments"] == 2
        assert "a" in summary["deployments"]

    def test_server_cache_bytes_applies_to_deployments(self):
        server = ModelServer(BatchPolicy(max_batch=1),
                             cache_bytes=1 << 16)
        entry = server.register("tiny", _session(seed=13))
        assert entry.cache is not None
        assert entry.policy.cache_bytes == 1 << 16
        batch = _batches(1, seed=19)[0]
        first = server.submit("tiny", batch).result()
        repeat_ticket = server.submit("tiny", batch)
        assert repeat_ticket.cached
        assert np.array_equal(repeat_ticket.result(), first)

    def test_policy_cache_budget_wins_over_server_default(self):
        server = ModelServer(cache_bytes=1 << 16)
        entry = server.register(
            "tiny", _session(seed=14),
            policy=BatchPolicy(max_batch=1, cache_bytes=1 << 10))
        assert entry.cache.max_bytes == 1 << 10

    def test_caching_off_by_default(self):
        server = ModelServer()
        entry = server.register("tiny", _session(seed=15))
        assert entry.cache is None
        assert server.metrics().cache is None
