"""The two in-process workloads: ``bert_inline`` and ``gpt2_chat``.

Both are closed loops driven by this process's one thread, so the engine,
core, nn and bitslice layers do nearly all the work and no queue, network
or thread scheduling sits between the load and the kernels.  A run sets
the deployment up :data:`SETUPS` times (``setup_s`` is the median), sends
warm-up requests that no count includes, then measures every request sent
during ``seconds``.  Outputs are replayed serially after the timed window.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

import replay
from measure import percentile, proc_status_kib, session_delta
from spans import SpanRecorder, layer_entry_points

#: Deployments built per run; ``setup_s`` reports their median.
SETUPS = 5
#: Exact-count fingerprints cover this many requests (turns on gpt2_chat),
#: which every run completes whatever the host's speed.
FINGERPRINT_REQUESTS = 40
#: Traced runs alternate untraced and traced blocks of this many requests
#: (decode steps on gpt2_chat), so drift cancels out of the overhead.
TRACE_BLOCK = 20

# -- bert_inline --------------------------------------------------------------
#: Rows per request, one stratified block: 20 requests with a heavy tail
#: (8x one row ... 1x eight rows), shuffled by the seed.  Every run sees
#: the same mix, so seeds move the order and values, not the percentiles:
#: the median falls inside the 2-row stratum and p90 inside the 6-row one.
BERT_ROW_BLOCK = (1,) * 8 + (2,) * 5 + (3,) * 3 + (4,) + (6,) * 2 + (8,)
BERT_SEQ, BERT_DIM = 24, 192
#: The request-latency limit ``slo_attainment`` counts against: about
#: twice the p99 of a run on a slow stretch of a 2-core host (203 ms).
BERT_SLO_MS = 400.0
BERT_WARMUP = 8

# -- gpt2_chat ----------------------------------------------------------------
CONVERSATIONS = 4
TURNS_PER_CONVERSATION = 4
#: ``max_new_tokens`` per turn, one stratified heavy-tailed block of 20
#: (median in the 12-token stratum, p90 in the 32-token one).
GPT2_NEW_TOKENS_BLOCK = ((4,) * 3 + (8,) * 4 + (12,) * 5 + (16,) * 3
                         + (24,) * 2 + (32,) * 2 + (64,))
#: User-segment lengths per turn, one stratified heavy-tailed block of 20;
#: the tokens come from ``proxy_prompts``.
GPT2_SEGMENT_BLOCK = ((4,) * 5 + (6,) * 4 + (8,) * 3 + (12,) * 3 + (16,) * 2
                      + (24,) + (32,) + (48,))
GPT2_PREFIX_CACHE_BYTES = 32 << 20
#: The turn-latency limit ``slo_attainment`` counts against: about twice
#: the p99 of a run on a slow stretch of a 2-core host (1046 ms).
GPT2_SLO_MS = 2000.0


def _stratified(block, seed: int, index: int, salt: int) -> int:
    """Entry ``index`` of a per-block shuffle of ``block``."""
    rng = np.random.default_rng((seed, salt, index // len(block)))
    return block[rng.permutation(len(block))[index % len(block)]]


def bert_request(seed: int, index: int) -> np.ndarray:
    """Request ``index`` of a run: ``(rows, 24, 192)`` normal activations,
    the distribution ``proxy_batches`` calibrates the classifier on.
    Negative indices are warm-up requests."""
    rows = (_stratified(BERT_ROW_BLOCK, seed, index, 1) if index >= 0
            else 1 + (-index) % 4)
    rng = np.random.default_rng((seed, 2, index + (1 << 20)))
    return rng.normal(0.0, 1.0, (rows, BERT_SEQ, BERT_DIM))


def _deploy(name: str, model: str, **kwargs):
    """Build the deployment :data:`SETUPS` times; keep the last server."""
    from repro.engine.session import PanaceaSession
    from repro.serve import ModelServer

    recorder = SpanRecorder()
    recorder.install([(PanaceaSession, "calibrate", "engine.calibrate")])
    setups, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            server = ModelServer()
            server.deploy_proxy(name, model, scheme="aqs", **kwargs)
            setups.append(time.perf_counter() - t0)
    finally:
        recorder.uninstall()
    return server, median(setups), \
        median(recorder.total_times("engine.calibrate"))


def _layer_metrics(recorder: SpanRecorder, units: int) -> dict:
    """Per-layer self milliseconds per unit of work from a traced run."""
    self_s = recorder.self_times()
    engine_total = sum(recorder.total_times("engine.run"))
    per = 1e3 / units if units else 0.0
    out = {
        "engine.run_ms": engine_total * per,
        "engine.unattributed_share": (self_s.get("engine.run", 0.0)
                                      / engine_total if engine_total
                                      else 0.0),
    }
    for span, metric in (("core.execute", "core.execute_ms"),
                         ("core.quantize", "core.quantize_ms"),
                         ("core.dequant", "core.dequant_ms"),
                         ("nn.gelu", "nn.gelu_ms"),
                         ("nn.softmax", "nn.softmax_ms"),
                         ("nn.layer_norm", "nn.layer_norm_ms"),
                         ("nn.attention", "nn.attention_ms"),
                         ("bitslice.rle", "bitslice.rle_ms")):
        out[metric] = self_s.get(span, 0.0) * per
    return out


class _Blocks:
    """Alternates untraced and traced blocks in a traced run."""

    def __init__(self, recorder: SpanRecorder | None) -> None:
        self.recorder = recorder
        self.entry_points = layer_entry_points() if recorder else []

    def traced(self, unit: int) -> bool:
        on = self.recorder is not None and (unit // TRACE_BLOCK) % 2 == 1
        if self.recorder is not None:
            if on:
                self.recorder.install(self.entry_points)
            else:
                self.recorder.uninstall()
        return on

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.uninstall()


def run_bert_inline(seed: int, seconds: float, traced: bool) -> dict:
    """Closed loop, one client: ``submit(x).result()`` per request."""
    server, setup_s, calibrate_s = _deploy("bert", "bert_base")
    try:
        session = server.entry("bert").session
        for i in range(BERT_WARMUP):
            server.submit("bert", bert_request(seed, -1 - i)).result()
        before = session.stats()
        recorder = SpanRecorder() if traced else None
        blocks = _Blocks(recorder)
        latency, cpu, outputs, flags = [], [], [], []
        prefix = None
        tokens = 0
        deadline = time.perf_counter() + seconds
        i = 0
        try:
            while time.perf_counter() < deadline \
                    or i < FINGERPRINT_REQUESTS:
                x = bert_request(seed, i)
                on = blocks.traced(i)
                if recorder is not None:
                    recorder.request = i
                c0 = time.process_time()
                t0 = time.perf_counter()
                out = server.submit("bert", x).result()
                latency.append(time.perf_counter() - t0)
                cpu.append(time.process_time() - c0)
                outputs.append(out)
                flags.append(on)
                i += 1
                if i <= FINGERPRINT_REQUESTS:
                    tokens += x.shape[0] * x.shape[1]
                if i == FINGERPRINT_REQUESTS:
                    prefix = session_delta(session.stats(), before)
        finally:
            blocks.close()
        rss_mib = proc_status_kib() / 1024.0
    finally:
        server.close()
    # Serial replay outside the timed window: bit-exact or failed.
    refs = replay.parallel(replay.bert_outputs,
                           [("bert_inline", seed, j)
                            for j in range(len(outputs))])
    matched = [ref.dtype == out.dtype and np.array_equal(ref, out)
               for ref, out in zip(refs, outputs)]

    n = len(latency)
    result = {
        "attempted": n, "failed": n - sum(matched),
        "samples": {"latency": n},
        "metrics": {
            "setup_s": setup_s,
            "rss_peak_mib": rss_mib,
            "latency_p50_ms": percentile(latency, 50) * 1e3,
            "latency_p90_ms": percentile(latency, 90) * 1e3,
            "cpu_ms_per_req": sum(cpu) / n * 1e3,
            "slo_attainment": sum(m and lat * 1e3 <= BERT_SLO_MS
                                  for m, lat in zip(matched, latency)) / n,
        },
        "fingerprint": {
            "requests": FINGERPRINT_REQUESTS, "tokens": tokens,
            "core.mul4_per_req": prefix["mul4"] / FINGERPRINT_REQUESTS,
            "core.ema_nibbles_per_req":
                prefix["ema_nibbles"] / FINGERPRINT_REQUESTS,
            "core.rho_x": prefix["rho_x"],
        },
    }
    layers = {"engine.calibrate_s": calibrate_s,
              "core.mul4_per_req": result["fingerprint"]["core.mul4_per_req"],
              "core.ema_nibbles_per_req":
                  result["fingerprint"]["core.ema_nibbles_per_req"],
              "core.rho_x": prefix["rho_x"]}
    if recorder is not None:
        on_lat = [lat for lat, f in zip(latency, flags) if f]
        off_lat = [lat for lat, f in zip(latency, flags) if not f]
        layers.update(_layer_metrics(recorder, len(on_lat)))
        layers["obs.trace_overhead"] = (percentile(on_lat, 50)
                                        / percentile(off_lat, 50) - 1.0)
        result["recorder"] = recorder
    result["layers"] = layers
    return result


# -- gpt2_chat ----------------------------------------------------------------
class _Conversation:
    """One multi-turn chat: the history grows by each turn's prompt
    segment and reply until :data:`TURNS_PER_CONVERSATION`, then resets."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.conv_id = -1        # which of the run's conversations this is
        self.turn = 0
        self.history = np.zeros(0, dtype=np.int64)
        self.ticket = None
        self.prompt = None
        self.submit_t = 0.0
        self.last_t = 0.0
        self.seen = 0

    def next_prompt(self, turn_index: int) -> np.ndarray:
        """History plus the user segment of the run's ``turn_index``-th
        submitted turn."""
        from repro.models.zoo import proxy_prompts

        length = _stratified(GPT2_SEGMENT_BLOCK, self.seed, turn_index, 6)
        segment = proxy_prompts(
            "gpt2", 1, min_len=length, max_len=length,
            seed=int(np.random.SeedSequence((self.seed, 7, turn_index))
                     .generate_state(1)[0]))[0]
        return np.concatenate([self.history, segment])

    def finish_turn(self, tokens) -> None:
        self.turn += 1
        if self.turn == TURNS_PER_CONVERSATION:
            self.turn = 0
            self.history = np.zeros(0, dtype=np.int64)
        else:
            self.history = np.concatenate(
                [self.prompt, np.asarray(tokens, dtype=np.int64)])
        self.ticket = None


def run_gpt2_chat(seed: int, seconds: float, traced: bool) -> dict:
    """Four multi-turn conversations, stepped by this thread."""
    from repro.serve import DecodePolicy

    policy = DecodePolicy(max_batch=CONVERSATIONS, refill="continuous",
                          prefix_cache_bytes=GPT2_PREFIX_CACHE_BYTES)
    server, setup_s, calibrate_s = _deploy("gpt2", "gpt2",
                                           decode_policy=policy)
    try:
        session = server.entry("gpt2").session
        warm = [server.submit_decode("gpt2", np.arange(4 + k) % 97,
                                     max_new_tokens=8) for k in range(4)]
        decoder = server.entry("gpt2").decoder
        decoder.drain()
        for ticket in warm:
            ticket.result()
        decoder.prefix_cache.clear()    # the timed window starts cold
        dec0, cache0 = decoder.stats(), decoder.prefix_cache.stats()
        sess0 = session.stats()

        recorder = SpanRecorder() if traced else None
        blocks = _Blocks(recorder)
        convs = [_Conversation(seed) for _ in range(CONVERSATIONS)]
        turns = []      # (conversation, prompt, max_new, tokens)
        turn_lat, ttft, itl = [], [], []
        step_s, step_on = [], []
        cpu = 0.0
        off_tokens = 0
        fingerprint = None
        submitted = conversations = 0
        deadline = time.perf_counter() + seconds
        try:
            while True:
                now = time.perf_counter()
                open_window = now < deadline \
                    or len(turns) < FINGERPRINT_REQUESTS
                for conv in convs:
                    if conv.ticket is None and open_window:
                        if conv.turn == 0:
                            conv.conv_id, conversations = (conversations,
                                                           conversations + 1)
                        conv.prompt = conv.next_prompt(submitted)
                        budget = _stratified(GPT2_NEW_TOKENS_BLOCK, seed,
                                             submitted, 3)
                        conv.ticket = server.submit_decode(
                            "gpt2", conv.prompt, max_new_tokens=budget)
                        conv.submit_t = time.perf_counter()
                        conv.seen = 0
                        submitted += 1
                if all(conv.ticket is None for conv in convs):
                    break
                on = blocks.traced(len(step_s))
                if recorder is not None:
                    recorder.request = len(step_s)
                c0 = time.process_time()
                t0 = time.perf_counter()
                decoder.step()
                now = time.perf_counter()
                cpu += time.process_time() - c0
                step_s.append(now - t0)
                step_on.append(on)
                for conv in convs:
                    ticket = conv.ticket
                    if ticket is None:
                        continue
                    n = len(ticket.tokens)
                    if n > conv.seen:
                        # Stream timings count on untraced steps only.
                        if conv.seen == 0 and not on:
                            ttft.append(now - conv.submit_t)
                        elif not on:
                            itl.extend([(now - conv.last_t)
                                        / (n - conv.seen)] * (n - conv.seen))
                        if not on:
                            off_tokens += n - conv.seen
                        conv.seen, conv.last_t = n, now
                    if ticket.done:
                        if ticket.error is not None:
                            raise ticket.error
                        turn_lat.append(now - conv.submit_t)
                        turns.append((conv.conv_id, conv.prompt,
                                      ticket.max_new_tokens,
                                      list(ticket.tokens)))
                        conv.finish_turn(ticket.tokens)
                        if len(turns) == FINGERPRINT_REQUESTS:
                            fingerprint = _chat_fingerprint(
                                decoder, session, dec0, cache0, sess0,
                                turns)
        finally:
            blocks.close()
        rss_mib = proc_status_kib() / 1024.0
        dec1, cache1 = decoder.stats(), decoder.prefix_cache.stats()
        queue_waits = decoder.queue_wait_view().samples()
    finally:
        server.close()
    matched = _check_chat(turns)

    n = len(turn_lat)
    result = {
        "attempted": n, "failed": n - sum(matched),
        "samples": {"latency": n, "ttft": len(ttft), "itl": len(itl),
                    "steps": len(step_s)},
        "metrics": {
            "setup_s": setup_s,
            "rss_peak_mib": rss_mib,
            "latency_p50_ms": percentile(turn_lat, 50) * 1e3,
            "latency_p90_ms": percentile(turn_lat, 90) * 1e3,
            "cpu_ms_per_req": cpu / n * 1e3,
            "slo_attainment": sum(m and lat * 1e3 <= GPT2_SLO_MS
                                  for m, lat in zip(matched, turn_lat)) / n,
        },
        "fingerprint": fingerprint,
    }
    lookups = ((cache1["hits"] - cache0["hits"])
               + (cache1["misses"] - cache0["misses"]))
    steps = dec1["n_steps"] - dec0["n_steps"]
    layers = {
        "engine.calibrate_s": calibrate_s,
        "core.mul4_per_req": fingerprint["core.mul4_per_req"],
        "core.ema_nibbles_per_req": fingerprint["core.ema_nibbles_per_req"],
        "core.rho_x": fingerprint["core.rho_x"],
        "batching.decode_steps": fingerprint["batching.decode_steps"],
        "batching.prefills": fingerprint["batching.prefills"],
        "cache.prefix_seeded_tokens":
            fingerprint["cache.prefix_seeded_tokens"],
        "cache.prefix_hit_rate": (cache1["hits"] - cache0["hits"]) / lookups,
        "batching.decode_step_width":
            (dec1["mean_step_width"] * dec1["n_steps"]
             - dec0["mean_step_width"] * dec0["n_steps"]) / steps,
        "batching.decode_queue_wait_p50_ms":
            percentile(queue_waits[-n:], 50) * 1e3,
    }
    if recorder is not None:
        off = [s for s, f in zip(step_s, step_on) if not f]
        on = [s for s, f in zip(step_s, step_on) if f]
        layers.update(_layer_metrics(recorder, len(on)))
        layers.update({
            "batching.decode_step_p50_ms": percentile(off, 50) * 1e3,
            "batching.ttft_p50_ms": percentile(ttft, 50) * 1e3,
            "batching.itl_p50_ms": percentile(itl, 50) * 1e3,
            "batching.itl_p95_ms": percentile(itl, 95) * 1e3,
            "batching.tokens_per_s": off_tokens / sum(off),
            "obs.trace_overhead": percentile(on, 50) / percentile(off, 50)
            - 1.0,
        })
        result["recorder"] = recorder
    result["layers"] = layers
    return result


def _check_chat(turns) -> list[bool]:
    """Replay outside the timed window; one verdict per turn.

    Every turn's tokens must be the greedy argmax, position by position,
    of one ``session.run`` forward over its whole conversation, and the
    first :data:`FINGERPRINT_REQUESTS` turns must also equal
    ``DecodeSession.generate`` decoding the turn alone.  (Generating every
    turn alone would cost three times the timed window.)
    """
    conversation = {}
    for conv_id, prompt, _, tokens in turns:
        conversation[conv_id] = np.concatenate(
            [prompt, np.asarray(tokens, dtype=np.int64)])
    ids = sorted(conversation)
    items = ([("forward", conversation[c]) for c in ids]
             + [("generate", prompt, budget)
                for _, prompt, budget, _ in turns[:FINGERPRINT_REQUESTS]])
    answers = replay.parallel(replay.chat_replay, items)
    greedy = dict(zip(ids, answers))
    generated = answers[len(ids):]
    matched = []
    for k, (conv_id, prompt, _, tokens) in enumerate(turns):
        start = len(prompt) - 1
        ok = greedy[conv_id][start:start + len(tokens)] == tokens
        if k < len(generated):
            ok = ok and generated[k] == tokens
        matched.append(ok)
    return matched


def _chat_fingerprint(decoder, session, dec0, cache0, sess0, turns) -> dict:
    """Exact counts after the first :data:`FINGERPRINT_REQUESTS` turns."""
    dec, cache = decoder.stats(), decoder.prefix_cache.stats()
    ops = session_delta(session.stats(), sess0)
    k = len(turns)
    return {
        "requests": k,
        "tokens": sum(len(turn[-1]) for turn in turns),
        "batching.decode_steps": dec["n_steps"] - dec0["n_steps"],
        "batching.prefills": dec["n_prefills"] - dec0["n_prefills"],
        "cache.prefix_seeded_tokens":
            cache["seeded_tokens"] - cache0["seeded_tokens"],
        "cache.prefix_hits": cache["hits"] - cache0["hits"],
        "core.mul4_per_req": ops["mul4"] / k,
        "core.ema_nibbles_per_req": ops["ema_nibbles"] / k,
        "core.rho_x": ops["rho_x"],
    }
