"""Serial replays that check a run's outputs, outside its timed window.

Each replay process builds its own deployment the way the run did
(``deploy_proxy`` is deterministic in its seed) and serves its share of
the requests one at a time, through ``PanaceaSession.run`` or
``DecodeSession.generate``.  Two spawned processes split the work, so the
check costs half the wall time of a serial one; the caller compares.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np

WORKERS = 2


def _session(model: str):
    from repro.serve import ModelServer

    server = ModelServer()
    server.deploy_proxy("replay", model, scheme="aqs")
    return server.entry("replay").session


def bert_outputs(requests) -> list:
    """``session.run(x)`` for each ``(workload, seed, index)`` request
    key, ``x`` made by that workload's request generator."""
    from gateway_client import gateway_request
    from inline import bert_request

    make = {"bert_inline": bert_request, "gateway_process": gateway_request}
    session = _session("bert_base")
    return [session.run(make[workload](seed, index))
            for workload, seed, index in requests]


def chat_replay(items) -> list:
    """Token lists for ``("forward", ids)`` items, the greedy argmax at
    every position of one ``session.run`` over ``ids``, and for
    ``("generate", prompt, max_new)`` items, ``DecodeSession.generate``
    decoding the prompt alone."""
    from repro.engine.session import DecodeSession

    session = _session("gpt2")
    out = []
    for kind, *args in items:
        if kind == "forward":
            logits = session.run(np.asarray(args[0])[None, :])
            out.append(np.argmax(logits[0], axis=-1).tolist())
        else:
            out.append(list(DecodeSession(session).generate(*args)))
    return out


def parallel(fn, items: list) -> list:
    """``fn`` over interleaved shares of ``items``, results in order."""
    shares = [items[k::WORKERS] for k in range(WORKERS)]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
        parts = list(pool.map(fn, shares))
    out = [None] * len(items)
    for k, part in enumerate(parts):
        out[k::WORKERS] = part
    return out
