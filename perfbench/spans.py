"""Benchmark-side spans around the serving stack's layer entry points.

The traced run wraps functions of the ``repro`` packages from here, so the
program itself carries no benchmark code: :meth:`SpanRecorder.install`
swaps each entry point for a timing wrapper and :meth:`uninstall` puts the
original back.  Spans nest on a per-recorder stack (the in-process
workloads drive the stack from one thread; calls from any other thread
pass through untimed), and a span's *self time* is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from collections import defaultdict


def layer_entry_points() -> list:
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Imported lazily: the owners are live ``repro`` modules and classes.
    ``_ordered_softmax`` is the one private function on the list; it is
    the softmax every attention call runs, and no public name wraps it.
    """
    from repro.core import pipeline
    from repro.engine.engines import AqsEngine
    from repro.engine.session import PanaceaSession
    from repro.nn import attention, functional
    from repro.nn.transformer import CausalLM
    from repro.serve.batching import DecodeBatcher

    aqs_gemm = sys.modules["repro.core.aqs_gemm"]
    return [
        (PanaceaSession, "serve_coalesced", "engine.run"),
        (CausalLM, "forward_step", "engine.run"),
        (DecodeBatcher, "step", "batching.decode_step"),
        (attention.MultiHeadAttention, "forward", "nn.attention"),
        (attention.MultiHeadAttention, "forward_step", "nn.attention"),
        (attention, "_ordered_softmax", "nn.softmax"),
        (functional, "gelu", "nn.gelu"),
        (functional, "layer_norm", "nn.layer_norm"),
        (pipeline.QuantizedLinear, "forward", "core.dequant"),
        (pipeline, "quantize", "core.quantize"),
        (AqsEngine, "execute", "core.execute"),
        (aqs_gemm, "rle_index_bits_batch", "bitslice.rle"),
    ]


class SpanRecorder:
    """In-memory span log: ``(name, start, end, parent, request)`` rows.

    ``parent`` is the index of the enclosing span (-1 at top level) and
    ``request`` whatever the workload last stored in :attr:`request` (a
    request index, or a decode-step index on the decode workload).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.requests: list = []
        self.request = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple] = []

    # -- recording ------------------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = self.clock()
        self._stack.pop()

    def _wrapper(self, fn, name: str):
        def timed(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return timed

    def install(self, entry_points) -> None:
        """Wrap each ``(owner, attribute, name)``; a no-op while installed."""
        if self._patches:
            return
        for owner, attr, name in entry_points:
            original = vars(owner)[attr]   # only attributes the owner defines
            setattr(owner, attr, self._wrapper(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Summed self seconds per span name."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        totals: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            totals[name] += (self.ends[i] - self.starts[i]) - child[i]
        return dict(totals)

    def total_times(self, name: str) -> list[float]:
        """Durations of every span called ``name`` (nested ones included)."""
        return [self.ends[i] - self.starts[i]
                for i, n in enumerate(self.names) if n == name]

    def write_jsonl(self, path) -> None:
        """Dump every span, one JSON object per line."""
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "request": self.requests[i]}) + "\n")

    @classmethod
    def read_jsonl(cls, path) -> "SpanRecorder":
        """A recorder holding the spans of a :meth:`write_jsonl` log."""
        recorder = cls()
        with open(path) as fh:
            for line in fh:
                span = json.loads(line)
                recorder.names.append(span["name"])
                recorder.starts.append(span["start"])
                recorder.ends.append(span["end"])
                recorder.parents.append(span["parent"])
                recorder.requests.append(span["request"])
        return recorder


def main(argv=None) -> int:
    """Print a span log's self-time breakdown, largest first."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("log", help="a spans-*.jsonl file of a traced run")
    args = parser.parse_args(argv)
    recorder = SpanRecorder.read_jsonl(args.log)
    self_s = recorder.self_times()
    top = [i for i, p in enumerate(recorder.parents) if p < 0]
    wall = sum(recorder.ends[i] - recorder.starts[i] for i in top)
    units = len({recorder.requests[i] for i in top})
    print(f"{len(recorder.names)} spans, {units} requests or steps, "
          f"{wall * 1e3:.1f} ms under top-level spans")
    print(f"  {'span':<22} {'self ms':>10} {'ms/unit':>9} {'share':>7}")
    for name, seconds in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<22} {seconds * 1e3:10.1f} "
              f"{seconds * 1e3 / units:9.3f} {seconds / wall:7.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
