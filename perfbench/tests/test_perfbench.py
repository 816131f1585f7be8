"""Unit tests of the benchmark's own measurement code (no serving stack)."""

import asyncio
import os
import pathlib
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from gateway_client import open_loop, schedule  # noqa: E402
from measure import (MIN_BEYOND, TooFewSamples,  # noqa: E402
                     compare_fingerprints, group_members, percentile, spread,
                     stop_resource_tracker)
from spans import SpanRecorder  # noqa: E402


def test_percentile_is_nearest_rank():
    samples = list(range(100, 0, -1))          # 1..100, unsorted
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(samples, 89.5) == 90     # rank ceil(89.5) = 90
    assert percentile([3.0] * 40, 50) == 3.0


def test_percentile_refuses_a_thin_tail():
    samples = list(range(100))
    percentile(samples, 90)                    # exactly 10 beyond: fine
    with pytest.raises(TooFewSamples):
        percentile(samples, 95)                # 5 beyond
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)        # 9 beyond
    assert MIN_BEYOND == 10


def test_spread_is_interquartile_over_median():
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0)


def _fake_time():
    now = [100.0]

    async def sleep(seconds):
        now[0] += seconds

    return now, (lambda: now[0]), sleep


def test_open_loop_latency_counts_from_the_due_time():
    now, clock, sleep = _fake_time()

    async def send(conn, i):
        now[0] += 0.05                         # 50 ms of service each
        return i

    due = [0.0, 0.01, 0.02, 0.5]
    results = asyncio.run(open_loop(due, send, 1, clock, sleep))
    latency = [done - d for d, _, done, _ in results]
    lateness = [sent - d for d, sent, _, _ in results]
    # Requests 1 and 2 queue behind the busy connection: their latency
    # carries the wait, not only the 50 ms of service.
    assert latency == pytest.approx([0.05, 0.09, 0.13, 0.05])
    assert lateness == pytest.approx([0.0, 0.04, 0.08, 0.0])
    assert [r for _, _, _, r in results] == [0, 1, 2, 3]


def test_open_loop_after_hook_is_untimed_but_occupies_the_connection():
    now, clock, sleep = _fake_time()

    async def send(conn, i):
        now[0] += 0.01
        return i

    async def after(conn, i, response):
        now[0] += 0.1                          # e.g. fetching a trace

    results = asyncio.run(open_loop([0.0, 0.05], send, 1, clock, sleep,
                                    after=after))
    (d0, _, done0, _), (d1, sent1, done1, _) = results
    assert done0 - d0 == pytest.approx(0.01)
    assert sent1 - d1 == pytest.approx(0.06)
    assert done1 - d1 == pytest.approx(0.07)


def test_fingerprints_compare_only_runs_of_one_seed():
    runs = [(1, {"steps": 10, "tokens": 40}),
            (2, {"steps": 12, "tokens": 40}),
            (1, {"steps": 10, "tokens": 40})]
    assert compare_fingerprints(runs) == []
    problems = compare_fingerprints(runs + [(2, {"steps": 13,
                                                 "tokens": 40})])
    assert len(problems) == 1
    assert problems[0].startswith("seed 2: steps = 13")
    assert compare_fingerprints([(1, {"steps": 1}), (1, {})])


def test_self_time_subtracts_direct_children():
    now = [0.0]
    recorder = SpanRecorder(clock=lambda: now[0])
    outer = recorder.open("engine.run")
    now[0] += 1.0
    inner = recorder.open("core.execute")
    now[0] += 2.0
    leaf = recorder.open("bitslice.rle")
    now[0] += 0.5
    recorder.close(leaf)
    recorder.close(inner)
    now[0] += 3.0
    recorder.close(outer)
    assert recorder.self_times() == pytest.approx(
        {"engine.run": 4.0, "core.execute": 2.0, "bitslice.rle": 0.5})
    assert recorder.parents == [-1, 0, 1]


def test_install_wraps_and_uninstall_restores():
    class Layer:
        def forward(self, x):
            return x + 1

    original = Layer.__dict__["forward"]
    recorder = SpanRecorder()
    recorder.install([(Layer, "forward", "nn.layer")])
    assert Layer().forward(1) == 2
    assert recorder.names == ["nn.layer"]
    recorder.uninstall()
    assert Layer.__dict__["forward"] is original
    Layer().forward(1)
    assert len(recorder.names) == 1


def test_group_members_lists_a_group_until_it_exits():
    child = subprocess.Popen([sys.executable, "-c",
                              "import time; time.sleep(60)"],
                             start_new_session=True)
    try:
        assert group_members(child.pid) == [child.pid]
    finally:
        child.kill()
        child.wait()
    assert group_members(child.pid) == []


def test_stop_resource_tracker_waits_for_the_tracker():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    pid = resource_tracker._resource_tracker._pid
    assert os.path.exists(f"/proc/{pid}")
    stop_resource_tracker()
    assert not os.path.exists(f"/proc/{pid}")
    stop_resource_tracker()                    # not running: a no-op


def test_schedule_has_the_same_gaps_in_a_seeded_order():
    first, second = schedule(1, 20.0), schedule(2, 20.0)
    assert len(first) == len(second) == 100
    assert first[0] == second[0] == 0.0
    assert first != second
    for due in (first, second):
        assert due == sorted(due) and due[-1] < 20.0
    # With the gap after the last request, both runs have the same gaps.
    gaps = [sorted([b - a for a, b in zip(due, due[1:])] + [20.0 - due[-1]])
            for due in (first, second)]
    assert gaps[0] == pytest.approx(gaps[1], abs=1e-9)
