"""Measurement helpers shared by every workload.

Percentiles are nearest-rank and refuse to report a percentile with fewer
than :data:`MIN_BEYOND` samples beyond it, so a tail number is never the
luck of one or two requests.  The exact-count fingerprint and the
environment stamp ride along with every result line.

This module imports no numpy and no ``repro`` code: the steadiness runner
and the unit tests use it without loading the serving stack.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import statistics
import time

#: A percentile is reported only when at least this many samples lie
#: beyond it (the rule from the benchmark's README).
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, p: float) -> float:
    """Nearest-rank ``p``-th percentile of ``samples`` (0 < p < 100).

    Raises :class:`TooFewSamples` when fewer than :data:`MIN_BEYOND`
    samples rank above the returned one.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(p / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{p:g} of {n} samples has {n - rank} beyond it; "
            f"need at least {MIN_BEYOND}")
    return ordered[rank - 1]


def spread(values) -> float:
    """Interquartile distance over the median (``statistics.quantiles``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def compare_fingerprints(runs) -> list[str]:
    """Mismatches among ``(seed, fingerprint)`` pairs sharing a seed.

    Runs of one commit with one seed must produce identical exact counts;
    runs with different seeds are never compared.  Returns one line per
    differing key (empty when everything repeats).
    """
    first: dict = {}
    problems = []
    for seed, fingerprint in runs:
        if seed not in first:
            first[seed] = fingerprint
            continue
        reference = first[seed]
        for key in sorted(set(reference) | set(fingerprint)):
            if reference.get(key) != fingerprint.get(key):
                problems.append(
                    f"seed {seed}: {key} = {fingerprint.get(key)!r}, "
                    f"first run had {reference.get(key)!r}")
    return problems


def session_delta(after: dict, before: dict) -> dict:
    """Op-ledger counters between two ``session.stats()`` snapshots."""
    calls = after["n_layer_calls"] - before["n_layer_calls"]
    rho_x = ((after["mean_rho_x"] * after["n_layer_calls"]
              - before["mean_rho_x"] * before["n_layer_calls"]) / calls
             if calls else 0.0)
    return {"mul4": after["mul4"] - before["mul4"],
            "ema_nibbles": after["ema_nibbles"] - before["ema_nibbles"],
            "rho_x": rho_x}


def proc_status_kib(pid: int | str = "self", field: str = "VmHWM") -> int:
    """One ``/proc/<pid>/status`` memory field in KiB (0 when absent)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds another process has used so far."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def group_members(pgid: int) -> list[int]:
    """Live (not zombie) processes in process group ``pgid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # fields[0] is the state (stat field 3); the group is field 5.
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker, if it started
    one, and wait for it to exit.  Left alone, it outlives the process that
    started it by a few milliseconds."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def git_sha(root: pathlib.Path) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(root: pathlib.Path, seed: int, blas: dict) -> dict:
    """Where and how a result was measured."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "blas": blas,
        "git_sha": git_sha(root),
        "seed": seed,
        "unix_time": time.time(),
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    """The contract's final stdout line."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]),
                           "unit": units[name]}
                    for name in units},
    })
