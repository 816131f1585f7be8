"""The serving side of ``gateway_process``: a process-backed ModelServer
behind a Gateway, in a process of its own.

Started by ``gateway_client``; talks JSON lines over stdin/stdout.  It
prints ``ready`` (with the port and set-up measurements) once serving,
answers each ``mark`` with a counter snapshot (the client marks both ends
of the timed window), and on ``stop`` prints peak memory, shuts down and
exits.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time
from statistics import median

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
WORKERS = 2
DEPLOYMENT = "bert"


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def array_bytes(path) -> int:
    """Uncompressed bytes of a plan store's arrays, its text header aside
    (the header records the store's creation time, so the file's own size
    differs by a few bytes from one save to the next)."""
    import numpy as np

    with np.load(path) as npz:
        return sum(npz[key].nbytes for key in npz.files
                   if npz[key].dtype.kind != "U")


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks"), str(HERE)]
    from _util import pin_blas_threads

    pin_blas_threads(1)
    from measure import proc_cpu_s, proc_status_kib
    from spans import SpanRecorder

    from repro.engine.session import PanaceaSession
    from repro.serve import ModelServer
    from repro.serve.gateway import Gateway
    from repro.serve.procpool import ProcessWorkerPool
    from repro.serve.store import PlanStore

    # PlanStore.save is timed by hand: the store's size is read from the
    # path it returns.
    saves = []
    original_save = PlanStore.save

    def save(store, *args, **kwargs):
        t0 = time.perf_counter()
        path = original_save(store, *args, **kwargs)
        saves.append((time.perf_counter() - t0, os.path.getsize(path),
                      array_bytes(path)))
        return path

    recorder = SpanRecorder()
    recorder.install([(PanaceaSession, "calibrate", "engine.calibrate"),
                      (ProcessWorkerPool, "load_deployment",
                       "procpool.deploy")])
    PlanStore.save = save
    setups, server = [], None
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.close()
            t0 = time.perf_counter()
            server = ModelServer(backend="process", workers=WORKERS,
                                 blas_threads=1)
            server.deploy_proxy(DEPLOYMENT, "bert_base", scheme="aqs")
            setups.append(time.perf_counter() - t0)
    finally:
        recorder.uninstall()
        PlanStore.save = original_save

    pool = server.process_pool
    pids = [pid for pid in pool.pids if pid is not None]
    handle = Gateway.launch(server)

    def snapshot() -> dict:
        stats = pool.stats()
        return {
            "cpu_s": time.process_time(),
            "worker_cpu_s": sum(proc_cpu_s(pid) for pid in pids),
            "busy_s": stats["busy_s"],
            "wall_s": time.perf_counter(),
            "admission": handle.gateway.admission.stats(),
            "session": pool.deployment_stats(DEPLOYMENT),
        }

    try:
        emit("ready", port=handle.port, pids=pids,
             setup_s=median(setups),
             calibrate_s=median(recorder.total_times("engine.calibrate")),
             deploy_s=median(recorder.total_times("procpool.deploy")),
             save_s=median([save[0] for save in saves]),
             store_bytes=saves[-1][1], store_array_bytes=saves[-1][2])
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                emit("marked", **snapshot())
            elif command == "stop":
                break
        emit("stopped", rss_kib=proc_status_kib(),
             worker_rss_kib=[proc_status_kib(pid) for pid in pids],
             workers=WORKERS)
    finally:
        handle.close()
        server.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
