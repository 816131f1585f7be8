"""Steadiness check: every workload, 10 seeds, two sets of runs.

    python3 perfbench/steady.py

Runs each workload of ``BENCHMARK.json`` for its ``run_seconds`` with
seeds 1 to :data:`SEEDS`, :data:`SETS` times over.  For each workload and
end-to-end metric it prints each set's median and spread (interquartile
distance over the median, from ``statistics.quantiles``) against the
metric's bound, and checks:

* every spread, ``setup_s``'s included, is within its bound (``!`` marks
  a spread above a third of it, the margin the benchmark aims for);
* the second set's median is not worse than the first's by more than the
  bound;
* every run succeeded and the exact-count fingerprints of runs with the
  same seed are identical.

Exits 1 when a check fails.  Runs are interleaved across workloads, so a
slow phase of the host spreads over all of them.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from measure import compare_fingerprints, spread  # noqa: E402

SEEDS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["fingerprint"] = json.loads(lines[-2])["fingerprint"]
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for seed in range(1, SEEDS + 1):
            for workload in workloads:
                result = run_once(workload, seed, spec["run_seconds"])
                runs[workload][s].append((seed, result))
                print(f"set {s + 1} seed {seed} {workload}: " + " ".join(
                    f"{k}={v['value']:.4g}"
                    for k, v in result["metrics"].items()), flush=True)

    ok = True
    for workload in workloads:
        print(f"\n{workload}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            medians, cells = [], []
            for s in range(SETS):
                values = [r["metrics"][name]["value"]
                          for _, r in runs[workload][s]]
                median, sp = statistics.median(values), spread(values)
                medians.append(median)
                flag = ""
                if sp > bound:
                    flag, ok = " FAIL", False
                elif sp > bound / 3:
                    flag = " !"
                cells.append(f"{median:10.4g} spread {sp:6.3f}{flag}")
            for median in medians[1:]:
                worse = sign * (median - medians[0]) / abs(medians[0])
                if worse > bound:
                    cells.append(f"median worse by {worse:.3f} FAIL")
                    ok = False
            print(f"  {name:<16} {metric['unit']:<6} bound {bound:4.2f}  "
                  + "  |  ".join(cells))
        every = [pair for per_set in runs[workload] for pair in per_set]
        bad = [seed for seed, r in every if not r["correct"] or r["failed"]]
        if bad:
            print(f"  failed runs: seeds {bad}")
            ok = False
        problems = compare_fingerprints(
            (seed, r["fingerprint"]) for seed, r in every)
        for line in problems:
            print(f"  fingerprint: {line}")
        ok = ok and not problems
        verdict = "DIFFER" if problems else "identical per seed"
        print(f"  fingerprints: {verdict} across {len(every)} runs")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
