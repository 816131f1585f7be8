"""Run one workload of the serving-stack benchmark and print its metrics.

    python3 perfbench/run.py --workload bert_inline --seed 1 --seconds 12 \
        --trace 0

Run from the root of a checkout; the program comes from ``src/``.  Stdout
ends with a table of every metric by name and unit, one JSON line with the
run's stamp and exact-count fingerprint, and the result line: end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1`` (which
also writes the span log under ``.perfbench_out/``).  The exit code is 0
only when every output matched its serial replay.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

import measure

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("bert_inline", "gpt2_chat", "gateway_process")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    finally:
        # The replay's process pool starts a resource tracker; end it
        # before exiting so the run leaves no process behind.
        measure.stop_resource_tracker()


def run(args) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() \
            or not (ROOT / "benchmarks" / "_util.py").is_file() \
            or not spec_path.is_file():
        print(f"perfbench: {ROOT} is not a checkout of the repository "
              "(needs src/repro, benchmarks/_util.py and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    # BLAS reads its thread caps once, at load: pin before numpy arrives.
    from _util import blas_report, pin_blas_threads

    pin_blas_threads(1)

    spec = json.loads(spec_path.read_text())
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    if args.workload == "gateway_process":
        import gateway_client

        result = gateway_client.run(args.seed, args.seconds,
                                    bool(args.trace), OUT_DIR)
    else:
        import inline

        fn = (inline.run_bert_inline if args.workload == "bert_inline"
              else inline.run_gpt2_chat)
        result = fn(args.seed, args.seconds, bool(args.trace))

    values = result["layers"] if args.trace else result["metrics"]
    missing = sorted(set(units) - set(values))
    if missing and not args.trace:
        print(f"perfbench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 2
    # A layer the workload never exercises did no work: it reads 0.
    values = {name: values.get(name, 0.0) for name in units}

    recorder = result.get("recorder")
    if recorder is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        recorder.write_jsonl(path)
        print(f"spans: {path.relative_to(ROOT)}")

    width = max(len(name) for name in units)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    for name, unit in units.items():
        print(f"  {name:<{width}}  {values[name]:>14.6g}  {unit}")
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"samples={result['samples']}")
    print(json.dumps({"stamp": measure.stamp(ROOT, args.seed, blas_report()),
                      "samples": result["samples"],
                      "fingerprint": result["fingerprint"]},
                     sort_keys=True))
    correct = result["failed"] == 0
    print(measure.result_line(correct, result["attempted"],
                              result["failed"], values, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
