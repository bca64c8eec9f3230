"""Run every workload end to end and traced, and print every metric.

    python3 perfbench/report.py [--seed N] [--seconds S] [--write perfbench/baseline.json]

Run from the root of a checkout.  For each workload this prints the inputs,
the environment, every end-to-end metric (``--trace 0``) and every per-layer
metric (``--trace 1``) with its unit and sample count, and the failed ratio.
``--write`` also stores all of it as JSON, the recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run as bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--write", type=Path, help="also write the results to this JSON file")
    args = parser.parse_args(argv)

    record: dict = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for workload in bench.WORKLOADS:
        entry: dict = {}
        for trace in (False, True):
            try:
                result, details = bench.bench(workload, args.seed, args.seconds, trace)
            except bench.BenchError as exc:
                print(f"benchmark failed: {exc}", file=sys.stderr)
                return 1
            print("\n".join(bench.summary(workload, args.seed, result, details)), flush=True)
            record["environment"] = details["environment"]
            entry["inputs"] = details["describe"]
            entry["per_layer" if trace else "end_to_end"] = result["metrics"]
            samples = {
                "attempted": result["attempted"],
                "failed": result["failed"],
                "failed_ratio": result["failed"] / result["attempted"],
                "setup_s_samples": details["setup_s"],
            }
            if trace:
                samples["traced_wall_s_samples"] = details["traced_wall_s"]
                # the untraced iterations interleaved with the traced ones
                samples["interleaved_untraced_wall_s_samples"] = details["wall_s"]
            else:
                samples["wall_s_samples"] = details["wall_s"]
                samples["cpu_s_samples"] = details["cpu_s"]
            entry["traced" if trace else "untraced"] = samples
            if trace:
                entry["computed_kernel_work"] = {
                    "transform_lengths": details["kernel"],
                    "fft_flops_per_time_level": result["metrics"]["fft.flops_per_step"]["value"],
                    "note": "computed at 2.5 n log2 n per real transform, not measured",
                }
        record["workloads"][workload] = entry
    if args.write:
        args.write.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
