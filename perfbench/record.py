#!/usr/bin/env python3
"""Re-record ``perfbench/reference.json``: the committed reference run.

    python3 perfbench/record.py --seeds 1,2,3,4,5,6,7,8,9,10 \
        --workloads fig4_xml,rule_storm

Run from the repository root.  For each workload (default: those of
``BENCHMARK.json``) it runs the benchmark once per seed and records each
end-to-end metric's median and quartiles
(``statistics.quantiles(values, n=4)``) plus their spread (IQR over the
median), then makes one traced run on the first seed and records the
per-layer metrics and self-time shares it wrote to ``perfbench/out/``.
Entries of workloads not recorded this time are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import HOLDOUT_SEED  # noqa: E402

#: why a workload that BENCHMARK.json does not list exists at all
WHY_NOT_LISTED = {
    "fig4_http": "Fig. 4 with its query node behind HTTP in another "
                 "process, Runtime(workers=2): transport, runtime queueing "
                 "and GRH codec do the work; too unsteady on a shared "
                 "2-vCPU machine for BENCHMARK.json's bounds"}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def main() -> None:
    with open("BENCHMARK.json", encoding="utf-8") as source:
        benchmark = json.load(source)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--workloads", default=",".join(
        workload["name"] for workload in benchmark["workloads"]))
    args = parser.parse_args()
    seeds = [int(seed) for seed in args.seeds.split(",")]
    path = os.path.join(HERE, "reference.json")
    recorded = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as source:
            recorded = json.load(source)["workloads"]
    reference = {
        "recorded_on": f"{platform.machine()} {os.cpu_count()} CPU, "
                       f"Python {platform.python_version()}",
        "seeds": seeds, "holdout_seed": HOLDOUT_SEED,
        "run_seconds": args.seconds, "workloads": recorded}
    whys = {workload["name"]: workload["why"]
            for workload in benchmark["workloads"]}
    for name in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in seeds:
            result = _run(name, seed, args.seconds, 0)
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
                units[metric] = entry["unit"]
            print(name, seed, {metric: round(entry["value"], 4)
                               for metric, entry in result["metrics"].items()},
                  flush=True)
        end_to_end = {}
        for metric, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            end_to_end[metric] = {
                "unit": units[metric], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "values": series}
        traced = _run(name, seeds[0], args.seconds, 1)
        with open(os.path.join(HERE, "out", f"layers-{name}.json"),
                  encoding="utf-8") as source:
            layers = json.load(source)
        reference["workloads"][name] = {
            "in_benchmark_json": name in whys,
            "why": whys.get(name, WHY_NOT_LISTED.get(name, "")),
            "end_to_end": end_to_end,
            "per_layer": {metric: entry["value"] for metric, entry
                          in traced["metrics"].items()},
            "self_time_shares": layers["shares"],
            **({"cprofile_shares": layers["cprofile_shares"],
                "cprofile_max_share_gap": layers["max_share_gap"]}
               if "cprofile_shares" in layers else {}),
        }
    with open(path, "w", encoding="utf-8") as out:
        json.dump(reference, out, indent=1, sort_keys=True)
        out.write("\n")


if __name__ == "__main__":
    main()
