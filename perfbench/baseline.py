"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:
    python3 perfbench/baseline.py [--workloads search,report,chi,verify]
        [--seeds 10] [--first-seed 1] [--trace 0] [--out FILE]

For every workload it runs perfbench/run.py once per seed, one run at a time,
with the run length from BENCHMARK.json, and prints each metric's median and
its spread: the distance between the first and third quartile of the runs
(statistics.quantiles, n=4) as a share of the median. With ``--out`` the
summary and every run's value are also written as JSON;
perfbench/baseline.json gathers such summaries for the seed code.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            done = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                sys.stderr.write(f"{workload} seed {seed}: {result['failed']} failed\n")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        summary[workload] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[workload][name] = {"median": med, "unit": units[name], "spread": spread,
                                       "values": vals}
            flag = " over bound/3" if name in bounds and name != "setup_s" and spread > bounds[name] / 3 else ""
            print(f"{workload:7} {name:40} median {med:12.6g} {units[name]:6} "
                  f"spread {spread:7.2%}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
