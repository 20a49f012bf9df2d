"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 10 [--workload NAME ...]

Runs are sequential, one process at a time, from the repository root.
A metric whose spread (interquartile range over median) exceeds a third
of its bound is marked "wide"; setup_s is exempt from the spread rule.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, iqr_share


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs failed their checks\n{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--values", action="store_true", help="also print each run's value")
    parser.add_argument("--workload", action="append",
                        default=None, help="repeatable; default all")
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    wide = 0
    for name in names:
        runs = [run_once(name, seed, bench["run_seconds"])
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        for metric in bench["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            spread = iqr_share(values)
            flag = ""
            if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
                flag = "  wide"
                wide += 1
            print(f"{name:24s} {metric['name']:14s} median {statistics.median(values):12.6g} "
                  f"spread {spread:7.4f} bound {metric['bound']}{flag}", flush=True)
            if args.values:
                print("    " + " ".join(f"{v:.5g}" for v in values), flush=True)
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
