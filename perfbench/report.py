#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json, each in a fresh process, and print a table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Without --trace the table holds the end-to-end metrics with their units and
sample counts (items, or set-ups for setup_s), plus fail_ratio. With --trace
it holds the per-layer metrics that are not zero.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    for wl in bench["workloads"]:
        argv = [*bench["command"], "--workload", wl["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        argv[0] = sys.executable
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{wl['name']}: run failed with exit {proc.returncode}\n{proc.stderr}")
            continue
        detail = json.loads(lines[-2])["detail"]
        result = json.loads(lines[-1])
        samples = detail["samples"][-1]
        print(f"{wl['name']}  correct={result['correct']}  attempted={result['attempted']}"
              f"  failed={result['failed']}  fail_ratio={detail['fail_ratio']:.4f}"
              f"  known_defect_failures={detail['known_defect_failures']}")
        for err in detail["errors"]:
            print(f"    error: {err}")
        for name, m in result["metrics"].items():
            if args.trace and not m["value"]:
                continue
            n = len(detail["setup_repeats_s"]) if name == "setup_s" else samples
            print(f"    {name:44s} {m['value']:14.6g} {m['unit']:8s} n={n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
