"""Smoke check: every workload at its minimal size (its pinned prefix),
untraced and traced.  Asserts that every metric named in BENCHMARK.json is
present, finite and has a unit, and that no op failed.

    python3 bench/smoke.py      # from the root of a checkout; about a minute
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    named = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [
                sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
                "--seed", "0", "--seconds", "0", "--trace", str(trace),
            ]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            where = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if result["failed"] != 0 or not result["correct"]:
                problems.append(f"{where}: {result['failed']} of {result['attempted']} ops failed")
            for metric in named[trace]:
                got = result["metrics"].get(metric["name"])
                if got is None:
                    problems.append(f"{where}: {metric['name']} missing")
                elif not math.isfinite(got["value"]) or got["unit"] != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} = {got}")
            print(f"ok {where}: {result['attempted']} ops", flush=True)
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
