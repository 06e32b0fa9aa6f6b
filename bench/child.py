"""Child processes of the benchmark runner.

    child.py setup <workload> <seed> <ops> <workdir>
        Import the library, set the workload up, build its op list, then
        print "ready".  The parent times this from process start: set-up
        time as a user pays it.

    child.py cli <trace.json> <cbfdh arguments...>
        Run one CLI command like ``python -m cbfdh`` does, with tracing on,
        and write the raw trace plus the import time to ``trace.json``.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns


def setup(workload: str, seed: str, ops: str, workdir: str) -> int:
    import workloads

    workloads.WORKLOADS[workload](int(seed), workdir).ops(int(ops))
    print("ready", flush=True)
    return 0


def cli(trace_path: str, *argv: str) -> int:
    start = perf_counter_ns()
    import cbfdh.cli

    import_ns = perf_counter_ns() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = cbfdh.cli.main(list(argv))
    tracer.uninstall()
    sys.stdout.flush()
    state = tracer.export()
    state["import_ns"] = import_ns
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(state, fh)
    return code


if __name__ == "__main__":
    mode, *rest = sys.argv[1:]
    sys.exit({"setup": setup, "cli": cli}[mode](*rest))
