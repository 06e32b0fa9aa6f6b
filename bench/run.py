"""Benchmark of the cbfdh workbench.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout (the library is imported from ``src/``).
One process, one op in flight at a time (a closed loop with one client), no
workers and no threads.  A run does a fixed, seeded list of ops: ``--seconds``
times the workload's ``rate`` (about its speed at reference speed, raised
for the workloads whose mean op cost varies most between seeds), so the work of every run with the same arguments is identical
and counts repeat exactly.  Every timing is speed-normalised (see ``measure.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs a quarter
of the op list untraced and then traced, and reports the per-layer metrics
plus the tracing overhead (traced / untraced busy time).  A result file with
raw timings, the speed factor, the probe series and the machine goes to
``.bench_out/``; the last line of stdout is the JSON summary.  The exit code
is 0 when every op passed its check, 1 otherwise, and 2 when the checkout
holds no library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from importlib import metadata

from measure import SPAWN, RunDigest, tail, timed_children, timed_pass
from tracer import Tracer

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(BENCH_DIR, "child.py")
OUT_DIR = ".bench_out"
SETUP_REPS = 3
TRACE_DIV = 4
CLI_INTERP_REPS = 3


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def op_count(cls, seconds: float) -> int:
    """Ops in a run: ``seconds`` times the workload's rate, in whole cycles of the
    workload's round-robin, and never fewer than its pinned prefix."""
    cycle = cls.cycle
    cycles = max(-(-cls.pin_ops // cycle), round(seconds * cls.rate / cycle))
    return cycles * cycle


def _check_digest(cls, seed: int, outputs) -> tuple[RunDigest, dict, list[str]]:
    """Digest the op results and compare them with ``pinned.json``, whose
    values hold at one seed only (the default), after each pinned op count."""
    with open(os.path.join(BENCH_DIR, "pinned.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    pins = {int(c): h for c, h in pinned["digests"].get(cls.name, {}).items()}
    digest = RunDigest(sorted(set(pins) | {cls.pin_ops}))
    for out in outputs:
        digest.add(b"FAILED" if out is None else out)
    if seed != pinned["seed"]:
        return digest, {}, []
    report, failures = {}, []
    for count, want in pins.items():
        got = digest.at.get(count)
        if got is None:
            continue
        report[count] = got == want
        if got != want:
            failures.append(f"digest after {count} ops is {got}, pinned {want}")
    return digest, report, failures


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scipy": _version("scipy"),
        "numpy": _version("numpy"),
    }


def _pass_summary(res, ref) -> dict:
    probe_med = statistics.median(res.probes_ns)
    raw_tail = tail(res.raw_ns)
    return {
        "reference": ref.name,
        "ref_nominal_ns": ref.nominal_ns,
        "ops": len(res.raw_ns),
        "busy_s": res.busy_s,
        "raw_busy_s": res.raw_busy_s,
        "raw_op_ms_p50": statistics.median(res.raw_ns) / 1e6,
        "raw_op_ms_tail": raw_tail[0] / 1e6,
        "speed_factor": ref.nominal_ns / probe_med,
        "probe_ns": {
            "median": probe_med,
            "min": min(res.probes_ns),
            "max": max(res.probes_ns),
            "count": len(res.probes_ns),
        },
        "failures": res.failures[:5],
    }


def end_to_end(cls, seed: int, seconds: float, workdir: str) -> tuple[dict, dict, int, int]:
    n = op_count(cls, seconds)
    setup_raw, setup_norm = timed_children(
        [sys.executable, CHILD, "setup", cls.name, str(seed), str(n), workdir], SETUP_REPS
    )
    wl = cls(seed, workdir)
    res = timed_pass(wl.ops(n), wl.run, cls.ref)
    digest, pins, pin_failures = _check_digest(cls, seed, res.outputs)
    failed = len(res.failures) + len(pin_failures)

    value, pct, beyond = tail(res.norm_ns)
    who = resource.RUSAGE_CHILDREN if cls.name == "cli-cold" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": (statistics.median(setup_norm), "s"),
        "op_ms_p50": (statistics.median(res.norm_ns) / 1e6, "ms"),
        "op_ms_tail": (value / 1e6, "ms"),
        "ops_per_s": (n / res.busy_s, "1/s"),
        "ok_frac": (1 - failed / n, "frac"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    detail = {
        **_pass_summary(res, cls.ref),
        "tail": {"percentile": pct, "beyond": beyond, "samples": n},
        "fail_frac": failed / n,
        "setup_raw_s": setup_raw,
        "setup_norm_s": setup_norm,
        "setup_reference": SPAWN.name,
        "digest": {"full": digest.hexdigest(), "checkpoints": digest.at, "pinned_match": pins},
        "check_failures": pin_failures,
    }
    return metrics, detail, n, failed


def per_layer(cls, seed: int, seconds: float, workdir: str, spans_path: str) -> tuple[dict, dict, int, int]:
    import workloads

    full = op_count(cls, seconds)
    n = max(cls.pin_ops, full // TRACE_DIV // cls.cycle * cls.cycle)
    wl = cls(seed, workdir)
    ops = wl.ops(n)
    plain = timed_pass(ops, wl.run, cls.ref)

    tracer = Tracer()
    tracer.install()
    wl.tracer = tracer
    try:
        traced = timed_pass(
            ops, wl.run, cls.ref,
            on_op=lambda i: setattr(tracer, "op", i), on_block=tracer.end_block,
        )
    finally:
        tracer.uninstall()
        wl.tracer = None
    tracer.scale(traced.factors)
    tracer.write_spans(spans_path)

    plain_digest, pins, failures = _check_digest(cls, seed, plain.outputs)
    traced_digest, _, _ = _check_digest(cls, seed, traced.outputs)
    if traced_digest.hexdigest() != plain_digest.hexdigest():
        failures.append("tracing changed the results")
    failed = len(plain.failures) + len(traced.failures) + len(failures)

    metrics = tracer.metrics()
    is_cli = cls.name == "cli-cold"
    for kind in workloads.CLI_COMMANDS:
        times = [t for op, t in zip(ops, plain.norm_ns) if is_cli and wl.kind(op) == kind]
        metrics[f"cli.{kind}.ms"] = (statistics.median(times) / 1e6 if times else 0.0, "ms")
    interp = []
    if is_cli:
        interp = timed_children([sys.executable, "-c", "print('ready')"], CLI_INTERP_REPS)[1]
    metrics["cli.import_ms"] = (statistics.median(tracer.import_ms) if tracer.import_ms else 0.0, "ms")
    metrics["cli.interp_ms"] = (1000 * statistics.median(interp) if interp else 0.0, "ms")
    metrics["trace.overhead"] = (traced.busy_s / plain.busy_s, "ratio")

    detail = {
        "untraced": _pass_summary(plain, cls.ref),
        "traced": _pass_summary(traced, cls.ref),
        "spans": {"file": spans_path, "total": tracer.span_total, "kept": len(tracer.spans[0])},
        "self_ms": {name: rec[2] for name, rec in sorted(tracer.layers.items())},
        "digest": {"full": plain_digest.hexdigest(), "checkpoints": plain_digest.at, "pinned_match": pins},
        "check_failures": failures,
        "fail_frac": failed / (2 * n),
    }
    return metrics, detail, 2 * n, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "cbfdh", "__init__.py")):
        print("error: run from the root of a checkout holding src/cbfdh", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    cls = workloads.WORKLOADS[args.workload]
    # children (set-up, CLI ops) import the library from the same checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(tempfile.mkdtemp(prefix=f"work-{cls.name}-", dir=OUT_DIR))
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"{cls.name}.spans.tsv.gz")
            metrics, detail, attempted, failed = per_layer(cls, args.seed, args.seconds, workdir, spans)
        else:
            metrics, detail, attempted, failed = end_to_end(cls, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": cls.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail,
    }
    path = os.path.join(OUT_DIR, f"{cls.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
