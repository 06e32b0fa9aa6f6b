"""Speed-normalised timing.

Timings on a shared virtual machine drift by tens of percent between windows
of a few seconds, and the host exposes no hardware counters.  So every
timing here is scaled to a fixed reference speed.  A reference workload (a
probe) runs between blocks of ops, and an op's wall time is multiplied by
the probe's nominal time divided by the mean of the probes around its block
(see :meth:`Reference.factors`).  The result reads as "milliseconds at
reference speed".  Raw wall times and the probe series are kept beside the
normalised values as diagnostics.

Two references, matched to the kind of work timed:

- ``CPU``: a stdlib-only pure-Python loop of about 1.5 ms, run about every
  ``BLOCK_NS`` between in-process ops.
- ``SPAWN``: a fresh interpreter that imports a fixed set of stdlib modules
  (about 0.17 s), run between child processes (CLI ops, set-up).  Start-up
  and import time track process creation and page-cache speed, which the
  CPU loop does not see: over five batches of eight ``python -m cbfdh``
  runs, batch medians spread 25 % raw, 19 % scaled by the CPU loop and 3 %
  scaled by this child.
"""

from __future__ import annotations

import hashlib
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Any, Callable, Sequence

REF_ITERS = 1500
PROBE_REPS = 3
BLOCK_NS = 50_000_000
MASK64 = (1 << 64) - 1
SPAWN_IMPORTS = (
    "import argparse, asyncio, decimal, email.mime.multipart, http.client, json, "
    "logging, sqlite3, tarfile, unittest, xml.dom.minidom, urllib.request, pydoc"
)
# A child process must finish within this many seconds, or it is killed.
CHILD_TIMEOUT_S = 120


def reference_loop(iters: int = REF_ITERS) -> int:
    """Fixed pure-Python work with the workloads' instruction mix: big-int
    arithmetic and bit operations, popcounts and small-dict stores."""
    acc = 0x9E3779B97F4A7C15
    table: dict[int, int] = {}
    for i in range(iters):
        acc = (acc * 6364136223846793005 + i) & MASK64
        row = acc ^ (acc >> 29)
        table[i & 63] = (row & (row >> 7)).bit_count()
    return sum(table.values())


def cpu_probe() -> float:
    """Raw nanoseconds of one reference loop: the median of ``PROBE_REPS``
    repetitions, so a single preemption does not skew a block's factor."""
    reps = []
    for _ in range(PROBE_REPS):
        start = perf_counter_ns()
        reference_loop()
        reps.append(perf_counter_ns() - start)
    return statistics.median(reps)


def spawn_probe() -> float:
    """Raw nanoseconds of a fresh interpreter importing ``SPAWN_IMPORTS``."""
    start = perf_counter_ns()
    subprocess.run(
        [sys.executable, "-c", SPAWN_IMPORTS], check=True, timeout=CHILD_TIMEOUT_S
    )
    return perf_counter_ns() - start


@dataclass(frozen=True)
class Reference:
    """A probe, its nominal time on the reference machine, and how many
    probes on each side of a block its factor averages.

    The nominal times are constants on purpose: re-measuring them per run
    would put the machine's speed back into the numbers.  They are the
    median probe times on a 2 vCPU x86-64 VM with CPython 3.11.
    """

    name: str
    run: Callable[[], float]
    nominal_ns: float
    window: int

    def factors(self, probes_ns: Sequence[float]) -> list[float]:
        """Scale from raw to reference-speed time for each block between two
        consecutive probes: nominal over the mean of ``window`` probes on
        each side."""
        out = []
        for b in range(len(probes_ns) - 1):
            near = probes_ns[max(0, b + 1 - self.window) : b + 1 + self.window]
            out.append(self.nominal_ns / statistics.fmean(near))
        return out


# The machine's speed flips between fast and slow phases within tens of
# milliseconds, so the two loop probes next to a block predict its speed
# poorly; five on each side (about a quarter of a second) track the drift
# that matters and halve the run-to-run spread of the tail.
CPU = Reference("cpu-loop", cpu_probe, 700_000, 5)
SPAWN = Reference("spawn-imports", spawn_probe, 170_000_000, 1)


class RunDigest:
    """SHA-256 over every op's result bytes, with the hex value recorded
    after each op count in ``checkpoints``."""

    def __init__(self, checkpoints: Sequence[int] = ()):
        self._hash = hashlib.sha256()
        self._count = 0
        self._wanted = set(checkpoints)
        self.at: dict[int, str] = {}

    def add(self, data: bytes) -> None:
        self._hash.update(len(data).to_bytes(8, "big") + data)
        self._count += 1
        if self._count in self._wanted:
            self.at[self._count] = self._hash.hexdigest()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class PassResult:
    """Per-op raw and normalised times of one pass over an op list."""

    raw_ns: list[int] = field(default_factory=list)
    block_of: list[int] = field(default_factory=list)
    probes_ns: list[float] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)
    norm_ns: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    outputs: list[bytes | None] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.norm_ns) / 1e9

    @property
    def raw_busy_s(self) -> float:
        return sum(self.raw_ns) / 1e9


def timed_pass(
    ops: Sequence[Any],
    run_op: Callable[[Any], bytes],
    ref: Reference,
    on_op: Callable[[int], None] | None = None,
    on_block: Callable[[], None] | None = None,
) -> PassResult:
    """Run ``ops`` one at a time in a closed loop, probing ``ref`` between
    blocks of about ``BLOCK_NS`` (an op that takes longer is its own block).

    ``run_op`` returns the op's result bytes or raises on a failed check;
    a failure is recorded and the pass goes on.  ``on_op`` is told the op
    index before each op; ``on_block`` is called at the end of each block.
    """
    out = PassResult()
    out.probes_ns.append(ref.run())
    i = 0
    while i < len(ops):
        block = len(out.probes_ns) - 1
        block_start = perf_counter_ns()
        while i < len(ops) and perf_counter_ns() - block_start < BLOCK_NS:
            if on_op is not None:
                on_op(i)
            start = perf_counter_ns()
            try:
                result: bytes | None = run_op(ops[i])
            except Exception:  # a failed op is counted, the run goes on
                result = None
                out.failures.append(f"op {i}: " + traceback.format_exc(limit=3))
            out.raw_ns.append(perf_counter_ns() - start)
            out.block_of.append(block)
            out.outputs.append(result)
            i += 1
        out.probes_ns.append(ref.run())
        if on_block is not None:
            on_block()
    out.factors = ref.factors(out.probes_ns)
    out.norm_ns = [t * out.factors[b] for t, b in zip(out.raw_ns, out.block_of)]
    return out


def timed_children(argv: Sequence[str], reps: int, **popen: Any) -> tuple[list[float], list[float]]:
    """Start ``reps`` children in turn, each printing "ready" when set up,
    with a ``SPAWN`` probe between them.  Returns the raw and normalised
    seconds from each start to its "ready".  Every child is waited for, and
    killed if it outlives ``CHILD_TIMEOUT_S``."""
    raw = []
    probes = [SPAWN.run()]
    for _ in range(reps):
        start = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, **popen)
        try:
            line = proc.stdout.readline().strip()
            ready = perf_counter_ns()
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or line != "ready":
            raise RuntimeError(f"{argv[1:]} exited with {proc.returncode} after {line!r}")
        raw.append((ready - start) / 1e9)
        probes.append(SPAWN.run())
    return raw, [t * f for t, f in zip(raw, SPAWN.factors(probes))]


def tail(values: Sequence[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it:
    (value, percentile, samples beyond).  Below 11 samples: the maximum."""
    ordered = sorted(values)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered) - 1 - idx
