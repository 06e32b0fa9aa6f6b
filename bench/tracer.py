"""Per-layer tracing from outside the library.

Wrappers around public functions time and count every call.  Modules import
by name, so each function is patched wherever it is bound: every ``cbfdh``
module attribute holding the original object is replaced.  Spans stay in
memory with a parent link; self time is a span's duration minus that of its
children.  Raw span times accumulate per block of ops and are scaled to
reference speed with the block's factor after the pass.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Any, Callable

# Spans kept for the spans file; aggregates always cover every call.
SPAN_CAP = 200_000

# Spans inside which calls of every traced function are also counted.
SCOPES = ("scheme.sign", "reduction.sign_without_secret", "isd.doom_attack")


def _count_iterations(counts: Counter, args, kwargs, result) -> None:
    counts["isd.iterations"] += result.iterations


def _count_doom(counts: Counter, args, kwargs, result) -> None:
    counts["isd.iterations"] += result.iterations
    counts["isd.found"] += result.found


def _count_wins(counts: Counter, args, kwargs, result) -> None:
    game_id = args[0]
    counts[f"reduction.wins.g{game_id}"] += result.successes.get(game_id, 0)


def _count_extracted(counts: Counter, args, kwargs, result) -> None:
    counts["reduction.extracted"] += result is not None


def _run_game_label(game_id, *args, **kwargs) -> str:
    return f"reduction.run_game.g{game_id}"


# (module, attribute path, span label or label function, result hook)
TARGETS: tuple[tuple[str, str, Any, Callable | None], ...] = (
    ("cbfdh.f2", "systematic_form", "f2.systematic_form", None),
    ("cbfdh.f2", "mat_vec_mul", "f2.mat_vec_mul", None),
    ("cbfdh.f2", "front_permutation", "f2.front_permutation", None),
    ("cbfdh.scheme", "keygen", "scheme.keygen", None),
    ("cbfdh.scheme", "sign", "scheme.sign", None),
    ("cbfdh.scheme", "decode_to_weight", "scheme.decode_to_weight", None),
    ("cbfdh.scheme", "verify", "scheme.verify", None),
    ("cbfdh.isd", "doom_attack", "isd.doom_attack", _count_doom),
    ("cbfdh.isd", "generalized_isd", "isd.generalized_isd", _count_iterations),
    ("cbfdh.isd", "WindowEnumerator.__init__", "isd.window_tables", None),
    ("cbfdh.isd", "WindowEnumerator.solutions", "isd.window_probe", None),
    ("cbfdh.hashing", "syndrome_hash", "hashing.syndrome_hash", None),
    ("cbfdh.hashing", "unrank_weight_pattern", "hashing.unrank_weight_pattern", None),
    ("cbfdh.reduction", "run_game", _run_game_label, _count_wins),
    ("cbfdh.reduction", "sign_without_secret", "reduction.sign_without_secret", None),
    ("cbfdh.reduction", "ZOracle.j_query", "reduction.j_query", None),
    ("cbfdh.reduction", "extract_doom_solution", "reduction.extract_doom_solution", _count_extracted),
    ("cbfdh.exponents", "doom_quantum_exponent", "exponents.doom_quantum_exponent", None),
)


class Tracer:
    """Spans and per-label totals of one traced pass."""

    def __init__(self) -> None:
        self.stack: list[list[int]] = []  # open spans: [span id, child ns]
        self.open_scopes: list[str] = []
        self.block: dict[str, list[int]] = {}  # label -> [calls, ns, self ns], raw
        self.done_blocks: list[dict[str, list[int]]] = []
        self.layers: dict[str, list[float]] = {}  # label -> [calls, ms, self ms]
        self.counts: Counter = Counter()
        self.op = 0
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.span_total = 0
        # span columns: id, parent id, op, label id, start ns, end ns, self ns
        self.spans = tuple(array("q") for _ in range(7))
        self._patches: list[tuple[Any, str, Any]] = []
        # import times of traced CLI children, raw per block, then scaled
        self._block_imports: list[int] = []
        self._done_imports: list[list[int]] = []
        self.import_ms: list[float] = []

    # --- patching -------------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "cbfdh" or name.startswith("cbfdh."))
        ]
        for mod_name, path, label, hook in TARGETS:
            owner = sys.modules[mod_name]
            if "." in path:  # a method: patch it on its class
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, attr, self._wrap(label, getattr(cls, attr), hook))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(label, original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, label: Any, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = label if isinstance(label, str) else label(*args, **kwargs)
            stack = tracer.stack
            parent = stack[-1][0] if stack else -1
            span_id = tracer.span_total
            tracer.span_total += 1
            for scope in tracer.open_scopes:
                tracer.counts[f"{scope}>{name}"] += 1
            frame = [span_id, 0]
            stack.append(frame)
            scoped = name in SCOPES
            if scoped:
                tracer.open_scopes.append(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.counts[f"{name}!{type(exc).__name__}"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                if scoped:
                    tracer.open_scopes.pop()
                tracer._close(name, span_id, parent, start, end, frame[1])
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _close(self, name: str, span_id: int, parent: int, start: int, end: int, child: int) -> None:
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        rec = self.block.get(name)
        if rec is None:
            rec = self.block[name] = [0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        if span_id < SPAN_CAP:
            for column, value in zip(
                self.spans,
                (span_id, parent, self.op, self._label_id(name), start, end, duration - child),
            ):
                column.append(value)

    def _label_id(self, name: str) -> int:
        got = self._label_ids.get(name)
        if got is None:
            got = self._label_ids[name] = len(self.labels)
            self.labels.append(name)
        return got

    # --- aggregation ----------------------------------------------------

    def end_block(self) -> None:
        self.done_blocks.append(self.block)
        self.block = {}
        self._done_imports.append(self._block_imports)
        self._block_imports = []

    def scale(self, factors: list[float]) -> None:
        """Sum the raw block totals into ``layers``, each block scaled to
        reference speed by its factor."""
        for block, imports, factor in zip(self.done_blocks, self._done_imports, factors):
            for name, (calls, total, own) in block.items():
                rec = self.layers.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total * factor / 1e6
                rec[2] += own * factor / 1e6
            self.import_ms.extend(ns * factor / 1e6 for ns in imports)

    def export(self) -> dict[str, Any]:
        """Raw state of a traced child process, for :meth:`absorb`."""
        columns = [list(col) for col in self.spans]
        return {"block": self.block, "counts": dict(self.counts),
                "labels": self.labels, "spans": columns}

    def absorb(self, child: dict[str, Any]) -> None:
        """Merge a traced child's raw state into the current block."""
        for name, (calls, total, own) in child["block"].items():
            rec = self.block.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        self.counts.update(child["counts"])
        self._block_imports.append(child["import_ns"])
        offset = self.span_total
        ids, parents, _, label_ids, starts, ends, selfs = child["spans"]
        for i in range(len(ids)):
            if offset + ids[i] >= SPAN_CAP:
                break
            row = (
                offset + ids[i],
                offset + parents[i] if parents[i] >= 0 else -1,
                self.op,
                self._label_id(child["labels"][label_ids[i]]),
                starts[i], ends[i], selfs[i],
            )
            for column, value in zip(self.spans, row):
                column.append(value)
        self.span_total += len(ids)

    def write_spans(self, path: str) -> None:
        """Spans as gzip'd TSV, raw nanoseconds; self_ns excludes children."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# spans={self.span_total} kept={len(self.spans[0])}\n")
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n")
            ids, parents, ops, label_ids, starts, ends, selfs = self.spans
            for i in range(len(ids)):
                fh.write(
                    f"{ids[i]}\t{parents[i]}\t{ops[i]}\t{self.labels[label_ids[i]]}"
                    f"\t{starts[i]}\t{ends[i]}\t{selfs[i]}\n"
                )

    # --- per-layer metrics ----------------------------------------------

    def _calls(self, name: str) -> int:
        return self.layers.get(name, (0, 0.0, 0.0))[0]

    def _ms(self, name: str) -> float:
        return self.layers.get(name, (0, 0.0, 0.0))[1]

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics named in BENCHMARK.json, except the cli
        layer and the overhead, which the runner measures.  A layer the
        workload never reaches reads 0."""
        c, ms, n = self._calls, self._ms, self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {
            "f2.systematic_form.calls": (c("f2.systematic_form"), "count"),
            "f2.systematic_form.ms": (ms("f2.systematic_form"), "ms"),
            "f2.systematic_form.singular_frac": (
                ratio(n["f2.systematic_form!SingularSelectionError"], c("f2.systematic_form")),
                "frac",
            ),
            "f2.mat_vec_mul.calls": (c("f2.mat_vec_mul"), "count"),
            "f2.mat_vec_mul.ms": (ms("f2.mat_vec_mul"), "ms"),
            "f2.front_permutation.calls": (c("f2.front_permutation"), "count"),
            "scheme.keygen.ms": (ms("scheme.keygen"), "ms"),
            "scheme.sign.calls": (c("scheme.sign"), "count"),
            "scheme.sign.ms": (ms("scheme.sign"), "ms"),
            "scheme.decode_to_weight.calls": (c("scheme.decode_to_weight"), "count"),
            "scheme.decode_to_weight.ms": (ms("scheme.decode_to_weight"), "ms"),
            "scheme.infosets_per_sign": (
                ratio(n["scheme.sign>f2.systematic_form"], c("scheme.sign")), "count",
            ),
            "scheme.verify.ms": (ms("scheme.verify"), "ms"),
            "isd.doom_attack.ms": (ms("isd.doom_attack"), "ms"),
            "isd.iterations": (n["isd.iterations"], "count"),
            "isd.targets_probed": (c("isd.window_probe"), "count"),
            "isd.us_per_probe": (
                ratio(1000 * ms("isd.doom_attack"), n["isd.doom_attack>isd.window_probe"]), "us",
            ),
            "isd.window_tables.ms": (ms("isd.window_tables"), "ms"),
            "isd.window_probe.ms": (ms("isd.window_probe"), "ms"),
            "isd.found_frac": (ratio(n["isd.found"], c("isd.doom_attack")), "frac"),
            "hashing.syndrome_hash.calls": (c("hashing.syndrome_hash"), "count"),
            "hashing.syndrome_hash.ms": (ms("hashing.syndrome_hash"), "ms"),
            "hashing.unrank_weight_pattern.calls": (c("hashing.unrank_weight_pattern"), "count"),
            "hashing.unrank_weight_pattern.ms": (ms("hashing.unrank_weight_pattern"), "ms"),
        }
        for g in range(6):
            out[f"reduction.run_game.g{g}.ms"] = (ms(f"reduction.run_game.g{g}"), "ms")
        for g in range(6):
            out[f"reduction.wins.g{g}"] = (n[f"reduction.wins.g{g}"], "count")
        out.update({
            "reduction.sign_without_secret.calls": (c("reduction.sign_without_secret"), "count"),
            "reduction.j_calls_per_sign": (
                ratio(
                    n["reduction.sign_without_secret>reduction.j_query"],
                    c("reduction.sign_without_secret"),
                ),
                "count",
            ),
            "reduction.extract_doom_solution.ms": (ms("reduction.extract_doom_solution"), "ms"),
            "reduction.extracted": (n["reduction.extracted"], "count"),
            "exponents.doom_quantum_exponent.calls": (c("exponents.doom_quantum_exponent"), "count"),
            "exponents.doom_quantum_exponent.ms": (ms("exponents.doom_quantum_exponent"), "ms"),
        })
        return out
