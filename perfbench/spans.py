"""Span recording around the program's layers, for the traced run only.

`Tracer.installed()` replaces each layer's entry point, under every name by
which a calling module binds it, with a wrapper that records a span (name,
start, end, parent) and the layer's counts; leaving the block puts the
originals back.  Self time is a span's duration minus its child spans.
Untraced runs never enter the block, so their modules stay untouched.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute it is bound under there, layer name)
BINDINGS = (
    ("ccss.core", "apply_op", "core.apply_op"),
    ("ccss.core", "apply_seq", "core.apply_seq"),
    ("ccss.core", "make_insert", "core.make_op"),
    ("ccss.core", "make_delete", "core.make_op"),
    ("ccss.core", "normalize", "core.normalize"),
    ("ccss.core", "transform_remote", "core.transform"),
    ("ccss.core", "transform_local", "core.transform"),
    ("ccss.peer", "make_insert", "core.make_op"),
    ("ccss.peer", "make_delete", "core.make_op"),
    ("ccss.peer", "normalize", "core.normalize"),
    ("ccss.peer", "transform_remote", "core.transform"),
    ("ccss.peer", "local_update", "peer.local_update"),
    ("ccss.peer", "prepare_sync", "peer.prepare_sync"),
    ("ccss.peer", "handle_sync", "peer.handle_sync"),
    ("ccss.peer", "prune_log", "peer.prune_log"),
    ("ccss.peer", "split_message", "peer.split_message"),
    ("ccss.peer", "encode_sync_message", "peer.wire.encode"),
    ("ccss.peer", "parse_sync_message", "peer.wire.parse"),
    ("ccss.conformance", "normalize", "core.normalize"),
    ("ccss.conformance", "apply_seq", "core.apply_seq"),
    ("ccss.conformance", "enumerate_valid_seqs", "conformance.enumerate_valid_seqs"),
    ("ccss.conformance", "check_confluence", "conformance.check_confluence"),
    ("ccss.conformance", "oracle_merge", "conformance.oracle_merge"),
    ("ccss.sim", "run_scenario", "sim.run_scenario"),
    ("ccss.sim", "reference_run", "sim.reference_run"),
    ("ccss.sim", "random_workload", "sim.random_workload"),
    ("ccss.cli", "main", "cli.main"),
)

# Spans kept in memory per run; a traced `fuzz-sweep` run opens millions.
SPAN_CAP = 100_000


def _log_len(tracer: "Tracer", replica) -> None:
    tracer.maxima["peer.log_len"] = max(tracer.maxima["peer.log_len"], len(replica.log))


# Counts taken at a layer boundary from the call's arguments and result.
def _count_normalize(t, args, result):
    t.counts["core.normalize.ops"] += len(args[0])


def _count_prepare(t, args, result):
    t.counts["peer.prepare_sync.log_entries"] += len(args[0].log)
    t.counts["peer.prepare_sync.payload_entries"] += len(result.payload)
    _log_len(t, args[0])


def _count_handle(t, args, result):
    t.counts["peer.handle_sync.received"] += len(args[1].payload)
    t.counts["peer.handle_sync.applied"] += len(result)
    _log_len(t, args[0])


def _count_update(t, args, result):
    _log_len(t, args[0])


def _count_prune(t, args, result):
    t.counts["peer.prune_log.removed"] += result


def _count_encode(t, args, result):
    t.counts["peer.wire.bytes"] += len(result.encode())


def _count_split(t, args, result):
    t.counts["peer.split_message.segments"] += len(result)


def _count_events(layer):
    def count(t, args, result):
        t.counts[f"{layer}.events"] += len(args[0].events)

    return count


COUNTERS = {
    "core.normalize": _count_normalize,
    "peer.prepare_sync": _count_prepare,
    "peer.handle_sync": _count_handle,
    "peer.local_update": _count_update,
    "peer.prune_log": _count_prune,
    "peer.wire.encode": _count_encode,
    "peer.split_message": _count_split,
    "sim.run_scenario": _count_events("sim.run_scenario"),
    "sim.reference_run": _count_events("sim.reference_run"),
}


class Tracer:
    """Spans and counts for every call through an installed wrapper."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.spans_dropped = 0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # per open span: [child seconds, span id]
        self._next_id = 1
        self.origin = perf_counter()

    def _wrap(self, layer: str, fn):
        count = COUNTERS.get(layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            # Spans are kept in the order they open, so a kept span's parent
            # is always kept too.
            record = None
            if len(self.spans) < SPAN_CAP:
                record = [span_id, parent, layer, 0.0, 0.0]
                self.spans.append(record)
            else:
                self.spans_dropped += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                elapsed = t1 - t0
                self.self_s[layer] += elapsed - frame[0]
                self.calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
                if record is not None:
                    record[3], record[4] = t0, t1
            if count is not None:
                count(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        originals = []
        try:
            for module_name, attr, layer in BINDINGS:
                module = importlib.import_module(module_name)
                originals.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(layer, getattr(module, attr)))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, parent, layer, t0, t1 in self.spans:
                record = {
                    "id": span_id,
                    "parent": parent,
                    "name": layer,
                    "start": t0 - self.origin,
                    "end": t1 - self.origin,
                }
                out.write(json.dumps(record) + "\n")

    def layer_metrics(self, episodes: int, overhead_pct: float) -> dict:
        """Per-layer figures per traced episode, in BENCHMARK.json's order."""
        per = 1.0 / max(episodes, 1)
        c = self.counts

        def self_s(layer):
            return self.self_s[layer] * per, "s"

        def count(name, unit="count"):
            return c[name] * per, unit

        def ratio(part, whole):
            return (c[part] / c[whole] if c[whole] else 0.0), "ratio"

        values = {
            "core.apply_op.self_s": self_s("core.apply_op"),
            "core.apply_op.calls": (self.calls["core.apply_op"] * per, "count"),
            "core.make_op.self_s": self_s("core.make_op"),
            "core.normalize.self_s": self_s("core.normalize"),
            "core.normalize.ops": count("core.normalize.ops"),
            "core.transform.self_s": self_s("core.transform"),
            "core.apply_seq.self_s": self_s("core.apply_seq"),
            "peer.local_update.self_s": self_s("peer.local_update"),
            "peer.prepare_sync.self_s": self_s("peer.prepare_sync"),
            "peer.prepare_sync.log_entries": count("peer.prepare_sync.log_entries"),
            "peer.prepare_sync.payload_entries": count("peer.prepare_sync.payload_entries"),
            "peer.prepare_sync.useful_ratio": ratio(
                "peer.prepare_sync.payload_entries", "peer.prepare_sync.log_entries"
            ),
            "peer.handle_sync.self_s": self_s("peer.handle_sync"),
            "peer.handle_sync.received": count("peer.handle_sync.received"),
            "peer.handle_sync.applied": count("peer.handle_sync.applied"),
            "peer.handle_sync.applied_ratio": ratio(
                "peer.handle_sync.applied", "peer.handle_sync.received"
            ),
            "peer.prune_log.self_s": self_s("peer.prune_log"),
            "peer.prune_log.removed": count("peer.prune_log.removed"),
            "peer.wire.encode_s": self_s("peer.wire.encode"),
            "peer.wire.parse_s": self_s("peer.wire.parse"),
            "peer.wire.bytes": count("peer.wire.bytes", "B"),
            "peer.split_message.self_s": self_s("peer.split_message"),
            "peer.split_message.segments": count("peer.split_message.segments"),
            "peer.log_len.max": (self.maxima["peer.log_len"], "count"),
            "sim.run_scenario.self_s": self_s("sim.run_scenario"),
            "sim.run_scenario.events": count("sim.run_scenario.events"),
            "sim.reference_run.self_s": self_s("sim.reference_run"),
            "sim.reference_run.events": count("sim.reference_run.events"),
            "sim.random_workload.self_s": self_s("sim.random_workload"),
            "conformance.enumerate_valid_seqs.self_s": self_s("conformance.enumerate_valid_seqs"),
            "conformance.check_confluence.self_s": self_s("conformance.check_confluence"),
            "conformance.oracle_merge.self_s": self_s("conformance.oracle_merge"),
            "cli.main.self_s": self_s("cli.main"),
            "trace.overhead_pct": (overhead_pct, "%"),
        }
        return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
