"""Span recorder, outside-in wrappers for openevt's layers, and the
per-layer arithmetic the traced run reports.

Spans are recorded by wrapping the public names that callers inside
openevt look up (module functions and class methods); nothing in ``src/``
is changed. A span holds its name, start and end (``time.perf_counter``,
which is CLOCK_MONOTONIC on Linux and so comparable across processes),
its parent span, the recording thread and a few counts. Spans stay in
memory until the run writes them out.

Self time is a span's duration minus the part of its interval that its
child spans cover; children in other threads count once where they
overlap.
"""

import functools
import importlib
import json
import os
import threading
import time
import weakref
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float | None
    parent: int | None
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store. Each thread keeps its own stack of open spans;
    a thread whose stack is empty attaches its spans to ``adopter`` (the
    span of the call that started a worker pool), if one is set."""

    def __init__(self):
        self.spans = []
        self.adopter = None
        self._stacks = threading.local()
        self._lock = threading.Lock()
        self._next_id = 1

    def _stack(self) -> list:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else self.adopter
        thread = f"{os.getpid()}:{threading.get_ident()}"
        with self._lock:
            span = Span(self._next_id, name, time.perf_counter(), None,
                        parent, thread)
            self._next_id += 1
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span):
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def absorb(self, spans: list, parent: int):
        """Add spans recorded elsewhere (a child process), renumbered, with
        their roots attached to ``parent``."""
        with self._lock:
            base = self._next_id
            for s in spans:
                self.spans.append(Span(
                    s.id + base, s.name, s.start, s.end,
                    parent if s.parent is None else s.parent + base,
                    s.thread, dict(s.attrs)))
            self._next_id = base + max((s.id for s in spans), default=0) + 1

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def load_spans(path) -> list:
    with open(path) as fh:
        return [Span(**json.loads(line)) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# wrappers


class Wrappers:
    """Installs timing wrappers on openevt's public names and restores the
    originals on ``remove``. Untraced passes run with none installed."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.missing = []
        self._saved = []
        self._seen_dmin = weakref.WeakSet()

    def wrap(self, owner, attr: str, name: str, before=None, after=None,
             adopt: bool = False):
        original = getattr(owner, attr, None)
        if original is None:  # renamed or removed: its metrics read 0
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        rec = self.rec

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            span = rec.open(name)
            previous = rec.adopter
            if adopt:
                rec.adopter = span.id
            try:
                result = original(*args, **kwargs)
            finally:
                if adopt:
                    rec.adopter = previous
                rec.close(span)
            if after:
                span.attrs.update(after(args, result, state))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        mod = {m: importlib.import_module(f"openevt.{m}") for m in
               ("neighbors", "evt", "gpdc", "gevc", "evm", "harness", "cli")}
        index_cls = mod["neighbors"].NeighborIndex
        w = self.wrap

        def first_dmin(args):
            fresh = args[0] not in self._seen_dmin
            self._seen_dmin.add(args[0])
            return fresh

        def counters(args):
            return args[0].index.counters.snapshot()

        def counter_delta(args, _result, before):
            queries, returned = args[0].index.counters.snapshot()
            return {"queries": queries - before[0],
                    "returned": returned - before[1]}

        w(index_cls, "__init__", "neighbors.build")
        w(index_cls, "leave_one_out_smallest", "neighbors.loo")
        w(index_cls, "dmin_vector", "neighbors.dmin_vector", before=first_dmin,
          after=lambda a, r, fresh: {"first": int(fresh)})
        w(index_cls, "k_smallest_distances", "neighbors.knn_row")
        w(index_cls, "batch_k_smallest", "neighbors.knn_batch",
          after=lambda a, r, s: {"rows": int(r.shape[0])})
        w(index_cls, "insert", "neighbors.insert",
          after=lambda a, r, s: {"changed": len(r)})
        iters = lambda a, r, s: {"iters": int(r[3].sum())}  # noqa: E731
        w(mod["evt"], "fit_weibull_rows", "evt.fit_weibull_rows", after=iters)
        w(mod["evm"], "fit_weibull_rows", "evt.fit_weibull_rows", after=iters)
        w(mod["gpdc"], "fit", "gpdc.fit")
        w(mod["gpdc"].GpdcModel, "score", "gpdc.score", before=counters,
          after=counter_delta)
        w(mod["gpdc"].GpdcModel, "decision_stats", "gpdc.decision_stats")
        w(mod["gpdc"].GpdcModel, "unknownness", "gpdc.unknownness")
        w(mod["gevc"], "fit", "gevc.fit")
        w(mod["gevc"], "reversed_weibull_fit", "gevc.reversed_weibull_fit")
        w(mod["gevc"].GevcModel, "score", "gevc.score", before=counters,
          after=counter_delta)
        w(mod["gevc"].GevcModel, "update", "gevc.update")
        w(mod["evm"], "fit", "evm.fit")
        w(mod["evm"].EvmModel, "membership_batch", "evm.membership",
          after=lambda a, r, s: {"rows": int(r.shape[0])})
        w(mod["evm"].EvmModel, "membership", "evm.membership",
          after=lambda a, r, s: {"rows": 1})
        w(mod["harness"], "run_oletter", "harness.run_oletter", adopt=True)
        w(mod["cli"], "save_model", "serialize.save")
        w(mod["cli"], "load_model", "serialize.load")
        w(mod["cli"], "load_dataset_csv", "data.parse_train",
          after=lambda a, r, s: {"rows": int(r.n)})
        w(mod["cli"], "load_points_csv", "data.parse_points",
          after=lambda a, r, s: {"rows": int(r.shape[0])})
        w(mod["cli"], "cmd_fit", "cli.cmd_fit")
        w(mod["cli"], "cmd_score", "cli.cmd_score")
        return self

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def children_of(spans) -> dict:
    kids = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)
    return kids


def self_time(span: Span, kids: dict) -> float:
    """Duration minus the part of the span that its children cover."""
    clipped = [(max(c.start, span.start), min(c.end, span.end))
               for c in kids.get(span.id, [])]
    return span.duration - covered([iv for iv in clipped if iv[1] > iv[0]])


# Per-layer metrics: name -> unit. COUNTERS must repeat exactly for a fixed
# seed; the timings are medians over traced passes.
LAYER_UNITS = {
    "neighbors.build_s": "s",
    "neighbors.loo_s": "s",
    "neighbors.dmin_s": "s",
    "neighbors.knn_row_s": "s",
    "neighbors.knn_row_calls": "count",
    "neighbors.knn_batch_s": "s",
    "neighbors.knn_batch_rows": "count",
    "neighbors.insert_s": "s",
    "neighbors.insert_calls": "count",
    "neighbors.insert_changed": "count",
    "neighbors.returned_per_query.gpdc": "count/query",
    "neighbors.returned_per_query.gevc": "count/query",
    "neighbors.import_s": "s",
    "evt.weibull_fit_s": "s",
    "evt.weibull_fit_calls": "count",
    "evt.weibull_iters": "count",
    "gpdc.fit_self_s": "s",
    "gpdc.score_self_s": "s",
    "gpdc.evidence_s": "s",
    "gevc.score_self_s": "s",
    "gevc.update_self_s": "s",
    "gevc.refits": "count",
    "evm.fit_s": "s",
    "evm.membership_s": "s",
    "evm.membership_rows": "count",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.model_bytes": "bytes",
    "data.parse_train_s": "s",
    "data.parse_points_s": "s",
    "data.rows_parsed": "count",
    "harness.run_oletter_self_s": "s",
    "harness.worker_busy_share": "share",
    "cli.fit_self_s": "s",
    "cli.score_self_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

COUNTERS = (
    "neighbors.knn_row_calls", "neighbors.knn_batch_rows",
    "neighbors.insert_calls", "neighbors.insert_changed",
    "neighbors.returned_per_query.gpdc", "neighbors.returned_per_query.gevc",
    "evt.weibull_fit_calls", "evt.weibull_iters", "gevc.refits",
    "evm.membership_rows", "serialize.model_bytes", "data.rows_parsed",
)


def layer_metrics(spans: list, jobs: int = 1) -> dict:
    """Per-layer totals for one traced pass. ``op.*`` spans are the
    benchmark's own end-to-end operations; their self time is the
    unattributed remainder. ``neighbors.import_s``, ``serialize.model_bytes``
    and ``trace.overhead_s`` are measured by the caller."""
    kids = children_of(spans)
    by_id = {s.id: s for s in spans}
    named = {}
    for s in spans:
        named.setdefault(s.name, []).append(s)

    def total(name, pick=lambda s: True):
        return sum(s.duration for s in named.get(name, []) if pick(s))

    def selfs(name):
        return sum(self_time(s, kids) for s in named.get(name, []))

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in named.get(name, []))

    def ancestors(s):
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
            yield s

    def per_query(name):
        queries = attr(name, "queries")
        return attr(name, "returned") / queries if queries else 0.0

    evidence = ("gpdc.decision_stats", "gpdc.unknownness")
    busy = 0.0
    for run in named.get("harness.run_oletter", []):
        threads = {}
        for c in kids.get(run.id, []):
            if c.thread != run.thread:
                threads.setdefault(c.thread, []).append((c.start, c.end))
        busy += sum(covered(iv) for iv in threads.values())
    protocol_wall = total("harness.run_oletter")
    out = {
        "neighbors.build_s": total("neighbors.build"),
        "neighbors.loo_s": total("neighbors.loo"),
        "neighbors.dmin_s": total("neighbors.dmin_vector",
                                  lambda s: s.attrs.get("first")),
        "neighbors.knn_row_s": total("neighbors.knn_row"),
        "neighbors.knn_row_calls": len(named.get("neighbors.knn_row", [])),
        "neighbors.knn_batch_s": total("neighbors.knn_batch"),
        "neighbors.knn_batch_rows": attr("neighbors.knn_batch", "rows"),
        "neighbors.insert_s": total("neighbors.insert"),
        "neighbors.insert_calls": len(named.get("neighbors.insert", [])),
        "neighbors.insert_changed": attr("neighbors.insert", "changed"),
        "neighbors.returned_per_query.gpdc": per_query("gpdc.score"),
        "neighbors.returned_per_query.gevc": per_query("gevc.score"),
        "evt.weibull_fit_s": total("evt.fit_weibull_rows"),
        "evt.weibull_fit_calls": len(named.get("evt.fit_weibull_rows", [])),
        "evt.weibull_iters": attr("evt.fit_weibull_rows", "iters"),
        "gpdc.fit_self_s": selfs("gpdc.fit"),
        "gpdc.score_self_s": selfs("gpdc.score"),
        "gpdc.evidence_s": sum(
            total(n, lambda s: not any(a.name in evidence for a in ancestors(s)))
            for n in evidence),
        "gevc.score_self_s": selfs("gevc.score"),
        "gevc.update_self_s": selfs("gevc.update"),
        "gevc.refits": sum(
            1 for s in named.get("gevc.reversed_weibull_fit", [])
            if not any(a.name == "gevc.fit" for a in ancestors(s))),
        "evm.fit_s": total("evm.fit"),
        "evm.membership_s": total("evm.membership"),
        "evm.membership_rows": attr("evm.membership", "rows"),
        "serialize.save_s": total("serialize.save"),
        "serialize.load_s": total("serialize.load"),
        "data.parse_train_s": total("data.parse_train"),
        "data.parse_points_s": total("data.parse_points"),
        "data.rows_parsed": (attr("data.parse_train", "rows")
                             + attr("data.parse_points", "rows")),
        "harness.run_oletter_self_s": selfs("harness.run_oletter"),
        "harness.worker_busy_share": (busy / (jobs * protocol_wall)
                                      if protocol_wall else 0.0),
        "cli.fit_self_s": selfs("cli.cmd_fit"),
        "cli.score_self_s": selfs("cli.cmd_score"),
        "trace.unattributed_s": sum(selfs(n) for n in named if n.startswith("op.")),
    }
    return out
