"""Layer spans recorded from outside the program.

:class:`Tracer` replaces public functions and methods of ``repro`` with
wrappers that record a span per call: name, start, end, parent span and the
id of the request (query or mutation) it belongs to.  Spans stay in memory;
:func:`layer_metrics` turns them into the per-layer metrics of
``BENCHMARK.json``.  A span's self time is its duration minus the time its
child spans cover.

Wrappers do nothing but call through in any process other than the one that
installed them, so forked pool workers stay unwrapped.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from collections import defaultdict

#: Spans that start a request; every span below one carries its request id.
ROOTS = ("engine.run_query", "engine.insert", "engine.delete")

#: Units of the per-layer metrics that are averages per set-up, query or
#: mutation request rather than totals.
PER_OP_UNITS = {
    **dict.fromkeys(
        ("data.encode_s", "engine.prefilter_s", "parallel.pool_start_s", "store.pack_s",
         "store.open_s"),
        "s/setup",
    ),
    **dict.fromkeys(
        ("engine.query_self_s", "order.domain_encode_s", "core.mapping_s", "core.tdom_mbb_s",
         "core.tdom_point_s", "core.dyadic_s", "index.build_s", "skyline.bbs_self_s",
         "delta.merge_s", "delta.cross_examine_s", "delta.side_skyline_s",
         "parallel.local_s", "parallel.merge_s"),
        "s/query",
    ),
    **dict.fromkeys(
        ("order.domain_encodes", "core.tdom_mbb_calls", "core.tdom_point_calls",
         "core.dyadic_ranges", "index.nodes_expanded", "skyline.points_examined",
         "kernels.dominance_checks", "parallel.merge_checks"),
        "1/query",
    ),
    **dict.fromkeys(("delta.tracker_s", "store.log_append_s"), "s/mutation"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "qid", "phase", "extra", "children_s")

    def __init__(self, name, start, parent, qid, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.qid = qid
        self.phase = phase
        self.extra = None
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


def _prefilter_extra(args, kwargs, result):
    dataset, frame = args[1], args[2]
    rows_in = len(frame) if frame is not None else len(dataset)
    return {"rows_in": rows_in, "rows_kept": len(result)}


def _stss_extra(args, kwargs, result):
    stats = result.stats
    return {
        "nodes_expanded": stats.nodes_expanded,
        "points_examined": stats.points_examined,
        "dominance_checks": stats.dominance_checks,
        "result_size": len(result.skyline_ids),
    }


def _targets():
    """``(span name, owner, attribute, extra)`` for every wrapped callable.

    A module-level function is replaced in every module that imported it by
    name, so calls through each reference are seen.
    """
    import repro.core.stss
    import repro.delta.merge
    import repro.engine.batch
    import repro.engine.encodings
    import repro.engine.prefilter
    import repro.parallel.executor
    import repro.store
    import repro.store.writer
    from repro.core.dyadic import DyadicIntervalCache
    from repro.core.mapping import TSSMapping
    from repro.core.tdominance import TDominanceWindow
    from repro.data.columns import EncodedFrame
    from repro.delta.candidates import BaseCandidateTracker
    from repro.engine.batch import BatchQueryEngine
    from repro.parallel.executor import ShardedExecutor
    from repro.store.delta import DeltaLog
    from repro.store.reader import DatasetStore

    return [
        ("engine.run_query", BatchQueryEngine, "run_query", None),
        ("engine.insert", BatchQueryEngine, "insert", None),
        ("engine.delete", BatchQueryEngine, "delete", None),
        ("data.encode", EncodedFrame, "from_dataset", None),
        ("engine.prefilter", repro.engine.prefilter, "prefilter_survivors", _prefilter_extra),
        ("engine.prefilter", repro.engine.batch, "prefilter_survivors", _prefilter_extra),
        ("engine.prefilter", repro.store.writer, "prefilter_survivors", _prefilter_extra),
        ("order.domain_encode", repro.engine.encodings, "encode_domain", None),
        ("core.mapping", TSSMapping, "__init__", None),
        ("core.tdom_mbb", TDominanceWindow, "block_rects", None),
        ("core.tdom_mbb", TDominanceWindow, "rect_suffix", None),
        ("core.tdom_point", TDominanceWindow, "block_points", None),
        ("core.tdom_point", TDominanceWindow, "point_suffix", None),
        ("core.dyadic", DyadicIntervalCache, "range_interval_set", None),
        ("index.build", TSSMapping, "build_rtree", None),
        ("skyline.bbs", repro.core.stss, "stss_skyline", _stss_extra),
        ("skyline.bbs", repro.engine.batch, "stss_skyline", _stss_extra),
        ("skyline.bbs", repro.parallel.executor, "stss_skyline", _stss_extra),
        ("parallel.pool_start", ShardedExecutor, "start", None),
        ("delta.cross_examine", repro.delta.merge, "cross_examine", None),
        ("delta.cross_examine", repro.engine.batch, "cross_examine", None),
        ("delta.tracker", BaseCandidateTracker, "remove_rows", None),
        ("delta.tracker", BaseCandidateTracker, "candidates", None),
        ("store.pack", repro.store.writer, "pack_dataset", None),
        ("store.pack", repro.store.writer, "pack_frame", None),
        ("store.pack", repro.store, "pack_dataset", None),
        ("store.open", DatasetStore, "open", None),
        ("store.log_append", DeltaLog, "append_inserts", None),
        ("store.log_append", DeltaLog, "append_deletes", None),
    ]


class Tracer:
    """Installs span wrappers and keeps the finished spans in memory."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self.phase = "setup"
        self._local = threading.local()
        self._qids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, extra):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            qid = parent.qid if parent is not None else next(tracer._qids)
            span = Span(name, time.perf_counter(), parent, qid, tracer.phase)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children_s += span.end - span.start
                tracer.spans.append(span)
            if extra is not None:
                span.extra = extra(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, owner, attribute, extra in _targets():
            raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, extra))
            else:
                wrapped = self._wrap(name, raw, extra)
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def export(self) -> list[list]:
        """Spans as plain lists (for a traced server to hand back)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        return [
            [
                s.name,
                s.start,
                s.end,
                index.get(id(s.parent)) if s.parent is not None else None,
                s.qid,
                s.phase,
                s.extra,
            ]
            for s in self.spans
        ]


def import_spans(rows: list[list]) -> list[Span]:
    """Rebuild spans from :meth:`Tracer.export` output."""
    spans = []
    for name, start, end, _parent, qid, phase, extra in rows:
        span = Span(name, start, None, qid, phase)
        span.end = end
        span.extra = extra
        spans.append(span)
    for span, row in zip(spans, rows):
        if row[3] is not None:
            span.parent = spans[row[3]]
            span.parent.children_s += span.duration
    return spans


def _sum_extra(spans, key) -> float:
    return sum(span.extra[key] for span in spans if span.extra)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[Span], *, setups: int, queries: int, mutations: int) -> dict:
    """Per-layer metrics from the spans of one traced run.

    Setup layers report seconds per set-up; query-path layers seconds (and
    counts) per answered query; mutation-path layers per mutation request.
    ``trace.coverage`` is the share of request time (root spans) that falls
    in a named layer span below the request.
    """
    setup = [s for s in spans if s.phase == "setup"]
    run = [s for s in spans if s.phase == "run"]
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in run:
        by_name[span.name].append(span)
    setup_by_name: dict[str, list[Span]] = defaultdict(list)
    for span in setup:
        setup_by_name[span.name].append(span)

    def per(value, count):
        return value / count if count else 0.0

    def total(name, source=by_name):
        return sum(s.duration for s in source[name])

    def self_total(name):
        return sum(s.self_s for s in by_name[name])

    prefilter = setup_by_name["engine.prefilter"]
    rows_in = _sum_extra(prefilter, "rows_in")
    bbs = by_name["skyline.bbs"]
    examined = _sum_extra(bbs, "points_examined")

    # The delta merge: per run_query holding a cross_examine child, the
    # stss_skyline child started last before it computes the delta side.
    children: dict[int, list[Span]] = defaultdict(list)
    for span in run:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    side_s = cross_s = 0.0
    for query in by_name["engine.run_query"]:
        kids = sorted(children[id(query)], key=lambda s: s.start)
        for i, kid in enumerate(kids):
            if kid.name == "delta.cross_examine":
                cross_s += kid.duration
                side = [k for k in kids[:i] if k.name == "skyline.bbs"]
                if side:
                    side_s += side[-1].duration

    # Compaction: a pack under a mutation request.
    compactions = [
        s for s in by_name["store.pack"]
        if s.root().name in ("engine.insert", "engine.delete")
        and (s.parent is None or s.parent.name != "store.pack")
    ]
    stalls = [s.root().duration * 1000.0 for s in compactions]
    covered = sum(s.self_s for s in run if s.name not in ROOTS)
    requests = sum(s.duration for s in run if s.parent is None and s.name in ROOTS)

    return {
        "data.encode_s": per(total("data.encode", setup_by_name), setups),
        "engine.prefilter_s": per(total("engine.prefilter", setup_by_name), setups),
        "engine.prefilter_keep_ratio": per(_sum_extra(prefilter, "rows_kept"), rows_in),
        "engine.query_self_s": per(self_total("engine.run_query"), queries),
        "order.domain_encode_s": per(total("order.domain_encode"), queries),
        "order.domain_encodes": per(len(by_name["order.domain_encode"]), queries),
        "core.mapping_s": per(total("core.mapping"), queries),
        "core.tdom_mbb_s": per(self_total("core.tdom_mbb"), queries),
        "core.tdom_mbb_calls": per(len(by_name["core.tdom_mbb"]), queries),
        "core.tdom_point_s": per(self_total("core.tdom_point"), queries),
        "core.tdom_point_calls": per(len(by_name["core.tdom_point"]), queries),
        "core.dyadic_s": per(total("core.dyadic"), queries),
        "core.dyadic_ranges": per(len(by_name["core.dyadic"]), queries),
        "index.build_s": per(total("index.build"), queries),
        "index.nodes_expanded": per(_sum_extra(bbs, "nodes_expanded"), queries),
        "skyline.bbs_self_s": per(self_total("skyline.bbs"), queries),
        "skyline.points_examined": per(examined, queries),
        "skyline.result_per_examined": per(_sum_extra(bbs, "result_size"), examined),
        "kernels.dominance_checks": per(_sum_extra(bbs, "dominance_checks"), queries),
        "parallel.pool_start_s": per(total("parallel.pool_start", setup_by_name), setups),
        "delta.merge_s": per(side_s + cross_s, queries),
        "delta.cross_examine_s": per(cross_s, queries),
        "delta.side_skyline_s": per(side_s, queries),
        "delta.tracker_s": per(total("delta.tracker"), mutations),
        "store.pack_s": per(
            sum(s.duration for s in setup_by_name["store.pack"]
                if s.parent is None or s.parent.name != "store.pack"),
            setups,
        ),
        "store.open_s": per(total("store.open", setup_by_name), setups),
        "store.log_append_s": per(total("store.log_append"), mutations),
        "store.log_appends": len(by_name["store.log_append"]),
        "store.compaction_s": sum(s.duration for s in compactions),
        "store.compactions": len(compactions),
        "store.compaction_stall_ms": _median(stalls),
        "trace.coverage": per(covered, requests),
    }
