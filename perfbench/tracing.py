"""In-memory span tracing installed from outside the program.

The benchmark never edits ``src/``.  For a traced run it replaces the
public functions listed in :data:`TARGETS` with timing wrappers, at
every module attribute where the program looks them up (a name bound
by ``from x import f`` is patched in the importing module too).  Each
call becomes one span: name, start, end, parent span, thread and the
request id (``rid``) of the serve request being dispatched, if any.
Spans stay in a list in memory and are written out once, when the
traced process ends.

Spans recorded inside forked pool workers stay in the worker and are
lost; ``parallel.map_s`` covers that work from the parent.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter

#: (span name, "module:attribute" or "module:Class.attribute", lookups)
#: where ``lookups`` lists further modules that bound the same function
#: by name and therefore need the wrapper too.
TARGETS: list[tuple[str, str, tuple[str, ...]]] = [
    ("trace.load", "repro.io.csvio:read_trace_csv", ("repro.io", "repro.cli")),
    ("trace.merge", "repro.trace.merge:merge_traces", ("repro.core.pipeline", "repro.trace")),
    ("services.resolve", "repro.core.config:DarkVecConfig.resolve_service_map", ()),
    ("corpus.build", "repro.corpus.builder:CorpusBuilder.build", ()),
    ("corpus.build_sharded", "repro.core.sharding:build_corpus_sharded", ("repro.core.stages",)),
    ("w2v.vocab_build", "repro.w2v.vocab:Vocabulary.build", ()),
    ("w2v.vocab_merge", "repro.w2v.vocab:Vocabulary.merge", ()),
    ("w2v.vocab_restrict", "repro.w2v.vocab:Vocabulary.restricted_to", ()),
    ("w2v.vocab_streaming", "repro.core.sharding:build_vocab_streaming", ("repro.core.stages",)),
    ("w2v.fit", "repro.w2v.model:Word2Vec.fit", ()),
    ("parallel.pool_init", "repro.parallel.pool:WorkerPool.__init__", ()),
    ("parallel.map", "repro.parallel.pool:WorkerPool.map", ()),
    ("parallel.submit", "repro.parallel.pool:WorkerPool.submit", ()),
    ("ann.build", "repro.ann.base:build_index", (
        "repro.ann", "repro.core.pipeline", "repro.graph.knn_graph", "repro.knn.classifier",
    )),
    ("ann.search", "repro.ann.exact:ExactIndex.search", ()),
    ("ann.search", "repro.ann.ivf:IVFIndex.search", ()),
    ("ann.search", "repro.ann.ivfpq:IVFPQIndex.search", ()),
    ("ann.search", "repro.ann.hnsw:HNSWIndex.search", ()),
    ("ann.update", "repro.ann.ivf:IVFIndex.updated", ()),
    ("ann.update", "repro.ann.ivfpq:IVFPQIndex.updated", ()),
    ("ann.update", "repro.ann.hnsw:HNSWIndex.updated", ()),
    ("knn.predict", "repro.knn.classifier:CosineKnn.predict_rows", ()),
    ("knn.vote", "repro.knn.classifier:vote_encoded", ()),
    ("knn.loo", "repro.knn.loo:leave_one_out_predictions", (
        "repro.knn", "repro.core.pipeline", "repro.cli",
    )),
    ("graph.knn_graph", "repro.graph.knn_graph:build_knn_graph", (
        "repro.graph", "repro.core.pipeline", "repro.core.stages",
    )),
    ("graph.louvain", "repro.graph.louvain:louvain_communities", (
        "repro.graph", "repro.core.pipeline",
    )),
    ("store.save_state", "repro.core.pipeline:DarkVec.save_state", ()),
    ("store.load_state", "repro.core.pipeline:DarkVec.load_state", ()),
    ("store.artifact", "repro.store.cache:ArtifactStore.save", ()),
    ("store.artifact", "repro.store.cache:ArtifactStore.load", ()),
    ("core.fit", "repro.core.pipeline:DarkVec.fit", ()),
    ("core.update", "repro.core.pipeline:DarkVec.update", ()),
    ("serve.dispatch", "repro.serve.server:ServeServer.dispatch", ()),
    ("serve.lookup", "repro.serve.snapshot:ModelSnapshot.rows_of_ips", ()),
    ("serve.lookup", "repro.serve.snapshot:ModelSnapshot.row_of_ip", ()),
    ("serve.snapshot", "repro.serve.snapshot:ModelSnapshot.of", ()),
]


class SpanLog:
    """Append-only span store shared by every thread of one process.

    A span is the tuple ``(id, name, start, end, parent, thread, rid,
    note)``; ``parent`` is the id of the innermost open span of the
    same thread (-1 at top level) and ``note`` a small dict a wrapper
    may attach after the call (item counts, RSS).
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.started = perf_counter()
        #: seconds spent in notes, which the untraced program never runs
        self.note_s = 0.0
        #: TARGETS paths :func:`install` could not resolve
        self.skipped: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_rid(self, rid) -> None:
        """Tag spans this thread opens from now on with request ``rid``."""
        self._local.rid = rid

    def call(self, name: str, fn, args, kwargs, note=None):
        """Run ``fn(*args, **kwargs)`` inside one span named ``name``."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(sid, name, start, parent, {"error": True})
            raise
        end = perf_counter()
        extra = None
        if note is not None:
            # Outside the timed interval: the note may do real work
            # (counting pairs, reading RSS) that is not the layer's.
            extra = note(result, args, kwargs)
            self.note_s += perf_counter() - end
        self._close(sid, name, start, parent, extra, end)
        return result

    def _close(self, sid, name, start, parent, extra, end=None) -> None:
        end = perf_counter() if end is None else end
        self._stack().pop()
        rid = getattr(self._local, "rid", None)
        self.spans.append(
            (sid, name, start, end, parent, threading.get_ident(), rid, extra)
        )

    def overhead_s(self, calls: int = 20_000) -> float:
        """Time tracing added to this process: wrappers plus notes.

        The per-span cost is measured here, on this machine, as a
        wrapped call of a no-op against a direct one.
        """
        probe = SpanLog()

        def noop():
            return None

        t0 = perf_counter()
        for _ in range(calls):
            noop()
        direct = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            probe.call("probe", noop, (), {})
        wrapped = perf_counter() - t0
        return len(self.spans) * max(0.0, wrapped - direct) / calls + self.note_s

    def dump(self, path: str | Path) -> None:
        """Write the spans, the tracing cost and the unresolved targets
        as one JSON document."""
        wall_s = perf_counter() - self.started
        Path(path).write_text(json.dumps({
            "spans": self.spans, "wall_s": wall_s, "overhead_s": self.overhead_s(),
            "skipped": self.skipped,
        }))


def merge_logs(paths: list[Path]) -> tuple[list[tuple], float, list[str]]:
    """Spans of several traced processes in one list, the tracing cost
    as a percentage of their wall time, and every target some process
    could not resolve.

    Documents are the ones :meth:`SpanLog.dump` writes; span ids are
    offset per process so they stay distinct.
    """
    merged, offset, overhead_s, wall_s, skipped = [], 0, 0.0, 0.0, set()
    for path in paths:
        document = json.loads(Path(path).read_text())
        spans = document["spans"]
        for sid, name, start, end, parent, thread, rid, note in spans:
            merged.append((
                sid + offset, name, start, end,
                parent + offset if parent >= 0 else -1, thread, rid, note,
            ))
        offset += 1 + max((s[0] for s in spans), default=0)
        overhead_s += document["overhead_s"]
        wall_s += document["wall_s"]
        skipped.update(document["skipped"])
    return merged, 100.0 * overhead_s / wall_s if wall_s else 0.0, sorted(skipped)


def unrecorded(spans: list[tuple], skipped: list[str], required: list[str]) -> list[str]:
    """The ``required`` TARGETS paths a traced run did not measure.

    A path is missing when it did not resolve (the program renamed or
    removed the function) or when no span of its name was recorded
    (the program no longer calls it), either of which would make a
    per-layer figure read 0 as if the layer had not run.
    """
    names = {span[1] for span in spans}
    span_of = {path: name for name, path, _ in TARGETS}
    return [
        path for path in required
        if path in skipped or span_of.get(path) not in names
    ]


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Self time per span id: duration minus the union of its children.

    Children are the spans whose ``parent`` is the span's id; they ran
    on the span's own thread, so spans of other threads that overlap
    in time are never subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, _name, start, end, parent, *_ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = {}
    for sid, _name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[sid] = (end - start) - covered
    return result


def outermost(spans: list[tuple], names: set[str]) -> list[tuple]:
    """Spans named in ``names`` with no ancestor named in ``names``.

    Summing these gives a layer's wall time without counting a nested
    call of the same layer twice (``build_corpus_sharded`` calling
    ``CorpusBuilder.build`` per shard, ``Vocabulary.merge`` inside
    ``build_vocab_streaming``).
    """
    by_id = {span[0]: span for span in spans}
    kept = []
    for span in spans:
        if span[1] not in names:
            continue
        parent = span[4]
        nested = False
        while parent >= 0 and parent in by_id:
            if by_id[parent][1] in names:
                nested = True
                break
            parent = by_id[parent][4]
        if not nested:
            kept.append(span)
    return kept


def _resolve(path: str):
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return module, owner, name


def _wrap_function(log: SpanLog, span_name: str, fn, note):
    if span_name == "serve.dispatch":
        # The request's rid tags every span opened while it is served;
        # the program's dispatch ignores the extra field.
        def wrapper(*args, **kwargs):
            request = args[1] if len(args) > 1 else kwargs.get("request")
            log.set_rid(request.get("rid") if isinstance(request, dict) else None)
            try:
                return log.call(span_name, fn, args, kwargs, note)
            finally:
                log.set_rid(None)

    else:

        def wrapper(*args, **kwargs):
            return log.call(span_name, fn, args, kwargs, note)

    wrapper.__name__ = getattr(fn, "__name__", span_name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", span_name)
    wrapper.__doc__ = getattr(fn, "__doc__", None)
    wrapper.__wrapped__ = fn
    return wrapper


def install(log: SpanLog, notes: dict | None = None) -> list[str]:
    """Patch every :data:`TARGETS` entry; returns the skipped paths.

    ``notes`` maps a span name to a callable ``(result, args, kwargs)
    -> dict`` run after each call of that name.  Targets whose module
    or attribute does not exist in this version of the program are
    skipped and kept in ``log.skipped``: a backend a workload does not
    use may go away, and :func:`unrecorded` fails a traced run whose
    workload needs a skipped target.
    """
    notes = notes or {}
    for span_name, path, lookups in TARGETS:
        try:
            module, owner, name = _resolve(path)
        except (ImportError, AttributeError):
            log.skipped.append(path)
            continue
        note = notes.get(span_name)
        if isinstance(owner, type):
            raw = owner.__dict__.get(name)
            if raw is None:
                log.skipped.append(path)
                continue
            if isinstance(raw, staticmethod):
                setattr(owner, name, staticmethod(
                    _wrap_function(log, span_name, raw.__func__, note)
                ))
            elif isinstance(raw, classmethod):
                setattr(owner, name, classmethod(
                    _wrap_function(log, span_name, raw.__func__, note)
                ))
            else:
                setattr(owner, name, _wrap_function(log, span_name, raw, note))
        else:
            fn = getattr(owner, name, None)
            if fn is None:
                log.skipped.append(path)
                continue
            wrapped = _wrap_function(log, span_name, fn, note)
            setattr(owner, name, wrapped)
            for other in lookups:
                try:
                    mod = importlib.import_module(other)
                except ImportError:
                    continue
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, wrapped)
    return log.skipped
