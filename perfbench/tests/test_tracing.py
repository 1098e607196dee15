"""Span bookkeeping: self time, nesting, wrappers."""

import threading
import types

import tracing


def span(sid, name, start, end, parent=-1, thread=1, rid=None, note=None):
    return (sid, name, start, end, parent, thread, rid, note)


def test_self_time_subtracts_only_own_children_across_threads():
    spans = [
        # thread 1: a 10 s parent with two children, one of them nested
        span(0, "core.fit", 0.0, 10.0, thread=1),
        span(1, "corpus.build", 1.0, 3.0, parent=0, thread=1),
        span(2, "w2v.fit", 4.0, 9.0, parent=0, thread=1),
        span(3, "parallel.map", 5.0, 8.0, parent=2, thread=1),
        # thread 2 overlaps thread 1 in time but is nobody's child
        span(4, "serve.dispatch", 2.0, 6.0, thread=2),
        span(5, "ann.search", 2.5, 3.5, parent=4, thread=2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == 10.0 - 2.0 - 5.0
    assert selfs[1] == 2.0
    assert selfs[2] == 5.0 - 3.0
    assert selfs[3] == 3.0
    assert selfs[4] == 4.0 - 1.0
    assert selfs[5] == 1.0
    # Self times of one thread add up to its root's wall time.
    assert sum(selfs[i] for i in range(4)) == 10.0


def test_self_time_clips_children_to_the_parent_interval():
    spans = [
        span(0, "a", 0.0, 4.0),
        span(1, "b", 3.0, 6.0, parent=0),  # ends after its parent
    ]
    assert tracing.self_times(spans)[0] == 3.0


def test_outermost_skips_nested_calls_of_the_same_layer():
    spans = [
        span(0, "corpus.build_sharded", 0.0, 5.0),
        span(1, "corpus.build", 0.5, 1.5, parent=0),
        span(2, "corpus.build", 2.0, 3.0, parent=0),
        span(3, "corpus.build", 6.0, 7.0),
    ]
    kept = tracing.outermost(spans, {"corpus.build", "corpus.build_sharded"})
    assert [s[0] for s in kept] == [0, 3]


def test_span_log_records_parent_thread_and_rid():
    log = tracing.SpanLog()

    def inner():
        return 1

    def outer():
        return log.call("inner", inner, (), {})

    log.set_rid(42)
    assert log.call("outer", outer, (), {}) == 1
    log.set_rid(None)

    def other_thread():
        log.call("inner", inner, (), {})

    worker = threading.Thread(target=other_thread)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for s in log.spans:
        by_name.setdefault(s[1], []).append(s)
    (outer_span,) = by_name["outer"]
    nested, alone = sorted(by_name["inner"], key=lambda s: s[4], reverse=True)
    assert nested[4] == outer_span[0] and nested[6] == 42
    assert alone[4] == -1 and alone[6] is None and alone[5] != nested[5]


def test_install_patches_every_lookup_and_keeps_static_methods(monkeypatch):
    home = types.ModuleType("fakehome")
    user = types.ModuleType("fakeuser")

    def build(x):
        return x + 1

    class Store:
        @staticmethod
        def load(x):
            return x * 2

    home.build, home.Store = build, Store
    user.build = build  # bound by "from fakehome import build"
    monkeypatch.setitem(__import__("sys").modules, "fakehome", home)
    monkeypatch.setitem(__import__("sys").modules, "fakeuser", user)
    monkeypatch.setattr(tracing, "TARGETS", [
        ("x.build", "fakehome:build", ("fakeuser",)),
        ("x.load", "fakehome:Store.load", ()),
        ("x.gone", "fakehome:missing", ()),
    ])
    log = tracing.SpanLog()
    assert tracing.install(log) == ["fakehome:missing"]
    assert user.build(1) == 2 and home.build(1) == 2
    assert Store.load(3) == 6 and Store().load(3) == 6
    assert [s[1] for s in log.spans] == ["x.build", "x.build", "x.load", "x.load"]


def test_a_required_target_that_did_not_resolve_or_run_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", [
        ("x.build", "fakehome:build", ()),
        ("x.load", "fakehome:Store.load", ()),
        ("x.gone", "fakehome:missing", ()),
    ])
    spans = [span(0, "x.build", 0.0, 1.0)]
    required = ["fakehome:build", "fakehome:Store.load", "fakehome:missing"]
    # Store.load resolved but never ran; missing did not resolve.
    assert tracing.unrecorded(spans, ["fakehome:missing"], required) == [
        "fakehome:Store.load", "fakehome:missing",
    ]
    # A skipped target no workload needs is not an error.
    assert tracing.unrecorded(spans, ["fakehome:missing"], ["fakehome:build"]) == []
