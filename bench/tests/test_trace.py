"""Span arithmetic, the measurement window, and spans from forked workers."""

import multiprocessing
import threading

from bench.trace import Tracer, install


def _scripted_clock(scripts):
    """A clock that reads each thread's own scripted instants in order."""
    return lambda: next(scripts[threading.get_ident()])


def test_self_time_of_nested_spans_on_two_overlapping_threads(tmp_path):
    scripts = {threading.get_ident(): iter([0])}
    tracer = Tracer(tmp_path, clock=_scripted_clock(scripts))
    tracer.open_window()
    a_open, b_open, b_done = threading.Event(), threading.Event(), threading.Event()

    leaf = tracer.wrap("a.leaf", lambda: None)
    inner = tracer.wrap("a.inner", lambda: leaf())

    def outer_body():
        a_open.set()
        assert b_open.wait(5)  # B's span opens while A's outer span is open
        inner()
        assert b_done.wait(5)

    outer = tracer.wrap("a.outer", outer_body)
    child = tracer.wrap("b.child", lambda: None)

    def span_body():
        assert a_open.wait(5)
        b_open.set()
        child()

    span = tracer.wrap("b.span", span_body)

    def thread_a():
        # outer 0..100 ⊃ inner 10..40 ⊃ leaf 20..25
        scripts[threading.get_ident()] = iter([0, 10, 20, 25, 40, 100])
        outer()

    def thread_b():
        # span 5..60 ⊃ child 30..50
        scripts[threading.get_ident()] = iter([5, 30, 50, 60])
        span()
        b_done.set()

    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(5)
        assert not thread.is_alive()

    # [calls, total, self, units]: self excludes only same-thread children
    assert tracer.snapshot() == {
        "a.outer": [1, 100, 70, 0],
        "a.inner": [1, 30, 25, 0],
        "a.leaf": [1, 5, 5, 0],
        "b.span": [1, 55, 35, 0],
        "b.child": [1, 20, 20, 0],
    }


def test_only_spans_starting_inside_the_window_count(tmp_path):
    instants = iter([0, 5, 10, 20, 30, 40, 50, 60])
    tracer = Tracer(tmp_path, clock=lambda: next(instants))
    work = tracer.wrap("work", lambda: None)
    work()  # 0..5: before the window opens
    tracer.open_window()  # at 10
    work()  # 20..30
    tracer.close_window()  # at 40
    work()  # 50..: after it closes
    assert tracer.snapshot() == {"work": [1, 10, 10, 0]}


def test_children_are_counted_by_position_under_their_parent(tmp_path):
    tracer = Tracer(tmp_path, ordinal=["phase"])
    tracer.open_window()
    phase = tracer.wrap("phase", lambda: None)
    whole = tracer.wrap("generate", lambda: [phase() for _ in range(3)])
    whole()
    whole()
    table = tracer.snapshot()
    assert table["phase"][0] == 6
    assert [table[f"generate>phase#{k}"][0] for k in (1, 2, 3)] == [2, 2, 2]
    assert "generate>phase#4" not in table


def _call_times(function, times):
    for _ in range(times):
        function()


def test_a_forked_worker_writes_its_own_spans_at_clean_exit(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.open_window()
    work = tracer.wrap("worker.run", lambda: None)
    work()  # the parent's span must not leak into the child's tables
    process = multiprocessing.get_context("fork").Process(target=_call_times, args=(work, 3))
    process.start()
    process.join(10)
    assert process.exitcode == 0
    tracer.close_window()
    assert tracer.worker_snapshot()["worker.run"][0] == 3
    assert tracer.snapshot()["worker.run"][0] == 1


def test_install_reaches_every_module_that_imported_the_function(tmp_path):
    import repro.xquery.api as api
    from repro.xdm import ElementNode
    from repro.xmlio import serializer
    from repro.xquery import XQueryEngine

    original = serializer.serialize
    compile_method = XQueryEngine.compile
    tracer = Tracer(tmp_path)
    undo = install(
        tracer,
        [
            ("xmlio.serializer", "repro.xmlio.serializer:serialize", len),
            ("xquery.compile", "repro.xquery.api:XQueryEngine.compile", None),
        ],
    )
    try:
        assert api.serialize is serializer.serialize is not original
        tracer.open_window()
        assert api.serialize(ElementNode("a")) == "<a/>"
        assert XQueryEngine().compile("1 + 1").run() == [2]
    finally:
        undo()
    assert api.serialize is original and XQueryEngine.compile is compile_method
    table = tracer.snapshot()
    assert table["xmlio.serializer"][0] == 1 and table["xmlio.serializer"][3] == len("<a/>")
    assert table["xquery.compile"][0] == 1
