"""Engine-level wall-clock deadlines (XQDY_TIMEOUT) in both backends.

The robustness layer's promise is that a runaway query is cut off at the
next pipeline-stage boundary rather than hanging its worker thread.  The
workload here is the calculus's own nemesis: a cross join whose FLWOR
touches enough tuples that deadline checks fire many times per
millisecond, so a small budget is exceeded almost immediately.
"""

import gc
import time

import pytest

from repro.xquery import EngineConfig, XQueryEngine
from repro.xquery.errors import XQueryError, XQueryTimeoutError

#: a cross join plus a predicate: slow enough to blow a tiny budget, with
#: checks at the clause, tuple, and path-step boundaries along the way.
SLOW_QUERY = """
for $i in 1 to 300
for $j in 1 to 300
where ($i * $j) mod 7 = 0
return $i + $j
"""

FAST_QUERY = "for $i in 1 to 10 return $i * $i"

BACKENDS = ("treewalk", "algebra")

#: clause -> a FLWOR whose per-tuple work sits in that clause: the first
#: for clause expands at once, so only a per-tuple check stops the rest.
CLAUSE_QUERIES = {
    "for": "for $i in (1 to 20000) for $j in (sum(1 to 100) + $i) mod 7 return $j",
    "let": "for $i in (1 to 20000) let $j := (sum(1 to 100) + $i) mod 7 return $j",
    "where": "for $i in (1 to 20000) where sum(1 to 100) mod 7 = $i mod 7 return $i",
    "order": "for $i in (1 to 20000) order by (sum(1 to 100) + $i) mod 7 return $i",
    "return": "for $i in (1 to 20000) return (sum(1 to 100) + $i) mod 7",
}

TYPED_FUNCTION = "declare function local:f() as item()* {{ {body} }}; local:f()"


def _collector_paused():
    # the bounds time the engine's deadline checks, not the collector: a
    # gen-2 pass over a full test session's heap (triggered by these
    # queries' tuple dicts) can alone outlast a 50 ms budget.
    gc.collect()
    gc.disable()


@pytest.fixture(params=BACKENDS)
def engine(request):
    _collector_paused()
    try:
        yield XQueryEngine(EngineConfig(backend=request.param))
    finally:
        gc.enable()


@pytest.fixture(params=("treewalk", "executor", "compiler"))
def form(request):
    _collector_paused()
    try:
        yield request.param
    finally:
        gc.enable()


class TestTimeouts:
    def test_slow_query_times_out(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryTimeoutError) as excinfo:
            compiled.run(timeout=0.01)
        assert excinfo.value.code == "XQDY_TIMEOUT"

    def test_timeout_error_is_a_spec_error(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryError):
            compiled.run(timeout=0.01)

    def test_overrun_is_bounded(self, engine):
        # the acceptance bound is 2x the budget; engine-side checks are
        # much tighter than that for a tuple-at-a-time workload.
        budget = 0.05
        compiled = engine.compile(SLOW_QUERY)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=budget)
        assert time.monotonic() - started < 2 * budget

    def test_ample_timeout_completes_normally(self, engine):
        compiled = engine.compile(FAST_QUERY)
        assert compiled.run(timeout=60.0) == [i * i for i in range(1, 11)]

    def test_no_timeout_is_unlimited(self, engine):
        compiled = engine.compile(FAST_QUERY)
        assert compiled.run() == [i * i for i in range(1, 11)]

    def test_absolute_deadline_accepted(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        with pytest.raises(XQueryTimeoutError):
            compiled.run(deadline=time.monotonic() + 0.01)

    def test_timeout_caps_a_later_deadline(self, engine):
        # when both are given, the tighter one wins
        compiled = engine.compile(SLOW_QUERY)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=0.02, deadline=time.monotonic() + 60.0)
        assert time.monotonic() - started < 1.0

    def test_user_function_recursion_times_out(self, engine):
        source = """
        declare function local:spin($n) {
          if ($n = 0) then 0 else local:spin($n - 1) + local:spin($n - 1)
        };
        local:spin(24)
        """
        compiled = engine.compile(source)
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=0.02)

    @pytest.mark.parametrize("clause", list(CLAUSE_QUERIES))
    def test_each_clause_checks_the_deadline_per_tuple(self, form, clause):
        # each clause's per-tuple work is all the work, so only a per-tuple
        # check inside that clause stops it: on the treewalk, the executor
        # and the closure compiler (a FLWOR inside a typed function, which
        # the algebra hands to the compiler whole).
        backend = "treewalk" if form == "treewalk" else "algebra"
        source = CLAUSE_QUERIES[clause]
        if form == "compiler":
            source = TYPED_FUNCTION.format(body=source)
        compiled = XQueryEngine(EngineConfig(backend=backend)).compile(source)
        # explain builds the plan first, so no clause starts past the budget
        plan = compiled.explain()["text"]
        assert ("[typed signature]" in plan) == (form == "compiler")
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(timeout=0.05)
        assert time.monotonic() - started < 0.5

    def test_already_expired_deadline_fails_fast(self, engine):
        compiled = engine.compile(SLOW_QUERY)
        started = time.monotonic()
        with pytest.raises(XQueryTimeoutError):
            compiled.run(deadline=time.monotonic() - 1.0)
        assert time.monotonic() - started < 0.5

    def test_engine_evaluate_accepts_timeout(self, engine):
        with pytest.raises(XQueryTimeoutError):
            engine.evaluate(SLOW_QUERY, timeout=0.01)
        assert engine.evaluate(FAST_QUERY, timeout=60.0) == [
            i * i for i in range(1, 11)
        ]
