"""Fault injection for the serving path.

Chaos testing needs failures on demand: the injector exposes one hook per
pipeline site (``compile``, ``export``, ``evaluate``) that the
:class:`~repro.querycalc.service.service.QueryService` calls if an
injector is configured.  Faults come in two flavours:

* **probabilistic** — each site fails (or stalls) with a configured rate,
  driven by a seeded RNG so chaos runs are reproducible;
* **deterministic poisoning** — :meth:`FaultInjector.poison` marks plan
  keys (by substring) to always fail with a chosen kind, which is how the
  regression suite builds "64 queries, 8 poisoned" batches.

Injected failures raise the *real* exception types the taxonomy
classifies (``XQueryStaticError`` for compile faults, ``XQueryDynamicError``
for dynamic ones, a plain :class:`InjectedFault` for internal ones), so
nothing downstream special-cases chaos: an injected fault exercises
exactly the handling a genuine one would.

Stalls sleep in small slices and watch the query's deadline, so a stalled
query is cut off by its budget (→ ``XQDY_TIMEOUT``) rather than holding a
worker for the full stall.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Set

from ...xquery.errors import (
    XQueryDynamicError,
    XQueryStaticError,
    XQueryTimeoutError,
)

#: sleep granularity while stalling; bounds how far past a deadline a
#: stalled query can run (well under the 2x-budget acceptance bound).
_STALL_SLICE = 0.005


class InjectedFault(RuntimeError):
    """An injected internal failure (not the query's fault)."""

    #: lets ``classify_error`` tag injected faults without isinstance games.
    query_error_kind = "internal"

    def __init__(self, site: str, plan_key: Optional[str] = None):
        where = f" for plan {plan_key!r}" if plan_key else ""
        super().__init__(f"injected {site} fault{where}")
        self.site = site
        self.plan_key = plan_key


@dataclass
class FaultConfig:
    """Rates and knobs for probabilistic fault injection.

    Rates are probabilities in [0, 1] checked once per hook call.
    ``eval_backends`` restricts evaluation faults to specific engine
    backends (e.g. ``{"algebra"}`` faults only the fast path, leaving
    the treewalk fallback clean — the graceful-degradation scenario);
    ``None`` faults every backend.
    """

    compile_failure_rate: float = 0.0
    export_failure_rate: float = 0.0
    eval_failure_rate: float = 0.0
    eval_stall_rate: float = 0.0
    #: how long a stalled evaluation sleeps (absent a tighter deadline).
    stall_seconds: float = 0.05
    #: what probabilistic eval failures raise: "internal" or "dynamic".
    eval_failure_kind: str = "internal"
    eval_backends: Optional[Set[str]] = None
    seed: int = 0

    @classmethod
    def parse(cls, spec: str) -> "FaultConfig":
        """Parse the CLI's ``--inject-faults`` spec.

        Comma-separated ``key=value`` pairs: ``compile``, ``export``,
        ``eval``, ``stall`` (rates), ``stall-ms``, ``kind``, ``seed``.
        Example: ``--inject-faults "eval=0.1,stall=0.05,stall-ms=40,seed=7"``.
        """
        config = cls()
        if not spec.strip():
            return config
        for pair in spec.split(","):
            key, _, value = pair.partition("=")
            key = key.strip()
            value = value.strip()
            if not value:
                raise ValueError(f"bad fault spec entry {pair!r}; want key=value")
            if key == "compile":
                config.compile_failure_rate = float(value)
            elif key == "export":
                config.export_failure_rate = float(value)
            elif key == "eval":
                config.eval_failure_rate = float(value)
            elif key == "stall":
                config.eval_stall_rate = float(value)
            elif key in ("stall-ms", "stall_ms"):
                config.stall_seconds = float(value) / 1000.0
            elif key == "kind":
                config.eval_failure_kind = value
            elif key == "seed":
                config.seed = int(value)
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return config


@dataclass
class _Poison:
    fragment: str
    kind: str  # "compile" | "dynamic" | "internal" | "timeout"


class FaultInjector:
    """Injects failures/stalls into the serving pipeline's hook points."""

    def __init__(self, config: Optional[FaultConfig] = None, **flags):
        if config is None:
            config = FaultConfig(**flags)
        elif flags:
            raise TypeError("pass either a config object or keyword flags, not both")
        self.config = config
        self._rng = random.Random(config.seed)
        self._lock = threading.Lock()
        self._poisons: list[_Poison] = []
        #: injected-fault counters by "site:kind", for observability/tests.
        self.injected: Dict[str, int] = {}

    # -- configuration -----------------------------------------------------------

    def poison(self, plan_key_fragment: str, kind: str = "internal") -> None:
        """Always fail plans whose key contains *plan_key_fragment*.

        ``kind`` selects the failure: ``compile`` faults the plan build,
        ``dynamic``/``internal`` fault evaluation, ``timeout`` stalls
        evaluation until the query's deadline cuts it off.
        """
        if kind not in ("compile", "dynamic", "internal", "timeout"):
            raise ValueError(f"unknown poison kind {kind!r}")
        with self._lock:
            self._poisons.append(_Poison(plan_key_fragment, kind))

    def clear_poisons(self) -> None:
        with self._lock:
            self._poisons.clear()

    # -- hooks (called by QueryService) ------------------------------------------

    def on_compile(self, plan_key: str) -> None:
        poison = self._poison_for(plan_key)
        if poison is not None and poison.kind == "compile":
            self._count("compile", "compile")
            raise XQueryStaticError(
                f"injected compile fault for plan {plan_key!r}", code="XPST0003"
            )
        if self._roll(self.config.compile_failure_rate):
            self._count("compile", "compile")
            raise XQueryStaticError(
                f"injected compile fault for plan {plan_key!r}", code="XPST0003"
            )

    def on_export(self) -> None:
        if self._roll(self.config.export_failure_rate):
            self._count("export", "internal")
            raise InjectedFault("export")

    def on_evaluate(self, plan_key, deadline=None, backend: Optional[str] = None):
        poison = self._poison_for(plan_key)
        if poison is not None:
            if poison.kind == "timeout":
                self._count("evaluate", "timeout")
                if deadline is not None:
                    # stall "forever"; the deadline cuts us off mid-sleep.
                    self._stall(deadline, seconds=3600.0)
                # no deadline to enforce: simulate an external watchdog so
                # a poisoned run can never hang a deadline-less test.
                self._stall(None, seconds=self.config.stall_seconds)
                raise XQueryTimeoutError(
                    f"injected stall for plan {plan_key!r} outlived the injector"
                )
            if poison.kind == "dynamic":
                self._count("evaluate", "dynamic")
                raise XQueryDynamicError(
                    f"injected dynamic fault for plan {plan_key!r}", code="FOER0000"
                )
            if poison.kind == "internal":
                self._count("evaluate", "internal")
                raise InjectedFault("evaluate", plan_key)
        backends = self.config.eval_backends
        if backends is not None and backend is not None and backend not in backends:
            return
        if self._roll(self.config.eval_stall_rate):
            self._count("evaluate", "stall")
            self._stall(deadline, seconds=self.config.stall_seconds)
        if self._roll(self.config.eval_failure_rate):
            if self.config.eval_failure_kind == "dynamic":
                self._count("evaluate", "dynamic")
                raise XQueryDynamicError(
                    f"injected dynamic fault for plan {plan_key!r}", code="FOER0000"
                )
            self._count("evaluate", "internal")
            raise InjectedFault("evaluate", plan_key)

    # -- observability -----------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.injected)

    # -- internals ---------------------------------------------------------------

    def _poison_for(self, plan_key) -> Optional[_Poison]:
        key = str(plan_key)
        with self._lock:
            for poison in self._poisons:
                if poison.fragment in key:
                    return poison
        return None

    def _roll(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        with self._lock:
            return self._rng.random() < rate

    def _count(self, site: str, kind: str) -> None:
        with self._lock:
            key = f"{site}:{kind}"
            self.injected[key] = self.injected.get(key, 0) + 1

    def _stall(self, deadline, seconds: float) -> None:
        """Sleep for *seconds*, but respect the query's deadline.

        The slice-and-check loop is what bounds a stalled query's overrun:
        it wakes every few milliseconds, and the moment the deadline has
        passed ``deadline.check`` raises ``XQDY_TIMEOUT``.
        """
        until = time.monotonic() + seconds
        while True:
            if deadline is not None:
                deadline.check("injected stall")
            now = time.monotonic()
            if now >= until:
                return
            limit = until - now
            if deadline is not None:
                limit = min(limit, max(deadline.at - now, 0.0) + _STALL_SLICE)
            time.sleep(min(_STALL_SLICE, limit))
