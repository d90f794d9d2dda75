"""The bound-serving service: hot caches behind a request interface.

:class:`BoundService` is the long-lived object the ROADMAP's
"millions of users" direction asks for: it owns one
:class:`~repro.core.StatisticsCatalog` (degree sequences and norms
computed once per database) and one :class:`~repro.core.BoundSolver`
(constraint skeletons, warm persistent HiGHS models under
``REPRO_LP=persistent``, and a result memo), and answers cardinality-
bound requests at optimizer-call rates — the warm path (a repeated
sub-plan during join-order search) is a dictionary hit plus JSON, well
under a millisecond.

The service is built for **sustained concurrent traffic** (the HTTP
front-end is one thread per connection):

* every shared structure is either read-only after construction or
  mutated under ``self._lock`` / the solver's own lock — the warm
  ``/bound`` path takes each lock for a dictionary operation, never
  for LP work, and whether a solve was a memo hit is read from the
  solver's *thread-local* :attr:`~repro.core.BoundSolver.last_solve_cached`
  flag (shared-counter before/after comparisons are racy);
* every cache layer (parsed queries, per-query statistics, the
  solver's result and assembly memos — an assembly entry carries its
  warm model) is LRU under one configurable byte budget, so diverse or
  adversarial query-text traffic cannot grow the process without bound
  — evictions are counted and surfaced in :meth:`metrics`;
* ``/evaluate`` — the expensive product — sits behind an
  :class:`~repro.service.admission.AdmissionController`: a concurrency
  cap, a bounded timed queue, and a typed ``overloaded`` refusal
  (HTTP 429) beyond both.  Bounds are never queued.  Admitted
  evaluations still carry their per-request
  :class:`~repro.evaluation.EvaluationBudget`, so an oversized query
  degrades along the proven ladder or stops with a typed ``budget-*``
  verdict instead of taking the process down.

The service is transport-agnostic; :mod:`repro.service.server` puts an
HTTP front-end on it, and tests/benchmarks call it directly.
"""

from __future__ import annotations

import math
import os
import threading
import time
from collections import Counter, deque

from ..core import (
    BoundSolver,
    LruCache,
    StatisticsCatalog,
    active_lp_mode,
    product_form,
)
from ..evaluation import (
    CancellationToken,
    EvaluationCancelled,
    EvaluationDeadlineExceeded,
    EvaluationGovernor,
    MemoryBudgetExceeded,
    ResourceGovernanceError,
    budget_from_spec,
    generic_join,
)
from ..query import ConjunctiveQuery, parse_query
from ..relational import Database
from ..relational.columnar import CountSink
from .admission import AdmissionController
from .protocol import (
    BoundRequest,
    BoundResponse,
    EvaluateRequest,
    EvaluateResponse,
    ServiceError,
    encode_float,
)

__all__ = ["BoundService"]

#: Per-endpoint latency samples kept for the /metrics percentiles.
_LATENCY_WINDOW = 8192

#: How a single ``cache_bytes`` budget is apportioned across the cache
#: layers.  Statistics sets and solved results dominate per-entry size;
#: parsed queries are tiny.  Deterministic so capacity planning can
#: reason about it (docs/service.md).
_CACHE_SHARES = {
    "queries": 0.05,
    "statistics": 0.35,
    "results": 0.35,
    "assemblies": 0.25,
}

_VERDICT_CODES = {
    MemoryBudgetExceeded: "budget-memory",
    EvaluationDeadlineExceeded: "budget-deadline",
    EvaluationCancelled: "budget-cancelled",
}


def _percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty sorted sample list.

    The explicit nearest-rank rule: the q-th percentile is the smallest
    sample whose cumulative share is ≥ q, i.e. index ``ceil(q·n) - 1``
    (clamped).  ``round()`` on the rank is wrong twice over: banker's
    rounding sends even-sample midpoints *down* a rank, and
    ``q·(n-1)`` scaling reports p50 of ``[1, 2, 3, 4]`` as 3 — the
    nearest-rank p50 is 2.
    """
    rank = math.ceil(q * len(samples)) - 1
    return samples[max(0, min(len(samples) - 1, rank))]


class BoundService:
    """Precomputed statistics + hot solver caches behind request methods.

    Parameters
    ----------
    db:
        The served database; statistics are extracted lazily (or up
        front via :meth:`precompute`) and cached for the process's life.
    ps:
        The norm family collected per query (requests may narrow it via
        ``ps`` or ``family`` but every request is served from this
        superset's statistics, so distinct families share one catalog
        pass; a request naming a norm outside it is a ``bad-request``).
    cache_bytes:
        Total byte budget across the query/statistics caches and the
        solver's result/assembly memos, apportioned by
        :data:`_CACHE_SHARES`.  The assemblies' share also holds the
        normal cone's candidate sets and, under ``REPRO_LP=persistent``,
        each assembly's warm HiGHS model.  ``None`` (default) leaves the
        caches unbounded.
    max_concurrent_evaluations:
        ``/evaluate`` concurrency cap (default: half the cores, ≥ 1).
    max_evaluate_queue:
        Waiters admitted beyond the cap (default: 2 × the cap).
    evaluate_queue_timeout:
        Seconds a waiter may queue before the typed 429 refusal.
    """

    def __init__(
        self,
        db: Database,
        ps: tuple[float, ...] = (1.0, 2.0, float("inf")),
        *,
        cache_bytes: int | None = None,
        max_concurrent_evaluations: int | None = None,
        max_evaluate_queue: int | None = None,
        evaluate_queue_timeout: float = 2.0,
    ) -> None:
        if cache_bytes is not None and cache_bytes < 1:
            raise ValueError("cache_bytes must be ≥ 1")
        self._db = db
        self._ps = tuple(float(p) for p in ps)
        self._catalog = StatisticsCatalog(db)
        share = dict.fromkeys(_CACHE_SHARES, None)
        if cache_bytes is not None:
            share = {
                layer: max(1, int(cache_bytes * fraction))
                for layer, fraction in _CACHE_SHARES.items()
            }
        self._solver = BoundSolver(
            result_cache_bytes=share["results"],
            assembly_cache_bytes=share["assemblies"],
        )
        self._queries: LruCache = LruCache(share["queries"])
        self._statistics: LruCache = LruCache(share["statistics"])
        self._cache_bytes = cache_bytes
        if max_concurrent_evaluations is None:
            max_concurrent_evaluations = max(1, (os.cpu_count() or 2) // 2)
        if max_evaluate_queue is None:
            max_evaluate_queue = 2 * max_concurrent_evaluations
        self._admission = AdmissionController(
            max_concurrent_evaluations,
            max_evaluate_queue,
            evaluate_queue_timeout,
        )
        self._lock = threading.Lock()
        # monotonic: an NTP step must not make uptime jump or go negative
        self._started = time.monotonic()
        self.requests = Counter()
        self.errors = Counter()
        self.statistics_hits = 0
        self.statistics_misses = 0
        self._latencies: dict[str, deque] = {
            "bound": deque(maxlen=_LATENCY_WINDOW),
            "evaluate": deque(maxlen=_LATENCY_WINDOW),
        }

    @property
    def database(self) -> Database:
        return self._db

    @property
    def solver(self) -> BoundSolver:
        return self._solver

    @property
    def catalog(self) -> StatisticsCatalog:
        return self._catalog

    @property
    def admission(self) -> AdmissionController:
        return self._admission

    # ------------------------------------------------------------------
    def precompute(self, query_texts: list[str] | tuple[str, ...]) -> int:
        """Warm every cache layer for a known workload of query templates.

        One batched catalog pass (each degree sequence once, multi-p
        norm batches) plus one solve per template: after this, a request
        for any warmed template is a result-memo hit.  Returns the number of
        templates warmed.  Safe against a live server: the statistics
        cache is only ever touched under ``self._lock``, so warming
        cannot lose or clobber entries written by concurrent requests.
        """
        queries = [self._parse(text) for text in query_texts]
        stat_sets = self._catalog.precompute(queries, ps=self._ps)
        for query, stats in zip(queries, stat_sets):
            with self._lock:
                stats = self._statistics.add(self._stats_key(query), stats)
            self._solver.solve(stats, query=query)
        return len(queries)

    # ------------------------------------------------------------------
    def _parse(self, text: str) -> ConjunctiveQuery:
        # lock-free recency-neutral probe (atomic dict read); the lock
        # is taken only to bump LRU recency or store a fresh parse
        cached = self._queries.peek(text)
        if cached is not None:
            with self._lock:
                self._queries.touch(text)
            return cached
        try:
            query = parse_query(text)
        except ValueError as exc:
            raise ServiceError("parse-error", str(exc)) from exc
        for atom in query.atoms:
            if atom.relation not in self._db:
                raise ServiceError(
                    "unknown-relation",
                    f"query names relation {atom.relation!r}; the service "
                    f"holds {sorted(self._db)}",
                )
        with self._lock:
            return self._queries.add(text, query)

    def _stats_key(self, query: ConjunctiveQuery) -> str:
        # the canonical rendering: textually different but equivalent
        # request strings share one statistics entry
        return str(query)

    def _statistics_for(self, query: ConjunctiveQuery):
        key = self._stats_key(query)
        with self._lock:
            stats = self._statistics.get(key)
            if stats is not None:
                self.statistics_hits += 1
                return stats
            self.statistics_misses += 1
        stats = self._catalog.statistics_for(query, ps=self._ps)
        with self._lock:
            return self._statistics.add(key, stats)

    def _record(self, endpoint: str, elapsed_ms: float) -> None:
        with self._lock:
            self.requests[endpoint] += 1
            self._latencies[endpoint].append(elapsed_ms)

    def _fail(self, endpoint: str, error: ServiceError) -> ServiceError:
        with self._lock:
            self.requests[endpoint] += 1
            self.errors[error.code] += 1
        return error

    def _evaluate_latency_hint(self) -> float:
        """A cheap recent-latency estimate (seconds) for retry-after."""
        with self._lock:
            recent = list(self._latencies["evaluate"])[-32:]
        if not recent:
            return 0.0
        return (sum(recent) / len(recent)) / 1e3

    def cache_bytes_used(self) -> int:
        """Total bytes currently charged against the cache budget."""
        with self._lock:
            service_bytes = (
                self._queries.current_bytes + self._statistics.current_bytes
            )
        return service_bytes + sum(
            layer["bytes"] or 0 for layer in self._solver.cache_stats().values()
        )

    # ------------------------------------------------------------------
    def bound(self, request: BoundRequest) -> BoundResponse:
        """Answer one cardinality-bound request from the hot caches."""
        start = time.perf_counter()
        try:
            query = self._parse(request.query)
            stats = self._statistics_for(query)
            if request.cone not in ("auto", "polymatroid", "normal", "modular"):
                raise ServiceError(
                    "bad-request", f"unknown cone {request.cone!r}"
                )
            family = tuple(
                request.ps if request.family is None else request.family
            )
            unserved = set(family) - set(self._ps)
            if unserved:
                raise ServiceError(
                    "bad-request",
                    f"norms {sorted(unserved)} are not served; the service "
                    f"collects {sorted(self._ps)}",
                )
            try:
                if set(family) != set(self._ps):
                    # a narrower norm family is a family restriction of
                    # the cached statistics
                    result = self._solver.solve_family(
                        stats, family, query=query, cone=request.cone
                    )
                else:
                    result = self._solver.solve(
                        stats, query=query, cone=request.cone
                    )
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc)) from exc
            # thread-local, so concurrent requests cannot misattribute
            # each other's memo hits (a shared-counter before/after
            # comparison would)
            cached = self._solver.last_solve_cached
        except ServiceError as exc:
            raise self._fail("bound", exc)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self._record("bound", elapsed_ms)
        certificate = (
            product_form(result) if result.status == "optimal" else ""
        )
        return BoundResponse(
            log2_bound=result.log2_bound,
            bound=result.bound,
            cone=result.cone,
            status=result.status,
            norms_used=tuple(result.norms_used()),
            certificate=certificate,
            cached=cached,
            elapsed_ms=elapsed_ms,
        )

    # ------------------------------------------------------------------
    def evaluate(self, request: EvaluateRequest) -> EvaluateResponse:
        """Dispatch one *admitted, governed* evaluation (exact count).

        Admission first: beyond the concurrency cap the request waits
        in the bounded queue up to the configured timeout, beyond that
        it is refused with the typed ``overloaded`` 429 — in-flight
        evaluations always run to their own verdict.  The admitted
        request's budget is then enforced at every frontier-block
        boundary; soft pressure degrades (smaller blocks — results are
        bit-identical), a hard stop surfaces as a typed ``budget-*``
        :class:`ServiceError` with the governor's snapshot in the
        detail — the service keeps serving.
        """
        start = time.perf_counter()
        try:
            query = self._parse(request.query)
            try:
                budget = budget_from_spec(
                    memory=request.memory_budget,
                    deadline=request.deadline_seconds,
                )
            except ValueError as exc:
                raise ServiceError("bad-request", str(exc)) from exc
            with self._admission.admit(self._evaluate_latency_hint()):
                governor = (
                    EvaluationGovernor(budget, token=CancellationToken())
                    if budget is not None
                    else None
                )
                try:
                    run = generic_join(
                        query,
                        self._db,
                        frontier_block=request.frontier_block,
                        sink=CountSink(),
                        governor=governor,
                    )
                except ResourceGovernanceError as exc:
                    snapshot = exc.snapshot
                    raise ServiceError(
                        _VERDICT_CODES.get(type(exc), "budget-cancelled"),
                        snapshot.describe(),
                        detail={
                            "reason": snapshot.reason,
                            "nodes_visited": snapshot.nodes_visited,
                            "elapsed_seconds": snapshot.elapsed_seconds,
                            "memory_bytes": snapshot.memory_bytes,
                            "peak_memory_bytes": snapshot.peak_memory_bytes,
                            "ladder": list(snapshot.ladder),
                        },
                    ) from exc
        except ServiceError as exc:
            raise self._fail("evaluate", exc)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        self._record("evaluate", elapsed_ms)
        return EvaluateResponse(
            count=run.count,
            nodes_visited=run.nodes_visited,
            elapsed_ms=elapsed_ms,
            degradations=governor.ladder if governor is not None else (),
        )

    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Request counts, cache budgets/hit rates, admission state,
        and latency percentiles."""
        solver = self._solver
        with self._lock:
            latencies = {
                endpoint: sorted(samples)
                for endpoint, samples in self._latencies.items()
            }
            requests = dict(self.requests)
            errors = dict(self.errors)
            stats_hits = self.statistics_hits
            stats_misses = self.statistics_misses
            query_cache = self._queries.stats()
            statistics_cache = self._statistics.stats()
            uptime = time.monotonic() - self._started
        solver_caches = solver.cache_stats()
        latency_summary = {}
        for endpoint, samples in latencies.items():
            if samples:
                latency_summary[endpoint] = {
                    "count": len(samples),
                    "p50_ms": encode_float(_percentile(samples, 0.50)),
                    "p99_ms": encode_float(_percentile(samples, 0.99)),
                    "max_ms": encode_float(samples[-1]),
                }
            else:
                latency_summary[endpoint] = {"count": 0}
        total_bytes = (
            (query_cache["bytes"] or 0)
            + (statistics_cache["bytes"] or 0)
            + sum(layer["bytes"] or 0 for layer in solver_caches.values())
        )
        return {
            "uptime_seconds": uptime,
            "requests": requests,
            "errors": errors,
            "lp_mode": active_lp_mode(),
            "solver": {
                "assembly_hits": solver.assembly_hits,
                "assembly_misses": solver.assembly_misses,
                "result_hits": solver.result_hits,
                "solves": solver.solves,
                "persistent_resolves": solver.persistent_resolves,
                "cached_assemblies": solver.cached_assemblies(),
                "cached_results": solver.cached_results(),
            },
            "catalog": self._catalog.cache_stats(),
            "statistics_cache": {
                "hits": stats_hits,
                "misses": stats_misses,
            },
            "caches": {
                "budget_bytes": self._cache_bytes,
                "total_bytes": total_bytes,
                "queries": query_cache,
                "statistics": statistics_cache,
                "solver_results": solver_caches["results"],
                "solver_assemblies": solver_caches["assemblies"],
                # warm models live in solver_assemblies entries (their
                # bytes and evictions are counted there); this alias stays
                # while perfbench/service_mix.py reads its evictions
                "solver_models": {
                    "entries": solver_caches["assemblies"]["models"]
                },
            },
            "admission": self._admission.stats(),
            "latency": latency_summary,
        }
