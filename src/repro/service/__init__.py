"""The bound-serving service: hot LP caches behind an HTTP front-end.

Bounds are the paper's cheap, cacheable product — built to be consumed
at optimizer-call rates — while evaluation is the expensive one.  This
package serves both from one long-lived process:
:class:`BoundService` owns the precomputed
:class:`~repro.core.StatisticsCatalog` and the warm
:class:`~repro.core.BoundSolver` caches (persistent HiGHS models under
``REPRO_LP=persistent``), :mod:`~repro.service.server` exposes them over
a minimal HTTP/1.1 front-end, and every dispatched evaluation carries a
per-request :class:`~repro.evaluation.EvaluationBudget` so one oversized query
degrades or stops with a typed verdict instead of taking the process
down.  Under real concurrency the service is hardened three ways:
every cache layer is LRU under a byte/entry budget, an
:class:`~repro.service.admission.AdmissionController` caps and queues
``/evaluate`` (refusals are typed ``overloaded`` 429s; in-flight work
is never killed), and all shared state is lock- or thread-local-
disciplined.  See ``docs/service.md`` for the API reference and
runbook.
"""

from .admission import AdmissionController
from .protocol import (
    ERROR_CODES,
    BoundRequest,
    BoundResponse,
    EvaluateRequest,
    EvaluateResponse,
    ServiceError,
)
from .server import BoundClient, BoundServiceServer, start_server
from .service import BoundService

__all__ = [
    "ERROR_CODES",
    "AdmissionController",
    "BoundClient",
    "BoundRequest",
    "BoundResponse",
    "BoundService",
    "BoundServiceServer",
    "EvaluateRequest",
    "EvaluateResponse",
    "ServiceError",
    "start_server",
]
