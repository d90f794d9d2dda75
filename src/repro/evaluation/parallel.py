"""Fault-tolerant parallel evaluation over Lemma 2.5 part combinations.

The Theorem 2.6 evaluator's part combinations are embarrassingly
parallel: each combination pins one Lemma 2.5 part per atom, parts are
disjoint row-slices, and the partitioned-evaluation suite established
that every output binding
survives in *exactly one* combination — counts add, spill segments
concatenate, no union pass.  :func:`evaluate_parallel` exploits that
with a shared-nothing fan-out: each part combination is shipped to a
``ProcessPoolExecutor`` worker that evaluates it into its own private
:class:`~repro.relational.columnar.SpillSink` (or an in-process
:class:`~repro.relational.columnar.CountSink` when the final sink never
needs values), and the supervisor merges the per-part results through
the final sink **in ascending part index** — exactly the order the
serial ``itertools.product`` loop visits them — so rows, row order,
counts, and meters are identical to :func:`~repro.evaluation.lp_join.\
evaluate_with_partitioning` for every sink, frontier block, and worker
count.

Supervision policy (:class:`SupervisionPolicy`):

* **Timeouts** — each attempt gets a wall-clock deadline; a worker that
  blows it is killed (the whole pool, since ``ProcessPoolExecutor``
  cannot kill one member) and the part is charged a failed attempt.
  In-flight parts that had *not* expired are re-queued without charge.
* **Retries with backoff** — a failed attempt re-queues the part after
  ``backoff_base · backoff_factor^(failures-1) + jitter`` seconds; the
  jitter draws from one seeded :class:`random.Random`, so a fixed
  policy replays the same schedule.
* **Crash detection** — a worker dying without cleanup (``os._exit``,
  ``SIGKILL``) breaks the pool; every in-flight part is charged one
  attempt and the pool is rebuilt.
* **Result integrity** — a "successful" part is only accepted after its
  spill segments re-open and validate
  (:meth:`~repro.relational.chunkstore.SegmentStore.attach`), so a
  truncated or corrupt segment fails the attempt instead of merging
  garbage.
* **Graceful degradation** — a part that exhausts its retries is
  re-run serially in the supervisor process with a smaller frontier
  block (and no fault injection); only if *that* fails does the run
  abort, raising :class:`~repro.relational.chunkstore.ChunkStoreError`
  when the last failure was segment corruption (naming the part) and
  :class:`PartFailedError` otherwise.

Checkpoint/resume: the run directory carries a ``manifest.json``
(written with the chunk store's atomic ``os.replace`` + directory-fsync
discipline) recording per-part status, attempts, row/node meters, and
segment names.  Re-invoking with ``resume=True`` on the same directory
validates the manifest's fingerprint against the new run's plan and
skips every completed part — their spilled segments are re-attached and
merged without re-evaluation, so an interrupted run completes
bit-identically to an uninterrupted one.  The fingerprint includes the
per-part variable order rule (``PART_ORDER``), which fixes each part's
row order, so segments written under another rule are never merged.

Fault injection for tests and chaos runs threads through
:mod:`repro.evaluation.faults`: the supervisor resolves the injector's
deterministic plan per ``(part, attempt)`` and ships the resulting
command into the worker.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from random import Random

from ..core.lp_bound import BoundResult
from ..query.query import ConjunctiveQuery
from ..relational import Database, OutputSink, Relation, kernels
from ..relational.chunkstore import (
    ChunkStoreError,
    SegmentStore,
    atomic_write_json,
)
from ..relational.columnar import ChunkedColumns, CountSink, SpillSink
from .faults import FaultCommand, FaultInjector
from .governor import (
    CancellationToken,
    EvaluationBudget,
    EvaluationGovernor,
    ResourceGovernanceError,
)
from .lp_join import PartitionedRun, plan_partitioned_evaluation
from .panda_algorithm import PART_ORDER, evaluate_part

__all__ = [
    "ParallelRun",
    "PartFailedError",
    "PartOutcome",
    "SupervisionPolicy",
    "evaluate_parallel",
]

_RUN_FORMAT = "repro-parallel-run/v1"
_MANIFEST_NAME = "manifest.json"


class PartFailedError(RuntimeError):
    """A part combination exhausted every recovery avenue."""

    def __init__(self, index: int, attempts: int, errors: list[str]) -> None:
        self.index = index
        self.attempts = attempts
        self.errors = list(errors)
        last = self.errors[-1] if self.errors else "unknown error"
        super().__init__(
            f"part {index} failed permanently after {attempts} "
            f"attempt(s): {last}"
        )


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervisor: timeout, retry budget, backoff, fallback.

    ``max_retries`` counts *extra* attempts after the first, so a part
    is tried ``max_retries + 1`` times before degradation kicks in.
    ``fallback_frontier_block`` bounds the degraded serial re-run's
    frontier (``None`` keeps the run's own ``frontier_block``).  The
    backoff jitter draws from ``Random(seed)``, one stream per run, so
    a fixed policy yields a reproducible retry schedule.
    """

    part_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.05
    seed: int = 0
    serial_fallback: bool = True
    fallback_frontier_block: int | None = 1024

    def backoff(self, failures: int, rng: Random) -> float:
        """Delay before retry number ``failures`` (1-based)."""
        if self.backoff_base <= 0 and self.backoff_jitter <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** max(
            0, failures - 1
        )
        if self.backoff_jitter > 0:
            delay += self.backoff_jitter * rng.random()
        return delay


@dataclass
class PartOutcome:
    """What happened to one part combination across the whole run."""

    index: int
    status: str  # "done" | "resumed" | "degraded"
    attempts: int
    n_rows: int
    nodes_visited: int
    segments: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    ladder: list[str] = field(default_factory=list)
    """Governor degradation steps the accepted attempt walked, in order."""


@dataclass
class ParallelRun(PartitionedRun):
    """A :class:`PartitionedRun` plus per-part supervision accounting.

    ``run_dir``/``manifest_path`` are ``None`` when the run used an
    ephemeral scratch directory (removed after a successful merge).
    """

    outcomes: list[PartOutcome] = field(default_factory=list)
    run_dir: Path | None = None
    manifest_path: Path | None = None

    @property
    def n_resumed(self) -> int:
        """Parts completed by a *previous* run and skipped here."""
        return sum(1 for o in self.outcomes if o.status == "resumed")

    @property
    def n_degraded(self) -> int:
        """Parts that fell back to the in-process serial path."""
        return sum(1 for o in self.outcomes if o.status == "degraded")

    @property
    def n_retried(self) -> int:
        """Parts that needed more than one attempt this run."""
        return sum(
            1
            for o in self.outcomes
            if o.status != "resumed" and o.attempts > 1
        )


@dataclass
class _PartTask:
    """Picklable work order for one (part, attempt)."""

    index: int
    attempt: int
    query: ConjunctiveQuery
    relations: dict[str, Relation]
    frontier_block: int | None
    needs_values: bool
    part_dir: str
    chunk_rows: int
    fault: FaultCommand | None
    kernel_mode: str = "auto"
    # the run budget with its deadline apportioned to this attempt's
    # remaining share (memory watermarks travel unchanged: one worker
    # holds one part at a time).  The cancellation token never ships —
    # cancellation is enforced by killing the pool.
    budget: EvaluationBudget | None = None


@dataclass
class _PartResult:
    """Picklable worker report: meters plus the spilled segment names."""

    index: int
    attempt: int
    n_rows: int
    nodes_visited: int
    segments: list[str]
    ladder: list[str] = field(default_factory=list)


def _run_part_task(task: _PartTask) -> _PartResult:
    """Evaluate one part combination (worker-process entry point).

    Values spill into the task's private
    :class:`~repro.relational.columnar.SpillSink` directory — only
    segment *names* travel back over the pipe; counting-mode parts
    return just their meters.  The segments are deliberately left on
    disk (no ``close()``): the supervisor owns their lifetime through
    the checkpoint manifest.

    The worker adopts the supervisor's *resolved* kernel mode before
    evaluating, so a spawned pool (no inherited module state) runs the
    same compiled/NumPy path as the parent process.  Kernel mode never
    enters the checkpoint fingerprint: both paths are bit-identical, so
    a run may legitimately be resumed under a different mode.
    """
    kernels.set_mode(task.kernel_mode)
    governor = None
    if task.budget is not None and task.budget.governs_anything:
        governor = EvaluationGovernor(
            task.budget, phase=f"part {task.index}"
        )
        governor.set_part(task.index)
    if task.fault is not None:
        if governor is None:
            task.fault.require_governor()
        else:
            governor.bias(*task.fault.governor_bias())
        task.fault.trigger_before_evaluation()
    db = Database(task.relations)
    if task.needs_values:
        spill = SpillSink(task.part_dir, chunk_rows=task.chunk_rows)
        spill.open(task.query.variables)
        run = evaluate_part(
            task.query,
            db,
            frontier_block=task.frontier_block,
            sink=spill,
            governor=governor,
        )
        spill.flush()
        paths = spill.store.segments()
        if task.fault is not None:
            task.fault.trigger_after_spill([str(p) for p in paths])
        return _PartResult(
            index=task.index,
            attempt=task.attempt,
            n_rows=spill.n_rows,
            nodes_visited=run.nodes_visited,
            segments=[p.name for p in paths],
            ladder=list(governor.ladder) if governor is not None else [],
        )
    counter = CountSink()
    counter.open(task.query.variables)
    run = evaluate_part(
        task.query,
        db,
        frontier_block=task.frontier_block,
        sink=counter,
        governor=governor,
    )
    if task.fault is not None:
        task.fault.trigger_after_spill([])
    return _PartResult(
        index=task.index,
        attempt=task.attempt,
        n_rows=counter.n_rows,
        nodes_visited=run.nodes_visited,
        segments=[],
        ladder=list(governor.ladder) if governor is not None else [],
    )


@dataclass
class _PartState:
    """Supervisor-side bookkeeping for one part combination."""

    index: int
    status: str = "pending"  # pending | done | degraded | resumed | failed
    attempts: int = 0
    n_rows: int = 0
    nodes_visited: int = 0
    segments: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    ladder: list[str] = field(default_factory=list)
    corrupt: bool = False  # last failure was a segment-integrity one

    def to_manifest(self) -> dict:
        return {
            "status": self.status,
            "attempts": self.attempts,
            "n_rows": self.n_rows,
            "nodes_visited": self.nodes_visited,
            "segments": list(self.segments),
            "errors": list(self.errors),
            "ladder": list(self.ladder),
        }


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcibly tear a pool down — the only way to stop a hung worker.

    ``ProcessPoolExecutor`` has no per-task cancellation once a task
    runs, so timeout enforcement kills every worker process and lets
    the supervisor rebuild the pool and re-queue the innocents.
    """
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - already-dead workers
            pass
    pool.shutdown(wait=False, cancel_futures=True)


def _load_checkpoint(
    path: Path, fingerprint: dict, states: list[_PartState]
) -> None:
    """Fold a prior run's manifest into ``states`` (resume).

    Completed parts (``done``/``degraded``) become ``resumed`` and are
    never re-evaluated; parts that were pending or failed restart from
    scratch with a fresh attempt budget.  A manifest written by a
    different configuration (fingerprint mismatch) or a foreign file is
    rejected rather than silently merging incompatible segments.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ChunkStoreError(
            f"checkpoint {path} is unreadable: {exc}"
        ) from exc
    if not isinstance(payload, dict) or payload.get("format") != _RUN_FORMAT:
        raise ChunkStoreError(
            f"{path} is not a parallel-run checkpoint manifest"
        )
    if payload.get("fingerprint") != fingerprint:
        raise ValueError(
            f"checkpoint at {path} was written by a different run "
            f"configuration: {payload.get('fingerprint')} != {fingerprint}"
        )
    for key, entry in (payload.get("parts") or {}).items():
        index = int(key)
        if not 0 <= index < len(states) or not isinstance(entry, dict):
            continue
        if entry.get("status") in ("done", "degraded", "resumed"):
            state = states[index]
            state.status = "resumed"
            state.attempts = int(entry.get("attempts", 1))
            state.n_rows = int(entry.get("n_rows", 0))
            state.nodes_visited = int(entry.get("nodes_visited", 0))
            state.segments = [str(s) for s in entry.get("segments", [])]
            state.errors = [str(e) for e in entry.get("errors", [])]
            state.ladder = [str(s) for s in entry.get("ladder", [])]


def evaluate_parallel(
    query: ConjunctiveQuery,
    db: Database,
    bound: BoundResult,
    workers: int | None = None,
    max_parts: int = 4096,
    weight_tol: float = 1e-7,
    frontier_block: int | None = None,
    sink: OutputSink | None = None,
    policy: SupervisionPolicy | None = None,
    run_dir: str | os.PathLike | None = None,
    resume: bool = False,
    injector: FaultInjector | None = None,
    chunk_rows: int = 1 << 16,
    budget: EvaluationBudget | None = None,
    cancel_token: CancellationToken | None = None,
) -> ParallelRun:
    """Theorem 2.6 evaluation with supervised process-parallel parts.

    Results are identical to the serial
    :func:`~repro.evaluation.lp_join.evaluate_with_partitioning` — the
    merge feeds the final ``sink`` (or the materializing union) in
    ascending part index, the serial visit order.  ``run_dir`` hosts
    the per-part spill directories and the checkpoint manifest; omit it
    for an ephemeral scratch directory (removed after success), provide
    it (with ``resume=True`` on re-invocation) to survive interruption.
    ``injector`` threads a deterministic fault plan into the workers
    (tests and the CLI's chaos mode).

    ``budget`` governs resources: memory watermarks ship into every
    worker unchanged (one part per process), while a global deadline is
    apportioned — each attempt receives the deadline's *remaining*
    seconds as both its governed deadline and its kill timeout, so no
    attempt can outlive the run's budget.  ``cancel_token`` is checked
    at every supervision step; a cancel (or any other governance stop)
    flushes the checkpoint manifest and *keeps* the run directory even
    when ephemeral — the raised
    :class:`~repro.evaluation.governor.ResourceGovernanceError` names
    it in ``snapshot.run_dir``, and re-invoking with ``resume=True``
    completes the run bit-identically.  The budget is deliberately not
    part of the checkpoint fingerprint: a run may be resumed under a
    different (or no) budget.
    """
    policy = policy or SupervisionPolicy()
    plan = plan_partitioned_evaluation(query, db, bound, max_parts, weight_tol)
    needs_values = True if sink is None else sink.needs_values
    n_vars = len(plan.rewritten.variables)
    if needs_values and n_vars == 0:
        raise ValueError(
            "a zero-variable output has nothing to spill per part; "
            "use a CountSink or the serial evaluator"
        )
    if injector is not None:
        injector = injector.resolve(plan.n_combinations)

    ephemeral = run_dir is None
    if ephemeral:
        run_path = Path(tempfile.mkdtemp(prefix="repro-parallel-"))
    else:
        run_path = Path(run_dir)
        run_path.mkdir(parents=True, exist_ok=True)
    manifest_path = run_path / _MANIFEST_NAME

    fingerprint = {
        "query": query.name,
        "n_combinations": plan.n_combinations,
        "n_variables": n_vars,
        "needs_values": needs_values,
        "chunk_rows": int(chunk_rows),
        "frontier_block": frontier_block,
        "part_order": PART_ORDER,
    }
    states = [_PartState(i) for i in range(plan.n_combinations)]
    if manifest_path.exists():
        if not resume:
            raise ValueError(
                f"{run_path} already holds a checkpoint manifest; pass "
                "resume=True to continue it or use a fresh directory"
            )
        _load_checkpoint(manifest_path, fingerprint, states)

    governor = None
    if (
        budget is not None and budget.governs_anything
    ) or cancel_token is not None:
        governor = EvaluationGovernor(
            budget, token=cancel_token, phase="parallel supervise"
        )
        governor.set_run_dir(run_path)
        governor.register_output(
            lambda: sum(s.n_rows for s in states if s.status != "pending")
        )

    try:
        _supervise(
            plan,
            states,
            policy=policy,
            workers=workers,
            frontier_block=frontier_block,
            needs_values=needs_values,
            n_vars=n_vars,
            chunk_rows=chunk_rows,
            run_path=run_path,
            manifest_path=manifest_path,
            fingerprint=fingerprint,
            injector=injector,
            budget=budget,
            governor=governor,
        )
        if governor is not None:
            governor.set_phase("merge")
        output = _merge(
            plan, states, sink, needs_values, n_vars, run_path, governor
        )
    except ResourceGovernanceError:
        # the checkpoint manifest was flushed: keep the run directory —
        # even an ephemeral one — as the resume point (the snapshot's
        # run_dir names it)
        raise
    except BaseException:
        if ephemeral:
            shutil.rmtree(run_path, ignore_errors=True)
        raise
    outcomes = [
        PartOutcome(
            index=s.index,
            status=s.status,
            attempts=s.attempts,
            n_rows=s.n_rows,
            nodes_visited=s.nodes_visited,
            segments=list(s.segments),
            errors=list(s.errors),
            ladder=list(s.ladder),
        )
        for s in states
    ]
    if ephemeral:
        shutil.rmtree(run_path, ignore_errors=True)
    return ParallelRun(
        output=output,
        parts_evaluated=plan.n_combinations,
        nodes_visited=sum(s.nodes_visited for s in states),
        log2_budget=plan.log2_budget,
        sink=sink,
        outcomes=outcomes,
        run_dir=None if ephemeral else run_path,
        manifest_path=None if ephemeral else manifest_path,
    )


def _supervise(
    plan,
    states: list[_PartState],
    *,
    policy: SupervisionPolicy,
    workers: int | None,
    frontier_block: int | None,
    needs_values: bool,
    n_vars: int,
    chunk_rows: int,
    run_path: Path,
    manifest_path: Path,
    fingerprint: dict,
    injector: FaultInjector | None,
    budget: EvaluationBudget | None = None,
    governor: EvaluationGovernor | None = None,
) -> None:
    """Drive every pending part to done/degraded, or raise."""
    max_workers = (
        workers if workers and workers > 0 else min(4, os.cpu_count() or 1)
    )
    rng = Random(policy.seed)
    # (ready_time, index); a retry's ready_time is its backoff deadline
    pending: list[tuple[float, int]] = [
        (0.0, s.index) for s in states if s.status == "pending"
    ]
    in_flight: dict = {}  # future -> (index, deadline | None)
    exhausted: list[int] = []
    pool: ProcessPoolExecutor | None = None

    def part_dir(index: int) -> Path:
        return run_path / f"part-{index:05d}"

    def persist() -> None:
        atomic_write_json(
            manifest_path,
            {
                "format": _RUN_FORMAT,
                "fingerprint": fingerprint,
                "parts": {
                    str(s.index): s.to_manifest() for s in states
                },
            },
        )

    def part_budget() -> EvaluationBudget | None:
        if budget is None:
            return None
        if governor is None:
            return budget
        # the global deadline's remaining share is this attempt's
        # deadline; memory watermarks travel unchanged
        remaining = governor.remaining_seconds()
        if remaining is not None and remaining <= 0:
            # an exactly-expired deadline: ship an immediately-expiring
            # budget (the worker's first checkpoint raises) instead of
            # an invalid zero one
            remaining = 1e-6
        return budget.apportion(remaining)

    def make_task(index: int, fault: FaultCommand | None, block) -> _PartTask:
        return _PartTask(
            index=index,
            attempt=states[index].attempts,
            query=plan.rewritten,
            relations=plan.combination_relations(index),
            frontier_block=block,
            needs_values=needs_values,
            part_dir=str(part_dir(index)),
            chunk_rows=chunk_rows,
            fault=fault,
            kernel_mode=kernels.active_mode(),
            budget=part_budget(),
        )

    def submit(index: int) -> None:
        state = states[index]
        # clear any partial previous attempt so segment names restart at 0
        shutil.rmtree(part_dir(index), ignore_errors=True)
        fault = (
            injector.command_for(index, state.attempts) if injector else None
        )
        timeout_s = policy.part_timeout or None
        remaining = (
            governor.remaining_seconds() if governor is not None else None
        )
        if remaining is not None:
            # an attempt's kill deadline never outlives the global one
            timeout_s = (
                remaining if timeout_s is None else min(timeout_s, remaining)
            )
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        future = pool.submit(
            _run_part_task, make_task(index, fault, frontier_block)
        )
        in_flight[future] = (index, deadline)

    def validate_spill(index: int, result: _PartResult) -> None:
        if not needs_values:
            return
        store = SegmentStore.attach(part_dir(index), n_vars, result.segments)
        if store.n_rows != result.n_rows:
            raise ChunkStoreError(
                f"part {index} spilled {store.n_rows} rows on disk but "
                f"the worker reported {result.n_rows}"
            )

    def accept(index: int, result: _PartResult, status: str) -> None:
        state = states[index]
        state.attempts += 1
        state.status = status
        state.n_rows = result.n_rows
        state.nodes_visited = result.nodes_visited
        state.segments = list(result.segments)
        state.ladder = list(result.ladder)
        persist()

    def charge(index: int, message: str, corrupt: bool) -> None:
        state = states[index]
        state.attempts += 1
        state.errors.append(f"attempt {state.attempts}: {message}")
        state.corrupt = corrupt
        if state.attempts <= policy.max_retries:
            delay = policy.backoff(state.attempts, rng)
            pending.append((time.monotonic() + delay, index))
        else:
            exhausted.append(index)

    def fail(index: int) -> None:
        state = states[index]
        state.status = "failed"
        persist()
        last = state.errors[-1] if state.errors else "unknown error"
        if state.corrupt:
            raise ChunkStoreError(
                f"part {index} failed permanently with a corrupt spill: "
                f"{last}"
            )
        raise PartFailedError(index, state.attempts, state.errors)

    def degrade(index: int) -> None:
        """Serial in-process re-run — no pool, no faults, small blocks."""
        state = states[index]
        if not policy.serial_fallback:
            fail(index)
        shutil.rmtree(part_dir(index), ignore_errors=True)
        block = (
            policy.fallback_frontier_block
            if policy.fallback_frontier_block is not None
            else frontier_block
        )
        try:
            result = _run_part_task(make_task(index, None, block))
            validate_spill(index, result)
        except ResourceGovernanceError as exc:
            # a budget verdict is deterministic — retrying or ignoring
            # it would evade the budget; record it and abort the run
            state.attempts += 1
            state.errors.append(
                f"serial fallback: {type(exc).__name__}: {exc}"
            )
            state.status = "failed"
            raise
        except Exception as exc:
            state.attempts += 1
            state.errors.append(
                f"serial fallback: {type(exc).__name__}: {exc}"
            )
            state.corrupt = isinstance(exc, ChunkStoreError)
            fail(index)
        accept(index, result, "degraded")

    try:
        # the manifest exists from the very first step, so a cancel (or
        # any crash) that fires before any part completes still leaves a
        # resumable checkpoint behind
        persist()
        while pending or in_flight or exhausted:
            if governor is not None:
                governor.set_parts_progress(
                    sum(1 for s in states if s.status != "pending"),
                    len(states),
                )
                governor.checkpoint()
            while exhausted:
                degrade(exhausted.pop(0))  # raises on permanent failure
            if not pending and not in_flight:
                break
            if pool is None:
                pool = ProcessPoolExecutor(max_workers=max_workers)
            needs_new_pool = False
            now = time.monotonic()
            pending.sort()
            while (
                pending
                and pending[0][0] <= now
                and len(in_flight) < max_workers
            ):
                _, index = pending.pop(0)
                try:
                    submit(index)
                except BrokenProcessPool:
                    # a worker died between wait() rounds: re-queue this
                    # part uncharged and rebuild the pool
                    pending.append((now, index))
                    needs_new_pool = True
                    break
            if needs_new_pool:
                _kill_pool(pool)
                pool = None
                continue
            if not in_flight:
                # everything queued sits in a backoff window
                delay = max(0.0, pending[0][0] - time.monotonic())
                if governor is not None:
                    # stay responsive to cancel/deadline while backing off
                    delay = min(delay, 0.25)
                time.sleep(delay)
                continue
            wake = min(
                (dl for _, dl in in_flight.values() if dl is not None),
                default=None,
            )
            if pending:
                next_ready = pending[0][0]
                wake = next_ready if wake is None else min(wake, next_ready)
            timeout = (
                None
                if wake is None
                else max(0.0, wake - time.monotonic()) + 0.01
            )
            if governor is not None:
                # poll the token/deadline at least a few times a second
                # even when no part-level deadline is pending
                timeout = 0.25 if timeout is None else min(timeout, 0.25)
            done, _ = wait(
                set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
            )
            for future in done:
                index, _deadline = in_flight.pop(future)
                try:
                    result = future.result()
                    validate_spill(index, result)
                except CancelledError:
                    # never ran (pool was killed before pickup): re-queue
                    # at the same attempt, uncharged
                    pending.append((time.monotonic(), index))
                    continue
                except BrokenProcessPool as exc:
                    needs_new_pool = True
                    charge(
                        index,
                        f"worker process died: {exc or 'pool broken'}",
                        corrupt=False,
                    )
                except ResourceGovernanceError as exc:
                    # a worker's budget verdict (hard cap, apportioned
                    # deadline): deterministic, so no retry and no
                    # budget-evading serial fallback — abort the run
                    # with the worker's own diagnostic snapshot
                    state = states[index]
                    state.attempts += 1
                    state.errors.append(
                        f"attempt {state.attempts}: "
                        f"{type(exc).__name__}: {exc}"
                    )
                    state.status = "failed"
                    # the worker never knew the run directory; stamp it
                    # into the snapshot so callers can print a resume
                    # hint
                    raise type(exc)(
                        replace(exc.snapshot, run_dir=str(run_path))
                    ) from exc
                except ChunkStoreError as exc:
                    charge(index, str(exc), corrupt=True)
                except Exception as exc:
                    charge(
                        index, f"{type(exc).__name__}: {exc}", corrupt=False
                    )
                else:
                    accept(index, result, "done")
            # deadline sweep: a hung worker never completes its future
            now = time.monotonic()
            expired = [
                future
                for future, (_, dl) in in_flight.items()
                if dl is not None and now >= dl
            ]
            if expired:
                needs_new_pool = True
                for future, (index, dl) in list(in_flight.items()):
                    if dl is not None and now >= dl:
                        if policy.part_timeout:
                            message = (
                                f"timed out after {policy.part_timeout:.4g}s"
                            )
                        else:
                            message = (
                                "timed out (apportioned global deadline)"
                            )
                        charge(index, message, corrupt=False)
                    else:
                        # innocent bystander of the pool kill: re-queue
                        # at the same attempt, uncharged
                        pending.append((now, index))
                in_flight.clear()
            if needs_new_pool and pool is not None:
                _kill_pool(pool)
                pool = None
    except ResourceGovernanceError:
        # flush the checkpoint before propagating: every accepted part
        # is recorded, so the run resumes from here bit-identically
        if pool is not None:
            _kill_pool(pool)
            pool = None
        persist()
        raise
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def _merge(
    plan,
    states: list[_PartState],
    sink: OutputSink | None,
    needs_values: bool,
    n_vars: int,
    run_path: Path,
    governor: EvaluationGovernor | None = None,
):
    """Feed per-part results through the final sink in part order.

    Ascending part index is exactly the serial ``itertools.product``
    visit order, so the final sink observes the same row stream as the
    serial evaluator; the materializing path rebuilds the union through
    the same :class:`ChunkedColumns` + ``Relation.from_columns``
    construction the serial ``_union_outputs`` uses.  A governor is
    checkpointed between parts — with an escalatable final sink
    registered, a merge that crosses the soft watermark switches it to
    disk mid-merge instead of materializing past the budget.
    """
    if sink is not None:
        sink.open(plan.rewritten.variables)
        if governor is not None:
            governor.register_sink(sink)
        for state in states:
            if governor is not None:
                governor.set_part(state.index)
                governor.checkpoint()
            if needs_values:
                if not state.segments:
                    continue
                store = SegmentStore.attach(
                    run_path / f"part-{state.index:05d}",
                    n_vars,
                    state.segments,
                )
                for chunk in store.iter_chunks():
                    sink.append(chunk)
            elif state.n_rows:
                sink.append_size(state.n_rows)
        return None
    acc = ChunkedColumns(n_vars)
    for state in states:
        if governor is not None:
            governor.set_part(state.index)
            governor.checkpoint()
        if not state.segments:
            continue
        store = SegmentStore.attach(
            run_path / f"part-{state.index:05d}", n_vars, state.segments
        )
        for chunk in store.iter_chunks():
            acc.append(chunk)
    if acc.n_rows:
        return Relation.from_columns(
            plan.query.variables, acc.finalize(), name=plan.query.name
        )
    return Relation(plan.query.variables, set(), name=plan.query.name)
