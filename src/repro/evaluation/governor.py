"""Resource governance for the evaluators: budgets, deadlines, cancel.

The evaluators already expose every lever needed to trade memory for
time without changing results — ``frontier_block`` caps the WCOJ's live
frontier, :class:`~repro.relational.columnar.SpillSink` streams output to
disk, and both are proven bit-identical to the unbounded run.  What they
lack is a component that *pulls* those levers while a query runs.  This
module adds it:

* :class:`EvaluationBudget` — a declarative, picklable resource budget:
  soft/hard memory watermarks and a wall-clock deadline.
* :class:`CancellationToken` — a cooperative cancel flag the CLI's
  signal handlers (and tests) flip from outside the evaluation.
* :class:`EvaluationGovernor` — the live enforcement object.  Producers
  call :meth:`~EvaluationGovernor.checkpoint` at block boundaries (one
  cheap memory probe per frontier slice, never per row); the governor
  answers by raising, degrading, or doing nothing.
* :class:`EscalatingSink` — a sink that starts as a materializer and can
  be switched to disk spilling *mid-run*: the accumulated chunks become
  the first spilled segments, so rows and order are unchanged.

Degradation ladder
------------------
Crossing the *soft* watermark walks a deterministic ladder, one rung per
checkpoint: (1) halve the effective ``frontier_block`` (repeatedly, down
to :data:`MIN_FRONTIER_BLOCK`), (2) escalate a registered
:class:`EscalatingSink` to disk, (3) nothing — if pressure still reaches
the *hard* cap, :exc:`MemoryBudgetExceeded` is raised with a full
:class:`GovernorSnapshot`.  Every rung reuses an invariance dimension
the test suite already proves bit-identical (any contiguous re-slicing
of the fixed candidate order, any sink), so a governed run returns
exactly the rows, order, counts, and ``nodes_visited`` of an ungoverned
one.

Deadlines and cancellation are checked cooperatively at the same
boundaries; :exc:`EvaluationDeadlineExceeded` / :exc:`EvaluationCancelled`
carry partial-progress meters so a supervisor can report (and, for the
parallel driver, resume) the interrupted run.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from dataclasses import dataclass, replace
from typing import Callable

from ..relational.columnar import MaterializeSink, OutputSink, SpillSink

__all__ = [
    "EvaluationBudget",
    "CancellationToken",
    "GovernorSnapshot",
    "ResourceGovernanceError",
    "MemoryBudgetExceeded",
    "EvaluationDeadlineExceeded",
    "EvaluationCancelled",
    "EvaluationGovernor",
    "EscalatingSink",
    "parse_memory_size",
    "budget_from_spec",
    "default_memory_probe",
]

_UNITS = {"": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30}

#: Ladder rung 1 never halves the frontier block below this.
MIN_FRONTIER_BLOCK = 64
#: A memory-governed run with ``frontier_block=None`` is implicitly
#: blocked at this size — otherwise the first whole-frontier slice could
#: blow the hard cap before any checkpoint sees it.
INITIAL_FRONTIER_BLOCK = 8192


def parse_memory_size(text: str) -> int:
    """``"64M"`` → 67108864.  Suffixes K/M/G are binary; bare = bytes."""
    cleaned = text.strip().upper().removesuffix("B")
    unit = 1
    for suffix, scale in _UNITS.items():
        if suffix and cleaned.endswith(suffix):
            cleaned, unit = cleaned[: -len(suffix)], scale
            break
    try:
        value = float(cleaned)
    except ValueError:
        raise ValueError(f"unparseable memory size {text!r}") from None
    if value <= 0:
        raise ValueError(f"memory size must be positive, got {text!r}")
    return int(value * unit)


@dataclass(frozen=True)
class EvaluationBudget:
    """A declarative resource budget for one evaluation.

    All fields are optional — an all-``None`` budget governs nothing.
    Memory watermarks are *growth over the governor's baseline probe*
    (bytes allocated by the evaluation, not absolute process RSS), so a
    budget means the same thing under tracemalloc and under /proc
    probing.  Picklable: the parallel supervisor ships per-part budgets
    to worker processes.
    """

    soft_memory_bytes: int | None = None
    hard_memory_bytes: int | None = None
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        for name in ("soft_memory_bytes", "hard_memory_bytes"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be ≥ 1, got {value}")
        if (
            self.soft_memory_bytes is not None
            and self.hard_memory_bytes is not None
            and self.soft_memory_bytes > self.hard_memory_bytes
        ):
            raise ValueError(
                f"soft watermark {self.soft_memory_bytes} exceeds hard cap "
                f"{self.hard_memory_bytes}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )

    @property
    def governs_memory(self) -> bool:
        return (
            self.soft_memory_bytes is not None
            or self.hard_memory_bytes is not None
        )

    @property
    def governs_anything(self) -> bool:
        return self.governs_memory or self.deadline_seconds is not None

    def apportion(self, remaining_seconds: float | None) -> "EvaluationBudget":
        """This budget with its deadline replaced by a remaining share.

        The parallel supervisor hands each part the global deadline's
        *remaining* seconds (memory watermarks travel unchanged — every
        worker holds one part at a time, so the per-process budget is
        the per-part budget).
        """
        return replace(self, deadline_seconds=remaining_seconds)


def budget_from_spec(
    memory: str | None = None, deadline: float | None = None
) -> EvaluationBudget | None:
    """Build a budget from CLI-style specs; ``None`` if nothing given.

    ``memory`` is ``"HARD"`` or ``"SOFT:HARD"`` with K/M/G suffixes —
    a bare hard cap gets a soft watermark at half the cap, so the
    ladder always has room to act before the hard stop.
    """
    if memory is None and deadline is None:
        return None
    soft = hard = None
    if memory is not None:
        head, sep, tail = memory.partition(":")
        if sep:
            soft, hard = parse_memory_size(head), parse_memory_size(tail)
        else:
            hard = parse_memory_size(head)
            soft = hard // 2
    return EvaluationBudget(
        soft_memory_bytes=soft,
        hard_memory_bytes=hard,
        deadline_seconds=deadline,
    )


class CancellationToken:
    """A cooperative cancel flag; flip it from a signal handler or test.

    Subclasses may override :attr:`cancelled` to poll external state
    (tests use this to cancel after k parts have checkpointed).  Not
    picklable by contract — the token stays on the supervisor side; the
    workers are cancelled by killing the pool.
    """

    def __init__(self) -> None:
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


@dataclass(frozen=True)
class GovernorSnapshot:
    """Where a governed evaluation stood when it raised.

    Every field is a primitive, so the snapshot pickles across the
    process boundary inside a :class:`ResourceGovernanceError`.
    """

    reason: str
    phase: str
    part_index: int | None
    nodes_visited: int
    rows_emitted: int
    elapsed_seconds: float
    memory_bytes: int
    peak_memory_bytes: int
    soft_memory_bytes: int | None
    hard_memory_bytes: int | None
    deadline_seconds: float | None
    ladder: tuple[str, ...]
    effective_frontier_block: int | None
    parts_done: int
    parts_total: int | None
    run_dir: str | None

    def describe(self) -> str:
        bits = [f"{self.reason} during {self.phase}"]
        if self.part_index is not None:
            bits.append(f"part {self.part_index}")
        if self.parts_total is not None:
            bits.append(f"{self.parts_done}/{self.parts_total} parts done")
        bits.append(f"nodes_visited={self.nodes_visited}")
        bits.append(f"rows_emitted={self.rows_emitted}")
        bits.append(f"elapsed={self.elapsed_seconds:.2f}s")
        if self.hard_memory_bytes is not None:
            bits.append(
                f"memory={self.memory_bytes}B "
                f"(peak {self.peak_memory_bytes}B, "
                f"cap {self.hard_memory_bytes}B)"
            )
        if self.ladder:
            bits.append("ladder: " + " → ".join(self.ladder))
        return "; ".join(bits)


class ResourceGovernanceError(RuntimeError):
    """Base for governed-run stops; carries a :class:`GovernorSnapshot`."""

    def __init__(self, snapshot: GovernorSnapshot) -> None:
        super().__init__(snapshot.describe())
        self.snapshot = snapshot

    def __reduce__(self):
        # exceptions cross the worker→supervisor pickle boundary; the
        # default reduce would replay __init__ with the formatted string
        return (type(self), (self.snapshot,))


class MemoryBudgetExceeded(ResourceGovernanceError):
    """The hard memory cap was reached after the ladder ran out."""


class EvaluationDeadlineExceeded(ResourceGovernanceError):
    """The wall-clock deadline passed at a cooperative checkpoint."""


class EvaluationCancelled(ResourceGovernanceError):
    """The cancellation token was flipped (Ctrl-C, test, supervisor)."""


def default_memory_probe() -> int:
    """Bytes currently in use, from the cheapest available source.

    Under an active ``tracemalloc`` trace, the traced current size
    (exact, counts only Python allocations — what the hard-cap tests
    pin); otherwise resident-set size from ``/proc/self/statm`` (one
    small read, no syscall fan-out); otherwise ``ru_maxrss`` as a
    last-resort high-water mark.
    """
    if tracemalloc.is_tracing():
        current, _ = tracemalloc.get_traced_memory()
        return current
    try:
        with open("/proc/self/statm") as handle:
            resident_pages = int(handle.read().split()[1])
        return resident_pages * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):  # pragma: no cover - non-linux
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class EvaluationGovernor:
    """Live budget enforcement, shared across one evaluation's phases.

    Construction captures a *baseline* memory probe and a start clock;
    all watermark comparisons are against growth over that baseline.
    Producers thread the governor down and call :meth:`checkpoint` at
    block boundaries; drivers narrate progress through ``set_phase`` /
    ``set_part`` / ``commit_nodes`` so diagnostics name where the run
    stood.  ``memory_probe`` and ``clock`` are injectable for tests;
    :meth:`bias` lets the fault injector simulate pressure and skew
    without allocating or sleeping.
    """

    def __init__(
        self,
        budget: EvaluationBudget | None = None,
        *,
        token: CancellationToken | None = None,
        phase: str = "evaluate",
        memory_probe: Callable[[], int] | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._budget = budget
        self._token = token
        self._phase = phase
        self._probe = memory_probe or default_memory_probe
        self._clock = clock or time.monotonic
        self._start = self._clock()
        self._governs_memory = budget is not None and budget.governs_memory
        self._baseline = self._probe() if self._governs_memory else 0
        self._baseline_tracing = tracemalloc.is_tracing()
        self._memory_bias = 0
        self._clock_bias = 0.0
        self._requested_block: int | None = None
        self._block_override: int | None = None
        self._sink = None
        self._ladder: list[str] = []
        self._part_index: int | None = None
        self._parts_done = 0
        self._parts_total: int | None = None
        self._nodes_committed = 0
        self._live_nodes = 0
        self._rows_probe: Callable[[], int] | None = None
        self._run_dir: str | None = None
        self._peak_memory = 0

    # -- driver narration ------------------------------------------------

    def set_phase(self, phase: str) -> None:
        self._phase = phase

    def set_part(self, index: int | None) -> None:
        self._part_index = index
        self._live_nodes = 0

    def set_parts_progress(self, done: int, total: int) -> None:
        self._parts_done, self._parts_total = done, total

    def set_run_dir(self, run_dir: str | os.PathLike | None) -> None:
        self._run_dir = None if run_dir is None else str(run_dir)

    def register_output(self, rows_probe: Callable[[], int]) -> None:
        """Let snapshots report rows emitted so far (sink or accumulator)."""
        self._rows_probe = rows_probe

    def register_sink(self, sink: OutputSink | None) -> None:
        """Offer a sink as ladder rung 2; only escalatable sinks enroll."""
        if sink is not None and hasattr(sink, "escalate"):
            self._sink = sink

    def commit_nodes(self, nodes: int) -> None:
        """Fold a finished sub-run's meter into the cross-part total."""
        self._nodes_committed += int(nodes)
        self._live_nodes = 0

    def bias(self, memory_bytes: int = 0, clock_seconds: float = 0.0) -> None:
        """Shift what checkpoints observe (the fault injector's hook)."""
        self._memory_bias += int(memory_bytes)
        self._clock_bias += float(clock_seconds)

    # -- producer-facing protocol ----------------------------------------

    def effective_block(self, requested: int | None) -> int | None:
        """The frontier block a producer should use *right now*.

        Consulted before every slice, so a ladder halving lands at the
        very next block boundary.  Memory-governed runs never expand a
        whole frontier at once: an unblocked request is capped at
        :data:`INITIAL_FRONTIER_BLOCK`.
        """
        self._requested_block = requested
        if self._block_override is not None:
            if requested is None:
                return self._block_override
            return min(self._block_override, requested)
        if requested is None and self._governs_memory:
            return INITIAL_FRONTIER_BLOCK
        return requested

    def remaining_seconds(self) -> float | None:
        """Seconds left on the deadline; ``None`` when undeadlined."""
        if self._budget is None or self._budget.deadline_seconds is None:
            return None
        elapsed = self._clock() + self._clock_bias - self._start
        return max(0.0, self._budget.deadline_seconds - elapsed)

    def checkpoint(self, nodes_visited: int | None = None) -> None:
        """The cooperative boundary check: cancel → deadline → memory."""
        if nodes_visited is not None:
            self._live_nodes = int(nodes_visited)
        if self._token is not None and self._token.cancelled:
            raise EvaluationCancelled(self._snapshot("cancelled"))
        budget = self._budget
        if budget is None:
            return
        if budget.deadline_seconds is not None:
            elapsed = self._clock() + self._clock_bias - self._start
            if elapsed > budget.deadline_seconds:
                raise EvaluationDeadlineExceeded(
                    self._snapshot("deadline exceeded")
                )
        if not self._governs_memory:
            return
        current = self._current_memory()
        hard = budget.hard_memory_bytes
        if hard is not None and current >= hard:
            raise MemoryBudgetExceeded(
                self._snapshot("hard memory cap reached", current)
            )
        soft = budget.soft_memory_bytes
        if soft is not None and current >= soft:
            self._degrade()

    # -- internals --------------------------------------------------------

    def _current_memory(self) -> int:
        if self._probe is default_memory_probe:
            tracing = tracemalloc.is_tracing()
            if tracing != self._baseline_tracing:
                # the default probe switched regimes mid-run (a metering
                # harness started or stopped tracemalloc after this
                # governor captured its baseline): growth against the
                # old baseline is meaningless.  Into tracing, traced
                # bytes already count from the trace start, so the
                # baseline is zero; out of tracing, re-anchor at the
                # current RSS reading.
                self._baseline_tracing = tracing
                self._baseline = 0 if tracing else self._probe()
        current = max(0, self._probe() + self._memory_bias - self._baseline)
        if current > self._peak_memory:
            self._peak_memory = current
        return current

    def _degrade(self) -> None:
        """One ladder rung per soft-watermark checkpoint, in fixed order."""
        base = self._block_override
        if base is None:
            base = (
                self._requested_block
                if self._requested_block is not None
                else INITIAL_FRONTIER_BLOCK
            )
        halved = max(MIN_FRONTIER_BLOCK, base // 2)
        if halved < base:
            self._block_override = halved
            self._ladder.append(f"frontier_block {base}→{halved}")
            return
        sink = self._sink
        if sink is not None and not getattr(sink, "escalated", True):
            sink.escalate()
            self._ladder.append("sink materialize→spill")

    def _snapshot(
        self, reason: str, current_memory: int | None = None
    ) -> GovernorSnapshot:
        budget = self._budget
        if current_memory is None and self._governs_memory:
            current_memory = self._current_memory()
        rows = self._rows_probe() if self._rows_probe is not None else 0
        return GovernorSnapshot(
            reason=reason,
            phase=self._phase,
            part_index=self._part_index,
            nodes_visited=self._nodes_committed + self._live_nodes,
            rows_emitted=int(rows),
            elapsed_seconds=self._clock() + self._clock_bias - self._start,
            memory_bytes=int(current_memory or 0),
            peak_memory_bytes=self._peak_memory,
            soft_memory_bytes=(
                None if budget is None else budget.soft_memory_bytes
            ),
            hard_memory_bytes=(
                None if budget is None else budget.hard_memory_bytes
            ),
            deadline_seconds=(
                None if budget is None else budget.deadline_seconds
            ),
            ladder=tuple(self._ladder),
            effective_frontier_block=(
                self._block_override
                if self._block_override is not None
                else self._requested_block
            ),
            parts_done=self._parts_done,
            parts_total=self._parts_total,
            run_dir=self._run_dir,
        )

    @property
    def ladder(self) -> tuple[str, ...]:
        """Degradation steps taken so far, in order."""
        return tuple(self._ladder)

    @property
    def budget(self) -> EvaluationBudget | None:
        return self._budget


class EscalatingSink(OutputSink):
    """Materialize in RAM until told to spill; bit-identical either way.

    Ladder rung 2's mechanism: the sink starts as a
    :class:`~repro.relational.columnar.MaterializeSink` (the default
    materializing path of the Theorem 2.6 evaluators);
    :meth:`escalate` opens a :class:`SpillSink` over ``directory``,
    replays the materialized chunks into it — they become the first
    spilled segments, in emission order — and routes every later batch
    to disk.  Rows, order, and ``n_rows`` are identical whether
    escalation happens never, immediately, or anywhere in between.

    Use as a context manager like :class:`SpillSink`: closing removes
    any spilled segments on success and on exception.
    """

    def __init__(
        self, directory: str | os.PathLike, chunk_rows: int = 1 << 16
    ) -> None:
        super().__init__()
        self._directory = directory
        self._chunk_rows = int(chunk_rows)
        self._memory: MaterializeSink | None = None
        self._spill: SpillSink | None = None
        self._pending_escalate = False

    def _opened(self, variables: tuple[str, ...]) -> None:
        if not variables:
            raise ValueError(
                "a zero-variable output has nothing to spill; use CountSink"
            )
        self._memory = MaterializeSink()
        self._memory.open(variables)
        if self._pending_escalate:
            self.escalate()

    @property
    def escalated(self) -> bool:
        return self._spill is not None

    def escalate(self) -> None:
        """Switch to disk spilling; accumulated rows become segment 0+."""
        if self._spill is not None:
            return
        if self._variables is None:
            # not open yet (e.g. governor degraded between parts):
            # escalate as soon as the schema is known
            self._pending_escalate = True
            return
        spill = SpillSink(self._directory, chunk_rows=self._chunk_rows)
        spill.open(self.variables)
        for chunk in self._memory.iter_chunks():
            spill.append(chunk)
        spill.flush()
        self._memory = None
        self._spill = spill

    def _consume_columns(self, columns, n: int) -> None:
        if self._spill is not None:
            self._spill.append(columns)
        else:
            self._memory.append(columns)

    # -- accessors (emission order, either backing store) -----------------

    def iter_chunks(self):
        if self._spill is not None:
            yield from self._spill.iter_chunks()
        elif self._memory is not None:
            yield from self._memory.iter_chunks()

    def iter_rows(self):
        for chunk in self.iter_chunks():
            yield from zip(*[column.tolist() for column in chunk])

    def rows(self) -> list[tuple]:
        return list(self.iter_rows())

    def relation(self, name: str = ""):
        """The collected output as a Relation, built by a
        :class:`~repro.relational.columnar.MaterializeSink` from the
        chunks of either backing store (rows in emission order)."""
        memory = MaterializeSink()
        memory.open(self.variables)
        for chunk in self.iter_chunks():
            memory.append(chunk)
        return memory.relation(name)

    def close(self) -> None:
        """Delete any spilled segments (idempotent)."""
        if self._spill is not None:
            self._spill.close()
        self._memory = None

    def __enter__(self) -> "EscalatingSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
