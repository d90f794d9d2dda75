"""Resource governance: budgets, deadlines, cancellation, degradation.

The contract under test: a *governed* evaluation returns exactly the
rows, row order, counts, and ``nodes_visited`` of an ungoverned one —
every degradation-ladder rung reuses an invariance the engine already
proves (contiguous re-slicing of the fixed candidate order, sink
re-routing) — and when a budget genuinely cannot be met the run stops
with a typed :class:`~repro.evaluation.ResourceGovernanceError` whose
snapshot names where it stood, instead of an OOM kill or a bare
``KeyboardInterrupt``.  The memory-probe and clock hooks make every
scenario deterministic; two star-workload tests additionally pin the
*real* ``tracemalloc`` probe: an undersized hard cap fires before
traced memory exceeds the cap by more than one block of work, and a
fan-out-1024 star completes bit-identically under pressure by walking
the ladder.
"""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import collect_statistics, lp_bound
from repro.datasets import power_law_graph, star_database, star_query
from repro.evaluation import (
    CancellationToken,
    EscalatingSink,
    EvaluationBudget,
    EvaluationCancelled,
    EvaluationDeadlineExceeded,
    EvaluationGovernor,
    FaultInjector,
    MemoryBudgetExceeded,
    ResourceGovernanceError,
    budget_from_spec,
    evaluate_parallel,
    evaluate_with_partitioning,
    generic_join,
    parse_fault_spec,
    parse_memory_size,
    semijoin_reduce,
)
from repro.evaluation.faults import GOVERNOR_KINDS, FaultCommand, InjectedFault
from repro.evaluation.governor import INITIAL_FRONTIER_BLOCK
from repro.query import parse_query
from repro.relational import (
    CountSink,
    Database,
    MaterializeSink,
    Relation,
    SpillSink,
)

SETTINGS = settings(max_examples=10, deadline=None)


KB = 1 << 10
MB = 1 << 20


class SteppedProbe:
    """A memory probe replaying a schedule (last value repeats)."""

    def __init__(self, *values):
        self.values = list(values)
        self.calls = 0

    def __call__(self):
        index = min(self.calls, len(self.values) - 1)
        self.calls += 1
        return self.values[index]


def pressure_probe(level=10 * MB):
    """Baseline 0, then constant ``level``: every checkpoint is under
    soft pressure (for budgets whose soft watermark is below it)."""
    return SteppedProbe(0, level)


class SteppedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ---------------------------------------------------------------------------
# Specs and validation


class TestBudgetSpecs:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1024", 1024),
            ("64K", 64 * KB),
            ("1.5M", int(1.5 * MB)),
            ("2G", 2 << 30),
            ("2GB", 2 << 30),
            (" 512kb ", 512 * KB),
        ],
    )
    def test_parse_memory_size(self, text, expected):
        assert parse_memory_size(text) == expected

    @pytest.mark.parametrize("text", ["", "x", "12Q", "-4M", "0"])
    def test_parse_memory_size_rejects(self, text):
        with pytest.raises(ValueError):
            parse_memory_size(text)

    def test_bare_hard_cap_gets_half_soft(self):
        budget = budget_from_spec(memory="256M")
        assert budget.hard_memory_bytes == 256 * MB
        assert budget.soft_memory_bytes == 128 * MB

    def test_soft_colon_hard(self):
        budget = budget_from_spec(memory="64M:1G", deadline=30.0)
        assert budget.soft_memory_bytes == 64 * MB
        assert budget.hard_memory_bytes == 1 << 30
        assert budget.deadline_seconds == 30.0

    def test_nothing_given_is_none(self):
        assert budget_from_spec() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            EvaluationBudget(soft_memory_bytes=2 * MB, hard_memory_bytes=MB)
        with pytest.raises(ValueError):
            EvaluationBudget(deadline_seconds=0.0)

    def test_governs_properties(self):
        assert not EvaluationBudget().governs_anything
        assert EvaluationBudget(deadline_seconds=1.0).governs_anything
        assert EvaluationBudget(hard_memory_bytes=MB).governs_memory

    def test_apportion_replaces_only_deadline(self):
        budget = EvaluationBudget(
            soft_memory_bytes=MB, hard_memory_bytes=2 * MB,
            deadline_seconds=100.0,
        )
        part = budget.apportion(3.5)
        assert part.deadline_seconds == 3.5
        assert part.soft_memory_bytes == MB
        assert part.hard_memory_bytes == 2 * MB


# ---------------------------------------------------------------------------
# Governor units (fake probe / fake clock)


class TestGovernorUnits:
    def budget(self, **kw):
        kw.setdefault("soft_memory_bytes", MB)
        kw.setdefault("hard_memory_bytes", 1 << 40)
        return EvaluationBudget(**kw)

    def test_ladder_halves_from_requested_block(self):
        # the floor is MIN_FRONTIER_BLOCK = 64
        gov = EvaluationGovernor(self.budget(), memory_probe=pressure_probe())
        assert gov.effective_block(512) == 512
        for expected in (256, 128, 64, 64):
            gov.checkpoint()
            assert gov.effective_block(512) == expected
        assert gov.ladder == (
            "frontier_block 512→256",
            "frontier_block 256→128",
            "frontier_block 128→64",
        )

    def test_unblocked_request_capped_then_laddered(self):
        gov = EvaluationGovernor(self.budget(), memory_probe=pressure_probe())
        assert gov.effective_block(None) == INITIAL_FRONTIER_BLOCK == 8192
        gov.checkpoint()
        assert gov.effective_block(None) == 4096

    def test_ungoverned_memory_leaves_block_alone(self):
        gov = EvaluationGovernor(
            EvaluationBudget(deadline_seconds=100.0),
            clock=SteppedClock(),
        )
        assert gov.effective_block(None) is None
        assert gov.effective_block(7) == 7

    def test_ladder_escalates_sink_after_block_floor(self, tmp_path):
        gov = EvaluationGovernor(self.budget(), memory_probe=pressure_probe())
        sink = EscalatingSink(tmp_path / "esc")
        sink.open(("x", "y"))
        gov.register_sink(sink)
        gov.effective_block(128)
        gov.checkpoint()  # 128 -> 64
        assert not sink.escalated
        gov.checkpoint()  # at the floor: rung 2
        assert sink.escalated
        assert gov.ladder[-1] == "sink materialize→spill"
        gov.checkpoint()  # rung 3: nothing left, no error below hard cap
        sink.close()

    def test_non_escalatable_sink_never_enrolls(self):
        gov = EvaluationGovernor(
            self.budget(), memory_probe=pressure_probe()
        )
        gov.register_sink(CountSink())
        gov.effective_block(128)
        for _ in range(5):
            gov.checkpoint()  # runs out of rungs without crashing
        assert all(step.startswith("frontier_block") for step in gov.ladder)

    def test_hard_cap_raises_with_snapshot(self):
        probe = SteppedProbe(0, 512 * KB, 3 * MB)
        gov = EvaluationGovernor(
            EvaluationBudget(soft_memory_bytes=MB, hard_memory_bytes=2 * MB),
            memory_probe=probe,
            phase="unit",
        )
        gov.set_part(4)
        gov.register_output(lambda: 17)
        gov.checkpoint(nodes_visited=100)  # 512K: fine
        with pytest.raises(MemoryBudgetExceeded) as err:
            gov.checkpoint(nodes_visited=250)
        snapshot = err.value.snapshot
        assert snapshot.reason == "hard memory cap reached"
        assert snapshot.phase == "unit"
        assert snapshot.part_index == 4
        assert snapshot.nodes_visited == 250
        assert snapshot.rows_emitted == 17
        assert snapshot.memory_bytes == 3 * MB
        assert snapshot.peak_memory_bytes == 3 * MB
        assert snapshot.hard_memory_bytes == 2 * MB
        assert "hard memory cap" in snapshot.describe()

    def test_deadline_uses_injected_clock(self):
        clock = SteppedClock()
        gov = EvaluationGovernor(
            EvaluationBudget(deadline_seconds=10.0), clock=clock
        )
        clock.now = 9.0
        gov.checkpoint(nodes_visited=5)
        assert gov.remaining_seconds() == pytest.approx(1.0)
        clock.now = 10.5
        with pytest.raises(EvaluationDeadlineExceeded) as err:
            gov.checkpoint(nodes_visited=9)
        assert err.value.snapshot.nodes_visited == 9
        assert err.value.snapshot.elapsed_seconds == pytest.approx(10.5)
        assert gov.remaining_seconds() == 0.0

    def test_cancellation_token(self):
        token = CancellationToken()
        gov = EvaluationGovernor(token=token)
        gov.checkpoint()
        token.cancel()
        with pytest.raises(EvaluationCancelled) as err:
            gov.checkpoint(nodes_visited=3)
        assert err.value.snapshot.reason == "cancelled"
        assert err.value.snapshot.nodes_visited == 3

    def test_commit_nodes_folds_into_meter(self):
        token = CancellationToken()
        gov = EvaluationGovernor(token=token)
        gov.commit_nodes(100)
        gov.commit_nodes(50)
        token.cancel()
        with pytest.raises(EvaluationCancelled) as err:
            gov.checkpoint(nodes_visited=7)
        assert err.value.snapshot.nodes_visited == 157

    def test_bias_shifts_memory_and_clock(self):
        clock = SteppedClock()
        gov = EvaluationGovernor(
            EvaluationBudget(
                soft_memory_bytes=MB,
                hard_memory_bytes=2 * MB,
                deadline_seconds=100.0,
            ),
            memory_probe=SteppedProbe(0),
            clock=clock,
        )
        gov.checkpoint()  # no pressure, no skew
        gov.bias(memory_bytes=3 * MB)
        with pytest.raises(MemoryBudgetExceeded):
            gov.checkpoint()
        gov = EvaluationGovernor(
            EvaluationBudget(deadline_seconds=100.0), clock=clock
        )
        gov.bias(clock_seconds=200.0)
        with pytest.raises(EvaluationDeadlineExceeded):
            gov.checkpoint()

    def test_default_probe_rebaselines_across_tracemalloc_flip(self):
        """A governor built *before* a metering harness starts
        tracemalloc must govern the traced run: comparing traced bytes
        against the RSS baseline captured at construction would leave
        growth pinned at zero and silently disable memory governance
        (the E14 driver meters every governed run this way)."""
        import tracemalloc

        assert not tracemalloc.is_tracing()
        budget = EvaluationBudget(
            soft_memory_bytes=64 * KB, hard_memory_bytes=1 << 40
        )
        gov = EvaluationGovernor(budget)  # baseline sampled from RSS
        gov.effective_block(1024)
        tracemalloc.start()
        try:
            blob = bytearray(8 * MB)  # traced growth past the watermark
            gov.checkpoint()
        finally:
            tracemalloc.stop()
        assert blob is not None
        assert gov.ladder == ("frontier_block 1024→512",)

    def test_errors_pickle_with_snapshot(self):
        gov = EvaluationGovernor(
            EvaluationBudget(soft_memory_bytes=MB, hard_memory_bytes=MB),
            memory_probe=SteppedProbe(0, 5 * MB),
        )
        with pytest.raises(MemoryBudgetExceeded) as err:
            gov.checkpoint(nodes_visited=12)
        clone = pickle.loads(pickle.dumps(err.value))
        assert isinstance(clone, MemoryBudgetExceeded)
        assert clone.snapshot == err.value.snapshot
        assert isinstance(clone, ResourceGovernanceError)


class TestEscalatingSink:
    ROWS = [(i, i * 2) for i in range(10_000)]

    def emit(self, sink, escalate_after=None):
        sink.open(("x", "y"))
        for start in range(0, len(self.ROWS), 1000):
            xs = np.arange(start, start + 1000)
            sink.append([xs, 2 * xs])
            if escalate_after is not None and start >= escalate_after:
                sink.escalate()
        return sink.rows()

    @pytest.mark.parametrize("escalate_after", [None, 0, 3000, 9000])
    def test_rows_identical_wherever_escalation_lands(
        self, tmp_path, escalate_after
    ):
        with EscalatingSink(tmp_path / "esc", chunk_rows=512) as sink:
            rows = self.emit(sink, escalate_after)
            assert rows == self.ROWS
            assert sink.n_rows == len(self.ROWS)
            assert sink.escalated == (escalate_after is not None)
            relation = sink.relation("out")
            assert list(relation) == self.ROWS

    @pytest.mark.parametrize("escalate_after", [-1, 3000, None])
    def test_relation_equals_materialize_sink(self, tmp_path, escalate_after):
        """Escalated before the first batch, mid-run, or never: the
        relation is the one a MaterializeSink builds from the batches."""
        names = np.array([f"v{i}" for i in range(len(self.ROWS))], dtype=object)
        reference = MaterializeSink()
        reference.open(("x", "y"))
        with EscalatingSink(tmp_path / "esc", chunk_rows=512) as sink:
            sink.open(("x", "y"))
            if escalate_after == -1:
                sink.escalate()
            for start in range(0, len(self.ROWS), 1000):
                batch = [
                    np.arange(start, start + 1000) + 2**62,
                    names[start:start + 1000],
                ]
                sink.append(batch)
                reference.append(batch)
                if escalate_after is not None and start >= escalate_after:
                    sink.escalate()
            assert sink.escalated == (escalate_after is not None)
            got, want = sink.relation("out"), reference.relation("out")
        assert list(got) == list(want)
        assert (got.attributes, got.name) == (want.attributes, want.name)
        for attr in ("x", "y"):
            assert np.array_equal(
                got.columnar().dictionary(attr),
                want.columnar().dictionary(attr),
            )

    def test_escalate_before_open_is_deferred(self, tmp_path):
        with EscalatingSink(tmp_path / "esc") as sink:
            sink.escalate()
            assert not sink.escalated
            sink.open(("x",))
            assert sink.escalated  # pending escalation fired at open
            sink.append([np.array([1, 2])])
            assert sink.rows() == [(1,), (2,)]

    def test_escalate_is_idempotent(self, tmp_path):
        with EscalatingSink(tmp_path / "esc") as sink:
            sink.open(("x",))
            sink.append([np.array([1])])
            sink.escalate()
            sink.escalate()
            assert sink.rows() == [(1,)]

    def test_zero_variable_schema_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="CountSink"):
            EscalatingSink(tmp_path / "esc").open(())

    def test_close_removes_spilled_segments(self, tmp_path):
        target = tmp_path / "esc"
        sink = EscalatingSink(target)
        sink.open(("x",))
        sink.append([np.array([1, 2])])
        sink.escalate()
        sink.close()
        assert not list(target.glob("segment-*.npz"))


# ---------------------------------------------------------------------------
# Governed serial evaluation is bit-identical


TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")


@pytest.fixture(scope="module")
def routed():
    db = Database({"R": power_law_graph(150, 500, 0.6, seed=9)})
    stats = collect_statistics(TRIANGLE, db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=TRIANGLE)
    serial = evaluate_with_partitioning(TRIANGLE, db, bound)
    assert serial.parts_evaluated > 1, "fixture must exercise partitioning"
    return db, bound, serial


def forced_ladder_budget(**kw):
    """Soft pressure at every checkpoint, hard cap far away."""
    kw.setdefault("soft_memory_bytes", KB)
    kw.setdefault("hard_memory_bytes", 1 << 40)
    return EvaluationBudget(**kw)


class TestGovernedEquivalence:
    @pytest.mark.parametrize("frontier_block", [None, 1, 7, 64])
    def test_generic_join_under_full_ladder(self, routed, frontier_block):
        db, _, _ = routed
        reference = generic_join(TRIANGLE, db, frontier_block=frontier_block)
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        run = generic_join(
            TRIANGLE, db, frontier_block=frontier_block, governor=gov
        )
        assert list(run.output) == list(reference.output)
        assert run.nodes_visited == reference.nodes_visited

    def test_partitioned_run_under_full_ladder(self, routed):
        db, bound, serial = routed
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        run = evaluate_with_partitioning(TRIANGLE, db, bound, governor=gov)
        assert list(run.output) == list(serial.output)
        assert run.nodes_visited == serial.nodes_visited
        assert run.parts_evaluated == serial.parts_evaluated
        assert gov.ladder  # pressure genuinely degraded something

    def test_escalating_sink_matches_materialized(self, routed, tmp_path):
        db, bound, serial = routed
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        with EscalatingSink(tmp_path / "esc", chunk_rows=128) as sink:
            run = evaluate_with_partitioning(
                TRIANGLE, db, bound, sink=sink, governor=gov
            )
            assert sink.escalated
            assert sink.rows() == list(serial.output)
        assert run.nodes_visited == serial.nodes_visited
        assert "sink materialize→spill" in gov.ladder

    def test_spill_sink_under_full_ladder(self, routed, tmp_path):
        db, bound, serial = routed
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        with SpillSink(tmp_path / "spill", chunk_rows=128) as sink:
            evaluate_with_partitioning(
                TRIANGLE, db, bound, sink=sink, governor=gov
            )
            assert sink.rows() == list(serial.output)

    def test_count_sink_under_full_ladder(self, routed):
        db, bound, serial = routed
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        sink = CountSink()
        evaluate_with_partitioning(
            TRIANGLE, db, bound, sink=sink, governor=gov
        )
        assert sink.total == serial.count

    def test_tuples_engine_cancels_cooperatively(self):
        # string-valued data runs the blocked engine too, and cancels at
        # its first block boundary
        ints = star_database(64, num_hubs=4)
        db = Database({
            name: Relation(
                ints[name].attributes,
                [tuple(f"v{v}" for v in row) for row in ints[name]],
            )
            for name in ints
        })
        token = CancellationToken()
        token.cancel()
        gov = EvaluationGovernor(token=token)
        with pytest.raises(EvaluationCancelled):
            generic_join(star_query(2), db, frontier_block=64, governor=gov)

    def test_semijoin_reduce_cancels_cooperatively(self):
        db = Database(
            {
                "R": Relation(("a", "b"), [(1, 2), (2, 3)]),
                "S": Relation(("a", "b"), [(2, 4), (3, 5)]),
            }
        )
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        token = CancellationToken()
        token.cancel()
        gov = EvaluationGovernor(token=token)
        with pytest.raises(EvaluationCancelled):
            semijoin_reduce(query, db, governor=gov)

    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=18
        ),
        st.sampled_from([None, 1, 7]),
    )
    def test_random_graphs_identical_under_pressure(self, pairs, block):
        db = Database({"R": Relation(("a", "b"), pairs)})
        reference = generic_join(TRIANGLE, db, frontier_block=block)
        gov = EvaluationGovernor(
            forced_ladder_budget(), memory_probe=pressure_probe()
        )
        run = generic_join(TRIANGLE, db, frontier_block=block, governor=gov)
        assert list(run.output) == list(reference.output)
        assert run.nodes_visited == reference.nodes_visited


# ---------------------------------------------------------------------------
# The real probe on the star workload


STAR = star_query(2)


class TestStarUnderRealBudget:
    def test_undersized_hard_cap_raises_not_oom(self):
        """The materialized output alone exceeds the cap: the governor
        must stop the run, before memory exceeds the cap by more than
        roughly one block of work (never an unbounded overshoot)."""
        import tracemalloc

        db = star_database(64, num_hubs=256)  # 16384 output rows ≈ 384K
        hard = 256 * KB
        budget = EvaluationBudget(
            soft_memory_bytes=128 * KB, hard_memory_bytes=hard
        )
        observed = []
        tracemalloc.start()
        try:
            from repro.evaluation.governor import default_memory_probe

            def probe():
                value = default_memory_probe()
                observed.append(value)
                return value

            gov = EvaluationGovernor(budget, memory_probe=probe)
            with pytest.raises(MemoryBudgetExceeded) as err:
                generic_join(STAR, db, governor=gov)
        finally:
            tracemalloc.stop()
        snapshot = err.value.snapshot
        assert snapshot.nodes_visited > 0
        assert snapshot.peak_memory_bytes >= hard
        # bounded overshoot: at most the baseline plus ~one
        # initial-frontier-block slice of temporaries (~1.2 MB here),
        # far below the full materialization this run was heading for
        assert max(observed) - observed[0] < hard + 2 * MB

    @pytest.mark.parametrize("mode", ["materialize", "count", "spill"])
    def test_fan_out_1024_completes_via_ladder(self, mode, tmp_path):
        # tracemalloc makes the probe measure traced growth rather than
        # RSS growth: after earlier tests the allocator holds recycled
        # pages, so RSS alone may never cross the soft watermark even
        # though the run allocates well past it.
        import tracemalloc

        db = star_database(1024, num_hubs=1)
        reference = generic_join(STAR, db, frontier_block=4096)
        budget = EvaluationBudget(
            soft_memory_bytes=128 * KB,
            hard_memory_bytes=64 * MB,
        )
        tracemalloc.start()
        try:
            gov = EvaluationGovernor(budget)
            if mode == "materialize":
                with EscalatingSink(tmp_path / "esc", chunk_rows=4096) as sink:
                    run = generic_join(STAR, db, sink=sink, governor=gov)
                    assert sink.rows() == list(reference.output)
            elif mode == "count":
                sink = CountSink()
                run = generic_join(STAR, db, sink=sink, governor=gov)
                assert sink.total == reference.count
            else:
                with SpillSink(tmp_path / "spill", chunk_rows=4096) as sink:
                    run = generic_join(STAR, db, sink=sink, governor=gov)
                    assert sink.rows() == list(reference.output)
        finally:
            tracemalloc.stop()
        assert run.nodes_visited == reference.nodes_visited
        assert gov.ladder, "the budget should have forced degradation"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fan_out_1024_parallel_governed(self, workers):
        db = star_database(1024, num_hubs=1)
        reference = generic_join(STAR, db, frontier_block=4096)
        stats = collect_statistics(STAR, db, ps=[1.0, 2.0, math.inf])
        bound = lp_bound(stats, query=STAR)
        budget = EvaluationBudget(
            soft_memory_bytes=512 * KB,
            hard_memory_bytes=1 << 30,
        )
        run = evaluate_parallel(
            STAR, db, bound, workers=workers, budget=budget
        )
        assert sorted(run.output) == sorted(reference.output)
        assert run.nodes_visited == reference.nodes_visited


# ---------------------------------------------------------------------------
# Parallel supervision under governance


class TestParallelGovernance:
    def test_global_deadline_stops_run_with_manifest(self, routed, tmp_path):
        db, bound, _ = routed
        run_dir = tmp_path / "run"
        budget = EvaluationBudget(deadline_seconds=1e-6)
        with pytest.raises(EvaluationDeadlineExceeded) as err:
            evaluate_parallel(
                TRIANGLE,
                db,
                bound,
                workers=2,
                run_dir=run_dir,
                budget=budget,
            )
        assert err.value.snapshot.run_dir == str(run_dir)
        # the checkpoint manifest survives for --resume
        assert (run_dir / "manifest.json").exists()

    def test_deadline_snapshot_names_ephemeral_run_dir(self, routed):
        db, bound, _ = routed
        with pytest.raises(EvaluationDeadlineExceeded) as err:
            evaluate_parallel(
                TRIANGLE,
                db,
                bound,
                workers=2,
                budget=EvaluationBudget(deadline_seconds=1e-6),
            )
        run_dir = err.value.snapshot.run_dir
        assert run_dir is not None
        import pathlib

        assert (pathlib.Path(run_dir) / "manifest.json").exists()

    def test_cancel_then_resume_is_bit_identical(self, routed, tmp_path):
        db, bound, serial = routed
        run_dir = tmp_path / "run"

        class AfterParts(CancellationToken):
            """Cancels once the manifest records ``k`` finished parts."""

            def __init__(self, manifest, k):
                super().__init__()
                self.manifest, self.k = manifest, k

            @property
            def cancelled(self):
                if super().cancelled:
                    return True
                try:
                    payload = json.loads(self.manifest.read_text())
                except (OSError, ValueError):
                    return False
                done = sum(
                    1
                    for entry in payload.get("parts", {}).values()
                    if entry.get("status") == "done"
                )
                return done >= self.k

        token = AfterParts(run_dir / "manifest.json", 3)
        with pytest.raises(EvaluationCancelled) as err:
            evaluate_parallel(
                TRIANGLE,
                db,
                bound,
                workers=2,
                run_dir=run_dir,
                cancel_token=token,
            )
        snapshot = err.value.snapshot
        assert snapshot.reason == "cancelled"
        assert snapshot.parts_done >= 3
        assert snapshot.run_dir == str(run_dir)
        resumed = evaluate_parallel(
            TRIANGLE,
            db,
            bound,
            workers=2,
            run_dir=run_dir,
            resume=True,
        )
        assert resumed.n_resumed >= 3
        assert sorted(resumed.output) == sorted(serial.output)
        assert resumed.nodes_visited == serial.nodes_visited
        assert resumed.parts_evaluated == serial.parts_evaluated

    def test_worker_memory_fault_aborts_run(self, routed):
        """A hard-cap verdict from a worker is deterministic: the
        supervisor re-raises instead of retrying or degrading serially
        (which would evade the budget)."""
        db, bound, _ = routed
        injector = FaultInjector({(0, 0): "memory"})  # bias 1<<40 ≥ hard
        budget = EvaluationBudget(
            soft_memory_bytes=MB, hard_memory_bytes=4 * MB
        )
        with pytest.raises(MemoryBudgetExceeded) as err:
            evaluate_parallel(
                TRIANGLE,
                db,
                bound,
                workers=2,
                budget=budget,
                injector=injector,
            )
        assert err.value.snapshot.part_index == 0

    def test_worker_memory_fault_soft_pressure_degrades(self, routed):
        db, bound, serial = routed
        injector = FaultInjector(
            {(0, 0): "memory"}, memory_bias_bytes=2 * MB
        )
        budget = EvaluationBudget(
            soft_memory_bytes=MB, hard_memory_bytes=1 << 40
        )
        run = evaluate_parallel(
            TRIANGLE,
            db,
            bound,
            workers=2,
            budget=budget,
            injector=injector,
        )
        assert sorted(run.output) == sorted(serial.output)
        assert run.nodes_visited == serial.nodes_visited
        faulted = next(o for o in run.outcomes if o.index == 0)
        assert faulted.ladder, "soft pressure should have walked the ladder"
        assert faulted.attempts == 1  # degraded, not failed

    def test_worker_clock_fault_trips_deadline(self, routed):
        db, bound, _ = routed
        injector = FaultInjector(
            {(0, 0): "clock"}, clock_skew_seconds=3600.0
        )
        budget = EvaluationBudget(deadline_seconds=120.0)
        with pytest.raises(EvaluationDeadlineExceeded):
            evaluate_parallel(
                TRIANGLE,
                db,
                bound,
                workers=2,
                budget=budget,
                injector=injector,
            )

    def test_governor_fault_without_budget_is_injected_fault(self, routed):
        """No budget shipped: the plan stays observable as a normal
        retried fault instead of silently doing nothing."""
        db, bound, serial = routed
        injector = FaultInjector({(0, 0): "memory"})
        run = evaluate_parallel(
            TRIANGLE,
            db,
            bound,
            workers=2,
            injector=injector,
        )
        assert sorted(run.output) == sorted(serial.output)
        faulted = next(o for o in run.outcomes if o.index == 0)
        assert faulted.attempts == 2
        assert run.n_retried >= 1


# ---------------------------------------------------------------------------
# Fault-plan surface for the governor kinds


class TestGovernorFaultKinds:
    def test_command_bias(self):
        memory = FaultCommand("memory", 0, 0, memory_bias_bytes=7)
        assert memory.governor_bias() == (7, 0.0)
        clock = FaultCommand("clock", 0, 0, clock_skew_seconds=2.5)
        assert clock.governor_bias() == (0, 2.5)
        assert FaultCommand("raise", 0, 0).governor_bias() == (0, 0.0)

    def test_require_governor(self):
        for kind in GOVERNOR_KINDS:
            with pytest.raises(InjectedFault, match="no budget"):
                FaultCommand(kind, 3, 0).require_governor()
        FaultCommand("raise", 3, 0).require_governor()  # no-op

    def test_parse_spec_bias_and_skew(self):
        injector = parse_fault_spec("part=2:memory,bias=2M,skew=7.5")
        command = injector.command_for(2, 0)
        assert command.kind == "memory"
        assert command.memory_bias_bytes == 2 * MB
        assert command.clock_skew_seconds == 7.5

    def test_seeded_governor_kinds_deterministic(self):
        spec = "seed=11,rate=1.0,kinds=memory+clock,bias=1M,skew=9"
        first = parse_fault_spec(spec).resolve(8)
        second = parse_fault_spec(spec).resolve(8)
        assert first.plan == second.plan
        assert len(first.plan) == 8
        assert set(first.plan.values()) <= set(GOVERNOR_KINDS)
        assert first.memory_bias_bytes == MB
        assert first.clock_skew_seconds == 9.0


# ---------------------------------------------------------------------------
# CLI surface


class TestCliGovernanceFlags:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_bad_memory_spec_fails_fast(self, capsys):
        code = self.run_cli(
            "experiment", "E14", "--memory-budget", "notasize"
        )
        assert code == 2
        assert "memory" in capsys.readouterr().err

    def test_bad_deadline_fails_fast(self, capsys):
        code = self.run_cli("experiment", "E14", "--deadline", "-3")
        assert code == 2

    def test_experiment_without_governance_rejects_flags(self, capsys):
        code = self.run_cli("experiment", "E7", "--memory-budget", "1M")
        assert code == 2
        assert "does not take" in capsys.readouterr().err

    def test_deadline_exceeded_exit_code(self, capsys):
        code = self.run_cli("experiment", "E14", "--deadline", "1e-9")
        assert code == 124
        err = capsys.readouterr().err
        assert "deadline exceeded" in err
