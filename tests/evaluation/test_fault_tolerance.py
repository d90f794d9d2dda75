"""Fault tolerance of the supervised parallel Theorem 2.6 evaluator.

The contract under test: :func:`repro.evaluation.evaluate_parallel`
produces *exactly* the serial evaluation's results — rows, row order
through sinks, counts, part totals, and the ``nodes_visited`` meter —
for every sink mode, frontier block, and worker count, and keeps doing
so when workers raise, die without cleanup, hang past their deadline,
or silently corrupt their spilled segments.  Checkpoint-resume completes
an interrupted run from its manifest without re-evaluating finished
parts, and the fault injector's seeded plans are deterministic.

The workload is the ``TestRoutedPartitioning`` triangle fixture: a
heavy-tailed graph whose ℓ2 statistic forces real Lemma 2.5
partitioning (36 part combinations), so the fan-out, merge order, and
checkpoint machinery are all genuinely exercised.
"""

import json
import math

import pytest

from repro.core import collect_statistics, lp_bound
from repro.datasets import power_law_graph
from repro.evaluation import (
    FaultInjector,
    InjectedFault,
    PartFailedError,
    evaluate_parallel,
    evaluate_with_partitioning,
    parse_fault_spec,
)
from repro.evaluation import parallel
from repro.evaluation.faults import FaultCommand
from repro.evaluation.panda_algorithm import PART_ORDER
from repro.query import parse_query
from repro.relational import CountSink, Database, GroupCountSink, SpillSink
from repro.relational.chunkstore import ChunkStoreError, SegmentStore



def fail_fallback(monkeypatch, error):
    """Make the supervisor's in-process serial fallback raise ``error``.

    Workers fork from a clean forkserver, so the patch reaches only the
    supervisor: pool attempts evaluate as usual, and an exhausted part
    fails for good."""

    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(parallel, "evaluate_part", failing)


@pytest.fixture(scope="module")
def setup():
    db = Database({"R": power_law_graph(200, 700, 0.6, seed=9)})
    query = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
    stats = collect_statistics(query, db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=query)
    serial = evaluate_with_partitioning(query, db, bound)
    assert serial.parts_evaluated > 1, "fixture must exercise partitioning"
    return query, db, bound, serial


@pytest.fixture(scope="module")
def clean_run(setup):
    query, db, bound, _ = setup
    return evaluate_parallel(query, db, bound, workers=2)


@pytest.fixture(scope="module")
def fat_part(clean_run):
    """Index of a part that spills at least one segment."""
    return next(o.index for o in clean_run.outcomes if o.n_rows > 0)


class TestSerialEquivalence:
    def test_clean_run_matches_serial(self, setup, clean_run):
        _, _, _, serial = setup
        assert clean_run.parts_evaluated == serial.parts_evaluated
        assert clean_run.nodes_visited == serial.nodes_visited
        assert clean_run.log2_budget == serial.log2_budget
        assert sorted(clean_run.output) == sorted(serial.output)
        assert all(o.status == "done" for o in clean_run.outcomes)
        assert all(o.attempts == 1 for o in clean_run.outcomes)
        assert clean_run.n_resumed == 0
        assert clean_run.n_retried == 0
        # ephemeral scratch directory leaves nothing behind
        assert clean_run.run_dir is None

    @pytest.mark.parametrize(
        "frontier_block,workers", [(None, 2), (7, 1), (7, 3)]
    )
    def test_blocks_and_worker_counts(self, setup, frontier_block, workers):
        query, db, bound, serial = setup
        run = evaluate_parallel(
            query,
            db,
            bound,
            workers=workers,
            frontier_block=frontier_block,
        )
        assert run.parts_evaluated == serial.parts_evaluated
        assert run.nodes_visited == serial.nodes_visited
        assert sorted(run.output) == sorted(serial.output)

    def test_count_sink(self, setup):
        query, db, bound, serial = setup
        serial_sink, parallel_sink = CountSink(), CountSink()
        evaluate_with_partitioning(query, db, bound, sink=serial_sink)
        run = evaluate_parallel(
            query, db, bound, workers=2, sink=parallel_sink
        )
        assert parallel_sink.total == serial_sink.total
        assert run.count == serial_sink.total
        assert run.output is None

    def test_group_count_sink(self, setup):
        query, db, bound, _ = setup
        group_vars = query.variables[:1]
        serial_sink = GroupCountSink(group_vars)
        parallel_sink = GroupCountSink(group_vars)
        evaluate_with_partitioning(query, db, bound, sink=serial_sink)
        evaluate_parallel(query, db, bound, workers=2, sink=parallel_sink)
        assert parallel_sink.counts() == serial_sink.counts()

    def test_spill_sink_rows_and_order(self, setup, tmp_path):
        query, db, bound, _ = setup
        with SpillSink(tmp_path / "serial", chunk_rows=128) as serial_sink:
            evaluate_with_partitioning(query, db, bound, sink=serial_sink)
            with SpillSink(tmp_path / "par", chunk_rows=128) as parallel_sink:
                evaluate_parallel(
                    query,
                    db,
                    bound,
                    workers=3,
                    sink=parallel_sink,
                    # worker-side chunking differs from the final sink's:
                    # the merged stream must still be identical
                    chunk_rows=64,
                )
                assert parallel_sink.rows() == serial_sink.rows()


class TestWorkerStart:
    def test_workers_do_not_inherit_supervisor_state(
        self, setup, monkeypatch
    ):
        """Workers fork from a clean forkserver, never from the
        supervisor (which may run threads): a patch made in the
        supervisor does not reach them."""
        query, db, bound, serial = setup

        def poisoned(*args, **kwargs):
            raise RuntimeError("supervisor state reached a worker")

        monkeypatch.setattr(parallel, "evaluate_part", poisoned)
        # no retries: a poisoned worker would send its part straight to
        # the (equally poisoned) in-process fallback and fail the run
        run = evaluate_parallel(query, db, bound, workers=2, max_retries=0)
        assert list(run.output) == list(serial.output)
        assert run.nodes_visited == serial.nodes_visited
        assert all(o.status == "done" for o in run.outcomes)


class TestFaultRecovery:
    def test_raise_and_exit_faults_retry_to_success(self, setup):
        query, db, bound, serial = setup
        injector = FaultInjector({(0, 0): "raise", (2, 0): "exit"})
        run = evaluate_parallel(query, db, bound, workers=2, injector=injector)
        assert sorted(run.output) == sorted(serial.output)
        assert run.nodes_visited == serial.nodes_visited
        assert run.outcomes[0].attempts > 1
        assert any(
            "InjectedFault" in e for e in run.outcomes[0].errors
        )
        # the os._exit part (and any pool-mates it took down) retried
        assert run.outcomes[2].attempts > 1
        assert run.n_retried >= 2

    def test_hang_times_out_then_degrades(self, setup):
        query, db, bound, serial = setup
        injector = FaultInjector(
            {(1, 0): "hang", (1, 1): "hang"}, hang_seconds=30.0
        )
        run = evaluate_parallel(
            query,
            db,
            bound,
            workers=2,
            injector=injector,
            part_timeout=0.75,
            max_retries=1,
        )
        outcome = run.outcomes[1]
        assert outcome.status == "degraded"
        assert sum("timed out" in e for e in outcome.errors) == 2
        assert run.n_degraded == 1
        # the degraded serial re-run is exact, so the merge still is
        assert sorted(run.output) == sorted(serial.output)
        assert run.nodes_visited == serial.nodes_visited

    def test_corruption_detected_and_retried(self, setup, fat_part):
        query, db, bound, serial = setup
        injector = FaultInjector({(fat_part, 0): "corrupt"})
        run = evaluate_parallel(query, db, bound, workers=2, injector=injector)
        outcome = run.outcomes[fat_part]
        assert outcome.attempts == 2
        assert any("corrupt" in e for e in outcome.errors)
        assert sorted(run.output) == sorted(serial.output)

    def test_persistent_corruption_raises_with_part_id(
        self, setup, fat_part, monkeypatch
    ):
        query, db, bound, _ = setup
        injector = FaultInjector(
            {(fat_part, attempt): "corrupt" for attempt in range(3)}
        )
        fail_fallback(monkeypatch, ChunkStoreError("could not write segment"))
        with pytest.raises(ChunkStoreError, match=f"part {fat_part}"):
            evaluate_parallel(
                query, db, bound, workers=2, injector=injector, max_retries=2
            )

    def test_exhausted_non_corrupt_failure_raises_part_failed(
        self, setup, monkeypatch
    ):
        query, db, bound, _ = setup
        injector = FaultInjector(
            {(3, attempt): "raise" for attempt in range(2)}
        )
        fail_fallback(monkeypatch, RuntimeError("fallback failed too"))
        with pytest.raises(PartFailedError, match="part 3") as info:
            evaluate_parallel(
                query, db, bound, workers=2, injector=injector, max_retries=1
            )
        assert info.value.index == 3
        # two pool attempts, then the serial fallback
        assert info.value.attempts == 3
        assert "InjectedFault" in info.value.errors[0]
        assert info.value.errors[-1].startswith("serial fallback")


class TestCheckpointResume:
    def test_killed_run_resumes_bit_identical(
        self, setup, tmp_path, monkeypatch
    ):
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        # every attempt of part 3 dies without cleanup and its fallback
        # fails — the run aborts mid-flight with a manifest on disk
        injector = FaultInjector(
            {(3, attempt): "exit" for attempt in range(3)}
        )
        with monkeypatch.context() as patch:
            fail_fallback(patch, RuntimeError("fallback failed too"))
            with pytest.raises(PartFailedError):
                evaluate_parallel(
                    query,
                    db,
                    bound,
                    workers=2,
                    injector=injector,
                    max_retries=2,
                    run_dir=run_dir,
                )
        manifest = json.loads((run_dir / "manifest.json").read_text())
        done_before = {
            int(k)
            for k, v in manifest["parts"].items()
            if v["status"] == "done"
        }
        assert done_before, "interrupted run must checkpoint finished parts"
        attempts_before = {
            index: manifest["parts"][str(index)]["attempts"]
            for index in done_before
        }

        with SpillSink(tmp_path / "serial", chunk_rows=128) as serial_sink:
            evaluate_with_partitioning(query, db, bound, sink=serial_sink)
            with SpillSink(tmp_path / "par", chunk_rows=128) as final_sink:
                resumed = evaluate_parallel(
                    query,
                    db,
                    bound,
                    workers=2,
                    sink=final_sink,
                    run_dir=run_dir,
                    resume=True,
                )
                # spill round-trip bit-identical: same rows, same order
                assert final_sink.rows() == serial_sink.rows()
        assert resumed.n_resumed == len(done_before)
        for index in done_before:
            outcome = resumed.outcomes[index]
            # finished parts were not re-evaluated: status says resumed
            # and the attempt counter is the checkpointed one, untouched
            assert outcome.status == "resumed"
            assert outcome.attempts == attempts_before[index]

    def test_resumed_meters_match_serial(self, setup, tmp_path, monkeypatch):
        query, db, bound, serial = setup
        run_dir = tmp_path / "run"
        injector = FaultInjector({(5, 0): "raise"})
        with monkeypatch.context() as patch:
            fail_fallback(patch, RuntimeError("fallback failed too"))
            with pytest.raises(PartFailedError):
                evaluate_parallel(
                    query,
                    db,
                    bound,
                    workers=2,
                    injector=injector,
                    max_retries=0,
                    run_dir=run_dir,
                )
        resumed = evaluate_parallel(
            query, db, bound, workers=2, run_dir=run_dir, resume=True
        )
        assert sorted(resumed.output) == sorted(serial.output)
        # node meters of resumed parts come from the checkpoint, so the
        # total still equals the serial meter exactly
        assert resumed.nodes_visited == serial.nodes_visited
        assert resumed.parts_evaluated == serial.parts_evaluated

    def test_existing_manifest_requires_resume_flag(self, setup, tmp_path):
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        evaluate_parallel(query, db, bound, workers=1, run_dir=run_dir)
        with pytest.raises(ValueError, match="resume=True"):
            evaluate_parallel(query, db, bound, workers=1, run_dir=run_dir)

    def test_fingerprint_mismatch_rejected(self, setup, tmp_path):
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        evaluate_parallel(query, db, bound, workers=1, run_dir=run_dir)
        with pytest.raises(ValueError, match="different run configuration"):
            evaluate_parallel(
                query,
                db,
                bound,
                workers=1,
                frontier_block=7,
                run_dir=run_dir,
                resume=True,
            )

    def test_other_part_order_rejected(self, setup, tmp_path):
        # per-part row order follows the part-order rule: a manifest
        # written under another rule (or before the rule was recorded)
        # must not resume into a mixed-order merge
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        evaluate_parallel(query, db, bound, workers=1, run_dir=run_dir)
        manifest = run_dir / "manifest.json"
        payload = json.loads(manifest.read_text())
        assert payload["fingerprint"]["part_order"] == PART_ORDER
        for stale in ("other-rule", None):
            if stale is None:
                del payload["fingerprint"]["part_order"]
            else:
                payload["fingerprint"]["part_order"] = stale
            manifest.write_text(json.dumps(payload))
            with pytest.raises(ValueError, match="different run configuration"):
                evaluate_parallel(
                    query,
                    db,
                    bound,
                    workers=1,
                    run_dir=run_dir,
                    resume=True,
                )

    def test_foreign_manifest_rejected(self, setup, tmp_path):
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text('{"format": "other"}')
        with pytest.raises(ChunkStoreError, match="not a parallel-run"):
            evaluate_parallel(
                query,
                db,
                bound,
                workers=1,
                run_dir=run_dir,
                resume=True,
            )



class TestDurability:
    def test_part_synced_before_the_manifest_names_it(
        self, setup, fat_part, tmp_path, monkeypatch
    ):
        """The process that spilled a part syncs its segments, stamp and
        directory before the supervisor's manifest records the part.
        The serial fallback runs that process's code in this one, so
        patches see both sides."""
        import os

        query, db, bound, serial = setup
        run_dir = tmp_path / "run"
        log = []
        real_fsync, real_write = os.fsync, parallel.atomic_write_json

        def fsync(fd):
            log.append(("fsync", os.fstat(fd).st_ino))
            return real_fsync(fd)

        def write_manifest(path, payload):
            entry = payload["parts"][str(fat_part)]
            log.append(("manifest", entry["status"]))
            return real_write(path, payload)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(parallel, "atomic_write_json", write_manifest)
        run = evaluate_parallel(
            query,
            db,
            bound,
            workers=2,
            injector=FaultInjector({(fat_part, 0): "raise"}),
            max_retries=0,
            run_dir=run_dir,
        )
        assert run.outcomes[fat_part].status == "degraded"
        assert sorted(run.output) == sorted(serial.output)
        part_dir = run_dir / f"part-{fat_part:05d}"
        files = [part_dir / n for n in run.outcomes[fat_part].segments]
        expected = {
            p.stat().st_ino for p in (*files, part_dir / "store.json", part_dir)
        }
        named = log.index(("manifest", "degraded"))
        # only fsyncs since the manifest write before it: an inode freed
        # earlier (a replaced manifest) may be reused by the part's files
        since = max(
            i for i, (kind, _) in enumerate(log[:named]) if kind == "manifest"
        )
        synced = {ino for kind, ino in log[since:named] if kind == "fsync"}
        assert files and expected <= synced

    def test_merge_reads_each_segment_once(self, setup, tmp_path, monkeypatch):
        query, db, bound, _ = setup
        run_dir = tmp_path / "run"
        first = evaluate_parallel(query, db, bound, workers=2, run_dir=run_dir)
        reads = []
        real_read = SegmentStore.read

        def read(store, path):
            reads.append(str(path))
            return real_read(store, path)

        monkeypatch.setattr(SegmentStore, "read", read)
        resumed = evaluate_parallel(
            query, db, bound, workers=2, run_dir=run_dir, resume=True
        )
        assert resumed.n_resumed == len(first.outcomes)
        assert list(resumed.output) == list(first.output)
        n_segments = sum(len(o.segments) for o in first.outcomes)
        assert n_segments > 0
        assert len(reads) == len(set(reads)) == n_segments

class TestFaultInjector:
    def test_seeded_plan_is_deterministic(self):
        first = FaultInjector.from_seed(7, 36, rate=0.4)
        second = FaultInjector.from_seed(7, 36, rate=0.4)
        assert first.plan == second.plan
        assert len(first.plan) > 0
        assert FaultInjector.from_seed(8, 36, rate=0.4).plan != first.plan

    def test_seeded_run_outcomes_are_deterministic(self, setup):
        query, db, bound, serial = setup
        runs = [
            evaluate_parallel(
                query,
                db,
                bound,
                workers=2,
                injector=FaultInjector.from_seed(
                    11, 36, rate=0.2, kinds=("raise",)
                ),
            )
            for _ in range(2)
        ]
        for run in runs:
            assert sorted(run.output) == sorted(serial.output)
        first, second = runs
        assert [o.attempts for o in first.outcomes] == [
            o.attempts for o in second.outcomes
        ]
        assert [o.errors for o in first.outcomes] == [
            o.errors for o in second.outcomes
        ]

    def test_command_resolution(self):
        injector = FaultInjector({(2, 1): "hang"}, hang_seconds=5.0)
        assert injector.command_for(2, 0) is None
        command = injector.command_for(2, 1)
        assert command.kind == "hang"
        assert command.hang_seconds == 5.0
        assert injector.resolve(100) is injector

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultInjector({(0, 0): "melt"})
        with pytest.raises(ValueError, match="unknown fault kinds"):
            FaultInjector.from_seed(1, 4, kinds=("melt",))

    def test_parse_explicit_spec(self):
        injector = parse_fault_spec("part=3:hang, part=5:exit")
        assert injector.plan == {(3, 0): "hang", (5, 0): "exit"}

    def test_parse_seeded_spec_binds_lazily(self):
        spec = parse_fault_spec("seed=7,rate=0.5,kinds=raise+exit,hang=2")
        assert len(spec) == 0  # unbound until the part count is known
        bound_a = spec.resolve(24)
        bound_b = spec.resolve(24)
        assert bound_a.plan == bound_b.plan
        assert bound_a.plan
        assert set(bound_a.plan.values()) <= {"raise", "exit"}
        assert bound_a.hang_seconds == 2.0

    def test_parse_rejects_bad_specs(self):
        with pytest.raises(ValueError, match="KEY=VALUE"):
            parse_fault_spec("bogus")
        with pytest.raises(ValueError, match="INDEX:KIND"):
            parse_fault_spec("part=3:melt")
        with pytest.raises(ValueError, match="unknown fault spec field"):
            parse_fault_spec("frequency=2")
        with pytest.raises(ValueError, match="mixes"):
            parse_fault_spec("part=3:hang,seed=1")

    def test_corrupt_command_truncates_last_segment(self, tmp_path):
        import numpy as np

        store = SegmentStore(tmp_path, 1)
        store.write([np.arange(64)])
        (path,) = store.segments()
        FaultCommand("corrupt", 0, 0).trigger_after_spill([str(path)])
        with pytest.raises(ChunkStoreError, match="corrupt or truncated"):
            store.read(path)

    def test_corrupt_command_without_segments_raises(self):
        with pytest.raises(InjectedFault, match="no segment"):
            FaultCommand("corrupt", 4, 1).trigger_after_spill([])
