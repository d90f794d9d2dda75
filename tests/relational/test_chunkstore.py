"""Durability and self-description of the spill-to-disk segment store.

:class:`~repro.relational.chunkstore.SegmentStore` is the parallel
evaluator's per-part persistence layer: every directory is stamped with
a ``store.json`` manifest (foreign directories are refused instead of
interleaving two stores' segments), writes replace atomically but sync
nothing, :meth:`SegmentStore.sync` makes a store's files and directory
durable in one call, and :meth:`SegmentStore.attach` re-opens a stamped
directory validating every surviving segment — the primitives the
parallel evaluator's checkpoint builds on.
"""

import json
import os

import numpy as np
import pytest

from repro.relational import SpillSink
from repro.relational.chunkstore import (
    ChunkStoreError,
    SegmentStore,
    atomic_write_json,
    fsync_dir,
)


@pytest.fixture
def fsynced(monkeypatch):
    """The inode of every file or directory ``os.fsync`` is called on."""
    inodes = []
    real_fsync = os.fsync

    def fsync(fd):
        inodes.append(os.fstat(fd).st_ino)
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    return inodes


class TestManifestStamp:
    def test_new_store_stamps_directory(self, tmp_path):
        SegmentStore(tmp_path / "s", 3)
        payload = json.loads((tmp_path / "s" / "store.json").read_text())
        assert payload == {
            "format": "repro-segment-store/v1",
            "n_columns": 3,
        }

    def test_reopening_same_arity_is_fine(self, tmp_path):
        SegmentStore(tmp_path, 2)
        SegmentStore(tmp_path, 2)  # no error: same format, same arity

    def test_foreign_manifest_refused(self, tmp_path):
        (tmp_path / "store.json").write_text('{"format": "someone-else"}')
        with pytest.raises(ChunkStoreError, match="foreign store"):
            SegmentStore(tmp_path, 2)

    def test_unparsable_manifest_refused(self, tmp_path):
        (tmp_path / "store.json").write_text("not json {{{")
        with pytest.raises(ChunkStoreError, match="not a segment-store"):
            SegmentStore(tmp_path, 2)

    def test_arity_mismatch_refused(self, tmp_path):
        SegmentStore(tmp_path, 2)
        with pytest.raises(ChunkStoreError, match="declares 2"):
            SegmentStore(tmp_path, 3)

    def test_delete_removes_stamp_and_directory(self, tmp_path):
        store = SegmentStore(tmp_path / "s", 1)
        store.write([np.arange(4)])
        store.delete()
        assert not (tmp_path / "s").exists()


class TestAttach:
    def _populated(self, tmp_path, n_segments=3):
        store = SegmentStore(tmp_path, 2)
        for i in range(n_segments):
            store.write(
                [np.arange(i, i + 5), np.arange(i + 10, i + 15)]
            )
        return store

    def test_roundtrip_rows_and_order(self, tmp_path):
        original = self._populated(tmp_path)
        attached = SegmentStore.attach(tmp_path, 2)
        assert attached.n_rows == original.n_rows
        assert attached.segments() == original.segments()
        for mine, theirs in zip(
            attached.iter_chunks(), original.iter_chunks()
        ):
            for a, b in zip(mine, theirs):
                np.testing.assert_array_equal(a, b)

    def test_attach_with_pinned_names(self, tmp_path):
        original = self._populated(tmp_path)
        names = [p.name for p in original.segments()][:2]
        attached = SegmentStore.attach(tmp_path, 2, segment_names=names)
        assert attached.n_segments == 2

    def test_attach_requires_stamp(self, tmp_path):
        with pytest.raises(ChunkStoreError, match="not a segment store"):
            SegmentStore.attach(tmp_path / "nowhere", 2)

    def test_attach_missing_segment(self, tmp_path):
        self._populated(tmp_path)
        with pytest.raises(ChunkStoreError, match="missing"):
            SegmentStore.attach(
                tmp_path, 2, segment_names=["segment-00000009.npz"]
            )

    def test_attach_rejects_truncated_segment(self, tmp_path):
        original = self._populated(tmp_path)
        victim = original.segments()[-1]
        size = victim.stat().st_size
        with open(victim, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(ChunkStoreError, match="corrupt or truncated"):
            SegmentStore.attach(tmp_path, 2)

    def test_zero_columns_refused(self, tmp_path):
        with pytest.raises(ValueError, match="n_columns must be ≥ 1"):
            SegmentStore(tmp_path, 0)
        assert not (tmp_path / "store.json").exists()


class TestDurabilityHelpers:
    def test_atomic_write_json_roundtrip(self, tmp_path):
        target = tmp_path / "m.json"
        atomic_write_json(target, {"a": 1})
        atomic_write_json(target, {"a": 2, "b": [3]})
        assert json.loads(target.read_text()) == {"a": 2, "b": [3]}
        # no tmp sibling survives the replace
        assert list(tmp_path.iterdir()) == [target]

    def test_fsync_dir_tolerates_any_directory(self, tmp_path):
        fsync_dir(tmp_path)  # must not raise
        fsync_dir(tmp_path / "missing")  # nor for absent paths

    def test_spill_sink_run_makes_no_fsync(self, tmp_path, fsynced):
        with SpillSink(tmp_path / "spill", chunk_rows=2) as sink:
            sink.open(("x", "y"))
            for start in range(0, 12, 3):
                sink.append([np.arange(start, start + 3)] * 2)
            assert sink.rows()[:2] == [(0, 0), (1, 1)]
            assert sink.store.n_segments == 4
        assert fsynced == []

    def test_sync_covers_segments_stamp_and_directory(
        self, tmp_path, fsynced
    ):
        store = SegmentStore(tmp_path / "s", 1)
        store.write([np.arange(4)])
        store.write([np.arange(2)])
        assert fsynced == []
        store.sync()
        expected = [
            p.stat().st_ino
            for p in (*store.segments(), store.directory / "store.json")
        ]
        assert fsynced == expected + [store.directory.stat().st_ino]


class TestWriteFailure:
    """A failing flush (disk full, permissions yanked) surfaces as a
    :class:`ChunkStoreError` naming the segment and the rows at risk,
    leaves no ``*.tmp`` survivor, and never corrupts earlier segments."""

    CHUNK = [np.array([1, 2, 3]), np.array([4, 5, 6])]

    @pytest.mark.parametrize(
        "errno_name,message", [("ENOSPC", "No space left"), ("EACCES", "Permission denied")]
    )
    def test_failed_replace_raises_chunk_store_error(
        self, tmp_path, monkeypatch, errno_name, message
    ):
        import errno
        import os

        store = SegmentStore(tmp_path, 2)
        code = getattr(errno, errno_name)

        def broken_replace(src, dst):
            raise OSError(code, message)

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(ChunkStoreError, match=r"3 rows at risk"):
            store.write(self.CHUNK)
        monkeypatch.undo()
        # nothing half-written survives, the store is still usable
        assert not list(tmp_path.glob("*.tmp"))
        assert store.n_segments == 0 and store.n_rows == 0
        store.write(self.CHUNK)
        assert store.n_rows == 3

    def test_failed_savez_raises_and_leaves_no_tmp(
        self, tmp_path, monkeypatch
    ):
        store = SegmentStore(tmp_path, 2)

        def broken_savez(handle, **payload):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(
            "repro.relational.chunkstore.np.savez", broken_savez
        )
        with pytest.raises(ChunkStoreError, match="segment"):
            store.write(self.CHUNK)
        assert not list(tmp_path.glob("*.tmp"))

    def test_error_names_the_segment_path(self, tmp_path, monkeypatch):
        import os

        store = SegmentStore(tmp_path, 2)
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (_ for _ in ()).throw(OSError(28, "full")),
        )
        with pytest.raises(ChunkStoreError, match="segment-00000000.npz"):
            store.write(self.CHUNK)

    def test_spill_sink_cleanup_survives_write_failure(
        self, tmp_path, monkeypatch
    ):
        import os

        from repro.relational import SpillSink

        target = tmp_path / "spill"
        with pytest.raises(ChunkStoreError):
            with SpillSink(target, chunk_rows=2) as sink:
                sink.open(("x", "y"))
                sink.append([np.array([1]), np.array([2])])
                monkeypatch.setattr(
                    os,
                    "replace",
                    lambda src, dst: (_ for _ in ()).throw(
                        OSError(28, "No space left on device")
                    ),
                )
                # flush boundary
                sink.append([np.array([3, 5]), np.array([4, 6])])
        monkeypatch.undo()
        # the context manager's cleanup still ran: no tmp survivors and
        # no stray segments the failed run would leak
        assert not list(target.glob("*.tmp"))
        assert not list(target.glob("segment-*.npz"))
