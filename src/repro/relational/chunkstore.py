"""Spill-to-disk chunk store: ordered ``.npz`` segment files.

The blocked WCOJ frontier bounds *live* memory, but a materializing
accumulator still holds all |Q(D)| output rows in RAM — the gap this
module closes for :class:`~repro.relational.columnar.SpillSink`.  A
:class:`SegmentStore` persists column chunks as numbered ``.npz``
segments inside one directory and re-iterates them in exactly the order
they were written, so a spilled output round-trips rows, row order, and
dtypes bit-identically while only one chunk is ever live.

Robustness properties the tests pin down:

* **Atomic writes** — each segment (and the ``store.json`` stamp) is
  written to a ``*.tmp`` sibling and moved into place with
  ``os.replace``: a crash can never leave a half-written file under a
  segment name.  Writes are *not* synced: a store's lifetime is usually
  one run (a :class:`~repro.relational.columnar.SpillSink` deletes its
  segments on close), and nothing reads them after a crash.  A caller
  that must find them after a hard kill — the parallel evaluator's
  checkpoint — calls :meth:`SegmentStore.sync` once, before it records
  the store.
* **Validated reads** — a truncated, corrupt, or wrong-shape segment
  raises :class:`ChunkStoreError` naming the file instead of yielding
  garbage rows.
* **Self-describing directories** — every store stamps its directory
  with a small ``store.json`` manifest (format tag + column arity).
  Opening a directory whose manifest is foreign, unparsable, or
  declares a different arity raises :class:`ChunkStoreError` instead of
  silently interleaving two stores' segments;
  :meth:`SegmentStore.attach` re-opens a stamped directory and
  re-registers its surviving segments in write order (validating every
  one), which is how the parallel supervisor checks a worker's spill.
* **No cross-run collisions** — segment names are deterministic per
  store, so concurrent runs must be given distinct directories (the
  CLI's ``--spill-dir``); :meth:`SegmentStore.delete` removes only the
  segments this store wrote (plus its manifest stamp) and the directory
  only if it is empty.

:func:`atomic_write_json` is the durable variant of the same
write-to-tmp + ``os.replace`` step (file and directory fsynced) for the
parallel evaluator's checkpoint manifest in
:mod:`repro.evaluation.parallel`.
"""

from __future__ import annotations

import json
import os
import pickle
import zipfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "ChunkStoreError",
    "SegmentStore",
    "atomic_write_json",
    "fsync_dir",
]

_SEGMENT_NAME = "segment-{:08d}.npz"
_STORE_MANIFEST = "store.json"
_STORE_FORMAT = "repro-segment-store/v1"


def fsync_dir(directory: str | os.PathLike) -> None:
    """Flush a directory's metadata (renames, creations) to disk.

    ``os.replace`` makes a write atomic but not *durable*: the rename
    lives in the directory's metadata until that is synced.  A no-op on
    platforms that cannot open directories for syncing.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir opens
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - e.g. network filesystems
        pass
    finally:
        os.close(fd)


def _replace_atomically(path: Path, write, durable: bool = False) -> None:
    """``write(handle)`` into a ``*.tmp`` sibling, then ``os.replace`` it
    onto ``path``: a reader never observes a partial file.  ``durable``
    also fsyncs the file and its directory, so once this returns the
    content survives a hard kill."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:
            write(handle)
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    finally:
        _unlink_quietly(tmp)
    if durable:
        fsync_dir(path.parent)


def _dump_json(payload: dict):
    text = json.dumps(payload, indent=2, sort_keys=True)
    return lambda handle: handle.write(text.encode("utf-8"))


def atomic_write_json(path: str | os.PathLike, payload: dict) -> None:
    """Write JSON durably: a reader never observes a partial file, and
    once this returns the content survives a hard kill."""
    _replace_atomically(Path(path), _dump_json(payload), durable=True)


class ChunkStoreError(RuntimeError):
    """A segment file is missing, truncated, corrupt, unwritable, or
    mis-shaped."""


def _unlink_quietly(path: Path) -> None:
    """Best-effort tmp-file removal: never mask the original error.

    An ``OSError`` here (permissions yanked mid-run, directory removed)
    must not shadow the write failure that is already propagating — and
    on the success path there is nothing to remove anyway.
    """
    try:
        path.unlink(missing_ok=True)
    except OSError:  # pragma: no cover - cleanup during FS failure
        pass


class SegmentStore:
    """An ordered on-disk store of equal-arity column chunks.

    Parameters
    ----------
    directory:
        Where segments live; created (with parents) if missing.
    n_columns:
        Arity of every chunk, at least 1 (a zero-variable output has
        nothing to spill).
    """

    def __init__(self, directory: str | os.PathLike, n_columns: int) -> None:
        if n_columns < 1:
            raise ValueError(f"n_columns must be ≥ 1, got {n_columns}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.n_columns = int(n_columns)
        self._paths: list[Path] = []
        self._n_rows = 0
        self._stamp()

    def _stamp(self) -> None:
        """Validate or create this directory's ``store.json`` manifest.

        Raises :class:`ChunkStoreError` when the directory already
        carries a manifest this store did not write — a foreign file
        named ``store.json``, an unparsable one, or one declaring a
        different format/arity — instead of mixing segments of two
        incompatible stores in one directory.
        """
        manifest = self.directory / _STORE_MANIFEST
        if manifest.exists():
            try:
                payload = json.loads(manifest.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                raise ChunkStoreError(
                    f"{manifest} exists but is not a segment-store "
                    f"manifest: {exc}"
                ) from exc
            if (
                not isinstance(payload, dict)
                or payload.get("format") != _STORE_FORMAT
            ):
                raise ChunkStoreError(
                    f"{manifest} belongs to a foreign store "
                    f"(format {payload.get('format') if isinstance(payload, dict) else payload!r})"
                )
            if payload.get("n_columns") != self.n_columns:
                raise ChunkStoreError(
                    f"{manifest} declares {payload.get('n_columns')} "
                    f"columns, store opened with {self.n_columns}"
                )
        else:
            _replace_atomically(
                manifest,
                _dump_json(
                    {"format": _STORE_FORMAT, "n_columns": self.n_columns}
                ),
            )

    @classmethod
    def attach(
        cls,
        directory: str | os.PathLike,
        n_columns: int,
        segment_names: Sequence[str] | None = None,
    ) -> "SegmentStore":
        """Re-open a stamped store directory, re-registering its segments.

        ``segment_names`` pins the exact expected segment files (a
        checkpoint manifest's record); by default every ``segment-*.npz``
        present is taken, in name (= write) order.  Every segment is
        read and validated up front, so an attach that returns has a
        fully trustworthy store — a missing, truncated, or corrupt
        segment raises :class:`ChunkStoreError` naming the file.
        """
        directory = Path(directory)
        if not (directory / _STORE_MANIFEST).exists():
            raise ChunkStoreError(
                f"{directory} is not a segment store (no {_STORE_MANIFEST})"
            )
        store = cls(directory, n_columns)
        if segment_names is None:
            names = sorted(p.name for p in directory.glob("segment-*.npz"))
        else:
            names = list(segment_names)
        for name in names:
            path = directory / name
            if not path.exists():
                raise ChunkStoreError(f"segment {path} is missing")
            columns = store.read(path)
            store._paths.append(path)
            store._n_rows += len(columns[0])
        return store

    @property
    def n_rows(self) -> int:
        """Total rows across every segment written so far."""
        return self._n_rows

    @property
    def n_segments(self) -> int:
        return len(self._paths)

    def segments(self) -> tuple[Path, ...]:
        """Segment paths, in write (= iteration) order."""
        return tuple(self._paths)

    def write(self, columns: Sequence[np.ndarray]) -> Path:
        """Persist one chunk as the next segment, atomically."""
        columns = [np.asarray(c) for c in columns]
        if len(columns) != self.n_columns:
            raise ValueError(
                f"{len(columns)} columns for a {self.n_columns}-column store"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"ragged chunk: column lengths {sorted(lengths)}")
        (n_rows,) = lengths
        path = self.directory / _SEGMENT_NAME.format(len(self._paths))
        payload = {f"column_{i}": c for i, c in enumerate(columns)}
        payload["n_rows"] = np.int64(n_rows)
        try:
            _replace_atomically(
                path, lambda handle: np.savez(handle, **payload)
            )
        except OSError as exc:
            # ENOSPC/EACCES/EIO mid-write: surface a store error naming
            # the segment and the rows that did not land — callers
            # (SpillSink, the parallel supervisor) already treat
            # ChunkStoreError as "this spill is lost"
            raise ChunkStoreError(
                f"could not write segment {path} ({n_rows} rows at "
                f"risk): {exc}"
            ) from exc
        self._paths.append(path)
        self._n_rows += n_rows
        return path

    def sync(self) -> None:
        """Make every segment and the stamp survive a hard kill.

        Fsyncs each file, then the directory (which holds their
        renames).  :meth:`write` only replaces atomically; a caller
        that records this store for a later process (the parallel
        checkpoint) calls this once, before the record is written.
        """
        for path in (*self._paths, self.directory / _STORE_MANIFEST):
            with open(path, "rb") as handle:
                os.fsync(handle.fileno())
        fsync_dir(self.directory)

    def read(self, path: str | os.PathLike) -> list[np.ndarray]:
        """Load one segment's columns, validating shape and row count.

        Raises :class:`ChunkStoreError` (never returns garbage) when the
        file is unreadable, truncated, or holds the wrong arrays.
        """
        try:
            with np.load(path, allow_pickle=True) as archive:
                n_rows = int(archive["n_rows"])
                columns = [
                    archive[f"column_{i}"] for i in range(self.n_columns)
                ]
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile, pickle.UnpicklingError) as exc:
            raise ChunkStoreError(
                f"segment {path} is corrupt or truncated: {exc}"
            ) from exc
        for i, column in enumerate(columns):
            if column.ndim != 1 or len(column) != n_rows:
                raise ChunkStoreError(
                    f"segment {path} column {i} has shape {column.shape}, "
                    f"expected ({n_rows},)"
                )
        return columns

    def iter_chunks(self) -> Iterator[list[np.ndarray]]:
        """Yield every segment's columns, in write order, one live chunk
        at a time."""
        for path in self._paths:
            yield self.read(path)

    def delete(self) -> None:
        """Remove every segment this store wrote (and its manifest
        stamp); drop the directory if it is empty afterwards (another
        run's files are left alone)."""
        for path in self._paths:
            path.unlink(missing_ok=True)
        self._paths.clear()
        self._n_rows = 0
        (self.directory / _STORE_MANIFEST).unlink(missing_ok=True)
        try:
            self.directory.rmdir()
        except OSError:
            pass

