"""Opt-in on-disk cache for generated fixture datasets.

Generation is deterministic but not free: the IMDB substrate and the
power-law SNAP stand-ins cost seconds per benchmark session, and CI
regenerated them on every push.  When the ``REPRO_DATASET_CACHE``
environment variable names a directory, generated databases round-trip
through compressed ``.npz`` files keyed by generator name and
parameters — one array per relation column, plus a JSON manifest
preserving relation names, attribute order, and row order, so the
reloaded database is byte-identical to a fresh generation (rows are
reconstructed through :meth:`Relation.from_columns`, which preserves
first-occurrence order and the rows are already distinct).

The CI workflow persists the directory with ``actions/cache`` keyed on
the hash of the generator sources, so a cache entry can never survive a
generator change.  Only int64-encodable relations are cacheable (that
covers the SNAP and IMDB stand-ins); databases containing anything else
are silently regenerated every time.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from functools import lru_cache
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from ..relational import Database, Relation

__all__ = ["cache_directory", "cached_database"]

#: Bump to invalidate every cache entry written by older layouts.
_FORMAT_VERSION = 1

_ENV_VAR = "REPRO_DATASET_CACHE"


@lru_cache(maxsize=1)
def _source_fingerprint() -> str:
    """Hash of the generator and relational sources, baked into entry names.

    CI already keys its ``actions/cache`` on the same files, but local
    users of ``REPRO_DATASET_CACHE`` have no such key — without this, an
    edit to ``power_law_graph`` or a ``SnapSpec`` seed would silently
    keep serving pre-edit fixtures.  Any source change rolls every entry
    over to a fresh name (stale files are just never read again).
    """
    digest = hashlib.sha256()
    roots = (Path(__file__).parent, Path(__file__).parent.parent / "relational")
    for root in roots:
        for source in sorted(root.glob("*.py")):
            digest.update(source.name.encode())
            digest.update(source.read_bytes())
    return digest.hexdigest()[:12]


def cache_directory() -> Path | None:
    """The cache root, or ``None`` when caching is disabled."""
    root = os.environ.get(_ENV_VAR)
    if not root:
        return None
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _entry_path(directory: Path, kind: str, params: Mapping) -> Path:
    tag = "-".join(f"{k}={params[k]}" for k in sorted(params))
    safe = "".join(c if c.isalnum() or c in "=.-" else "_" for c in tag)
    return (
        directory
        / f"{kind}-{safe}-v{_FORMAT_VERSION}-{_source_fingerprint()}.npz"
    )


def _store(path: Path, db: Database) -> None:
    arrays: dict[str, np.ndarray] = {}
    manifest = []
    for index, name in enumerate(db):
        relation = db[name]
        twin = relation.columnar()
        manifest.append({"name": name, "attributes": list(relation.attributes)})
        for position, attr in enumerate(relation.attributes):
            if twin.dictionary(attr).dtype == object:
                return  # non-integer values: not cacheable, regenerate always
            arrays[f"r{index}c{position}"] = twin.dictionary(attr)[
                twin.codes(attr)
            ]
    arrays["manifest"] = np.array(json.dumps(manifest))
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
    tmp.replace(path)  # atomic: concurrent benchmark workers race safely


def _load(path: Path) -> Database | None:
    try:
        with np.load(path, allow_pickle=False) as archive:
            manifest = json.loads(str(archive["manifest"]))
            relations = {}
            for index, entry in enumerate(manifest):
                attributes = tuple(entry["attributes"])
                columns = [
                    archive[f"r{index}c{position}"]
                    for position in range(len(attributes))
                ]
                relations[entry["name"]] = Relation.from_columns(
                    attributes, columns, name=entry["name"]
                )
        return Database(relations)
    except (
        OSError,
        KeyError,
        ValueError,
        json.JSONDecodeError,
        zipfile.BadZipFile,  # zip magic present but the archive truncated
    ):
        return None  # corrupt/partial entry: fall through to regeneration


def cached_database(
    kind: str, params: Mapping, build: Callable[[], Database]
) -> Database:
    """``build()`` through the cache (a transparent no-op when disabled)."""
    directory = cache_directory()
    if directory is None:
        return build()
    path = _entry_path(directory, kind, params)
    if path.exists():
        cached = _load(path)
        if cached is not None:
            return cached
    db = build()
    _store(path, db)
    return db
