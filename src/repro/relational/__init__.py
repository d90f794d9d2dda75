"""Relational substrate: set-semantics relations and database instances.

Every relation is backed by the dictionary-encoded columnar engine in
:mod:`repro.relational.columnar`, whatever hashable values it holds.
"""

from .columnar import (
    ColumnarRelation,
    CountSink,
    GroupCountSink,
    MaterializeSink,
    OutputSink,
    SpillSink,
)
from .database import Database
from .relation import Relation

__all__ = [
    "Relation",
    "Database",
    "ColumnarRelation",
    "OutputSink",
    "MaterializeSink",
    "CountSink",
    "GroupCountSink",
    "SpillSink",
]
