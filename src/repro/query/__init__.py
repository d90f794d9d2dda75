"""Query model: conjunctive queries, hypergraphs, parsing."""

from .hypergraph import (
    Hypergraph,
    girth,
    is_alpha_acyclic,
    is_berge_acyclic,
)
from .parser import parse_query
from .query import Atom, ConjunctiveQuery

__all__ = [
    "Atom",
    "ConjunctiveQuery",
    "Hypergraph",
    "parse_query",
    "is_alpha_acyclic",
    "is_berge_acyclic",
    "girth",
]
