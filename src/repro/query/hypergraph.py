"""Query hypergraphs: acyclicity tests and girth.

A join query induces a hypergraph whose nodes are the query variables and
whose hyperedges are the atoms' variable sets.  The paper needs three
structural notions:

* **α-acyclicity** (GYO reduction) — the class where classical upper bounds
  degenerate and where the paper's ℓp bounds shine (Sec. 1, Example 2.2);
* **Berge-acyclicity** — the class where the Degree Sequence Bound [6]
  applies (Appendix C.3);
* **girth** of the query graph for binary-relation queries — the
  applicability condition of Jayaraman et al. [14] (Appendix B).

The fractional edge cover LP of the AGM bound is not solved here: the AGM
bound is the ℓp bound LP on cardinality statistics
(:mod:`repro.estimators.agm`).
"""

from __future__ import annotations

import math
from typing import Sequence

import networkx as nx

from .query import ConjunctiveQuery

__all__ = [
    "Hypergraph",
    "is_alpha_acyclic",
    "is_berge_acyclic",
    "girth",
]


class Hypergraph:
    """The hypergraph of a conjunctive query (or of explicit edge sets)."""

    def __init__(self, edges: Sequence[frozenset[str]]) -> None:
        self.edges: list[frozenset[str]] = [frozenset(e) for e in edges]
        self.nodes: frozenset[str] = (
            frozenset().union(*self.edges) if self.edges else frozenset()
        )

    @classmethod
    def of_query(cls, query: ConjunctiveQuery) -> "Hypergraph":
        return cls([atom.variable_set for atom in query.atoms])

    # ------------------------------------------------------------------
    def gyo_reduction(self) -> list[frozenset[str]]:
        """Run the GYO reduction; return the remaining hyperedges.

        Repeatedly (a) remove *ear* vertices that appear in exactly one
        hyperedge, and (b) remove hyperedges contained in another hyperedge.
        The hypergraph is α-acyclic iff the result is empty (or a single
        empty edge).
        """
        edges = [set(e) for e in self.edges]
        changed = True
        while changed:
            changed = False
            # remove edges contained in other edges
            kept: list[set] = []
            for i, e in enumerate(edges):
                contained = any(
                    e <= f for j, f in enumerate(edges) if i != j
                ) or (e and any(e == f for f in kept))
                if e and not contained:
                    kept.append(e)
                elif e and contained:
                    changed = True
            edges = kept
            # remove isolated (ear) vertices
            counts: dict[str, int] = {}
            for e in edges:
                for v in e:
                    counts[v] = counts.get(v, 0) + 1
            for e in edges:
                lonely = {v for v in e if counts[v] == 1}
                if lonely:
                    e -= lonely
                    changed = True
        return [frozenset(e) for e in edges if e]

    def is_alpha_acyclic(self) -> bool:
        """α-acyclicity via GYO: the reduction must eliminate everything."""
        return not self.gyo_reduction()

    def is_berge_acyclic(self) -> bool:
        """Berge-acyclicity: the bipartite incidence graph is a forest.

        Berge-acyclic implies α-acyclic and implies all degree sequences of
        join variables are simple (the DSB's applicability condition).
        """
        incidence = nx.Graph()
        for i, e in enumerate(self.edges):
            for v in e:
                incidence.add_edge(("edge", i), ("node", v))
        return nx.is_forest(incidence) if incidence.number_of_edges() else True

    def girth(self) -> float:
        """Girth of the *query graph* (only defined for binary edges).

        The query graph is a multigraph: two atoms over the same variable
        pair form a 2-cycle (the situation of Example B.1).  Returns
        ``inf`` for forests.  Raises ``ValueError`` when a hyperedge is not
        binary, because girth is a graph notion (Appendix B applies to
        binary-relation queries only).
        """
        g = nx.Graph()
        g.add_nodes_from(self.nodes)
        seen_pairs: set[frozenset[str]] = set()
        has_parallel = False
        for e in self.edges:
            if len(e) == 1:
                continue
            if len(e) != 2:
                raise ValueError(
                    f"girth needs binary edges, got arity {len(e)}"
                )
            if e in seen_pairs:
                has_parallel = True
            seen_pairs.add(e)
            u, v = sorted(e)
            g.add_edge(u, v)
        if has_parallel:
            return 2
        try:
            simple = nx.girth(g)
        except AttributeError:  # pragma: no cover - older networkx
            cycles = nx.cycle_basis(g)
            simple = min((len(c) for c in cycles), default=math.inf)
        return simple


def is_alpha_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether the query's hypergraph is α-acyclic."""
    return Hypergraph.of_query(query).is_alpha_acyclic()


def is_berge_acyclic(query: ConjunctiveQuery) -> bool:
    """Whether the query's hypergraph is Berge-acyclic."""
    return Hypergraph.of_query(query).is_berge_acyclic()


def girth(query: ConjunctiveQuery) -> float:
    """Girth of a binary-relation query's graph (inf if acyclic)."""
    return Hypergraph.of_query(query).girth()
