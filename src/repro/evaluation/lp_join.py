"""The paper's evaluation algorithm (Sec. 2.2, Theorem 2.6).

Given a query, a database satisfying concrete ℓp statistics, and a valid
witness inequality (the dual of the bound LP), the algorithm:

1. for every finite-p statistic with non-zero weight, partitions its guard
   atom's relation by Lemma 2.5 so each part *strongly satisfies* the
   statistic;
2. forms the union of queries, one per combination of parts across
   *atoms* (atom-level, so self-joins — where two atoms scan the same
   relation — correctly enumerate cross-part pairs);
3. evaluates each combination with the PANDA stand-in
   (:mod:`repro.evaluation.panda_algorithm`) and unions the outputs.
   Each part list is a row partition of its atom's relation, so the
   union is disjoint: every combination streams into one output sink,
   in combination order, and no union pass runs.

The run is metered: total search nodes across parts, number of part
combinations, and the Theorem 2.6 budget c · Π B_i^{w_i} for comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.conditionals import ConcreteStatistic, atom_columns
from ..core.lp_bound import BoundResult
from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database, MaterializeSink, OutputSink, Relation
from .panda_algorithm import evaluate_part, theorem26_log2_budget
from .partitioning import partition_for_statistic

__all__ = [
    "PartitionPlan",
    "PartitionedRun",
    "evaluate_with_partitioning",
    "plan_partitioned_evaluation",
]


@dataclass
class PartitionedRun:
    """Metered outcome of the Theorem 2.6 evaluation.

    ``output`` is the union relation on the default materializing path
    (``sink=None``), and ``None`` when the run streamed into an explicit
    :class:`~repro.relational.columnar.OutputSink` (held in ``sink``).
    """

    output: Relation | None
    parts_evaluated: int
    nodes_visited: int
    log2_budget: float
    sink: OutputSink | None = None

    @property
    def count(self) -> int:
        if self.output is not None:
            return len(self.output)
        if self.sink is not None:
            return self.sink.n_rows
        return 0

    def within_budget(self, polylog_slack: float = 64.0) -> bool:
        """Whether metered work ≤ 2^budget · polylog slack factor."""
        if self.nodes_visited == 0:
            return True
        return math.log2(self.nodes_visited) <= self.log2_budget + math.log2(
            polylog_slack
        )


@dataclass
class PartitionPlan:
    """The Lemma 2.5 part structure of one Theorem 2.6 evaluation.

    ``rewritten`` gives every atom a private relation name (atom-level
    parts, correct for self-joins); ``part_lists[i]`` holds atom *i*'s
    Lemma 2.5 parts (the whole relation when no statistic guards it).
    Part combinations are indexed ``0 .. n_combinations-1``, the last
    atom's parts varying fastest; :meth:`combinations` visits them by
    index through :meth:`combination_relations`, so the serial run and
    the parallel evaluator's fixed-index merge see one order by
    construction.
    """

    query: ConjunctiveQuery
    rewritten: ConjunctiveQuery
    base: dict[str, Relation]
    part_lists: list[list[Relation]]
    log2_budget: float

    @property
    def n_combinations(self) -> int:
        """Π of the part-list sizes: 0 when an atom has no parts (its
        relation is empty, so no combination can produce output)."""
        return math.prod(len(parts) for parts in self.part_lists)

    def combination_relations(self, index: int) -> dict[str, Relation]:
        """The relation map of part combination ``index``.

        Mixed-radix decode over the part-list sizes, last atom fastest.
        """
        if not 0 <= index < self.n_combinations:
            raise IndexError(
                f"combination {index} out of range "
                f"[0, {self.n_combinations})"
            )
        relations = dict(self.base)
        remainder = index
        for atom, parts in zip(
            reversed(self.rewritten.atoms), reversed(self.part_lists)
        ):
            remainder, digit = divmod(remainder, len(parts))
            relations[atom.relation] = parts[digit]
        return relations

    def combinations(self):
        """``(index, relations)`` for every combination, in merge order."""
        for index in range(self.n_combinations):
            yield index, self.combination_relations(index)


def plan_partitioned_evaluation(
    query: ConjunctiveQuery,
    db: Database,
    bound: BoundResult,
    max_parts: int = 4096,
    weight_tol: float = 1e-7,
) -> PartitionPlan:
    """Partition every guarded atom's relation per Lemma 2.5.

    Only statistics with non-zero dual weight, finite p > 1 and a
    non-empty U require partitioning (ℓ1 and ℓ∞ statistics are already
    in PANDA's language).  Atoms not guarded by any such statistic pass
    through whole.  Raises ``ValueError`` if the combination count would
    exceed ``max_parts`` — the part count is exponential in Σ p_i (that
    is the constant c of Theorem 2.6).
    """
    atom_stats: dict[Atom, list[ConcreteStatistic]] = {}
    for stat, _ in bound.used_statistics(weight_tol):
        if stat.p == math.inf or stat.p == 1.0 or not stat.conditional.u:
            continue
        atom_stats.setdefault(stat.guard, []).append(stat)

    # rewrite the query so every atom owns a private relation name — this
    # makes the union-of-queries atom-level, as the paper requires ("one
    # query per combination of parts of different relations"), including
    # for self-joins.
    rewritten_atoms: list[Atom] = []
    base: dict[str, Relation] = {}
    part_lists: list[list[Relation]] = []
    for idx, atom in enumerate(query.atoms):
        private = f"{atom.relation}@{idx}"
        rewritten_atoms.append(Atom(private, atom.variables))
        relation = db[atom.relation]
        base[private] = relation
        parts = [relation]
        mapping, _ = atom_columns(atom, relation.attributes)
        for stat in atom_stats.get(atom, ()):
            cond = stat.conditional
            v_attrs = [mapping[v] for v in sorted(cond.v)]
            u_attrs = [mapping[u] for u in sorted(cond.u)]
            refined: list[Relation] = []
            for part in parts:
                refined.extend(
                    partition_for_statistic(
                        part, v_attrs, u_attrs, stat.p, stat.log2_bound
                    )
                )
            parts = refined
        part_lists.append(parts)
    plan = PartitionPlan(
        query=query,
        rewritten=ConjunctiveQuery(rewritten_atoms, name=query.name),
        base=base,
        part_lists=part_lists,
        log2_budget=theorem26_log2_budget(bound, weight_tol),
    )
    if plan.n_combinations > max_parts:
        raise ValueError(
            f"{plan.n_combinations} part combinations exceed "
            f"max_parts={max_parts}"
        )
    return plan


def evaluate_with_partitioning(
    query: ConjunctiveQuery,
    db: Database,
    bound: BoundResult,
    max_parts: int = 4096,
    weight_tol: float = 1e-7,
    frontier_block: int | None = None,
    sink: OutputSink | None = None,
    governor=None,
) -> PartitionedRun:
    """Run the Theorem 2.6 algorithm driven by an LP bound certificate.

    Only statistics with non-zero dual weight, finite p > 1 and a
    non-empty U require partitioning (ℓ1 and ℓ∞ statistics are already in
    PANDA's language).  Atoms not guarded by any such statistic pass
    through whole.

    ``frontier_block`` bounds each per-part WCOJ's live frontier (see
    :func:`repro.evaluation.wcoj.generic_join`); output, meters, and
    part accounting are identical for every setting.  A ``governor``
    is threaded into every per-part engine and told the live part
    index, so budget diagnostics and partial-progress meters name the
    combination that was running.

    Every part combination's output streams into one sink, in
    combination order, with no union pass: counts add across parts and
    spill segments concatenate lazily.  This is exact because each
    Lemma 2.5 part list is a row partition of its atom's relation, so
    every output binding — which pins, per atom, the single row it uses
    — survives in exactly one combination.  With an explicit ``sink``,
    ``PartitionedRun.output`` is ``None``; with ``sink=None`` a
    :class:`~repro.relational.columnar.MaterializeSink` collects the
    rows and ``output`` is its relation.

    Raises ``ValueError`` if the combination count would exceed
    ``max_parts`` — the part count is exponential in Σ p_i (that is the
    constant c of Theorem 2.6).
    """
    plan = plan_partitioned_evaluation(query, db, bound, max_parts, weight_tol)
    target = MaterializeSink() if sink is None else sink
    # the rewritten query's variables are the original's (same atoms,
    # first-appearance order), so the sink sees the query's schema.
    target.open(plan.rewritten.variables)
    nodes_total = 0
    parts_evaluated = 0
    for index, relations in plan.combinations():
        if governor is not None:
            governor.set_part(index)
        run = evaluate_part(
            plan.rewritten,
            Database(relations),
            frontier_block=frontier_block,
            sink=target,
            governor=governor,
        )
        parts_evaluated += 1
        nodes_total += run.nodes_visited
        if governor is not None:
            governor.commit_nodes(run.nodes_visited)
    if governor is not None:
        governor.set_part(None)
    output = target.relation(query.name) if sink is None else None
    return PartitionedRun(
        output=output,
        parts_evaluated=parts_evaluated,
        nodes_visited=nodes_total,
        log2_budget=plan.log2_budget,
        sink=sink,
    )
