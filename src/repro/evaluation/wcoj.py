"""A generic worst-case-optimal join (variable elimination with tries).

This is the library's general-purpose evaluator: a backtracking search in
a global variable order, intersecting per-atom tries at each level — the
scheme of Generic Join / Leapfrog Triejoin [24, 25].  Its search-tree size
is bounded by the AGM bound of the query, and on the degree-uniform parts
produced by :mod:`repro.evaluation.partitioning` it meets the per-part
{1,∞} product bounds required by Lemma 2.4.

The engine runs over :class:`~repro.relational.columnar.CodeTrie`
sorted-codes tries: every atom's dictionary-encoded rows are sorted
lexicographically in the global variable order, and the search proceeds
on *blocks* of partial bindings — children of each binding's seed atom
are expanded in one gather and intersected against the other
participating atoms with batched ``searchsorted`` membership tests.
Any hashable values work: every relation of a
:class:`~repro.relational.database.Database` is encoded over one shared
dictionary, so a candidate code means the same value in every atom's
trie and one dictionary decodes every level.

The engine is a depth-first traversal over frontier blocks.
With ``frontier_block=None`` each level's whole frontier is one block,
recovering the level-synchronous breadth-first expansion (peak live
memory proportional to the widest frontier).  With ``frontier_block=N``
the flattened child space of every block is enumerated in slices of at
most ``N`` candidates (:meth:`CodeTrie.children_at`), each surviving
sub-block descends all the way before the next slice is touched, and
finished bindings stream into a
:class:`~repro.relational.columnar.ChunkedColumns` accumulator — peak
live memory beyond the output drops to O(block × depth).  Blocks are
slices of one fixed parent-major candidate order, so output rows, their
order, and the meter are bit-identical for every block size.  A slice
costs only what its shape needs: under a single parent its seed's
children are one contiguous run of trie keys, a slice that one atom
seeds is probed once, and only a slice with mixed seeds is probed per
seeding atom.

The *output* side is pluggable too: the engine emits finished bindings
into an :class:`~repro.relational.columnar.OutputSink` — counting
(:class:`~repro.relational.columnar.CountSink`), aggregating
(:class:`~repro.relational.columnar.GroupCountSink`), or spilling to
disk (:class:`~repro.relational.columnar.SpillSink`) — so workloads
whose outputs are themselves huge never hold |Q(D)| rows in RAM.  The
default (``sink=None``) materializes through the internal code-space
accumulator exactly as before; every sink sees the same rows in the
same order with the same meter.  A sink that consumes sizes only has
the last level counted inside the slices of the level above it, in
passes of at most one block: no binding columns are gathered for rows
it would discard, and no leaf sub-block is ever yielded.

The meter (``nodes_visited``) counts exactly the bindings that pass every
participating atom's trie — the search-tree size of the one-binding-at-a-
time Generic Join — which is what
:mod:`repro.experiments.evaluation_runtime` compares against the ℓp bound
per Theorem 2.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.conditionals import atom_columns
from ..query.query import ConjunctiveQuery
from ..relational import Database, Relation
from ..relational.columnar import (
    ChunkedColumns,
    CodeTrie,
    ColumnarRelation,
    CountSink,
    OutputSink,
)
from .joins import _atom_table

__all__ = ["generic_join", "count_query", "JoinRun"]


@dataclass
class JoinRun:
    """Result of a metered WCOJ run.

    ``output`` is the materialized relation when the run used the default
    materializing path, and ``None`` when the rows were routed into an
    explicit :class:`~repro.relational.columnar.OutputSink` (held in
    ``sink``; its accessors expose the result).
    """

    output: Relation | None
    nodes_visited: int
    sink: OutputSink | None = None

    @property
    def count(self) -> int:
        if self.output is not None:
            return len(self.output)
        if self.sink is not None:
            return self.sink.n_rows
        return 0


def _default_order(query: ConjunctiveQuery) -> tuple[str, ...]:
    """Most-shared-first variable order, ties by first appearance."""
    counts: dict[str, int] = {}
    for atom in query.atoms:
        for v in atom.variable_set:
            counts[v] = counts.get(v, 0) + 1
    appearance = {v: i for i, v in enumerate(query.variables)}
    return tuple(
        sorted(query.variables, key=lambda v: (-counts[v], appearance[v]))
    )


def _resolve_order(
    query: ConjunctiveQuery, order: Sequence[str] | None
) -> tuple[str, ...]:
    order = tuple(order) if order is not None else _default_order(query)
    if set(order) != set(query.variables):
        raise ValueError(
            f"order {order} must be a permutation of {query.variables}"
        )
    return order


def _spread(column: np.ndarray, parents, width: int) -> np.ndarray:
    """``column[parents]``; an int ``parents`` is that one parent
    repeated ``width`` times, written as a fill instead of a gather."""
    if isinstance(parents, int):
        out = np.empty(width, dtype=column.dtype)
        out.fill(column[parents])
        return out
    return column[parents]


def _choose_seeds(ranges: list[tuple[np.ndarray, np.ndarray]]):
    """Each binding's seed: the participant with the fewest trie children.

    The vectorized analogue of a per-binding ``min(views, key=len)``,
    which keeps the expanded space at Σ_b min_i deg_i(b) instead of
    min_i Σ_b deg_i(b).  ``ranges`` holds each participant's per-binding
    ``(first child, child count)``.  A running minimum: strict ``<``
    leaves a tie with the earlier participant, as ``argmin`` would.

    Returns ``(seed_counts, seed, seed_choice, run_id)``.  ``seed`` is
    the participant seeding every binding that has candidates, or
    ``None`` when the choice varies; then ``seed_choice`` holds each
    binding's participant and ``run_id`` numbers the runs of equal
    choice over the bindings with candidates, so a slice has one seed
    iff its first and last parents share a run.
    """
    seed_counts = ranges[0][1]
    seed_choice = None
    for s in range(1, len(ranges)):
        counts = ranges[s][1]
        fewer = counts < seed_counts
        if np.count_nonzero(fewer):
            if seed_choice is None:
                seed_choice = np.zeros(len(seed_counts), dtype=np.int64)
            seed_choice[fewer] = s
            seed_counts = np.minimum(counts, seed_counts)
    if seed_choice is None:
        return seed_counts, 0, None, None
    live = np.flatnonzero(seed_counts)
    change = seed_choice[live[1:]] != seed_choice[live[:-1]]
    if not np.count_nonzero(change):
        seed = int(seed_choice[live[0]]) if len(live) else 0
        return seed_counts, seed, None, None
    run_id = np.zeros(len(seed_counts), dtype=np.int64)
    run_id[live[1:]] = np.cumsum(change)
    return seed_counts, None, seed_choice, run_id


class _LevelBlock:
    """One frontier block's candidate space at one level.

    Holds the block's fixed work — each participant's per-binding child
    ranges, the seed choice of :func:`_choose_seeds`, and the cumulative
    seed counts that lay the flattened (binding, seed-child) space out
    in parent-major order — so that :meth:`probe_slice` pays only for
    the shape of the slice it is given.
    """

    __slots__ = (
        "tries", "participants", "atom_node", "n_front", "ranges",
        "seed_counts", "seed", "seed_choice", "run_id", "ends", "total",
        "one_child", "parent",
    )

    def __init__(self, tries, participants, n_front, atom_node):
        self.tries = tries
        self.participants = participants
        self.atom_node = atom_node
        self.n_front = n_front
        self.ranges = ranges = [
            tries[i].children_ranges(d, atom_node[i]) for i, d in participants
        ]
        seed_counts, self.seed, self.seed_choice, self.run_id = _choose_seeds(
            ranges
        )
        self.seed_counts = seed_counts
        self.ends = seed_counts.cumsum()
        self.total = total = int(self.ends[-1]) if n_front else 0
        # one participant seeds every binding, each with exactly one
        # child: the flattened space is the frontier itself (Σ = n_front
        # alone allows e.g. [0, 2])
        self.one_child = (
            self.seed is not None
            and total == n_front
            and np.count_nonzero(seed_counts) == n_front
        )
        # the binding owning the last probed slice's first candidate
        self.parent = 0

    def locate(self, lo, hi):
        """Where candidates ``lo..hi`` come from: ``(parents, offsets)``,
        each candidate's binding and its offset among that binding's
        seed children.

        ``parents`` is an int when one binding owns the whole slice (its
        seed children are one contiguous run of level keys), the
        ``slice(lo, hi)`` of the frontier itself when one participant
        seeds every binding with one child (offsets 0: nothing to
        flatten), and a parent-major index array otherwise.
        """
        if self.one_child:
            return slice(lo, hi), 0
        ends, seed_counts = self.ends, self.seed_counts
        p = self.parent
        if ends[p] <= lo:  # slices run in order: move the cursor on
            p = self.parent = int(ends.searchsorted(lo, side="right"))
        if ends[p] >= hi:  # one parent owns the whole slice
            return p, lo - int(ends[p] - seed_counts[p])
        if lo == 0 and hi == self.total:
            # whole-space slice: O(total) repeat beats searchsorted
            return (
                np.arange(self.n_front).repeat(seed_counts),
                np.arange(hi) - (ends - seed_counts).repeat(seed_counts),
            )
        flat = np.arange(lo, hi)
        parents = ends.searchsorted(flat, side="right")
        return parents, flat - (ends - seed_counts)[parents]

    def probe_slice(self, lo, hi, carried):
        """Seed candidates ``lo..hi`` of the block's space and filter them
        through the other participants: ``(keep, node_ids, codes,
        parents)``, with ``parents`` as :meth:`locate` gives it.

        ``keep`` is the survivor mask (``None`` when one participant is
        all there is), ``node_ids`` the child ids of each ``carried``
        atom.
        """
        parents, offsets = self.locate(lo, hi)
        s = self.seed
        if s is None:
            if isinstance(parents, int):
                s = int(self.seed_choice[parents])
            elif self.run_id[parents[0]] == self.run_id[parents[-1]]:
                s = int(self.seed_choice[parents[0]])
        if s is None:
            keep, node_ids, codes = self.probe_mixed(parents, offsets, carried)
        else:
            keep, node_ids, codes = self.probe(
                s, parents, offsets, hi - lo, carried
            )
        return keep, node_ids, codes, parents

    def probe(self, s, parents, offsets, m, carried):
        """Seed ``m`` candidates from participant ``s`` and filter them
        through the other participants: ``(keep, node_ids, codes)``.

        ``parents``/``offsets`` locate each candidate in its parent's
        seed children; an int ``parents`` is one parent whose ``m``
        candidates start at offset ``offsets`` — a contiguous run of
        level keys whose positions are the children's node ids.
        """
        participants, atom_node = self.participants, self.atom_node
        seed_idx, seed_depth = participants[s]
        trie = self.tries[seed_idx]
        first = self.ranges[s][0]
        if isinstance(parents, int):
            a = int(first[parents]) + offsets
            children = np.arange(a, a + m) if seed_idx in carried else None
            codes = trie.level_keys[seed_depth][a : a + m] - (
                atom_node[seed_idx][parents] * trie.cards[seed_depth]
            )
        else:
            children, codes = trie.children_at(
                seed_depth,
                atom_node[seed_idx][parents],
                first[parents],
                offsets,
            )
        keep = None
        node_ids = {}
        for t, (atom_idx, depth) in enumerate(participants):
            if t == s:
                ids = children
            else:
                # one parent probes with its scalar node id, broadcast
                found, ids = self.tries[atom_idx].find_children(
                    depth, atom_node[atom_idx][parents], codes
                )
                keep = found if keep is None else keep & found
            if atom_idx in carried:
                node_ids[atom_idx] = ids
        return keep, node_ids, codes

    def probe_mixed(self, parents, offsets, carried):
        """:meth:`probe` per seeding participant over its own candidates,
        scattered back into slice order."""
        m = len(parents)
        choice = self.seed_choice[parents]
        candidates = np.empty(m, dtype=np.int64)
        keep = np.ones(m, dtype=bool)
        node_ids = {i: np.empty(m, dtype=np.int64) for i in carried}
        for s in range(len(self.participants)):
            sel = np.flatnonzero(choice == s)
            if len(sel) == 0:
                continue
            keep_s, ids_s, candidates[sel] = self.probe(
                s, parents[sel], offsets[sel], len(sel), carried
            )
            for i in carried:
                node_ids[i][sel] = ids_s[i]
            if keep_s is not None:
                keep[sel] = keep_s
        return keep, node_ids, candidates


def generic_join(
    query: ConjunctiveQuery,
    db: Database,
    order: Sequence[str] | None = None,
    frontier_block: int | None = None,
    sink: OutputSink | None = None,
    governor=None,
) -> JoinRun:
    """Evaluate a full conjunctive query worst-case optimally.

    Parameters
    ----------
    order:
        Global variable order; defaults to a most-shared-first heuristic.
    frontier_block:
        Maximum number of candidate bindings the vectorized engine holds
        live per search level.  ``None`` expands each level's whole
        frontier at once (fastest, peak memory proportional to the widest
        intermediate frontier); a positive block streams the search in
        O(block × depth) live memory — output rows, their order, and the
        meter are bit-identical for every setting.
    sink:
        Where finished bindings go.  ``None`` (default) materializes the
        output relation; an explicit
        :class:`~repro.relational.columnar.OutputSink` receives the same
        rows in the same order as decoded value-column batches and
        ``JoinRun.output`` is ``None`` — counts, row order, and the meter
        are bit-identical to the materialized run for every sink and
        block size.
    governor:
        An optional
        :class:`~repro.evaluation.governor.EvaluationGovernor`.  The
        engine calls ``governor.checkpoint()`` at every block boundary
        and re-reads ``governor.effective_block`` there, so watermark
        degradation (block halving, sink escalation) lands at the next
        slice; governed output is bit-identical to ungoverned.

    Returns
    -------
    A :class:`JoinRun` with the output relation (attributes in the query's
    variable order) and the metered search-tree size.
    """
    if frontier_block is not None and frontier_block < 1:
        raise ValueError(f"frontier_block must be ≥ 1, got {frontier_block}")
    order = _resolve_order(query, order)
    if sink is not None:
        sink.open(query.variables)
    if governor is not None:
        governor.register_sink(sink)
        # record the requested block before the first checkpoint, so a
        # soft-watermark ladder step halves from the caller's setting
        governor.effective_block(frontier_block)
        governor.checkpoint()
    return _blocked_search(query, db, order, frontier_block, sink, governor)


def _blocked_search(
    query: ConjunctiveQuery,
    db: Database,
    order: tuple[str, ...],
    frontier_block: int | None = None,
    sink: OutputSink | None = None,
    governor=None,
) -> JoinRun:
    """The blocked sorted-codes engine.

    A frontier block is a batch of partial bindings, one int64 code
    column per bound variable.  At each level the participating atom with
    the fewest trie children *seeds* each binding's candidate values, the
    other participants filter them with batched membership tests, and the
    surviving (binding, value) pairs form the next block — whole-block
    expansion instead of per-binding recursion, with the same visited
    count, because every node enumerates exactly the intersection of its
    participants' children.

    Candidates are enumerated in one fixed *parent-major* order: the
    flattened (binding, seed-child) space, bindings in frontier order,
    each binding's children ascending in its seed trie.  The traversal is
    depth-first over slices of that space — ``frontier_block=None`` takes
    each level's whole space as a single slice (breadth-first expansion,
    peak memory proportional to the widest frontier), a finite block
    caps every live slice at ``frontier_block`` candidates and descends
    each surviving sub-block to the bottom before touching the next
    slice, streaming finished bindings into a :class:`ChunkedColumns`
    accumulator.  Because the candidate order is block-independent and
    survival of a candidate depends only on its own binding, output rows,
    their order, and the meter are bit-identical for every block size.

    A block's fixed work — the per-binding seed choice, where its runs of
    equal choice change, and which atoms' node ids travel down — is paid
    once per block (:class:`_LevelBlock`), and each slice then does only
    the array work its shape needs.  A slice under a *single parent*
    (common whenever the fan-out reaches the block) reads its seed's
    children as one contiguous run of level keys and probes the other
    participants with the parent's scalar node ids: no parent recovery,
    no per-row parent gathers.  Where every binding has exactly one seed
    child the slice *is* a run of the frontier, read in place.  A slice
    over several parents that one participant seeds writes its probe
    results directly.  Only a slice with *mixed seeds* probes per seeding
    participant and scatters the results back into slice order.

    When the sink takes sizes only (``needs_values`` false) the last
    level is not a level of its own: each slice of level n−2 (the root,
    for n = 1) counts its survivors' leaf intersections in the same call
    (``count_leaf``) — leaf passes of at most one block of candidates,
    each a block boundary for the governor — and hands one size to
    ``append_size``.  No level of such a run carries binding columns;
    only ``emit`` reads them.

    Every atom's trie lives in the database's one code space (tries stay
    cacheable per relation and column order): a seed's candidate codes
    probe the other participants as they are, and the shared dictionary
    decodes every level.
    """
    order_index = {v: i for i, v in enumerate(order)}
    tables = [_atom_table(atom, db) for atom in query.atoms]
    tries: list[CodeTrie] = []
    ordered_vars_of: list[tuple[str, ...]] = []
    for atom, table in zip(query.atoms, tables):
        position = {v: i for i, v in enumerate(table.vars)}
        ordered = tuple(sorted(table.vars, key=lambda v: order_index[v]))
        relation = db[atom.relation]
        mapping, diagonal = atom_columns(atom, relation.attributes)
        if not diagonal:
            # table columns alias the relation twin: use its trie cache
            trie = relation.columnar().trie(tuple(mapping[v] for v in ordered))
        else:
            trie = CodeTrie(
                [table.codes[position[v]] for v in ordered],
                [len(table.domain)] * len(ordered),
            )
        tries.append(trie)
        ordered_vars_of.append(ordered)
    # the database's one dictionary decodes every level (a query whose
    # atoms bind no variable has none, and emits no values)
    domain = next((t.domain for t in tables if t.domain is not None), None)

    # participants per level, each with its local trie depth.  Uncovered
    # levels raise at runtime iff a non-empty frontier actually reaches
    # them.
    atoms_at: list[list[tuple[int, int]]] = [[] for _ in order]
    last_level = [0] * len(tables)
    for atom_idx, ordered in enumerate(ordered_vars_of):
        for depth, var in enumerate(ordered):
            atoms_at[order_index[var]].append((atom_idx, depth))
            last_level[atom_idx] = order_index[var]

    n = len(order)
    n_atoms = len(tables)

    # per level, the atoms whose node ids descend with a surviving
    # candidate: participants still constraining a deeper level take the
    # child ids their probe found (carried), the other atoms still
    # constraining one keep their parent's (passed); the rest are done.
    carried_at: list[list[int]] = []
    passed_at: list[list[int]] = []
    for level, level_parts in enumerate(atoms_at):
        participating = {atom_idx for atom_idx, _ in level_parts}
        live = [i for i in range(n_atoms) if last_level[i] > level]
        carried_at.append([i for i in live if i in participating])
        passed_at.append([i for i in live if i not in participating])

    # a sink that consumes sizes only has the last level counted inside
    # the slice above it (the root, for one variable): leaf candidates
    # are probed and counted, never yielded as a level of their own, and
    # no level carries binding columns, which only `emit` reads
    leaf_counted = sink is not None and not sink.needs_values and n > 0
    if sink is None:
        acc = ChunkedColumns(n)
        emit = acc.append
    elif n == 0:
        # a zero-variable query joins to the single empty binding, whose
        # row carries no values

        def emit(binding_cols):
            sink.append_size(1)

    else:
        # decode each finished batch into value columns (query head
        # order) before handing it to the sink: one O(batch) gather per
        # column, so spill runs never hold codes or values beyond the
        # batch.
        out_levels = [order_index[v] for v in query.variables]

        def emit(binding_cols):
            sink.append([domain[binding_cols[i]] for i in out_levels])

    visited = 0
    if governor is not None:
        if sink is not None:
            governor.register_output(lambda: sink.n_rows)
        else:
            governor.register_output(lambda: acc.n_rows)

    def participants_at(level):
        participants = atoms_at[level]
        if not participants:
            raise RuntimeError(
                f"variable {order[level]!r} is not covered by any atom"
            )
        return participants

    def count_leaf(n_front, atom_node):
        """The last level's survivors under ``n_front`` bindings, counted
        in passes of at most one block of candidates each.  Every pass
        is a block boundary: the governor is consulted and the effective
        block re-read, as before any other slice."""
        nonlocal visited
        participants = participants_at(n - 1)
        leaf = _LevelBlock(tries, participants, n_front, atom_node)
        total = leaf.total
        if len(participants) == 1:  # every seed child survives
            visited += total
            return total
        count = lo = 0
        block = frontier_block
        while lo < total:
            if governor is not None:
                governor.checkpoint(nodes_visited=visited + count)
                block = governor.effective_block(frontier_block)
            hi = total if block is None else min(lo + block, total)
            count += int(np.count_nonzero(leaf.probe_slice(lo, hi, ())[0]))
            lo = hi
        visited += count
        return count

    def expand(level, n_front, atom_node, binding_cols):
        """Yield the surviving sub-blocks ``(width, sub_nodes, new_cols)``
        of one frontier block, in order.  Above a counted leaf, a slice
        hands its survivors' leaf count to the sink and yields nothing.
        """
        frontier = _LevelBlock(tries, participants_at(level), n_front, atom_node)
        total = frontier.total
        if total == 0:
            return
        carried, passed = carried_at[level], passed_at[level]
        above_leaf = leaf_counted and level == n - 2
        block = frontier_block

        def expand_slice(lo, hi):
            """One candidate slice: a sub-block, or ``None`` when every
            candidate dies or the leaf below was counted.

            A plain function, not inlined in the generator loop: its
            frame (and with it every O(slice) scratch array) dies on
            return, so nothing but the surviving sub-block stays alive
            while deeper levels run under the suspended generator.
            """
            nonlocal visited
            keep, node_ids, candidates, parents = frontier.probe_slice(
                lo, hi, carried
            )
            if isinstance(parents, slice):  # a sub-block owns its columns
                parents = np.arange(lo, hi)
            chosen = None
            width = hi - lo
            if keep is not None and np.count_nonzero(keep) < width:
                chosen = np.flatnonzero(keep)
                width = len(chosen)
                if width == 0:
                    return None
                candidates = candidates[chosen]
                if not isinstance(parents, int):
                    parents = parents[chosen]
            visited += width
            sub_nodes = [None] * n_atoms
            for i in carried:
                ids = node_ids[i]
                sub_nodes[i] = ids if chosen is None else ids[chosen]
            for i in passed:
                sub_nodes[i] = _spread(atom_node[i], parents, width)
            if above_leaf:
                # only the survivors' node ids reach the leaf pass
                del keep, node_ids, candidates, parents, chosen
                count = count_leaf(width, sub_nodes)
                if count:
                    sink.append_size(count)
                return None
            new_cols = []
            if not leaf_counted:  # only `emit` reads binding columns
                new_cols = [_spread(c, parents, width) for c in binding_cols]
                new_cols.append(candidates)
            return width, sub_nodes, new_cols

        lo = 0
        while lo < total:
            if governor is not None:
                # block boundary: one cheap probe, and the effective
                # block is re-read so a ladder halving (or a raise)
                # takes hold at this very slice
                governor.checkpoint(nodes_visited=visited)
                block = governor.effective_block(frontier_block)
            hi = total if block is None else min(lo + block, total)
            result = expand_slice(lo, hi)
            if hi >= total:
                # last slice: this level's range/frontier state is dead.
                # Release it before descending, or the suspended frame
                # would pin O(n_front) arrays for the rest of the subtree
                # (the whole-frontier path would regress ~1.5× in peak).
                del frontier, atom_node, binding_cols
            if result is not None:
                yield result
            lo = hi

    def descend(level, n_front, atom_node, binding_cols):
        if level == n:
            emit(binding_cols)
            return
        blocks = expand(level, n_front, atom_node, binding_cols)
        del atom_node, binding_cols  # the generator owns them now
        for width, sub_nodes, sub_cols in blocks:
            descend(level + 1, width, sub_nodes, sub_cols)

    roots = [np.zeros(1, dtype=np.int64) for _ in tables]
    if leaf_counted and n == 1:
        sink.append_size(count_leaf(1, roots))
    else:
        descend(0, 1, roots, [])

    if sink is not None:
        return JoinRun(output=None, nodes_visited=visited, sink=sink)

    if acc.n_rows == 0:
        if n == 0:
            # a query with no variables joins to the single empty binding
            columnar = ColumnarRelation((), {}, {}, 1)
            output = Relation._from_columnar(columnar, name=query.name)
            return JoinRun(output=output, nodes_visited=visited)
        output = Relation(query.variables, [], name=query.name)
        return JoinRun(output=output, nodes_visited=visited)

    columns = acc.finalize()
    columnar = ColumnarRelation(
        query.variables,
        {v: columns[order_index[v]] for v in query.variables},
        dict.fromkeys(query.variables, domain),
        acc.n_rows,
    )
    output = Relation._from_columnar(columnar, name=query.name)
    return JoinRun(output=output, nodes_visited=visited)


def count_query(
    query: ConjunctiveQuery,
    db: Database,
    order: Sequence[str] | None = None,
    frontier_block: int | None = None,
) -> int:
    """True output cardinality |Q(D)| via the WCOJ evaluator.

    Runs through a :class:`~repro.relational.columnar.CountSink`, so the
    output is counted without ever being materialized — combined with a
    ``frontier_block`` the whole run is bounded-memory.
    """
    return generic_join(
        query, db, order=order, frontier_block=frontier_block,
        sink=CountSink(),
    ).count
