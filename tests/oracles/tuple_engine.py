"""The tuple-at-a-time engine: the reference for the columnar operators.

Each function here is the original row-at-a-time algorithm over Python
tuples, dicts and sets, correct for any hashable values and blind to
dictionary encoding.  The differential suites compare the columnar
operators of :mod:`repro.evaluation` and :class:`repro.relational.Relation`
against them: the same output rows (as sets, or in order where the
algorithm fixes one) and, for the Generic Join, the same
``nodes_visited`` meter.
"""

from collections import defaultdict

from repro.evaluation import JoinRun, join_tree
from repro.evaluation.wcoj import _resolve_order
from repro.relational import Database, Relation


def atom_rows(atom, db):
    """Rows of an atom as tuples over its *distinct* variables.

    Repeated variables in the atom become equality selections.
    """
    distinct_vars = tuple(dict.fromkeys(atom.variables))
    positions = {}
    repeated = {}
    for position, var in enumerate(atom.variables):
        positions.setdefault(var, position)
        repeated.setdefault(var, []).append(position)
    checks = [ps for ps in repeated.values() if len(ps) > 1]
    rows = []
    for row in db[atom.relation]:
        if all(len({row[i] for i in ps}) == 1 for ps in checks):
            rows.append(tuple(row[positions[v]] for v in distinct_vars))
    return distinct_vars, rows


# ----------------------------------------------------------------------
# relation kernels
# ----------------------------------------------------------------------
def project_tuples(relation, attrs):
    """Deduplicated projection onto ``attrs``."""
    pos = relation.positions(attrs)
    rows = {tuple(row[i] for i in pos) for row in relation}
    return Relation(tuple(attrs), rows, name=relation.name)


def group_sizes_tuples(relation, group_attrs, value_attrs):
    """Distinct ``value_attrs`` count per ``group_attrs`` value."""
    gpos = relation.positions(group_attrs)
    vpos = relation.positions(value_attrs)
    groups = defaultdict(set)
    for row in relation:
        groups[tuple(row[i] for i in gpos)].add(tuple(row[i] for i in vpos))
    return {key: len(values) for key, values in groups.items()}


def partition_by_degree_tuples(relation, v_attrs, u_attrs):
    """Row sets of the ⌊log2 deg(V | U=u)⌋ buckets, ascending bucket."""
    sizes = group_sizes_tuples(relation, u_attrs, v_attrs)
    u_pos = relation.positions(u_attrs)
    buckets = defaultdict(set)
    for row in relation:
        degree = sizes[tuple(row[i] for i in u_pos)]
        buckets[degree.bit_length() - 1].add(row)
    return [rows for _, rows in sorted(buckets.items())]


# ----------------------------------------------------------------------
# Generic Join over nested-dict tries
# ----------------------------------------------------------------------
class _Satisfied(dict):
    """Sentinel node for an atom whose variables are all already bound.

    Such an atom imposes no further constraints; the sentinel is never
    consulted again because the atom participates in no later level.
    """


_SATISFIED = _Satisfied()


def _build_trie(atom, db, order_index):
    """Nested-dict trie of an atom's rows, levels in global variable order.

    The deepest level maps the last variable's value to ``None``.
    """
    distinct_vars, rows = atom_rows(atom, db)
    ordered_vars = sorted(distinct_vars, key=lambda v: order_index[v])
    position = [distinct_vars.index(v) for v in ordered_vars]
    root = {}
    for row in rows:
        node = root
        for i in position[:-1]:
            node = node.setdefault(row[i], {})
        node.setdefault(row[position[-1]], None)
    return ordered_vars, root


def generic_join_tuples(query, db, order=None):
    """Recursive Generic Join, one binding at a time.

    ``order`` defaults to the library's most-shared-first order.  Returns
    a :class:`~repro.evaluation.JoinRun` whose meter counts every
    variable binding that passes all participating atoms' tries.
    """
    order = _resolve_order(query, order)
    order_index = {v: i for i, v in enumerate(order)}
    tries = [_build_trie(atom, db, order_index) for atom in query.atoms]
    atoms_at = [[] for _ in order]
    for atom_idx, (ordered_vars, _) in enumerate(tries):
        for var in ordered_vars:
            atoms_at[order_index[var]].append(atom_idx)

    n = len(order)
    binding = [None] * n
    results = []
    nodes = [trie for _, trie in tries]
    visited = 0

    def descend(level):
        nonlocal visited
        if level == n:
            results.append(tuple(binding))
            return
        participants = atoms_at[level]
        if not participants:
            raise RuntimeError(
                f"variable {order[level]!r} is not covered by any atom"
            )
        views = [nodes[i] for i in participants]
        if not all(views):
            return
        smallest = min(views, key=len)
        for value in smallest:
            if any(view is not smallest and value not in view for view in views):
                continue
            visited += 1
            binding[level] = value
            saved = [nodes[i] for i in participants]
            for i in participants:
                child = nodes[i][value]
                nodes[i] = child if child is not None else _SATISFIED
            descend(level + 1)
            for i, prior in zip(participants, saved):
                nodes[i] = prior

    descend(0)
    out_positions = [order.index(v) for v in query.variables]
    output = Relation(
        query.variables,
        (tuple(row[i] for i in out_positions) for row in results),
        name=query.name,
    )
    return JoinRun(output=output, nodes_visited=visited)


# ----------------------------------------------------------------------
# binary hash join
# ----------------------------------------------------------------------
def hash_join_tuples(left_vars, left_rows, right_vars, right_rows):
    """Natural join of two variable-labelled row sets, dict-of-lists.

    Returns (output variables, output rows): the left variables followed
    by the right-only variables; rows left-major, right rows in input
    order within a key.
    """
    left_vars = tuple(left_vars)
    right_vars = tuple(right_vars)
    shared = [v for v in right_vars if v in left_vars]
    right_only = [v for v in right_vars if v not in left_vars]
    left_key_pos = [left_vars.index(v) for v in shared]
    right_key_pos = [right_vars.index(v) for v in shared]
    right_rest_pos = [right_vars.index(v) for v in right_only]
    index = defaultdict(list)
    for row in right_rows:
        index[tuple(row[i] for i in right_key_pos)].append(
            tuple(row[i] for i in right_rest_pos)
        )
    out_rows = [
        row + rest
        for row in left_rows
        for rest in index.get(tuple(row[i] for i in left_key_pos), ())
    ]
    return left_vars + tuple(right_only), out_rows


def hash_join_chain_tuples(query, db):
    """The query's output by a left-deep chain of :func:`hash_join_tuples`
    over the atoms in query order, as a relation over the query's
    variables: a binary-join reference for the Generic Join."""
    out_vars, rows = atom_rows(query.atoms[0], db)
    for atom in query.atoms[1:]:
        out_vars, rows = hash_join_tuples(out_vars, rows, *atom_rows(atom, db))
    positions = [out_vars.index(v) for v in query.variables]
    return Relation(
        query.variables,
        (tuple(row[i] for i in positions) for row in rows),
        name=query.name,
    )


# ----------------------------------------------------------------------
# Yannakakis reduction and the acyclic counting fold
# ----------------------------------------------------------------------
def _semijoin(target_vars, target_rows, source_vars, source_rows):
    """Rows of target with a matching partner in source (on shared vars)."""
    shared = [v for v in target_vars if v in source_vars]
    if not shared:
        return target_rows if source_rows else []
    s_pos = [source_vars.index(v) for v in shared]
    keys = {tuple(row[i] for i in s_pos) for row in source_rows}
    t_pos = [target_vars.index(v) for v in shared]
    return [row for row in target_rows if tuple(row[i] for i in t_pos) in keys]


def semijoin_reduce_tuples(query, db):
    """The full (up-then-down) Yannakakis reduction over row sets."""
    tree = join_tree(query)
    atoms = list(query.atoms)
    vars_of, rows_of = zip(*(atom_rows(atom, db) for atom in atoms))
    rows_of = list(rows_of)
    children = defaultdict(list)
    for atom_idx, parent_idx in tree:
        if parent_idx is None:
            root = atom_idx
            continue
        # upward sweep: parents lose rows with no partner in each child
        children[parent_idx].append(atom_idx)
        rows_of[parent_idx] = _semijoin(
            vars_of[parent_idx], rows_of[parent_idx],
            vars_of[atom_idx], rows_of[atom_idx],
        )
    # downward sweep: children lose rows with no partner in their parent
    stack = [root]
    while stack:
        node = stack.pop()
        for child in children[node]:
            rows_of[child] = _semijoin(
                vars_of[child], rows_of[child], vars_of[node], rows_of[node]
            )
            stack.append(child)

    # a relation row survives when some atom over it keeps its key
    surviving = {atom.relation: set() for atom in atoms}
    for atom, distinct_vars, kept in zip(atoms, vars_of, rows_of):
        keep = set(kept)
        position = {}
        for i, var in enumerate(atom.variables):
            position.setdefault(var, i)
        for row in db[atom.relation]:
            diagonal = all(
                row[i] == row[position[var]]
                for i, var in enumerate(atom.variables)
            )
            key = tuple(row[position[v]] for v in distinct_vars)
            if diagonal and key in keep:
                surviving[atom.relation].add(row)
    reduced = {
        name: Relation(db[name].attributes, rows, name=name)
        for name, rows in surviving.items()
    }
    for name in db:
        reduced.setdefault(name, db[name])
    return Database(reduced)


def acyclic_count_tuples(query, db):
    """|Q(D)| by the dict-based counting fold along the join tree."""
    atoms = list(query.atoms)
    rows_of = [atom_rows(atom, db) for atom in atoms]
    weights = [[1] * len(rows) for _, rows in rows_of]
    for atom_idx, parent_idx in join_tree(query):
        vars_i, rows_i = rows_of[atom_idx]
        if parent_idx is None:
            return sum(weights[atom_idx])
        vars_p, rows_p = rows_of[parent_idx]
        separator = [v for v in vars_i if v in vars_p]
        key_i = [vars_i.index(v) for v in separator]
        agg = defaultdict(int)
        for row, w in zip(rows_i, weights[atom_idx]):
            agg[tuple(row[k] for k in key_i)] += w
        key_p = [vars_p.index(v) for v in separator]
        weights[parent_idx] = [
            w * agg.get(tuple(row[k] for k in key_p), 0)
            for row, w in zip(rows_p, weights[parent_idx])
        ]
    raise AssertionError("unreachable: the join tree always has a root")
