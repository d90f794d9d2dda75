"""Degree-based relation partitioning (Lemma 2.5) and strong satisfaction.

A relation R *strongly satisfies* a concrete ℓp statistic ((V|U), p, B) —
written R |=_s (τ, B) — when there is a d > 0 with ‖deg_R(V|U)‖_∞ ≤ d and
|Π_U(R)| ≤ B^p / d^p.  Strong satisfaction lets the statistic be replaced
by an ℓ1 and an ℓ∞ statistic (Eq. 22), which is what reduces the paper's
evaluation algorithm to PANDA.

Lemma 2.5: any R satisfying an ℓp statistic splits into
O(2^p · log N) parts that each strongly satisfy it — bucket the U-values
by ⌊log2 degree⌋, then chop each bucket into ⌈2^p⌉ slices.

Both steps run in code space: per-row degrees come from one grouped
distinct count, ⌊log2 d⌋ via ``frexp`` (exact for any int64 degree), and
each part is a positional row-gather.  Parts come in ascending bucket
order, and slices within a bucket in ascending composite U-key order —
the order of the decoded U-tuples whenever every U column's dictionary
is sorted (see :func:`repro.relational.columnar.encode_column`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.degree import degree_sequence
from ..relational import Relation

__all__ = [
    "strongly_satisfies",
    "partition_by_degree",
    "partition_for_statistic",
]


def _bucket_row_runs(
    row_buckets: np.ndarray,
) -> list[tuple[int, np.ndarray]]:
    """(bucket value, ascending row indices) per distinct bucket, ascending.

    One stable argsort + run slicing instead of a full ``row_buckets == b``
    scan per bucket — O(N log N) total where the per-bucket scans were
    O(N · #buckets).  Each run's indices ascend (stable sort), matching
    ``np.nonzero`` output exactly, so parts are byte-identical.
    """
    order = np.argsort(row_buckets, kind="stable")
    sorted_buckets = row_buckets[order]
    run_starts = np.nonzero(np.diff(sorted_buckets))[0] + 1
    values = sorted_buckets[np.append(np.int64(0), run_starts)]
    return list(zip(values.tolist(), np.split(order, run_starts)))


def strongly_satisfies(
    relation: Relation,
    v_attrs: Sequence[str],
    u_attrs: Sequence[str],
    p: float,
    log2_bound: float,
    tolerance_log2: float = 1e-9,
) -> bool:
    """Check R |=_s ((V|U), p, B) with the best d, the max degree.

    With d = ‖deg(V|U)‖_∞ the condition |Π_U(R)| ≤ B^p/d^p becomes
    log2 |Π_U| + p·log2 d ≤ p·b (and for p = ∞ just log2 d ≤ b).
    """
    if len(relation) == 0:
        return True
    seq = degree_sequence(relation, v_attrs, u_attrs)
    log2_d = math.log2(float(seq[0]))
    if p == math.inf:
        return log2_d <= log2_bound + tolerance_log2
    log2_u = math.log2(float(seq.size))
    return log2_u + p * log2_d <= p * log2_bound + tolerance_log2


def _degree_profile(
    relation: Relation, v_attrs: Sequence[str], u_attrs: Sequence[str]
):
    """Per-row U-keys, distinct keys, per-group degrees, per-row buckets.

    The bucket of a degree d is ⌊log2 d⌋, computed exactly via ``frexp``
    (d = m·2^e with ½ ≤ m < 1, so e − 1 is the floor log).
    """
    col = relation.columnar()
    group_keys, _ = col.key_codes(tuple(u_attrs))
    counts = col.group_size_counts(tuple(u_attrs), tuple(v_attrs))
    unique_keys, inverse = np.unique(group_keys, return_inverse=True)
    group_buckets = np.frexp(counts.astype(np.float64))[1] - 1
    row_buckets = group_buckets[inverse]
    return group_keys, unique_keys, counts, group_buckets, row_buckets


def partition_by_degree(
    relation: Relation,
    v_attrs: Sequence[str],
    u_attrs: Sequence[str],
) -> list[Relation]:
    """Split R by ⌊log2 deg(V | U=u)⌋ buckets of the U-value degrees.

    Within each part, every U-value's degree lies in [2^i, 2^{i+1}), i.e.
    all degrees agree within a factor of two — the first step of
    Lemma 2.5's proof.
    """
    if len(relation) == 0:
        return []
    _, _, _, _, row_buckets = _degree_profile(relation, v_attrs, u_attrs)
    return [
        relation._take_rows(rows) for _, rows in _bucket_row_runs(row_buckets)
    ]


def _bucket_capacity(
    d_max: int, n_groups: int, p: float, log2_bound: float
) -> int:
    """Slice width ⌊B^p / d_max^p⌋ for one degree bucket (Lemma 2.5).

    Raises ``ValueError`` when even a single U-value's degree exceeds the
    bound — then the relation does not satisfy the statistic at all.
    """
    log2_capacity = p * (log2_bound - math.log2(d_max))
    if log2_capacity < -1e-9:
        raise ValueError(
            f"relation violates the ℓ{p:g} statistic: a degree of "
            f"{d_max} alone exceeds the bound 2^{log2_bound:.4g}"
        )
    if log2_capacity > 60:
        return n_groups
    return max(1, int(2.0 ** log2_capacity + 1e-9))


def partition_for_statistic(
    relation: Relation,
    v_attrs: Sequence[str],
    u_attrs: Sequence[str],
    p: float,
    log2_bound: float,
) -> list[Relation]:
    """Lemma 2.5: parts that each strongly satisfy ((V|U), p, B).

    Degree-buckets first (all degrees within a factor of two), then chops
    each bucket's U-values into slices of at most ⌊B^p / d_max^p⌋ values,
    where d_max is the bucket's maximum degree — each slice then strongly
    satisfies the statistic with d = d_max by construction.  Because a
    bucket at level i holds at most B^p/2^{p·i} U-values, the slice count
    matches Lemma 2.5's O(2^p · log N) up to constants.

    For p = ∞ the statistic is already an ℓ∞ assertion and the relation is
    returned whole (it strongly satisfies trivially with d = B).

    Raises ``ValueError`` if the relation does not satisfy the statistic in
    the first place (then no partition can strongly satisfy it).
    """
    if p == math.inf:
        return [relation] if len(relation) else []
    if len(relation) == 0:
        return []
    group_keys, unique_keys, counts, group_buckets, row_buckets = (
        _degree_profile(relation, v_attrs, u_attrs)
    )
    parts: list[Relation] = []
    # every group has at least one row, so the row-derived buckets
    # enumerate exactly np.unique(group_buckets), ascending.
    for b, row_sel in _bucket_row_runs(row_buckets):
        group_mask = group_buckets == b
        d_max = int(counts[group_mask].max())
        bucket_groups = unique_keys[group_mask]
        capacity = _bucket_capacity(d_max, len(bucket_groups), p, log2_bound)
        # rank of each row's U-value inside the bucket, ascending key order
        ranks = np.searchsorted(bucket_groups, group_keys[row_sel])
        slices = ranks // capacity
        n_slices = (len(bucket_groups) + capacity - 1) // capacity
        for s in range(n_slices):
            parts.append(relation._take_rows(row_sel[slices == s]))
    for part in parts:
        assert strongly_satisfies(part, v_attrs, u_attrs, p, log2_bound), (
            f"part of {relation.name or 'relation'} fails strong "
            f"satisfaction for p={p}, b={log2_bound}"
        )
    return parts
