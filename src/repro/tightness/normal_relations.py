"""Normal relations: domain products of basic normal relations (Sec. 6).

The tightness proof of the polymatroid bound for simple statistics runs
through *normal relations*:

* the **basic normal relation** T^W_N (Def. 6.4) puts the value k on every
  attribute in W and 0 elsewhere, for k = 0..N−1;
* the **domain product** T ⊗ T' pairs values attribute-wise
  (|T ⊗ T'| = |T|·|T'|, and entropies add — Eq. 38);
* a **normal relation** is a domain product of basic ones; it is totally
  uniform and its entropy is the normal polymatroid Σ (log2 N_W)·h_W.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..relational import Relation

__all__ = ["basic_normal_relation", "domain_product", "normal_relation"]


def basic_normal_relation(
    variables: Sequence[str], w: Iterable[str], n: int
) -> Relation:
    """The basic normal relation T^W_N over the given attribute list.

    Rows are (k on attributes in W, 0 elsewhere) for k = 0..n−1.
    """
    variables = tuple(variables)
    w_set = frozenset(w)
    unknown = w_set - set(variables)
    if unknown:
        raise ValueError(f"W contains unknown attributes {sorted(unknown)}")
    if n < 1:
        raise ValueError(f"N must be ≥ 1, got {n}")
    rows = (
        tuple(k if v in w_set else 0 for v in variables) for k in range(n)
    )
    return Relation(variables, rows, name=f"T^{{{','.join(sorted(w_set))}}}_{n}")


def domain_product(left: Relation, right: Relation) -> Relation:
    """The domain product T ⊗ T' (Fagin's direct product).

    Both relations must share the same attribute tuple.  Each output row
    pairs a row of ``left`` with a row of ``right`` attribute-wise, values
    becoming 2-tuples; |T ⊗ T'| = |T| · |T'| and entropy vectors add.
    """
    if left.attributes != right.attributes:
        raise ValueError(
            f"attribute mismatch: {left.attributes} vs {right.attributes}"
        )
    rows = (
        tuple(zip(lrow, rrow)) for lrow in left for rrow in right
    )
    return Relation(left.attributes, rows, name=f"{left.name}⊗{right.name}")


def normal_relation(
    variables: Sequence[str],
    factors: Iterable[tuple[Iterable[str], int]],
) -> Relation:
    """The domain product ⊗_i T^{W_i}_{N_i}.

    ``factors`` is an iterable of (W, N) pairs.  With no factors the result
    is the single all-zero row (entropy 0).  The result is totally uniform
    with entropy Σ_i (log2 N_i) · h_{W_i} (Prop. 6.5 + Eq. 38).
    """
    variables = tuple(variables)
    result: Relation | None = None
    for w, n in factors:
        factor = basic_normal_relation(variables, w, n)
        result = factor if result is None else domain_product(result, factor)
    if result is None:
        return Relation(variables, [tuple(0 for _ in variables)], name="T^∅")
    return result
