"""Experiment E10 — ablation: LP solver scaling, polymatroid vs normal cone.

Section 5 notes the bound LP is exponential in the query size.  This
ablation measures how the two cones scale on path queries of growing
length: the polymatroid cone needs ~n²·2^n Shannon rows, the normal cone
(exact for the simple statistics used everywhere in the experiments —
Theorem 6.1) needs only one column per level-minimal step function.  Both must
agree on the bound value, which doubles as a correctness check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from ..core import collect_statistics, lp_bound
from ..datasets.generators import power_law_graph
from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database

__all__ = ["ScalingRow", "path_query", "run_lp_scaling", "main"]


def path_query(length: int) -> ConjunctiveQuery:
    """The path query R1(x1,x2) ∧ … ∧ R_length(x_length, x_{length+1})."""
    atoms = [
        Atom(f"R{i}", (f"x{i}", f"x{i + 1}")) for i in range(1, length + 1)
    ]
    return ConjunctiveQuery(atoms, name=f"path{length}")


@dataclass
class ScalingRow:
    num_variables: int
    log2_bound_normal: float
    log2_bound_polymatroid: float | None
    seconds_normal: float
    seconds_polymatroid: float | None

    @property
    def bounds_agree(self) -> bool:
        if self.log2_bound_polymatroid is None:
            return True
        return (
            abs(self.log2_bound_normal - self.log2_bound_polymatroid) < 1e-5
        )


def run_lp_scaling(
    lengths: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    polymatroid_max_vars: int = 9,
    seed: int = 11,
) -> list[ScalingRow]:
    """Run E10 on path queries over a shared power-law edge relation."""
    edges = power_law_graph(800, 4000, 0.8, seed)
    rows = []
    for length in lengths:
        query = path_query(length)
        db = Database({f"R{i}": edges for i in range(1, length + 1)})
        stats = collect_statistics(
            query, db, ps=[1.0, 2.0, 3.0, 4.0, math.inf]
        )
        start = time.perf_counter()
        normal = lp_bound(stats, query=query, cone="normal")
        normal_time = time.perf_counter() - start
        poly_bound = None
        poly_time = None
        if query.num_variables <= polymatroid_max_vars:
            start = time.perf_counter()
            poly = lp_bound(stats, query=query, cone="polymatroid")
            poly_time = time.perf_counter() - start
            poly_bound = poly.log2_bound
        rows.append(
            ScalingRow(
                num_variables=query.num_variables,
                log2_bound_normal=normal.log2_bound,
                log2_bound_polymatroid=poly_bound,
                seconds_normal=normal_time,
                seconds_polymatroid=poly_time,
            )
        )
    return rows


def main() -> str:
    """Render E10."""
    from .harness import format_table

    rows = run_lp_scaling()
    table = format_table(
        ["#vars", "bound (normal)", "bound (polymatroid)", "t_normal", "t_poly"],
        [
            (
                r.num_variables,
                f"{r.log2_bound_normal:.3f}",
                "-" if r.log2_bound_polymatroid is None
                else f"{r.log2_bound_polymatroid:.3f}",
                f"{r.seconds_normal * 1e3:.1f}ms",
                "-" if r.seconds_polymatroid is None
                else f"{r.seconds_polymatroid * 1e3:.1f}ms",
            )
            for r in rows
        ],
    )
    agree = all(r.bounds_agree for r in rows)
    return (
        "E10: LP scaling, polymatroid vs normal cone "
        f"(bounds agree: {agree})\n" + table
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
