"""Dual certificates for LP bounds.

A :class:`~repro.core.lp_bound.BoundResult` carries the dual weights w_i of
the statistics constraints.  At optimality they certify the bound through
Theorem 1.1: the inequality

    Σ_i w_i ((1/p_i)·h(U_i) + h(V_i|U_i)) ≥ h(X)

is valid on the cone, hence |Q| ≤ Π_i B_i^{w_i} and
log2 |Q| ≤ Σ_i w_i · b_i.  These helpers render and verify that
certificate.
"""

from __future__ import annotations

import math

from .lp_bound import BoundResult

__all__ = ["product_form", "verify_certificate", "certificate_gap"]


def product_form(result: BoundResult, tol: float = 1e-7) -> str:
    """The bound as a product of norms, e.g. ``||deg_R(y|x)||_2^0.667·…``."""
    factors = []
    for stat, weight in result.used_statistics(tol):
        p = "∞" if stat.p == math.inf else format(stat.p, "g")
        cond = stat.conditional
        u = ",".join(sorted(cond.u)) or "∅"
        v = ",".join(sorted(cond.v))
        factors.append(
            f"||deg_{stat.guard.relation}({v}|{u})||_{p}^{weight:.4g}"
        )
    return " · ".join(factors) if factors else "1"


def certificate_gap(result: BoundResult) -> float:
    """|Σ w_i·b_i − log2_bound| — zero (to LP tolerance) at optimality.

    Zero-weight terms are skipped (0·(−∞) = 0), so an empty relation's
    certificate, weight 1 on a b = −∞ statistic, closes at −∞ exactly.
    """
    if result.dual_weights is None:
        raise ValueError(f"no certificate (status: {result.status})")
    total = sum(
        float(w) * stat.log2_bound
        for stat, w in zip(result.statistics, result.dual_weights)
        if w
    )
    if total == result.log2_bound:
        return 0.0
    return abs(total - result.log2_bound)


def verify_certificate(result: BoundResult, tol: float = 1e-5) -> bool:
    """Strong duality check: the dual weights reproduce the bound value.

    This validates that the reported bound really is of the Theorem 1.1
    product form Π B_i^{w_i}.
    """
    if result.status != "optimal":
        return False
    scale = max(1.0, abs(result.log2_bound))
    return certificate_gap(result) <= tol * scale
