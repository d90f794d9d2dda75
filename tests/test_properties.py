"""Property-based tests (hypothesis) for the library's core invariants.

The paper's theorems become executable properties on random instances:

* Theorem 1.1 soundness: every LP bound dominates the true output size;
* Lemma 4.1: (1/p)·h(U) + h(V|U) ≤ log2 ‖deg(V|U)‖_p on empirical entropies;
* Theorem 6.1: normal cone = polymatroid cone for simple statistics;
* evaluator agreement: WCOJ = the oracle hash-join chain = join-tree
  counting;
* Lemma 2.5: partitions are disjoint covers whose parts strongly satisfy;
* Lemma A.1: norms determine the degree sequence;
* Eq. 38: domain-product entropies add.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles.edge_cover import agm_log2
from oracles.tuple_engine import hash_join_chain_tuples
from repro.core import collect_statistics, lp_bound
from repro.core.degree import degree_sequence
from repro.core.norms import log2_norm, lp_norm, sequence_from_norms
from repro.entropy import entropy_of_relation, zhang_yeung_coefficients
from repro.estimators import agm_bound, agm_bound_lp, dsb_single_join
from repro.evaluation import acyclic_count, count_query
from repro.evaluation.partitioning import (
    partition_for_statistic,
    strongly_satisfies,
)
from repro.query import parse_query
from repro.relational import Database, Relation
from repro.tightness import domain_product, normal_relation

SETTINGS = settings(max_examples=40, deadline=None)

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------
small_pairs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
)

tiny_triples = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
    min_size=1,
    max_size=25,
)

norm_ps = st.sampled_from([1.0, 1.5, 2.0, 3.0, 4.0, math.inf])


def _rel(pairs, attrs=("x", "y")):
    return Relation(attrs, pairs)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------
class TestNormProperties:
    @SETTINGS
    @given(
        st.lists(st.integers(1, 50), min_size=1, max_size=15),
        norm_ps,
        norm_ps,
    )
    def test_norms_decreasing_in_p(self, degrees, p, q):
        lo, hi = sorted([p, q])
        assert log2_norm(degrees, hi) <= log2_norm(degrees, lo) + 1e-9

    @SETTINGS
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=15), norm_ps)
    def test_norm_bounds(self, degrees, p):
        value = log2_norm(degrees, p)
        assert value >= math.log2(max(degrees)) - 1e-9  # ≥ ℓ∞
        assert value <= math.log2(sum(degrees)) + 1e-9  # ≤ ℓ1

    @SETTINGS
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    def test_lemma_a1_roundtrip(self, degrees):
        # repeated degrees make the inverse map ill-conditioned (multiple
        # polynomial roots shift by ~eps^{1/multiplicity}), hence the loose
        # tolerance; exact-recovery cases live in tests/core/test_norms.py.
        norms = [lp_norm(degrees, float(k)) for k in range(1, len(degrees) + 1)]
        recovered = sequence_from_norms(norms, tol=1e-2)
        assert np.allclose(
            recovered, sorted(degrees, reverse=True), rtol=0.06, atol=0.06
        )


# ---------------------------------------------------------------------------
# Lemma 4.1 and entropy structure
# ---------------------------------------------------------------------------
class TestEntropyProperties:
    @SETTINGS
    @given(tiny_triples, norm_ps)
    def test_lemma_41(self, triples, p):
        r = Relation(("a", "b", "c"), triples)
        h = entropy_of_relation(r)
        seq = degree_sequence(r, ["b", "c"], ["a"])
        inv_p = 0.0 if p == math.inf else 1.0 / p
        lhs = inv_p * h.h(["a"]) + h.conditional(["b", "c"], ["a"])
        assert lhs <= log2_norm(seq, p) + 1e-9

    @SETTINGS
    @given(tiny_triples)
    def test_empirical_entropy_is_polymatroid(self, triples):
        r = Relation(("a", "b", "c"), triples)
        assert entropy_of_relation(r).is_polymatroid(tol=1e-8)

    @SETTINGS
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(0, 2),
                st.integers(0, 2),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_zhang_yeung_on_entropic_vectors(self, rows):
        r = Relation(("A", "B", "X", "Y"), rows)
        c = zhang_yeung_coefficients(("A", "B", "X", "Y"))
        assert float(c @ entropy_of_relation(r).values) >= -1e-8

    @SETTINGS
    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.sampled_from([("x",), ("y",), ("x", "y")]),
        st.sampled_from([("x",), ("y",), ("x", "y")]),
    )
    def test_domain_product_entropy_adds(self, n1, n2, w1, w2):
        a = normal_relation(("x", "y"), [(w1, n1)])
        b = normal_relation(("x", "y"), [(w2, n2)])
        product = domain_product(a, b)
        ha = entropy_of_relation(a).values
        hb = entropy_of_relation(b).values
        hp = entropy_of_relation(product).values
        assert np.allclose(hp, ha + hb, atol=1e-9)


# ---------------------------------------------------------------------------
# Theorem 1.1 soundness on random data
# ---------------------------------------------------------------------------
class TestSoundness:
    @SETTINGS
    @given(small_pairs, small_pairs)
    def test_join_bound_dominates_truth(self, r_pairs, s_pairs):
        db = Database(
            {"R": _rel(r_pairs), "S": _rel(s_pairs, attrs=("y", "z"))}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        stats = collect_statistics(q, db, ps=[1.0, 2.0, 3.0, math.inf])
        truth = acyclic_count(q, db)
        result = lp_bound(stats, query=q)
        assert result.log2_bound >= math.log2(max(1, truth)) - 1e-6

    @SETTINGS
    @given(small_pairs)
    def test_triangle_bound_dominates_truth(self, pairs):
        db = Database({"R": _rel(pairs)})
        q = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(q, db, ps=[1.0, 2.0, math.inf])
        truth = count_query(q, db)
        result = lp_bound(stats, query=q)
        assert result.log2_bound >= math.log2(max(1, truth)) - 1e-6

    @SETTINGS
    @given(small_pairs)
    def test_star_bound_dominates_truth(self, pairs):
        db = Database({"R": _rel(pairs)})
        q = parse_query("Q(m,a,b) :- R(m,a), R(m,b)")
        stats = collect_statistics(q, db, ps=[1.0, 2.0, math.inf])
        truth = count_query(q, db)
        assert lp_bound(stats, query=q).log2_bound >= math.log2(
            max(1, truth)
        ) - 1e-6


# ---------------------------------------------------------------------------
# Theorem 6.1 cone agreement and Theorem 5.2 duality
# ---------------------------------------------------------------------------
class TestConeAgreement:
    @SETTINGS
    @given(small_pairs, small_pairs)
    def test_normal_equals_polymatroid_for_simple_stats(
        self, r_pairs, s_pairs
    ):
        db = Database(
            {"R": _rel(r_pairs), "S": _rel(s_pairs, attrs=("y", "z"))}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        stats = collect_statistics(q, db, ps=[1.0, 2.0, math.inf])
        normal = lp_bound(stats, query=q, cone="normal")
        poly = lp_bound(stats, query=q, cone="polymatroid")
        assert abs(normal.log2_bound - poly.log2_bound) < 1e-6

    @SETTINGS
    @given(small_pairs)
    def test_strong_duality_certificate(self, pairs):
        db = Database({"R": _rel(pairs)})
        q = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
        stats = collect_statistics(q, db, ps=[1.0, 2.0, math.inf])
        result = lp_bound(stats, query=q)
        from repro.core import verify_certificate

        assert verify_certificate(result)

    @SETTINGS
    @given(small_pairs, small_pairs)
    def test_agm_routes_agree(self, r_pairs, s_pairs):
        db = Database(
            {"R": _rel(r_pairs), "S": _rel(s_pairs, attrs=("y", "z"))}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        direct = agm_log2(q, db)
        via_lp = agm_bound_lp(q, db).log2_bound
        assert agm_bound(q, db) == via_lp
        assert abs(direct - via_lp) < 1e-6


# ---------------------------------------------------------------------------
# evaluators agree
# ---------------------------------------------------------------------------
class TestEvaluatorAgreement:
    @SETTINGS
    @given(small_pairs, small_pairs)
    def test_three_evaluators_agree_on_join(self, r_pairs, s_pairs):
        db = Database(
            {"R": _rel(r_pairs), "S": _rel(s_pairs, attrs=("y", "z"))}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        wcoj = count_query(q, db)
        dp = acyclic_count(q, db)
        materialised = len(hash_join_chain_tuples(q, db))
        assert wcoj == dp == materialised

    @SETTINGS
    @given(small_pairs)
    def test_wcoj_matches_hash_join_on_triangle(self, pairs):
        db = Database({"R": _rel(pairs)})
        q = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        assert count_query(q, db) == len(hash_join_chain_tuples(q, db))

    @SETTINGS
    @given(small_pairs, small_pairs)
    def test_dsb_dominates_truth(self, r_pairs, s_pairs):
        db = Database(
            {"R": _rel(r_pairs), "S": _rel(s_pairs, attrs=("y", "z"))}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        assert dsb_single_join(q, db) >= acyclic_count(q, db)


# ---------------------------------------------------------------------------
# Lemma 2.5 partitioning
# ---------------------------------------------------------------------------
class TestPartitioningProperties:
    @SETTINGS
    @given(small_pairs, st.sampled_from([1.5, 2.0, 3.0]))
    def test_partition_is_disjoint_cover_of_strong_parts(self, pairs, p):
        r = _rel(pairs)
        seq = degree_sequence(r, ["x"], ["y"])
        b = log2_norm(seq, p)
        parts = partition_for_statistic(r, ["x"], ["y"], p, b)
        seen = set()
        for part in parts:
            assert strongly_satisfies(part, ["x"], ["y"], p, b)
            for row in part:
                assert row not in seen
                seen.add(row)
        assert seen == set(r)
