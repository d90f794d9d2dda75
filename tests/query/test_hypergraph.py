"""Unit tests for hypergraph structure: acyclicity, girth, edge covers.

The fractional edge cover LP lives in ``tests/oracles/edge_cover.py``
as the AGM cross-check; its weighted optimum must equal the library's
AGM bound.
"""

import math

import pytest

from oracles.edge_cover import fractional_edge_cover
from repro.estimators import agm_bound
from repro.query import (
    girth,
    is_alpha_acyclic,
    is_berge_acyclic,
    parse_query,
)
from repro.query.hypergraph import Hypergraph
from repro.relational import Database, Relation


class TestAlphaAcyclicity:
    def test_single_join_is_acyclic(self):
        assert is_alpha_acyclic(parse_query("R(x,y), S(y,z)"))

    def test_path_is_acyclic(self):
        assert is_alpha_acyclic(parse_query("R(a,b), S(b,c), T(c,d)"))

    def test_triangle_is_cyclic(self):
        assert not is_alpha_acyclic(parse_query("R(x,y), S(y,z), T(z,x)"))

    def test_triangle_with_covering_edge_is_acyclic(self):
        # α-acyclicity is not hereditary: adding the big atom removes it
        q = parse_query("W(x,y,z), R(x,y), S(y,z), T(z,x)")
        assert is_alpha_acyclic(q)

    def test_star_is_acyclic(self):
        q = parse_query("R(m,a), S(m,b), T(m,c), U(m,d)")
        assert is_alpha_acyclic(q)

    def test_four_cycle_is_cyclic(self):
        assert not is_alpha_acyclic(
            parse_query("R(a,b), S(b,c), T(c,d), U(d,a)")
        )


class TestBergeAcyclicity:
    def test_path_is_berge_acyclic(self):
        assert is_berge_acyclic(parse_query("R(a,b), S(b,c)"))

    def test_shared_pair_is_not_berge_acyclic(self):
        # two atoms sharing two variables form a Berge cycle
        assert not is_berge_acyclic(parse_query("R(x,y), S(x,y)"))

    def test_triangle_is_not_berge_acyclic(self):
        assert not is_berge_acyclic(parse_query("R(x,y), S(y,z), T(z,x)"))

    def test_berge_implies_alpha(self):
        q = parse_query("R(a,b), S(b,c), T(b,d)")
        assert is_berge_acyclic(q)
        assert is_alpha_acyclic(q)


class TestGirth:
    def test_triangle_girth_3(self):
        assert girth(parse_query("R(x,y), S(y,z), T(z,x)")) == 3

    def test_square_girth_4(self):
        assert girth(parse_query("R(a,b), S(b,c), T(c,d), U(d,a)")) == 4

    def test_forest_girth_inf(self):
        assert girth(parse_query("R(a,b), S(b,c)")) == math.inf

    def test_girth_rejects_ternary(self):
        with pytest.raises(ValueError):
            girth(parse_query("R(a,b,c)"))


class TestFractionalEdgeCover:
    def test_triangle_rho_star(self):
        value, x = fractional_edge_cover(
            parse_query("R(x,y), S(y,z), T(z,x)")
        )
        assert value == pytest.approx(1.5)
        assert x == pytest.approx([0.5, 0.5, 0.5])

    def test_single_join_rho_star(self):
        value, _ = fractional_edge_cover(parse_query("R(x,y), S(y,z)"))
        assert value == pytest.approx(2.0)

    def test_weighted_cover_is_agm_exponent(self):
        # triangle with |R|=|S|=2^10, |T|=2^2: cover puts weight on cheap T
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        value, _ = fractional_edge_cover(q, weights=[10.0, 10.0, 2.0])
        # optimum: x_R = x_S = ... LP decides; must be ≤ naive 11
        assert value <= 11.0 + 1e-9
        assert value >= 10.0  # must cover x and z through R, S at least
        big = Relation(("a", "b"), [(i, j) for i in range(32) for j in range(32)])
        small = Relation(("a", "b"), [(i, j) for i in range(2) for j in range(2)])
        db = Database({"R": big, "S": big, "T": small})
        assert agm_bound(q, db) == pytest.approx(value, abs=1e-9)

    def test_star_cover_uses_all_leaves(self):
        q = parse_query("R(m,a), S(m,b), T(m,c)")
        value, _ = fractional_edge_cover(q)
        assert value == pytest.approx(3.0)

    def test_empty_hypergraph(self):
        value, x = fractional_edge_cover(Hypergraph([]))
        assert value == 0.0
        assert x.size == 0


class TestGyo:
    def test_gyo_residue_on_cycle(self):
        h = Hypergraph.of_query(parse_query("R(x,y), S(y,z), T(z,x)"))
        assert h.gyo_reduction()  # non-empty residue

    def test_gyo_empty_on_acyclic(self):
        h = Hypergraph.of_query(parse_query("R(x,y), S(y,z)"))
        assert h.gyo_reduction() == []
