"""Shared fixtures: small deterministic relations, graphs, and queries."""

import random

import pytest

from repro.core import set_lp_mode
from repro.query import parse_query
from repro.relational import Database, Relation


@pytest.fixture(autouse=True)
def _lp_mode_from_environment():
    """Start every test in the LP mode its environment names.

    The process-wide mode is cached on first use, so a test that pins
    ``REPRO_LP`` through ``monkeypatch`` and solves (perfbench's smoke
    run, collected first, pins ``oneshot``) would otherwise leave its
    mode to every later test, whatever the CI leg's environment says.
    """
    set_lp_mode()


@pytest.fixture
def tiny_relation():
    """R(x, y) with 4 rows, one skewed y-value."""
    return Relation(("x", "y"), [(1, 10), (2, 10), (3, 10), (4, 20)], name="R")


@pytest.fixture
def small_graph():
    """A deterministic 60-node random graph, symmetric, ~400 edges."""
    rng = random.Random(1234)
    edges = set()
    while len(edges) < 200:
        a, b = rng.randrange(60), rng.randrange(60)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    rows = [(a, b) for a, b in edges] + [(b, a) for a, b in edges]
    return Relation(("x", "y"), rows, name="R")


@pytest.fixture
def graph_db(small_graph):
    return Database({"R": small_graph})


@pytest.fixture
def triangle_query():
    return parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")


@pytest.fixture
def one_join_query():
    return parse_query("onejoin(x,y,z) :- R(x,y), S(y,z)")


@pytest.fixture
def two_table_db():
    """R(x,y), S(y,z): a small skewed join instance."""
    r = Relation(
        ("x", "y"),
        [(i, i % 4) for i in range(12)] + [(100 + i, 0) for i in range(6)],
        name="R",
    )
    s = Relation(
        ("y", "z"),
        [(j % 4, j) for j in range(10)] + [(0, 200 + j) for j in range(5)],
        name="S",
    )
    return Database({"R": r, "S": s})
