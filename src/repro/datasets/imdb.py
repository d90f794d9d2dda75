"""A synthetic IMDB-like database — the JOB benchmark substrate.

The paper's Figure 1 runs 33 acyclic join queries over IMDB.  The real
dataset is unavailable offline, so this module generates a scaled,
schema-compatible stand-in: a star/snowflake schema around ``title`` with
key–foreign-key joins everywhere (primary keys give the ℓ∞ = 1 statistics
the paper observes in every optimal bound) and Zipf-skewed foreign keys
(the skew that separates ℓp bounds from ℓ1/ℓ∞ bounds).

All relations' columns are join keys or low-cardinality dimension values;
queries in :mod:`repro.datasets.job_queries` bind every column, making
them full conjunctive queries as the paper requires.
"""

from __future__ import annotations

import numpy as np

from ..relational import Database, Relation
from .generators import zipf_values

__all__ = ["imdb_database", "IMDB_RELATIONS"]

#: relation name -> attribute tuple (documentation + test fixture)
IMDB_RELATIONS: dict[str, tuple[str, ...]] = {
    "title": ("mid", "kind"),
    "kind_type": ("kind",),
    "movie_companies": ("mid", "cid", "ctid"),
    "company_name": ("cid", "country"),
    "company_type": ("ctid",),
    "movie_info": ("mid", "it"),
    "movie_info_idx": ("mid", "it"),
    "info_type": ("it",),
    "movie_keyword": ("mid", "kw"),
    "keyword": ("kw",),
    "cast_info": ("mid", "pid", "role"),
    "role_type": ("role",),
    "name": ("pid", "gender"),
    "aka_name": ("pid", "aka"),
    "person_info": ("pid", "pit"),
    "movie_link": ("mid", "mid2", "lt"),
    "link_type": ("lt",),
    "complete_cast": ("mid", "cc"),
    "comp_cast_type": ("cc",),
    "aka_title": ("mid", "at"),
}


def _fk_table(
    rng: np.random.Generator,
    rows: int,
    columns: tuple[str, ...],
    domains: tuple[int, ...],
    exponents: tuple[float, ...],
) -> Relation:
    data = [
        zipf_values(rows, domain, exponent, rng)
        for domain, exponent in zip(domains, exponents)
    ]
    # column-first: vectorized dedup in the columnar backend, no tuple
    # round-trip (first-occurrence row order, as the row constructor).
    return Relation.from_columns(columns, data)


def imdb_database(scale: float = 1.0, seed: int = 7) -> Database:
    """Generate the synthetic IMDB instance.

    ``scale`` multiplies every table's row target (fact tables only);
    dimension-table sizes grow with sqrt(scale).  The default produces
    ~45k tuples total — large enough for meaningful skew, small enough
    that all 33 JOB-like counts run in seconds via ``acyclic_count``.
    """
    rng = np.random.default_rng(seed)
    movies = max(50, int(1200 * scale))
    companies = max(20, int(250 * np.sqrt(scale)))
    persons = max(40, int(2500 * np.sqrt(scale)))
    keywords = max(30, int(800 * np.sqrt(scale)))
    kinds, ctypes, infotypes, roles = 7, 4, 50, 11
    genders, countries, pinfotypes, linktypes, cctypes = 3, 40, 30, 17, 4

    relations: dict[str, Relation] = {}
    relations["title"] = Relation.from_columns(
        ("mid", "kind"),
        [np.arange(movies), zipf_values(movies, kinds, 0.6, rng)],
    )
    relations["kind_type"] = Relation(("kind",), ((k,) for k in range(kinds)))
    relations["movie_companies"] = _fk_table(
        rng, int(3 * movies), ("mid", "cid", "ctid"),
        (movies, companies, ctypes), (0.8, 0.7, 0.5),
    )
    relations["company_name"] = Relation.from_columns(
        ("cid", "country"),
        [np.arange(companies), zipf_values(companies, countries, 0.9, rng)],
    )
    relations["company_type"] = Relation(
        ("ctid",), ((c,) for c in range(ctypes))
    )
    relations["movie_info"] = _fk_table(
        rng, int(5 * movies), ("mid", "it"), (movies, 40), (0.9, 0.8)
    )
    relations["movie_info_idx"] = _fk_table(
        rng, int(2 * movies), ("mid", "it"), (movies, 10), (0.7, 0.6)
    )
    relations["info_type"] = Relation(
        ("it",), ((i,) for i in range(infotypes))
    )
    relations["movie_keyword"] = _fk_table(
        rng, int(4 * movies), ("mid", "kw"), (movies, keywords), (0.95, 0.85)
    )
    relations["keyword"] = Relation(("kw",), ((k,) for k in range(keywords)))
    relations["cast_info"] = _fk_table(
        rng, int(8 * movies), ("mid", "pid", "role"),
        (movies, persons, roles), (0.85, 0.8, 0.5),
    )
    relations["role_type"] = Relation(("role",), ((r,) for r in range(roles)))
    relations["name"] = Relation.from_columns(
        ("pid", "gender"),
        [np.arange(persons), zipf_values(persons, genders, 0.3, rng)],
    )
    aka_rows = int(1.0 * movies)
    relations["aka_name"] = Relation.from_columns(
        ("pid", "aka"),
        [zipf_values(aka_rows, persons, 0.9, rng), np.arange(aka_rows)],
    )
    relations["person_info"] = _fk_table(
        rng, int(3 * movies), ("pid", "pit"), (persons, pinfotypes), (0.85, 0.6)
    )
    relations["movie_link"] = _fk_table(
        rng, max(20, int(0.3 * movies)), ("mid", "mid2", "lt"),
        (movies, movies, linktypes), (0.8, 0.8, 0.4),
    )
    relations["link_type"] = Relation(
        ("lt",), ((lt,) for lt in range(linktypes))
    )
    relations["complete_cast"] = _fk_table(
        rng, max(20, int(0.5 * movies)), ("mid", "cc"), (movies, cctypes),
        (0.7, 0.4),
    )
    relations["comp_cast_type"] = Relation(
        ("cc",), ((c,) for c in range(cctypes))
    )
    at_rows = max(20, int(0.4 * movies))
    relations["aka_title"] = Relation.from_columns(
        ("mid", "at"),
        [zipf_values(at_rows, movies, 0.8, rng), np.arange(at_rows)],
    )
    return Database(relations)
