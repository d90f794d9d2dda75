"""Full conjunctive (join) queries.

The paper (Eq. 6) considers *full* conjunctive queries

    Q(X) = ⋀_{j∈[m]} R_j(Z_j)

where every variable in the body also appears in the head.  An
:class:`Atom` pairs a relation name with a tuple of variables; a
:class:`ConjunctiveQuery` is a list of atoms.  Self-joins are expressed by
repeating the same relation name with different variable tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = ["Atom", "ConjunctiveQuery"]


@dataclass(frozen=True)
class Atom:
    """One relational atom R(Z) in a query body.

    ``relation`` is the name of the relation in the database; ``variables``
    are the query variables bound to its columns, in column order.  Repeated
    variables within an atom (e.g. ``R(x, x)``) are allowed and mean an
    equality selection on that relation.
    """

    relation: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))

    @property
    def variable_set(self) -> frozenset[str]:
        """The set of variables appearing in this atom."""
        return frozenset(self.variables)

    @property
    def arity(self) -> int:
        return len(self.variables)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class ConjunctiveQuery:
    """A full conjunctive query: a conjunction of atoms.

    Parameters
    ----------
    atoms:
        The body atoms.
    name:
        Optional display name ("Q" by default).

    Examples
    --------
    >>> q = ConjunctiveQuery([Atom("R", ("x", "y")), Atom("S", ("y", "z"))])
    >>> sorted(q.variables)
    ['x', 'y', 'z']
    """

    atoms: tuple[Atom, ...]
    name: str = "Q"

    def __init__(self, atoms: Iterable[Atom], name: str = "Q") -> None:
        object.__setattr__(self, "atoms", tuple(atoms))
        object.__setattr__(self, "name", name)
        if not self.atoms:
            raise ValueError("a conjunctive query needs at least one atom")

    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, in first-appearance order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v, None)
        return tuple(seen)

    @property
    def variable_set(self) -> frozenset[str]:
        return frozenset(self.variables)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Distinct relation names referenced, in first-appearance order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            seen.setdefault(atom.relation, None)
        return tuple(seen)

    def atoms_with_variable(self, var: str) -> list[Atom]:
        """All atoms whose variable set contains ``var``."""
        return [a for a in self.atoms if var in a.variable_set]

    def guards_for(self, variable_sets: Sequence[frozenset[str]]) -> list[Atom]:
        """Atoms guarding every set in ``variable_sets`` (i.e. covering their union)."""
        union: frozenset[str] = frozenset().union(*variable_sets)
        return [a for a in self.atoms if union <= a.variable_set]

    def is_full(self) -> bool:
        """Full conjunctive queries output all variables; always true here."""
        return True

    def __str__(self) -> str:
        head = f"{self.name}({', '.join(self.variables)})"
        body = " ∧ ".join(str(a) for a in self.atoms)
        return f"{head} = {body}"
