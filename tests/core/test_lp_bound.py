"""Unit tests for the bound LP (Theorem 5.2) across cones.

The hand-derived bounds from the paper's examples serve as oracles:
Example 5.3 (triangle LP), Eq. (4)/(5) (triangle ℓ2/ℓ3), Eq. (17)/(18)
(single join), and the cross-cone agreement of Theorem 6.1.
"""

import math

import numpy as np
import pytest

from repro.core import (
    BoundSolver,
    collect_statistics,
    lp_bound,
    verify_certificate,
)
from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from repro.core.lp_bound import CONES
from repro.query import parse_query
from repro.query.query import Atom
from repro.relational import Database, Relation


def _triangle_stats(b_card, b_l2=None):
    """Symmetric triangle statistics on atoms R(x,y), S(y,z), T(z,x)."""
    atoms = {
        "R": Atom("R", ("x", "y")),
        "S": Atom("S", ("y", "z")),
        "T": Atom("T", ("z", "x")),
    }
    conds = {
        "R": Conditional(frozenset("y"), frozenset("x")),
        "S": Conditional(frozenset("z"), frozenset("y")),
        "T": Conditional(frozenset("x"), frozenset("z")),
    }
    stats = []
    for name, atom in atoms.items():
        full = Conditional(frozenset(atom.variables))
        stats.append(
            ConcreteStatistic(AbstractStatistic(full, 1.0), b_card, atom)
        )
        if b_l2 is not None:
            stats.append(
                ConcreteStatistic(
                    AbstractStatistic(conds[name], 2.0), b_l2, atom
                )
            )
    return StatisticsSet(stats)


TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")


class TestTriangleOracles:
    def test_agm_from_cardinalities(self):
        # |R|=|S|=|T|=2^10 → AGM bound 2^15 (Eq. 2)
        result = lp_bound(_triangle_stats(10.0), query=TRIANGLE)
        assert result.log2_bound == pytest.approx(15.0)

    def test_l2_bound_eq4(self):
        # ℓ2 norms 2^4 each → (Π ℓ2²)^{1/3} = 2^8 (Eq. 4); cardinalities
        # large enough not to matter
        result = lp_bound(_triangle_stats(100.0, b_l2=4.0), query=TRIANGLE)
        assert result.log2_bound == pytest.approx(8.0)
        assert result.norms_used() == [2.0]

    def test_duals_match_eq4_weights(self):
        result = lp_bound(_triangle_stats(100.0, b_l2=4.0), query=TRIANGLE)
        weights = [w for _, w in result.used_statistics()]
        assert weights == pytest.approx([2 / 3] * 3)

    def test_min_of_families(self):
        # with tight cardinalities the AGM bound wins over loose ℓ2
        result = lp_bound(_triangle_stats(2.0, b_l2=50.0), query=TRIANGLE)
        assert result.log2_bound == pytest.approx(3.0)


class TestCones:
    @pytest.mark.parametrize("cone", ["polymatroid", "normal"])
    def test_explicit_cones_agree_on_simple_stats(self, cone):
        result = lp_bound(
            _triangle_stats(10.0, b_l2=4.0), query=TRIANGLE, cone=cone
        )
        assert result.status == "optimal"
        assert result.log2_bound == pytest.approx(8.0)
        assert result.cone == cone

    def test_auto_picks_normal_for_simple(self):
        result = lp_bound(_triangle_stats(10.0), query=TRIANGLE, cone="auto")
        assert result.cone == "normal"

    def test_auto_picks_polymatroid_for_non_simple(self):
        atom = Atom("T", ("a", "b", "c"))
        stat = ConcreteStatistic(
            AbstractStatistic(
                Conditional(frozenset("c"), frozenset({"a", "b"})), 2.0
            ),
            3.0,
            atom,
        )
        card = ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset({"a", "b", "c"})), 1.0),
            5.0,
            atom,
        )
        result = lp_bound([card, stat], variables=("a", "b", "c"))
        assert result.cone == "polymatroid"
        assert result.status == "optimal"

    def test_modular_cone_unsound_in_general(self):
        # Appendix B: checking only modular functions can yield an invalid,
        # smaller "bound" — Example B.1's 2/3-weights phenomenon
        atoms = {"R": Atom("R", ("u", "v")), "S": Atom("S", ("v", "u"))}
        stats = StatisticsSet(
            [
                ConcreteStatistic(
                    AbstractStatistic(
                        Conditional(frozenset("v"), frozenset("u")), 2.0
                    ),
                    0.5 * math.log2(64),
                    atoms["R"],
                ),
                ConcreteStatistic(
                    AbstractStatistic(
                        Conditional(frozenset("u"), frozenset("v")), 2.0
                    ),
                    0.5 * math.log2(64),
                    atoms["S"],
                ),
            ]
        )
        modular = lp_bound(stats, variables=("u", "v"), cone="modular")
        normal = lp_bound(stats, variables=("u", "v"), cone="normal")
        # modular claims N^{2/3}-ish; the sound bound is N
        assert modular.log2_bound < normal.log2_bound - 1.0

    def test_unknown_cone_rejected(self):
        with pytest.raises(ValueError, match="cone"):
            lp_bound(_triangle_stats(1.0), query=TRIANGLE, cone="banana")

    def test_cones_constant(self):
        assert set(CONES) == {"auto", "polymatroid", "normal", "modular"}


class TestEdgeCases:
    def test_unbounded_without_statistics(self):
        result = lp_bound(
            StatisticsSet([]), variables=("x", "y"), cone="polymatroid"
        )
        assert result.status == "unbounded"
        assert result.log2_bound == math.inf
        assert result.bound == math.inf

    def test_unbounded_with_uncovered_variable(self):
        # only x is constrained; y floats free
        stat = ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset("x")), 1.0),
            3.0,
            Atom("R", ("x", "y")),
        )
        result = lp_bound([stat], variables=("x", "y"))
        assert result.status == "unbounded"

    def test_requires_variables(self):
        with pytest.raises(ValueError, match="variables"):
            lp_bound(StatisticsSet([]))

    def test_variables_from_statistics(self):
        stat = ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset({"x", "y"})), 1.0),
            3.0,
            Atom("R", ("x", "y")),
        )
        result = lp_bound([stat])
        assert set(result.variables) == {"x", "y"}
        assert result.log2_bound == pytest.approx(3.0)

    def test_extra_inequalities_need_polymatroid_cone(self):
        import numpy as np

        with pytest.raises(ValueError, match="polymatroid"):
            lp_bound(
                _triangle_stats(1.0),
                query=TRIANGLE,
                cone="normal",
                extra_inequalities=[np.zeros(8)],
            )

    def test_extra_inequality_shape_checked(self):
        import numpy as np

        with pytest.raises(ValueError, match="length"):
            lp_bound(
                _triangle_stats(1.0),
                query=TRIANGLE,
                cone="polymatroid",
                extra_inequalities=[np.zeros(4)],
            )

    def test_zero_bound_statistics(self):
        # b = 0 means a single tuple: output bounded by 1 (log2 = 0)
        result = lp_bound(_triangle_stats(0.0), query=TRIANGLE)
        assert result.log2_bound == pytest.approx(0.0)
        assert result.bound == pytest.approx(1.0)


class TestEmptyRelations:
    """A norm-0 statistic empties the output: bound 0, no LP needed."""

    QUERY = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")

    @pytest.fixture
    def stats(self):
        db = Database(
            {
                "R": Relation(("x", "y"), [], name="R"),
                "S": Relation(("y", "z"), [(1, 2), (2, 3)], name="S"),
            }
        )
        return collect_statistics(
            self.QUERY, db, ps=[1.0, 2.0, math.inf]
        )

    def assert_empty_bound(self, result, stats, cone):
        assert result.status == "optimal"
        assert result.cone == cone
        assert result.log2_bound == -math.inf
        assert result.bound == 0.0
        expected = np.zeros(len(stats))
        expected[[s.log2_bound for s in stats].index(-math.inf)] = 1.0
        assert np.array_equal(result.dual_weights, expected)
        assert result.statistics is stats
        assert verify_certificate(result)

    @pytest.mark.parametrize("cone", ["polymatroid", "normal"])
    def test_lp_bound_is_zero(self, stats, cone):
        result = lp_bound(stats, query=self.QUERY, cone=cone)
        self.assert_empty_bound(result, stats, cone)
        assert result.used_statistics()[0][0].guard.relation == "R"

    @pytest.mark.parametrize("lp_mode", ["oneshot", "persistent"])
    @pytest.mark.parametrize("cone", ["polymatroid", "normal"])
    def test_solver_and_families_are_zero(self, stats, cone, lp_mode):
        # both LP modes answer before any LP exists, so the persistent
        # mode needs no highspy here
        solver = BoundSolver(lp_mode=lp_mode)
        result = solver.solve(stats, query=self.QUERY, cone=cone)
        self.assert_empty_bound(result, stats, cone)
        for family in ((1.0,), (1.0, math.inf), (2.0,)):
            restricted = stats.restrict_ps(family)
            result = solver.solve_family(
                stats, family, query=self.QUERY, cone=cone
            )
            self.assert_empty_bound(result, result.statistics, cone)
            assert result.log2_bound == lp_bound(
                restricted, query=self.QUERY, cone=cone
            ).log2_bound
        assert solver.solves == 0
        assert solver.cached_assemblies() == 0


class TestSoundnessOnData:
    """Theorem 1.1: the bound dominates the true output size."""

    def test_bound_dominates_truth_triangle(self, graph_db, triangle_query):
        from repro.evaluation import count_query

        stats = collect_statistics(
            triangle_query, graph_db, ps=[1.0, 2.0, 3.0, math.inf]
        )
        true_count = count_query(triangle_query, graph_db)
        for ps in ([1.0], [1.0, math.inf], [1.0, 2.0], [1.0, 2.0, 3.0, math.inf]):
            result = lp_bound(stats.restrict_ps(ps), query=triangle_query)
            assert result.log2_bound >= math.log2(max(1, true_count)) - 1e-9

    def test_bound_dominates_truth_join(self, two_table_db, one_join_query):
        from repro.evaluation import acyclic_count

        stats = collect_statistics(
            one_join_query, two_table_db, ps=[1.0, 2.0, math.inf]
        )
        true_count = acyclic_count(one_join_query, two_table_db)
        result = lp_bound(stats, query=one_join_query)
        assert result.log2_bound >= math.log2(max(1, true_count)) - 1e-9

    def test_more_norms_never_hurt(self, graph_db, triangle_query):
        stats = collect_statistics(
            triangle_query, graph_db, ps=[1.0, 2.0, 3.0, 4.0, math.inf]
        )
        previous = math.inf
        for ps in (
            [1.0],
            [1.0, math.inf],
            [1.0, 2.0, math.inf],
            [1.0, 2.0, 3.0, 4.0, math.inf],
        ):
            value = lp_bound(stats.restrict_ps(ps), query=triangle_query).log2_bound
            assert value <= previous + 1e-9
            previous = value
