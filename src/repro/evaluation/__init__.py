"""Query evaluation: Generic Join, Yannakakis counting, and the Theorem 2.6
algorithm."""

from .acyclic_count import acyclic_count, join_tree
from .faults import FaultCommand, FaultInjector, InjectedFault, parse_fault_spec
from .governor import (
    CancellationToken,
    EscalatingSink,
    EvaluationBudget,
    EvaluationCancelled,
    EvaluationDeadlineExceeded,
    EvaluationGovernor,
    GovernorSnapshot,
    MemoryBudgetExceeded,
    ResourceGovernanceError,
    budget_from_spec,
    parse_memory_size,
)
from .lp_join import (
    PartitionedRun,
    PartitionPlan,
    evaluate_with_partitioning,
    plan_partitioned_evaluation,
)
from .panda_algorithm import evaluate_part, theorem26_log2_budget
from .parallel import (
    ParallelRun,
    PartFailedError,
    PartOutcome,
    evaluate_parallel,
)
from .partitioning import (
    partition_by_degree,
    partition_for_statistic,
    strongly_satisfies,
)
from .wcoj import JoinRun, count_query, generic_join
from .yannakakis import semijoin_reduce

__all__ = [
    "acyclic_count",
    "join_tree",
    "generic_join",
    "count_query",
    "JoinRun",
    "strongly_satisfies",
    "partition_by_degree",
    "partition_for_statistic",
    "evaluate_part",
    "theorem26_log2_budget",
    "evaluate_with_partitioning",
    "plan_partitioned_evaluation",
    "PartitionPlan",
    "PartitionedRun",
    "evaluate_parallel",
    "ParallelRun",
    "PartOutcome",
    "PartFailedError",
    "FaultCommand",
    "FaultInjector",
    "InjectedFault",
    "parse_fault_spec",
    "semijoin_reduce",
    "EvaluationBudget",
    "EvaluationGovernor",
    "GovernorSnapshot",
    "CancellationToken",
    "EscalatingSink",
    "ResourceGovernanceError",
    "MemoryBudgetExceeded",
    "EvaluationDeadlineExceeded",
    "EvaluationCancelled",
    "budget_from_spec",
    "parse_memory_size",
]
