"""The ℓp-norm bound as a linear program (Sec. 5, Theorem 5.2).

Theorem 5.2 identifies the best upper bound derivable from a statistics set
(Σ, B) with the optimum of

    Log-L-Bound_K(Σ, b)  =  max h(X)
                            s.t.  h ∈ K,
                                  (1/p_i)·h(U_i) + h(V_i|U_i) ≤ b_i  ∀τ_i∈Σ

over a cone K of set functions.  This module implements the LP for three
cones:

``polymatroid``
    K = Γ_n, cut out by the elemental Shannon inequalities.  The exact
    polymatroid bound of the paper; 2^n LP variables.
``normal``
    K = N_n, parameterised by step-function coefficients α_W ≥ 0.  By
    Theorem 6.1 this equals the polymatroid bound whenever all statistics
    are *simple* (|U| ≤ 1) — and it is dramatically smaller: one LP column
    per *level-minimal* step function.  For a statistic on (U, V) the
    column of h_W holds 0 when W misses UV (level 0), 1/p when W hits U
    (level 1) and 1 when W hits V only (level 2); as 0 ≤ 1/p ≤ 1 for
    p ≥ 1, a W whose levels are all ≥ another W′'s has a column ≥ W′'s,
    and dropping it changes neither the optimum nor the dual certificate
    (W's dual row a_W·y ≥ 1 follows from W′'s for y ≥ 0).  A p < 1 makes
    1/p > 1, so on a pair carrying such a statistic levels 1 and 2 are
    incomparable (only level 0 sits below both).  Levels depend only on
    the statistics' (U, UV) pairs and whether a pair has a p < 1, so
    every nested norm family over the same conditionals with p ≥ 1 (all
    the E9 families) shares one candidate set.
``modular``
    K = M_n (singleton steps only).  This is the cone implicitly used by
    Jayaraman et al. [14]; Appendix B shows it is *not* sound in general —
    exposed here to reproduce that analysis, not for estimation.

Results carry dual weights: the witness inequality (8) behind the bound
and therefore "which norms were used" (the paper's Fig. 1 Norms column).

Solve modes
-----------
Every LP goes through one HiGHS model class, :class:`_HighsModel`, on
the HiGHS binding that scipy bundles (``scipy.optimize._highspy``,
scipy ≥ 1.15).  A process-wide *LP mode* (``REPRO_LP``) decides only
whether a model is kept:

``REPRO_LP=persistent`` (default)
    :class:`BoundSolver` keeps one model per (cone, order, structure)
    in that structure's assembly-cache entry; a re-solve swaps only the
    statistic rows' upper bounds, so HiGHS warm-starts from the previous
    basis instead of re-presolving and solving cold.
``REPRO_LP=oneshot``
    A fresh model per solve.  This is the oracle path — :func:`lp_bound`
    always uses it.  It sets the options scipy's own HiGHS LP wrapper
    sets and hands HiGHS the same column-wise matrix, so its objective,
    primal and duals are bit-identical to that wrapper's (the reference
    in ``tests/oracles/scipy_lp.py``).

Both modes solve the *identical* constraint system; optima agree to
solver tolerance (the differential suite ``tests/core/test_lp_modes.py``
enforces 1e-9 on ``log2_bound`` across the E-family and JOB queries),
but last-bit values and degenerate dual witnesses may differ — anything
that needs bit-identical numbers pins ``oneshot``.

Empty relations
---------------
A statistic of norm 0 (``log2_bound = -inf``) means its guard relation
is empty, so the query's output is empty.  Both :func:`lp_bound` and
:class:`BoundSolver` answer that before any LP is assembled: log2 bound
−∞, status ``optimal``, and a trivial certificate putting weight 1 on
the first such statistic (Π B_i^{w_i} = 0^1).  No h satisfies a −∞ row,
so the result carries no primal witness.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy
from scipy import sparse

from ..entropy.shannon import elemental_inequalities
from ..entropy.vectors import EntropyVector
from ..query.query import ConjunctiveQuery
from .conditionals import ConcreteStatistic, StatisticsSet
from .lru import LruCache, approx_bytes


class HighsBindingError(ImportError):
    """scipy is older than 1.15 and bundles no HiGHS model binding."""


try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as exc:  # pragma: no cover - scipy below the floor
    raise HighsBindingError(
        "repro needs scipy>=1.15, which bundles the HiGHS binding "
        f"scipy.optimize._highspy._core; found scipy {scipy.__version__}"
    ) from exc

__all__ = [
    "BoundResult",
    "BoundSolver",
    "BoundTask",
    "BoundTaskError",
    "lp_bound",
    "lp_bound_many",
    "CONES",
    "LP_MODES",
    "active_lp_mode",
    "configured_lp_mode",
    "forced_lp_mode",
    "set_lp_mode",
]

CONES = ("auto", "polymatroid", "normal", "modular")

_POLYMATROID_MAX_VARS = 14
_NORMAL_MAX_VARS = 22

# ----------------------------------------------------------------------
# LP solve modes (REPRO_LP)
# ----------------------------------------------------------------------

LP_MODES = ("persistent", "oneshot")

_LP_ENV_VAR = "REPRO_LP"


def configured_lp_mode() -> str:
    """The mode requested by ``REPRO_LP`` (default ``persistent``)."""
    mode = os.environ.get(_LP_ENV_VAR, "").strip().lower() or "persistent"
    if mode not in LP_MODES:
        raise ValueError(
            f"{_LP_ENV_VAR}={mode!r} is not one of {', '.join(LP_MODES)}"
        )
    return mode


def _checked_lp_mode(mode: str) -> str:
    if mode not in LP_MODES:
        raise ValueError(
            f"LP mode {mode!r} is not one of {', '.join(LP_MODES)}"
        )
    return mode


#: The active mode, read from ``REPRO_LP`` on first use so importing
#: the package never fails on a bad value.
_LP_ACTIVE: str | None = None


def active_lp_mode() -> str:
    """The LP mode of this process."""
    global _LP_ACTIVE
    if _LP_ACTIVE is None:
        _LP_ACTIVE = configured_lp_mode()
    return _LP_ACTIVE


def set_lp_mode(mode: str | None = None) -> str:
    """Pin the process-wide LP mode (``None`` re-reads ``REPRO_LP``)."""
    global _LP_ACTIVE
    _LP_ACTIVE = configured_lp_mode() if mode is None else _checked_lp_mode(mode)
    return _LP_ACTIVE


@contextmanager
def forced_lp_mode(mode: str):
    """Temporarily pin the LP mode (tests and benchmarks)."""
    global _LP_ACTIVE
    previous = _LP_ACTIVE
    _LP_ACTIVE = _checked_lp_mode(mode)
    try:
        yield _LP_ACTIVE
    finally:
        _LP_ACTIVE = previous


@dataclass
class BoundResult:
    """Outcome of the bound LP.

    ``log2_bound`` is the log2 of the upper bound on |Q(D)| (``inf`` when
    the statistics do not bound the output, e.g. a join column without any
    statistic).  ``dual_weights[i]`` is the weight w_i of statistic i in
    the witness inequality (8); Σ w_i·b_i = log2_bound at optimality.
    """

    log2_bound: float
    cone: str
    status: str
    variables: tuple[str, ...]
    statistics: StatisticsSet
    dual_weights: np.ndarray | None = None
    h_values: np.ndarray | None = None
    normal_coefficients: dict[int, float] | None = field(default=None, repr=False)

    @property
    def bound(self) -> float:
        """The bound in linear space (may overflow to inf)."""
        if self.log2_bound == math.inf:
            return math.inf
        if self.log2_bound == -math.inf:
            return 0.0
        try:
            return 2.0 ** self.log2_bound
        except OverflowError:  # pragma: no cover
            return math.inf

    def used_statistics(
        self, tol: float = 1e-7
    ) -> list[tuple[ConcreteStatistic, float]]:
        """Statistics with non-zero dual weight, i.e. those the bound uses."""
        if self.dual_weights is None:
            return []
        return [
            (stat, float(w))
            for stat, w in zip(self.statistics, self.dual_weights)
            if w > tol
        ]

    def norms_used(self, tol: float = 1e-7) -> list[float]:
        """Sorted distinct p values carrying dual weight (Fig. 1 column)."""
        return sorted({stat.p for stat, _ in self.used_statistics(tol)})

    def witness_inequality(self, tol: float = 1e-7) -> str:
        """Human-readable rendering of the witness inequality (8)."""
        terms = []
        for stat, w in self.used_statistics(tol):
            cond = stat.conditional
            u = ",".join(sorted(cond.u)) or "∅"
            v = ",".join(sorted(cond.v))
            inv_p = 0.0 if stat.p == math.inf else 1.0 / stat.p
            terms.append(f"{w:.4g}·({inv_p:.4g}·h({u}) + h({v}|{u}))")
        lhs = " + ".join(terms) if terms else "0"
        return f"{lhs} ≥ h({','.join(self.variables)})"

    def entropy_vector(self) -> EntropyVector:
        """The optimal h* as an :class:`EntropyVector` (primal witness)."""
        if self.h_values is None:
            raise ValueError(f"no primal solution (status: {self.status})")
        return EntropyVector(self.variables, self.h_values)


def _variable_order(
    query: ConjunctiveQuery | None,
    statistics: StatisticsSet,
    variables: Sequence[str] | None,
) -> tuple[str, ...]:
    if variables is not None:
        return tuple(variables)
    if query is not None:
        return query.variables
    seen: dict[str, None] = {}
    for stat in statistics:
        for v in sorted(stat.conditional.variables):
            seen.setdefault(v, None)
    return tuple(seen)


def _stat_structure(
    variables: tuple[str, ...], statistics: StatisticsSet
) -> tuple[tuple[tuple[int, int, float], ...], np.ndarray]:
    """The LP-relevant *structure* of a statistics set, plus its b vector.

    Each statistic contributes one constraint
    (1/p)h(U) + h(UV) − h(U) ≤ b  ⟺  h(UV) + (1/p − 1)·h(U) ≤ b,
    fully described by ``(mask_u, mask_uv, 1/p)`` over subset masks — at
    most two nonzeros, never a dense 2^n row.  The structure is the
    constraint matrix's identity: two statistics sets with equal structure
    differ only in ``b``, which is exactly what :class:`BoundSolver`'s
    re-solve path swaps.
    """
    index = {v: i for i, v in enumerate(variables)}
    struct = []
    b = np.empty(len(statistics))
    for i, stat in enumerate(statistics):
        cond = stat.conditional
        mask_u = 0
        for u in cond.u:
            mask_u |= 1 << index[u]
        mask_uv = mask_u
        for v in cond.v:
            mask_uv |= 1 << index[v]
        inv_p = 0.0 if stat.p == math.inf else 1.0 / stat.p
        struct.append((mask_u, mask_uv, inv_p))
        b[i] = stat.log2_bound
    return tuple(struct), b


@lru_cache(maxsize=None)
def _neg_shannon_block(n: int) -> tuple[sparse.csr_matrix, int]:
    """The memoised −A block of the elemental inequalities plus its row
    count — rebuilt-per-call negation was the dominant setup cost of
    repeated polymatroid bounds.  Read-only (``sparse.vstack`` copies)."""
    shannon = elemental_inequalities(n)
    return (-shannon).tocsr(), shannon.shape[0]


@dataclass
class _Assembly:
    """A cached constraint skeleton: everything but the b vector.

    For the polymatroid cone ``a_stats`` holds the statistic rows (≤2
    nonzeros each, assembled as COO — never through dense 2^n rows) and
    ``a_ub`` the full stat+Shannon matrix; for the step cones ``a_ub`` is
    the dense statistic-row matrix over the step-function ``candidates``
    of :func:`_step_candidates` (``None`` when there are no statistics).
    Every column's lower bound is 0; ``col_upper`` holds the upper ones.
    """

    cone: str
    num_stats: int
    a_ub: "sparse.csr_matrix | np.ndarray | None"
    c: np.ndarray
    col_upper: np.ndarray
    a_stats: "sparse.csr_matrix | None" = None
    candidates: np.ndarray | None = None


def _stat_block(
    struct: Sequence[tuple[int, int, float]], size: int
) -> sparse.csr_matrix:
    """The statistic constraint rows as a sparse matrix, built directly in
    COO form (duplicate entries sum; explicit zeros are eliminated, so the
    result is bit-identical to densifying each row first)."""
    rows: list[int] = []
    cols: list[int] = []
    data: list[float] = []
    for i, (mask_u, mask_uv, inv_p) in enumerate(struct):
        rows.append(i)
        cols.append(mask_uv)
        data.append(1.0)
        if mask_u:
            rows.append(i)
            cols.append(mask_u)
            data.append(inv_p - 1.0)
    block = sparse.coo_matrix(
        (data, (rows, cols)), shape=(len(struct), size)
    ).tocsr()
    block.eliminate_zeros()
    return block


def _assemble_polymatroid(
    n: int, struct: Sequence[tuple[int, int, float]]
) -> _Assembly:
    if n > _POLYMATROID_MAX_VARS:
        raise ValueError(
            f"polymatroid cone limited to {_POLYMATROID_MAX_VARS} variables "
            f"(got {n}); use cone='normal' for simple statistics"
        )
    size = 1 << n
    neg_shannon, _ = _neg_shannon_block(n)  # −A from A·h ≥ 0
    a_stats = _stat_block(struct, size) if struct else None
    if a_stats is not None:
        a_ub = sparse.vstack([a_stats, neg_shannon], format="csr")
    else:
        a_ub = sparse.vstack([neg_shannon], format="csr")
    c = np.zeros(size)
    c[size - 1] = -1.0
    col_upper = np.full(size, math.inf)
    col_upper[0] = 0.0  # h(∅) = 0
    return _Assembly("polymatroid", len(struct), a_ub, c, col_upper, a_stats)


#: candidates per dominance block, and the booleans one block may hold:
#: the pairwise test never materialises an m × m matrix
_DOMINANCE_ROWS = 128
_DOMINANCE_CELLS = 1 << 18


def _step_pairs(
    struct: Sequence[tuple[int, int, float]],
) -> tuple[tuple[int, int, bool], ...]:
    """The sorted distinct ``(mask_u, mask_uv, low_p)`` pairs of a
    structure, ``low_p`` flagging a statistic with p < 1 on the pair —
    all a step cone's candidate columns depend on (p only scales them
    otherwise)."""
    low_p: dict[tuple[int, int], bool] = {}
    for mu, muv, inv_p in struct:
        low_p[mu, muv] = low_p.get((mu, muv), False) or inv_p > 1.0
    return tuple(sorted((mu, muv, low) for (mu, muv), low in low_p.items()))


def _pattern_firsts(all_w: np.ndarray, masks: Sequence[int]) -> np.ndarray:
    """Indices (ascending) of the first W of each distinct intersection
    pattern with ``masks``.

    Patterns are packed 32 masks to an int64 word; beyond one word the
    key so far is replaced by its rank (< 2^22 for n ≤ 22) before the
    next word is shifted in, so the key stays one 1-D integer for any
    number of masks.
    """
    key = None
    for start in range(0, len(masks), 32):
        word = np.zeros(len(all_w), dtype=np.int64)
        for bit, mask in enumerate(masks[start:start + 32]):
            word |= ((all_w & mask) != 0).astype(np.int64) << bit
        if key is None:
            key = word
        else:
            _, rank = np.unique(key, return_inverse=True)
            key = (rank.astype(np.int64) << 32) | word
    _, first = np.unique(key, return_index=True)
    return np.sort(first)


def _level_minimal(
    candidates: np.ndarray, pairs: Sequence[tuple[int, int, bool]]
) -> np.ndarray:
    """Boolean mask of the candidates no other candidate sits below.

    A W's level for pair (U, UV) is 0, 1 or 2 (misses UV, hits U, hits
    V only); it is encoded as two threshold bit-planes (level ≥ 1,
    level ≥ 2), so "levels of W′ ≤ levels of W" is bitset inclusion.
    A pair flagged ``low_p`` adds a third plane (hits U), which makes
    levels 1 and 2 incomparable there while both stay above level 0.
    The candidates have pairwise distinct level vectors (one per
    intersection pattern), so inclusion between two of them is strict
    and needs strictly fewer set bits.  Scanning blocks in set-bit
    order, a W is dominated iff a candidate of its own block or a
    minimal candidate of an earlier block sits below it (any earlier
    dominator has a minimal one below it), so a block is compared with
    itself and the minimal set only, within a bounded number of cells.
    """
    mask_u, mask_uv, low_p = zip(*pairs)
    mask_u = np.array(mask_u, dtype=np.int64)
    mask_uv = np.array(mask_uv, dtype=np.int64)
    low_p = np.array(low_p, dtype=bool)
    hit_uv = (candidates[:, None] & mask_uv) != 0
    hit_u = (candidates[:, None] & mask_u) != 0
    hit_v_only = hit_uv & ~hit_u
    planes = np.concatenate([hit_uv, hit_v_only, hit_u[:, low_p]], axis=1)
    packed = np.packbits(planes, axis=1)
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))
    bits = packed.view(np.uint64)
    order = np.argsort(planes.sum(axis=1), kind="stable")
    keep = np.zeros(len(candidates), dtype=bool)
    minimal = bits[:0]
    start = 0
    while start < len(order):
        rows = min(
            _DOMINANCE_ROWS,
            max(1, _DOMINANCE_CELLS // (len(minimal) + _DOMINANCE_ROWS)),
        )
        block = order[start:start + rows]
        start += rows
        outside = ~bits[block]
        earlier = np.concatenate([minimal, bits[block]])
        below = np.ones((len(block), len(earlier)), dtype=bool)
        for word in range(bits.shape[1]):
            below &= (outside[:, word, None] & earlier[:, word]) == 0
        own = np.arange(len(block))
        below[own, len(minimal) + own] = False
        survivors = block[~below.any(axis=1)]
        keep[survivors] = True
        minimal = np.concatenate([minimal, bits[survivors]])
    return keep


def _step_candidates(
    n: int, cone: str, pairs: Sequence[tuple[int, int, bool]]
) -> np.ndarray:
    """Step-function masks W, ascending: the step cone's LP columns.

    ``modular``: the n singletons.  ``normal``: the first W of each
    distinct intersection pattern with the pairs' masks, pruned to the
    level-minimal ones (see the module docstring for why that is exact).
    A pure function of ``(n, cone, pairs)`` — :func:`lp_bound` and
    :class:`BoundSolver` share it, so both hand HiGHS the same matrix.
    """
    if cone == "modular":
        return np.array([1 << i for i in range(n)], dtype=np.int64)
    if n > _NORMAL_MAX_VARS:
        raise ValueError(
            f"normal cone limited to {_NORMAL_MAX_VARS} variables (got {n})"
        )
    all_w = np.arange(1, 1 << n, dtype=np.int64)
    masks = sorted({m for mu, muv, _ in pairs for m in (mu, muv) if m})
    if not masks:
        return all_w[:1]
    candidates = all_w[_pattern_firsts(all_w, masks)]
    return candidates[_level_minimal(candidates, pairs)]


def _assemble_step_cone(
    cone: str,
    struct: Sequence[tuple[int, int, float]],
    candidates: np.ndarray,
) -> _Assembly:
    m = len(candidates)
    a_ub = None
    if struct:
        mask_u, mask_uv, inv_p = (
            np.array(column)[:, None] for column in zip(*struct)
        )
        hit_uv = ((candidates & mask_uv) != 0).astype(float)
        hit_u = ((candidates & mask_u) != 0).astype(float)
        a_ub = hit_uv + (inv_p - 1.0) * hit_u
    # every non-empty W intersects X, so h(X) = Σ_W α_W
    c = -np.ones(m)
    col_upper = np.full(m, math.inf)
    return _Assembly(cone, len(struct), a_ub, c, col_upper, None, candidates)


def _optimal_result(
    assembly: _Assembly,
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    log2_bound: float,
    x: np.ndarray,
    stat_duals: np.ndarray,
) -> BoundResult:
    """Wrap an optimal (objective, primal, stat duals) into a BoundResult."""
    if assembly.cone == "polymatroid":
        return BoundResult(
            log2_bound,
            "polymatroid",
            "optimal",
            variables,
            statistics,
            dual_weights=stat_duals,
            h_values=np.asarray(x, float),
        )
    alpha = {
        int(w): float(a)
        for w, a in zip(assembly.candidates, x)
        if a > 1e-12
    }
    size = 1 << len(variables)
    h_values = np.zeros(size)
    for w_mask, a in alpha.items():
        masks = np.arange(size)
        h_values[(masks & w_mask) != 0] += a
    return BoundResult(
        log2_bound,
        assembly.cone,
        "optimal",
        variables,
        statistics,
        dual_weights=stat_duals,
        h_values=h_values,
        normal_coefficients=alpha,
    )


#: The options scipy's HiGHS LP wrapper (``method="highs"``) sets on a
#: fresh instance: same options and same matrix give bit-identical
#: numbers.
_HIGHS_OPTIONS = (
    ("presolve", "on"),
    ("output_flag", False),
    ("log_to_console", False),
    ("highs_debug_level", int(_highs.HighsDebugLevel.kHighsDebugLevelNone)),
    (
        "simplex_strategy",
        int(_highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    ),
)


class _HighsModel:
    """One HiGHS model of an assembly, solvable again with a new ``b``.

    The rows are the statistic rows (upper bound ``b``), then the
    Shannon rows of the polymatroid cone and any ``extra_rows`` — valid
    inequalities c·h ≥ 0, entered as −c·h ≤ 0.  :meth:`solve` swaps the
    upper bounds of the statistic rows whose ``b`` changed, so a kept
    model warm-starts from its previous basis; a model built for one
    solve runs cold, exactly as scipy's wrapper would.  A per-model lock
    serialises solves: HiGHS instances are not reentrant, and one kept
    model serves every thread of :func:`lp_bound_many` and the service.
    """

    def __init__(
        self,
        assembly: _Assembly,
        b_stats: np.ndarray,
        extra_rows: Sequence[np.ndarray] = (),
    ) -> None:
        self._assembly = assembly
        self._lock = threading.Lock()
        self._b = np.array(b_stats, dtype=float)
        num_cols = len(assembly.c)
        matrix = assembly.a_ub
        if matrix is None:
            matrix = sparse.csc_array((0, num_cols))
        if len(extra_rows):
            blocks = [matrix]
            for vec in extra_rows:
                vec = np.asarray(vec, float)
                if vec.shape != (num_cols,):
                    raise ValueError(
                        f"extra inequality must have length {num_cols}, "
                        f"got {vec.shape}"
                    )
                blocks.append(sparse.csr_matrix(-vec.reshape(1, -1)))
            matrix = sparse.vstack(blocks, format="csr")
        matrix = sparse.csc_array(matrix)
        num_rows = matrix.shape[0]
        # the byte estimator's price for the model (repro.core.lru): the
        # copy of the LP that HiGHS holds natively, invisible to Python
        self.nbytes = (
            matrix.data.nbytes
            + matrix.indices.nbytes
            + matrix.indptr.nbytes
            + 8 * (3 * num_cols + 2 * num_rows)
        )
        inf = _highs.kHighsInf
        lp = _highs.HighsLp()
        lp.num_col_ = num_cols
        lp.num_row_ = num_rows
        lp.a_matrix_.num_col_ = num_cols
        lp.a_matrix_.num_row_ = num_rows
        lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
        lp.col_cost_ = np.asarray(assembly.c, dtype=np.float64)
        lp.col_lower_ = np.zeros(num_cols)
        lp.col_upper_ = assembly.col_upper
        lp.row_lower_ = np.full(num_rows, -inf)
        row_upper = np.zeros(num_rows)
        row_upper[: assembly.num_stats] = self._b
        lp.row_upper_ = row_upper
        lp.a_matrix_.start_ = matrix.indptr
        lp.a_matrix_.index_ = matrix.indices
        lp.a_matrix_.value_ = matrix.data
        solver = _highs._Highs()
        for name, value in _HIGHS_OPTIONS:
            solver.setOptionValue(name, value)
        solver.passModel(lp)
        self._solver = solver

    def solve(
        self,
        b_stats: np.ndarray,
        variables: tuple[str, ...],
        statistics: StatisticsSet,
    ) -> BoundResult:
        """The bound for statistic-row upper bounds ``b_stats``."""
        assembly = self._assembly
        cone = assembly.cone
        with self._lock:
            solver = self._solver
            for i in np.flatnonzero(b_stats != self._b):
                solver.changeRowBounds(
                    int(i), -_highs.kHighsInf, float(b_stats[i])
                )
            self._b = np.array(b_stats, dtype=float)
            solver.run()
            status = solver.getModelStatus()
            Status = _highs.HighsModelStatus
            if status in (Status.kUnbounded, Status.kUnboundedOrInfeasible):
                # h ≡ 0 is always feasible for our LPs (b ≥ 0), so an
                # ambiguous presolve verdict means unbounded in practice
                return BoundResult(
                    math.inf, cone, "unbounded", variables, statistics
                )
            if status == Status.kInfeasible:
                return BoundResult(
                    -math.inf, cone, "infeasible", variables, statistics
                )
            if status != Status.kOptimal:
                return BoundResult(
                    math.nan,
                    cone,
                    f"error: {solver.modelStatusToString(status)}",
                    variables,
                    statistics,
                )
            solution = solver.getSolution()
            x = np.array(solution.col_value)
            duals = -np.array(solution.row_dual[: assembly.num_stats], float)
            objective = solver.getObjectiveValue()
        return _optimal_result(
            assembly, variables, statistics, float(-objective), x, duals
        )


def _empty_result(
    cone: str,
    variables: tuple[str, ...],
    statistics: StatisticsSet,
    b_stats: np.ndarray,
) -> BoundResult | None:
    """The bound of a statistics set naming an empty relation, else None.

    A zero norm (b = −∞) empties its guard and so the output: log2 bound
    −∞ with weight 1 on the first such statistic, and no primal witness.
    """
    empty = np.flatnonzero(b_stats == -math.inf)
    if not len(empty):
        return None
    weights = np.zeros(len(b_stats))
    weights[empty[0]] = 1.0
    return BoundResult(
        -math.inf,
        cone,
        "optimal",
        variables,
        statistics,
        dual_weights=weights,
    )


def lp_bound(
    statistics: StatisticsSet | Iterable[ConcreteStatistic],
    query: ConjunctiveQuery | None = None,
    cone: str = "auto",
    variables: Sequence[str] | None = None,
    extra_inequalities: Sequence[np.ndarray] = (),
) -> BoundResult:
    """Compute the ℓp bound of Theorem 5.2 for a statistics set.

    Parameters
    ----------
    statistics:
        Concrete statistics (Σ, B); bounds are log2 values.
    query:
        The query, used to fix the variable order (and X = all variables).
        May be omitted when ``variables`` is given or when the statistics'
        conditionals already mention every variable.
    cone:
        One of :data:`CONES`.  ``auto`` picks ``normal`` when every
        statistic is simple (exact by Theorem 6.1) and ``polymatroid``
        otherwise.
    extra_inequalities:
        Additional valid entropic inequalities c·h ≥ 0 (subset-indexed
        vectors) to tighten the cone — e.g. Zhang–Yeung instantiations for
        the Appendix D.2 analysis.  Only supported by the polymatroid cone.

    Returns
    -------
    A :class:`BoundResult`; ``result.log2_bound`` bounds log2 |Q(D)| for
    every database D satisfying (Σ, B) (Theorem 1.1 + Theorem 5.2).  A
    statistic of norm 0 (an empty relation) gives −∞ without an LP.
    """
    if not isinstance(statistics, StatisticsSet):
        statistics = StatisticsSet(statistics)
    order = _variable_order(query, statistics, variables)
    cone = _resolve_cone(cone, order, statistics, bool(extra_inequalities))
    struct, b_stats = _stat_structure(order, statistics)
    empty = _empty_result(cone, order, statistics, b_stats)
    if empty is not None:
        return empty
    if cone == "polymatroid":
        assembly = _assemble_polymatroid(len(order), struct)
    else:
        candidates = _step_candidates(len(order), cone, _step_pairs(struct))
        assembly = _assemble_step_cone(cone, struct, candidates)
    model = _HighsModel(assembly, b_stats, extra_inequalities)
    return model.solve(b_stats, order, statistics)


def _resolve_cone(
    cone: str,
    order: tuple[str, ...],
    statistics: StatisticsSet,
    has_extra: bool,
) -> str:
    """Validate inputs and resolve ``auto`` to a concrete cone."""
    if not order:
        raise ValueError("no variables: provide a query or variables=")
    if cone not in CONES:
        raise ValueError(f"unknown cone {cone!r}; expected one of {CONES}")
    if cone == "auto":
        if has_extra:
            return "polymatroid"
        if statistics.is_simple and len(order) <= _NORMAL_MAX_VARS:
            return "normal"
        return "polymatroid"
    if cone in ("normal", "modular") and has_extra:
        raise ValueError("extra_inequalities require the polymatroid cone")
    return cone


@dataclass
class _Structure:
    """One LP structure's assembly-cache entry: its skeleton and, under
    ``persistent``, the warm model that re-solves it."""

    assembly: _Assembly
    model: _HighsModel | None = None


def _entry_bytes(entry: _Structure | np.ndarray) -> int:
    """An assembly-cache entry's price: its skeleton (or candidate set)
    plus its warm model, if any — the wrapper itself is free."""
    if not isinstance(entry, _Structure):
        return approx_bytes(entry)
    model = 0 if entry.model is None else approx_bytes(entry.model)
    return approx_bytes(entry.assembly) + model


class BoundSolver:
    """Structure-cached LP solving for repeated bound computations.

    A workload (an experiment sweep, a join-order search, a scale series)
    solves the *same LP shapes* over and over: the constraint matrix is
    fully determined by the variable order and the statistics structure
    (which conditionals, which p's — see :func:`_stat_structure`), while
    only the right-hand side ``b`` carries the measured norms.  The solver
    therefore keeps two caches:

    * an **assembly cache** keyed by (cone, variable order, structure):
      the sparse constraint skeleton is built once and re-solves swap only
      ``b_ub`` — scale sweeps and per-dataset repetitions of one query
      template never re-assemble.  It also holds the step cones'
      candidate columns keyed by (cone, n, pairs), which every nested
      norm family of a query shares (:meth:`_candidates_for`);
    * a **result memo** keyed additionally by the ``b`` values: repeated
      requests for the *identical* bound (the plan-search pattern — every
      candidate plan re-costs the same subqueries) are answered without
      calling the LP solver at all.

    Under LP mode ``oneshot`` every fresh solve goes through the exact
    code path of :func:`lp_bound` on a bit-identical constraint matrix,
    so results are numerically identical to the one-shot path; memo hits
    return the previously computed numbers re-bound to the caller's
    statistics set.  Under ``persistent`` (see the module docstring) the
    solver additionally keeps one warm :class:`_HighsModel` in each
    assembly's cache entry and re-solves swap only the statistic bounds
    — optima agree with the oracle to solver tolerance, not
    bit-identically.

    **Warm-model determinism contract** (``persistent``): the bound LPs
    are degenerate, so a warm start may land on another optimal vertex
    than a cold one.  ``log2_bound`` does not depend on the model's
    solve history beyond 1e-12, and the certificate always verifies;
    ``h_values`` and ``dual_weights`` are *an* optimum, not a canonical
    one.  The result memo keeps the first answer it computes, so a
    repeated request returns that answer's witness until evicted.

    **Locking discipline** (the solver is shared by
    :func:`lp_bound_many`'s thread pool and by every thread of the
    bound service's HTTP front-end): all cache and counter mutations
    happen under ``self._lock``; LP solves and assembly construction
    always run *outside* it, so a slow solve never blocks other
    threads' cache hits.  The result-memo hit path first probes the
    memo with a recency-neutral lock-free read
    (:meth:`~repro.core.lru.LruCache.peek`, a plain dict read — atomic
    under the GIL) and takes the lock only to bump the hit counter and
    LRU recency; a warm request therefore holds the lock for a
    dictionary operation, never for LP work.  Whether the *calling
    thread's* last solve was a memo hit is recorded thread-locally and
    exposed as :attr:`last_solve_cached` — reading shared counters
    before/after a solve is racy under concurrency and must not be
    used for that purpose.

    Both caches are LRU under optional byte budgets
    (``result_cache_bytes`` for the result memo, ``assembly_cache_bytes``
    for the assembly cache); ``None`` (the default) leaves a budget
    unbounded.  An assembly-cache entry (:class:`_Structure`) holds one
    LP structure's skeleton and, under ``persistent``, its warm model,
    so evicting the entry drops both; the step cones' candidate sets
    share the cache's entries and bytes.  An evicted entry is simply
    recomputed on the next request — results are unaffected.

    The LP mode is the process-wide :func:`active_lp_mode`, read at
    each solve.
    """

    def __init__(
        self,
        memoize_results: bool = True,
        result_cache_bytes: int | None = None,
        assembly_cache_bytes: int | None = None,
    ) -> None:
        self._assemblies: LruCache = LruCache(
            assembly_cache_bytes, sizer=_entry_bytes
        )
        self._results: LruCache = LruCache(result_cache_bytes)
        self._memoize = memoize_results
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.assembly_hits = 0
        self.assembly_misses = 0
        self.result_hits = 0
        self.solves = 0
        self.persistent_resolves = 0
        self.family_slices = 0

    # ------------------------------------------------------------------
    def cached_assemblies(self) -> int:
        """Entries in the assembly cache: skeletons plus candidate sets."""
        return len(self._assemblies)

    def cached_results(self) -> int:
        return len(self._results)

    @property
    def last_solve_cached(self) -> bool:
        """Whether *this thread's* most recent solve was a memo hit.

        Thread-local, so concurrent callers each see their own flag —
        the atomic replacement for comparing the shared ``result_hits``
        counter before and after a solve, which under-/over-counts as
        soon as two threads interleave.
        """
        return getattr(self._tls, "last_cached", False)

    def cache_stats(self) -> dict[str, dict]:
        """Entry/byte/eviction accounting for each cache layer; the
        assemblies' block also counts the warm ``models`` its entries
        hold."""
        with self._lock:
            assemblies = self._assemblies.stats()
            assemblies["models"] = sum(
                1
                for entry in self._assemblies.values()
                if isinstance(entry, _Structure) and entry.model is not None
            )
            return {"results": self._results.stats(), "assemblies": assemblies}

    # ------------------------------------------------------------------
    def _structure_for(
        self,
        cone: str,
        order: tuple[str, ...],
        struct: tuple[tuple[int, int, float], ...],
    ) -> _Structure:
        key = (cone, order, struct)
        with self._lock:
            entry = self._assemblies.get(key)
            if entry is not None:
                self.assembly_hits += 1
                return entry
            self.assembly_misses += 1
        if cone == "polymatroid":
            assembly = _assemble_polymatroid(len(order), struct)
        else:
            candidates = self._candidates_for(
                cone, len(order), _step_pairs(struct)
            )
            assembly = _assemble_step_cone(cone, struct, candidates)
        with self._lock:
            return self._assemblies.add(key, _Structure(assembly))

    def _candidates_for(
        self, cone: str, n: int, pairs: tuple[tuple[int, int, bool], ...]
    ) -> np.ndarray:
        """A step cone's columns, computed once per ``(cone, n, pairs)`` —
        every nested norm family of a query shares its pairs, so a query
        pays for them once, not once per family.  They live in the
        assembly cache (an int ``n`` never equals an order tuple, so the
        keys cannot collide with skeleton keys)."""
        key = (cone, n, pairs)
        with self._lock:
            candidates = self._assemblies.get(key)
        if candidates is None:
            candidates = _step_candidates(n, cone, pairs)
            with self._lock:
                candidates = self._assemblies.add(key, candidates)
        return candidates

    def solve(
        self,
        statistics: StatisticsSet | Iterable[ConcreteStatistic],
        query: ConjunctiveQuery | None = None,
        cone: str = "auto",
        variables: Sequence[str] | None = None,
        extra_inequalities: Sequence[np.ndarray] = (),
    ) -> BoundResult:
        """Drop-in replacement for :func:`lp_bound`, served from the caches.

        ``extra_inequalities`` bypass the caches (their vectors have no
        compact structure key) and delegate to :func:`lp_bound` directly.
        """
        if not isinstance(statistics, StatisticsSet):
            statistics = StatisticsSet(statistics)
        if extra_inequalities:
            self._tls.last_cached = False
            return lp_bound(
                statistics,
                query=query,
                cone=cone,
                variables=variables,
                extra_inequalities=extra_inequalities,
            )
        order = _variable_order(query, statistics, variables)
        cone = _resolve_cone(cone, order, statistics, False)
        struct, b_stats = _stat_structure(order, statistics)
        return self._solve_structured(cone, order, struct, b_stats, statistics)

    def _solve_structured(
        self,
        cone: str,
        order: tuple[str, ...],
        struct: tuple[tuple[int, int, float], ...],
        b_stats: np.ndarray,
        statistics: StatisticsSet,
        structure: Callable[[], _Structure] | None = None,
    ) -> BoundResult:
        self._tls.last_cached = False
        memo_key = None
        if self._memoize:
            memo_key = (cone, order, struct, b_stats.tobytes())
            # lock-free fast path: a recency-neutral dict probe — the
            # warm plan-search pattern never contends on the lock for
            # more than the counter/recency bump below
            cached = self._results.peek(memo_key)
            if cached is not None:
                with self._lock:
                    self.result_hits += 1
                    self._results.touch(memo_key)
                self._tls.last_cached = True
                return replace(cached, statistics=statistics)
        # after the memo probe (empty answers are never memoised, so the
        # warm path skips this check), before anything is assembled
        empty = _empty_result(cone, order, statistics, b_stats)
        if empty is not None:
            return empty
        if structure is None:
            entry = self._structure_for(cone, order, struct)
        else:
            entry = structure()
        persistent = active_lp_mode() == "persistent"
        if persistent:
            model = entry.model or self._warm_model(
                (cone, order, struct), entry, b_stats
            )
        else:
            model = _HighsModel(entry.assembly, b_stats)
        result = model.solve(b_stats, order, statistics)
        with self._lock:
            self.solves += 1
            self.persistent_resolves += persistent
            if memo_key is not None:
                self._results.add(memo_key, result)
        return result

    def _warm_model(
        self, key: tuple, entry: _Structure, b_stats: np.ndarray
    ) -> _HighsModel:
        """Build the entry's warm model; racing builders keep the first.
        The cached entry is re-priced with its model, so the byte budget
        bounds models and assemblies together."""
        model = _HighsModel(entry.assembly, b_stats)
        with self._lock:
            if entry.model is None:
                entry.model = model
                if self._assemblies.peek(key) is entry:
                    self._assemblies.put(key, entry)
            return entry.model

    def solve_family(
        self,
        statistics: StatisticsSet,
        ps: Iterable[float],
        query: ConjunctiveQuery | None = None,
        cone: str = "auto",
        variables: Sequence[str] | None = None,
    ) -> BoundResult:
        """Bound from the sub-family of ``statistics`` with p ∈ ``ps``.

        Equivalent to ``solve(statistics.restrict_ps(ps), ...)`` — but on
        the polymatroid cone the restricted constraint matrix is obtained
        by *slicing rows* of the cached full-family assembly (statistic
        rows are independent, so the slice is bit-identical to assembling
        the restricted set from scratch).  Step cones go through
        :meth:`solve`: their columns depend only on the ``(U, UV)`` pairs,
        which nested families share, so the cached candidates are reused
        and only the statistic rows are rebuilt for the family.
        """
        if not isinstance(statistics, StatisticsSet):
            statistics = StatisticsSet(statistics)
        allowed = set(ps)
        restricted = statistics.restrict_ps(allowed)
        order = _variable_order(query, restricted, variables)
        cone = _resolve_cone(cone, order, restricted, False)
        known = set(order)
        if cone != "polymatroid" or any(
            not (s.conditional.variables <= known) for s in statistics
        ):
            # step cones reuse candidates by pairs; a full set mentioning
            # variables outside the restricted order cannot share masks.
            return self.solve(
                restricted, query=query, cone=cone, variables=variables
            )
        full_struct, full_b = _stat_structure(order, statistics)
        keep = [i for i, s in enumerate(statistics) if s.p in allowed]
        struct = tuple(full_struct[i] for i in keep)
        return self._solve_structured(
            "polymatroid",
            order,
            struct,
            full_b[keep],
            restricted,
            lambda: self._sliced_structure(order, full_struct, keep, struct),
        )

    def _sliced_structure(
        self,
        order: tuple[str, ...],
        full_struct: tuple[tuple[int, int, float], ...],
        keep: list[int],
        struct: tuple[tuple[int, int, float], ...],
    ) -> _Structure:
        """The polymatroid skeleton of ``struct``, sliced from the cached
        full-family skeleton's rows ``keep``."""
        key = ("polymatroid", order, struct)
        with self._lock:
            entry = self._assemblies.get(key)
            if entry is not None:
                self.assembly_hits += 1
                return entry
        full = self._structure_for("polymatroid", order, full_struct).assembly
        if full.a_stats is not None and keep:
            neg_shannon, _ = _neg_shannon_block(len(order))
            a_stats = full.a_stats[keep]
            assembly = _Assembly(
                "polymatroid",
                len(struct),
                sparse.vstack([a_stats, neg_shannon], format="csr"),
                full.c,
                full.col_upper,
                a_stats,
            )
        else:
            assembly = _assemble_polymatroid(len(order), struct)
        with self._lock:
            entry = self._assemblies.add(key, _Structure(assembly))
            self.family_slices += 1
        return entry


@dataclass
class BoundTask:
    """One independent bound computation for :func:`lp_bound_many`.

    ``family`` (when given) restricts ``statistics`` to that norm family
    via :meth:`BoundSolver.solve_family`; ``statistics`` then holds the
    full set.
    """

    statistics: StatisticsSet
    query: ConjunctiveQuery | None = None
    cone: str = "auto"
    variables: tuple[str, ...] | None = None
    family: tuple[float, ...] | None = None


def _run_task(task: BoundTask, solver: BoundSolver) -> BoundResult:
    if task.family is not None:
        return solver.solve_family(
            task.statistics,
            task.family,
            query=task.query,
            cone=task.cone,
            variables=task.variables,
        )
    return solver.solve(
        task.statistics,
        query=task.query,
        cone=task.cone,
        variables=task.variables,
    )


class BoundTaskError(RuntimeError):
    """A :func:`lp_bound_many` task failed; names which one.

    A batch of hundreds of LPs failing with a bare solver exception is
    undebuggable — this wrapper pins the task index (and the query name,
    when the task has one) onto the failure, with the original exception
    chained as ``__cause__``.
    """

    def __init__(self, index: int, task: BoundTask, cause: BaseException):
        self.index = index
        self.task = task
        name = task.query.name if task.query is not None else None
        label = f"bound task {index}"
        if name:
            label += f" (query {name!r})"
        super().__init__(
            f"{label} failed: {type(cause).__name__}: {cause}"
        )


def _identified(result_fn, index: int, task: BoundTask) -> BoundResult:
    """Run ``result_fn``, wrapping any failure with the task identity."""
    try:
        return result_fn()
    except BoundTaskError:
        raise
    except Exception as exc:
        raise BoundTaskError(index, task, exc) from exc


def _structure_key(task: BoundTask, index: int) -> object:
    """The LP structure a task solves: tasks with equal keys may share a
    warm model.  A task whose structure cannot be worked out gets a key
    of its own; running it reports the failure."""
    try:
        stats = StatisticsSet(task.statistics)
        if task.family is not None:
            stats = stats.restrict_ps(task.family)
        order = _variable_order(task.query, stats, task.variables)
        return _stat_structure(order, stats)[0]
    except Exception:
        return ("task", index)


def lp_bound_many(
    tasks: Iterable[BoundTask],
    solver: BoundSolver | None = None,
    max_workers: int | None = None,
    executor: str = "auto",
) -> list[BoundResult]:
    """Solve many independent bound LPs, preserving task order.

    ``executor`` is one of ``"auto"``, ``"serial"``, ``"thread"``.
    ``auto`` picks threads when more than one worker is available and
    serial otherwise; both share one :class:`BoundSolver` (pass
    ``solver=`` to share caches across calls), so a query's nested norm
    families reuse its candidates and assemblies.  The result list is
    always in task order, and the threaded results equal the serial
    ones bit for bit: tasks of one LP structure share a warm model whose
    optimal vertex depends on its solve order, so the thread executor
    runs them in task order on one worker.

    A task that fails raises :class:`BoundTaskError` carrying the task's
    index and query name (original exception chained), whichever
    executor ran it.
    """
    tasks = list(tasks)
    if solver is None:
        solver = BoundSolver()
    workers = max_workers or min(max(len(tasks), 1), os.cpu_count() or 1)
    if executor == "auto":
        executor = "thread" if workers > 1 else "serial"
    if executor == "serial":
        return [
            _identified(lambda: _run_task(task, solver), index, task)
            for index, task in enumerate(tasks)
        ]
    if executor == "thread":
        groups: dict[object, list[int]] = {}
        for index, task in enumerate(tasks):
            groups.setdefault(_structure_key(task, index), []).append(index)
        outcomes: list[BoundResult | BoundTaskError | None] = [None] * len(tasks)

        def run(indices: list[int]) -> None:
            for index in indices:
                task = tasks[index]
                try:
                    outcomes[index] = _identified(
                        lambda: _run_task(task, solver), index, task
                    )
                except BoundTaskError as exc:
                    outcomes[index] = exc

        with ThreadPoolExecutor(max_workers=workers) as pool:
            for future in [pool.submit(run, g) for g in groups.values()]:
                future.result()
        for outcome in outcomes:
            if isinstance(outcome, BoundTaskError):
                raise outcome
        return outcomes
    raise ValueError(
        f"unknown executor {executor!r}; expected auto, serial, or thread"
    )
