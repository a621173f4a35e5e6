"""The compiled slot kernel: horizon-amortised evaluation of route combinations.

The OSCAR loop nests three solvers: Gibbs route selection (Algorithm 3)
around qubit allocation (Algorithm 2) around a dual-decomposition
relaxation.  The legacy object path rebuilds an
:class:`~repro.solvers.allocation_problem.AllocationProblem` from dataclasses
and cold-solves a fixed number of subgradient iterations for *every* route
combination the selector visits — even though a Gibbs proposal changes a
single request's route and barely moves the optimal dual multipliers.

The kernel is split into two layers:

* :class:`CompiledStructure` — everything that depends only on the *static*
  topology and that results depend on across slots: a global constraint-row
  registry over every node and edge of the graph, per-route blocks of
  single-channel success probabilities ``p_e``, and the carried solver state
  (warm-start multipliers, the solve memo, and a key-only LRU of the route
  combinations seen so far).  It is reused across the drop-retry loop,
  consecutive slots and whole horizons, because only right-hand sides change
  slot to slot.
* :class:`SlotKernel` — a thin per-slot *binding* of a structure: it rewrites
  the capacity/occupancy right-hand sides from the slot's resource snapshot,
  the cost weight ``q_t`` and the budget cap, compiles the layouts
  (:class:`_ComboStructure`: membership rows, first-touch constraint
  ordering, probability tables) of the route combinations it evaluates, and
  evaluates them incrementally on top of those arrays.  Layouts live for the
  binding only: combinations rarely recur across slots (a paper-scale trial
  re-visits about 0.5% of them), so keeping them for the horizon cost memory
  without saving time.

:class:`KernelCache` owns the structures (keyed by a content signature over
the graph's nodes, edges and link physics) and the cross-slot warm-start
state, so route selectors *re-bind* instead of recompiling: the subgradient
ascent of each solve is seeded with the best dual multipliers seen so far —
they are indexed by physical node/edge, so they remain meaningful across
combinations *and across slots* — and stops early once the duality gap falls
below ``dual_tolerance``.  The legacy iteration count is kept as a hard cap,
and ``dual_tolerance=0`` still replays the legacy schedule exactly (warm
starts are disabled in that mode).

The repaired primal point is polished with the shared
:func:`~repro.solvers.relaxed.cyclic_coordinate_polish` and rounded with the
shared :func:`~repro.solvers.rounding.surplus_pass`, the same routines the
legacy path uses, so both paths land on the same integer allocation.

The kernel exposes the same evaluator interface as the legacy
``_CombinationEvaluator`` (``selection_for`` / ``outcome_for`` /
``objective`` / ``evaluations``) so the route selectors can swap it in
transparently; the legacy object path remains available as the
cross-checking reference (``use_kernel=False`` / ``ExperimentConfig``'s
``use_kernel`` toggle).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.guard import hooks as guard_hooks
from repro.network.channels import log_multi_channel_success_unchecked as _log_success
from repro.solvers.allocation_problem import ContinuousSolution, IntegerSolution
from repro.solvers.relaxed import (
    DualDecompositionSolver,
    _closed_form_best_response,
    cyclic_coordinate_polish,
)
from repro.solvers.rounding import surplus_pass
from repro.utils.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocation import AllocationOutcome
    from repro.core.problem import AllocationKey, SlotContext
    from repro.network.graph import QDNGraph
    from repro.network.routes import Route
    from repro.workload.requests import SDPair

#: Default relative duality-gap tolerance of the warm-started early stop.
#: Calibrated empirically: polish + rounding absorb relative gaps up to
#: ~1e-3 without changing a single integer allocation (see the kernel test
#: suite), so 1e-4 keeps an order of magnitude of safety margin.
DEFAULT_DUAL_TOLERANCE = 1e-4

#: The keys every per-binding ``SlotKernel.stats`` dictionary carries (and
#: that :class:`KernelCache` aggregates across a horizon).
STAT_KEYS = (
    "solves",
    "cache_hits",
    "combo_hits",
    "memo_hits",
    "direct_solves",
    "pruned",
    "dual_iterations",
    "early_stops",
)

#: Bound on the number of combination keys a structure remembers across
#: slots; evicting a key also drops its warm-start multipliers.
MAX_COMBOS = 8192

#: Bound on the number of memoised solves per topology.
MAX_SOLVE_MEMO = 32768

_OUTCOME_CLS = None

# The hot loops call the ufuncs directly: ``np.clip`` and the ``.sum()`` /
# ``.min()`` / ``.max()`` methods are Python wrappers around exactly these
# calls, and their dispatch costs more than the arithmetic on arrays of a
# dozen elements.  For the same reason products use ``ndarray.dot``, which
# reaches the same BLAS routine as ``@`` with less dispatch, and boolean
# masks are tested with ``np.count_nonzero`` rather than ``.any()``.
try:  # NumPy >= 2
    from numpy._core.umath import clip as _clip
except ImportError:  # pragma: no cover - NumPy 1.x
    from numpy.core.umath import clip as _clip
_add_reduce = np.add.reduce
_min_reduce = np.minimum.reduce
_max_reduce = np.maximum.reduce
_any = np.count_nonzero  # truthy iff any element of a boolean mask is set


def _outcome_class():
    """Lazily resolve :class:`AllocationOutcome` (breaks the core↔solvers cycle)."""
    global _OUTCOME_CLS
    if _OUTCOME_CLS is None:
        from repro.core.allocation import AllocationOutcome

        _OUTCOME_CLS = AllocationOutcome
    return _OUTCOME_CLS


def _relaxed_objective(
    combo: "_ComboStructure", x: np.ndarray, V: float, q: float
) -> float:
    """Mirror of :meth:`AllocationProblem.objective_array` on a combination."""
    neg_log1p = combo.neg_log1p
    if combo.fast_path:
        log_terms = np.log(-np.expm1(x * neg_log1p))
        return float(V * _add_reduce(log_terms) - q * _add_reduce(x))
    log_terms = np.empty_like(x)
    safe = combo.p < 1.0
    log_terms[safe] = np.log(-np.expm1(x[safe] * neg_log1p[safe]))
    log_terms[~safe] = 0.0
    return float(V * _add_reduce(log_terms) - q * _add_reduce(x))


def _integer_objective(
    p_list: Sequence[float], values: Sequence[float], V: float, q: float
) -> float:
    """Mirror of :meth:`AllocationProblem.objective` on an integral point.

    Probabilities and channel counts are valid by construction here, so the
    per-term log skips the argument checks of
    :func:`~repro.network.channels.log_multi_channel_success`.
    """
    utility = 0.0
    for p_i, value in zip(p_list, values):
        utility += _log_success(p_i, value)
    return V * utility - q * float(sum(values))


@dataclass(frozen=True)
class KernelOptions:
    """Solver knobs of the compiled slot kernel.

    ``dual_iterations`` is the hard cap on subgradient steps (the legacy
    solver's fixed budget); ``dual_tolerance`` is the relative duality-gap
    threshold of the early stop (``0`` disables early stopping, which makes
    the kernel replay the legacy iteration schedule exactly);
    ``warm_start`` seeds each solve with the multipliers of the previous
    combination; the remaining fields mirror
    :class:`~repro.solvers.relaxed.DualDecompositionSolver`.
    """

    dual_iterations: int = 150
    dual_tolerance: float = DEFAULT_DUAL_TOLERANCE
    warm_start: bool = True
    polish_rounds: int = 2
    primal_check_every: int = 25
    feasibility_tolerance: float = 1e-6
    initial_step: Optional[float] = None
    step_offset_cap: int = 600
    #: Horizon-compiled mode (set when bound through a :class:`KernelCache`):
    #: enables the exact KKT shortcuts — return the unconstrained best
    #: response outright when it is feasible (it is then the optimum of the
    #: concave relaxation), and solve budget-only-binding instances by
    #: bisecting the single active multiplier — instead of always running
    #: the subgradient loop.  Off for standalone kernels so that
    #: ``kernel_cache=False`` reproduces the recompile-per-slot solve path.
    horizon_mode: bool = False

    def __post_init__(self) -> None:
        if self.dual_iterations < 1:
            raise ValueError("dual_iterations must be at least 1")
        if self.dual_tolerance < 0:
            raise ValueError("dual_tolerance must be non-negative")
        if self.primal_check_every < 1:
            raise ValueError("primal_check_every must be at least 1")
        if self.polish_rounds < 0:
            raise ValueError("polish_rounds must be non-negative")


def kernel_options_for(
    solver: object,
    dual_tolerance: Optional[float] = None,
    warm_start: bool = True,
    horizon_mode: bool = False,
) -> Optional[KernelOptions]:
    """Derive :class:`KernelOptions` from a relaxed solver, if compatible.

    Only a plain :class:`DualDecompositionSolver` maps onto the kernel (a
    subclass may have overridden ``solve``); anything else — e.g. the SLSQP
    reference solver — returns ``None`` and callers fall back to the legacy
    object path.
    """
    if type(solver) is not DualDecompositionSolver:
        return None
    tolerance = (
        DEFAULT_DUAL_TOLERANCE if dual_tolerance is None else float(dual_tolerance)
    )
    return KernelOptions(
        dual_iterations=solver.iterations,
        dual_tolerance=tolerance,
        # ``dual_tolerance=0`` promises an exact replay of the legacy
        # iteration schedule, which a warm multiplier seed would break.
        warm_start=warm_start and tolerance > 0.0,
        polish_rounds=solver.polish_rounds,
        primal_check_every=solver.primal_check_every,
        feasibility_tolerance=solver.tolerance,
        initial_step=solver.initial_step,
        # Replay mode promises the legacy schedule; the KKT shortcuts only
        # run in adaptive, horizon-compiled solves.
        horizon_mode=horizon_mode and tolerance > 0.0,
    )


def structure_signature(graph: "QDNGraph") -> Tuple:
    """Content signature of everything a :class:`CompiledStructure` compiles.

    Covers the node set (row registry), the edge set with its per-attempt
    link physics (the ``p_e`` tables) and the per-slot attempt budget.  Two
    graphs with equal signatures compile to interchangeable structures; any
    change — a removed edge, retuned loss, a different node ordering —
    yields a new signature and therefore a fresh structure.
    """
    return (
        tuple(graph.nodes),
        tuple((key, graph.attempt_success(key)) for key in graph.edges),
        graph.attempts_per_slot,
    )


class _RouteBlock:
    """Compiled arrays of one candidate route (request-independent).

    ``row_triples[h]`` holds the (tail node, head node, edge) registry rows of
    hop ``h``; ``node_rows`` (tail and head of each hop) and ``edge_rows``
    list them hop by hop, and ``degenerate`` marks a route with a ``p_e``
    of 0 or 1.
    """

    __slots__ = (
        "index", "edge_keys", "p", "p_list", "row_triples", "hops",
        "node_rows", "edge_rows", "degenerate",
    )

    def __init__(
        self,
        index: int,
        edge_keys: List[Tuple[object, object]],
        p: np.ndarray,
        row_triples: np.ndarray,
    ) -> None:
        self.index = index
        self.edge_keys = edge_keys
        self.p = p
        self.p_list = [float(v) for v in p]
        self.row_triples = row_triples
        self.hops = len(edge_keys)
        triples = row_triples.tolist()
        self.node_rows = [row for u_row, v_row, _ in triples for row in (u_row, v_row)]
        self.edge_rows = [e_row for _, _, e_row in triples]
        self.degenerate = any(v <= 0.0 or v >= 1.0 for v in self.p_list)


class _ComboStructure:
    """Static arrays of one route combination (request- and slot-independent).

    Everything here depends only on which routes were combined (and whether a
    budget row is active) — the legacy first-touch constraint ordering,
    probability tables, membership — so it is compiled once per distinct
    route multiset within a :class:`SlotKernel` binding and dropped with it.

    Only what every solve reads is built eagerly.  The dense membership
    matrices, the per-variable row lists and the per-row member lists are
    built on first use: a combination that the batched exhaustive solve
    prunes, or that hits the solve memo, never needs them.
    """

    __slots__ = (
        "n",
        "p",
        "p_list",
        "a",
        "neg_log1p",
        "fast_path",
        "order_array",
        "m",
        "rows_local",
        "lower",
        "lower_loads",
        "_membership",
        "_membership_t",
        "_var_rows",
        "_row_members",
        "__weakref__",
    )

    def __init__(
        self, blocks: Sequence[_RouteBlock], budget_row: Optional[int]
    ) -> None:
        p = np.concatenate([block.p for block in blocks])
        n = p.shape[0]
        self.n = n
        self.p = p
        self.p_list = [v for block in blocks for v in block.p_list]
        triples = np.concatenate([block.row_triples for block in blocks])

        # Active constraints, ordered exactly as the legacy problem builder
        # orders them (nodes by first touch, then edges, then the budget) so
        # the repair pass visits them in the same sequence and the
        # membership products sum in the same order.
        order: List[int] = list(
            dict.fromkeys([row for block in blocks for row in block.node_rows])
        )
        order.extend(
            dict.fromkeys([row for block in blocks for row in block.edge_rows])
        )
        if budget_row is not None:
            order.append(budget_row)
            triples = np.concatenate(
                [triples, np.full((n, 1), budget_row, dtype=np.intp)], axis=1
            )
        order_array = np.asarray(order, dtype=np.intp)
        self.order_array = order_array
        m = len(order)
        self.m = m
        local = np.empty(max(order) + 1, dtype=np.intp)
        local[order_array] = np.arange(m, dtype=np.intp)
        self.rows_local = local[triples]

        self.lower = np.ones(n, dtype=float)
        self.lower_loads = np.bincount(self.rows_local.ravel(), minlength=m).astype(
            float
        )
        self._membership: Optional[np.ndarray] = None
        self._membership_t: Optional[np.ndarray] = None
        self._var_rows: Optional[List[List[int]]] = None
        self._row_members: Optional[List[np.ndarray]] = None

        self.fast_path = not any(block.degenerate for block in blocks)
        self.a = -np.log1p(-_clip(p, 0.0, 1.0 - 1e-15))
        self.neg_log1p = np.log1p(-p)

    @property
    def membership(self) -> np.ndarray:
        """Dense ``(m, n)`` 0/1 constraint-membership matrix."""
        membership = self._membership
        if membership is None:
            n = self.n
            rows_local = self.rows_local
            membership = np.zeros((self.m, n), dtype=float)
            membership[
                rows_local.ravel(), np.repeat(np.arange(n), rows_local.shape[1])
            ] = 1.0
            self._membership = membership
        return membership

    @property
    def membership_t(self) -> np.ndarray:
        """C-contiguous transpose of :attr:`membership`."""
        membership_t = self._membership_t
        if membership_t is None:
            membership_t = self._membership_t = self.membership.T.copy()
        return membership_t

    @property
    def var_rows(self) -> List[List[int]]:
        """``var_rows[i]``: the local constraint rows of variable ``i``."""
        var_rows = self._var_rows
        if var_rows is None:
            var_rows = self._var_rows = self.rows_local.tolist()
        return var_rows

    @property
    def row_members(self) -> List[np.ndarray]:
        """``row_members[r]``: the variables of local row ``r``, ascending."""
        row_members = self._row_members
        if row_members is None:
            membership = self.membership
            row_members = self._row_members = [
                membership[r].nonzero()[0] for r in range(self.m)
            ]
        return row_members


class CompiledStructure:
    """Static compiled state of one graph: row registry, route blocks, warm state.

    The row registry covers *every* node and edge of the graph (nodes first,
    then edges, then one reserved budget row), so warm-start dual multipliers
    are indexed by physical resource and stay meaningful across route
    combinations, request sets and slots.  Route blocks are compiled lazily
    and memoised; combination layouts belong to the binding that built them,
    and only their keys are remembered here.
    """

    def __init__(self, graph: "QDNGraph") -> None:
        nodes = graph.nodes
        edges = graph.edges
        self.node_row: Dict[object, int] = {node: i for i, node in enumerate(nodes)}
        self.edge_row: Dict[Tuple[object, object], int] = {
            key: len(nodes) + j for j, key in enumerate(edges)
        }
        self.budget_row: int = len(nodes) + len(edges)
        self.num_rows: int = self.budget_row + 1
        self._nodes = list(nodes)
        self._edges = list(edges)
        self.edge_success: Dict[Tuple[object, object], float] = {
            key: float(graph.slot_success(key)) for key in edges
        }

        self._route_blocks: Dict[object, _RouteBlock] = {}
        # The combinations looked up so far, least recently used first: a
        # lookup of a remembered key counts towards ``combo_hits``.
        self._combo_keys: "OrderedDict[Tuple, None]" = OrderedDict()

        # Warm-start state carried across combinations *and* slots: one
        # global multiplier vector over the full row registry, plus per-combo
        # best multipliers (a revisited combination re-seeds from its own
        # near-optimal duals rather than the last combination's).
        self.warm_mult = np.zeros(self.num_rows, dtype=float)
        self.warm_ready = False
        self.step_offset = 0
        self.combo_warm: Dict[Tuple, Tuple[np.ndarray, int]] = {}

        # Memoised solves: a solve is a deterministic function of the
        # combination, the active-row capacities and the (V, q, cap)
        # weights, so identical inputs — e.g. the myopic-fixed policy under
        # static resources, or a repeated queue price — reuse the previous
        # (relaxed, rounded) solution pair outright.
        self.solve_memo: "OrderedDict[Tuple, Tuple]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Lazy compilation
    # ------------------------------------------------------------------ #
    def block_for(self, route: "Route") -> _RouteBlock:
        """The compiled block of one candidate route (memoised)."""
        block = self._route_blocks.get(route)
        if block is None:
            successes: List[float] = []
            triples: List[Tuple[int, int, int]] = []
            edge_keys: List[Tuple[object, object]] = []
            for key in route.edges:
                edge_keys.append(key)
                successes.append(self.edge_success[key])
                triples.append(
                    (self.node_row[key[0]], self.node_row[key[1]], self.edge_row[key])
                )
            block = _RouteBlock(
                index=len(self._route_blocks),
                edge_keys=edge_keys,
                p=np.asarray(successes, dtype=float),
                row_triples=np.asarray(triples, dtype=np.intp).reshape(-1, 3),
            )
            self._route_blocks[route] = block
        return block

    def touch_combo(self, key: Tuple) -> bool:
        """Record a lookup of a combination key; whether it was remembered."""
        keys = self._combo_keys
        if key in keys:
            keys.move_to_end(key)
            return True
        keys[key] = None
        while len(keys) > MAX_COMBOS:
            evicted, _ = keys.popitem(last=False)
            self.combo_warm.pop(evicted, None)
        return False

    # ------------------------------------------------------------------ #
    # Per-slot right-hand sides
    # ------------------------------------------------------------------ #
    def bind_capacities(
        self, snapshot, budget_cap: Optional[float]
    ) -> np.ndarray:
        """The slot's capacity vector over the full row registry."""
        capacities = np.empty(self.num_rows, dtype=float)
        for node, row in self.node_row.items():
            capacities[row] = float(snapshot.available_qubits(node))
        for key, row in self.edge_row.items():
            capacities[row] = float(snapshot.available_channels(key))
        capacities[self.budget_row] = (
            math.inf if budget_cap is None else float(budget_cap)
        )
        return capacities


class SlotKernel:
    """Per-slot binding of a :class:`CompiledStructure` (see module docstring).

    Exposes the evaluator interface of the legacy ``_CombinationEvaluator``;
    every distinct route combination is solved at most once per binding and
    cached, and consecutive solves share warm-started dual multipliers (which
    persist on the structure across bindings, i.e. across slots).  The
    combination layouts it compiles are its own and go with it.
    """

    def __init__(
        self,
        context: "SlotContext",
        requests: Sequence["SDPair"],
        candidate_routes: Sequence[Sequence["Route"]],
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        options: Optional[KernelOptions] = None,
        structure: Optional[CompiledStructure] = None,
    ) -> None:
        check_non_negative(utility_weight, "utility_weight")
        check_non_negative(cost_weight, "cost_weight")
        if budget_cap is not None:
            check_non_negative(budget_cap, "budget_cap")
        self._requests = list(requests)
        self._candidates = [list(routes) for routes in candidate_routes]
        self._utility_weight = float(utility_weight)
        self._cost_weight = float(cost_weight)
        self._budget_cap = None if budget_cap is None else float(budget_cap)
        self._options = options if options is not None else KernelOptions()

        self._structure = (
            structure if structure is not None else CompiledStructure(context.graph)
        )
        self._blocks: List[List[_RouteBlock]] = [
            [self._structure.block_for(route) for route in routes]
            for routes in self._candidates
        ]
        self._capacities = self._structure.bind_capacities(
            context.snapshot, self._budget_cap
        )
        self._use_budget = self._budget_cap is not None

        self._cache: Dict[Tuple[int, ...], "AllocationOutcome"] = {}
        # The layouts of the combinations this binding looked up; they go
        # with the binding (the structure keeps only their keys).
        self._layouts: Dict[Tuple, _ComboStructure] = {}
        # Combinations already looked up by the batch pre-pass on behalf of
        # a scalar-routed solve: maps combo key to whether that first lookup
        # was a hit, so _solve does not re-count it.
        self._combo_precounted: Dict[Tuple, bool] = {}
        self.evaluations = 0
        self.stats: Dict[str, int] = {key: 0 for key in STAT_KEYS}

    # ------------------------------------------------------------------ #
    # Evaluator interface (drop-in for the legacy _CombinationEvaluator)
    # ------------------------------------------------------------------ #
    def selection_for(self, assignment: Tuple[int, ...]) -> Dict["SDPair", "Route"]:
        """The route mapping corresponding to an index assignment."""
        return {
            request: self._candidates[i][choice]
            for i, (request, choice) in enumerate(zip(self._requests, assignment))
        }

    def outcome_for(self, assignment: Tuple[int, ...]) -> "AllocationOutcome":
        """Allocate qubits for the combination, with caching."""
        key = tuple(int(choice) for choice in assignment)
        outcome = self._cache.get(key)
        if outcome is None:
            outcome = self._solve(key)
            self._cache[key] = outcome
            self.evaluations += 1
        else:
            self.stats["cache_hits"] += 1
        return outcome

    def objective(self, assignment: Tuple[int, ...]) -> float:
        """P2 objective of the combination; ``-inf`` when infeasible."""
        outcome = self.outcome_for(assignment)
        if not outcome.feasible:
            return float("-inf")
        return outcome.objective

    def _combo_for(
        self, blocks: Sequence[_RouteBlock]
    ) -> Tuple[Tuple, _ComboStructure, bool]:
        """The layout of a route multiset; (key, layout, key was remembered)."""
        key = (tuple(block.index for block in blocks), self._use_budget)
        cached = self._structure.touch_combo(key)
        combo = self._layouts.get(key)
        if combo is None:
            budget_row = self._structure.budget_row if self._use_budget else None
            combo = self._layouts[key] = _ComboStructure(blocks, budget_row)
        return key, combo, cached

    # ------------------------------------------------------------------ #
    # Batched evaluation (horizon mode)
    # ------------------------------------------------------------------ #
    def evaluate_all(self, assignments) -> None:
        """Solve every given route combination, batching the dual ascents.

        The exhaustive selector enumerates every combination of a slot; each
        one is a tiny problem (tens of variables), so solving them one by one
        pays NumPy's fixed per-call overhead hundreds of times per slot.
        This method runs all still-unsolved combinations through one
        lock-step, padded, batched projected-subgradient ascent — the same
        warm-started, duality-gap-certified algorithm as :meth:`_solve`, with
        the in-loop repair/polish replaced by their vectorised, feasibility-
        guaranteed counterparts — and populates the outcome cache so the
        subsequent argmax walk is pure lookups.

        Only active in horizon-compiled adaptive mode; otherwise a no-op (the
        sequential path evaluates on demand).
        """
        self._evaluate_batch(assignments, prune=False)

    def best_of(
        self, assignments
    ) -> Optional[Tuple[Tuple[int, ...], float]]:
        """The best combination of an enumeration, with dual-bound pruning.

        Like :meth:`evaluate_all` followed by an argmax walk, but most
        combinations never reach the integer stage: the certified dual value
        of a combination is a valid upper bound on its rounded objective
        (rounded ≤ relaxed optimum ≤ dual), so combinations whose bound
        falls below the best rounded objective found so far are pruned after
        the batched relaxation.  Ties at the bound are never pruned, and the
        final argmax prefers earlier enumeration order exactly like the
        sequential walk, so the selected combination is unchanged.

        Returns ``None`` outside horizon-compiled adaptive mode (callers
        fall back to the plain evaluate-everything walk).
        """
        options = self._options
        if not (options.horizon_mode and options.dual_tolerance > 0.0):
            return None
        order = [tuple(int(choice) for choice in a) for a in assignments]
        self._evaluate_batch(order, prune=True)
        best_key = order[0] if order else ()
        best_objective = float("-inf")
        for key in order:
            outcome = self._cache.get(key)
            if outcome is None:
                continue  # pruned: its dual bound is below the running best
            objective = outcome.objective if outcome.feasible else float("-inf")
            if objective > best_objective:
                best_objective = objective
                best_key = key
        if best_key not in self._cache:
            # Every combination was pruned-or-missing (cannot happen when at
            # least one was finalised, but stay defensive): solve the first.
            self.outcome_for(best_key)
        return best_key, best_objective

    def _evaluate_batch(self, assignments, prune: bool) -> None:
        options = self._options
        if not (options.horizon_mode and options.dual_tolerance > 0.0):
            return
        structure = self._structure
        pending: List[Tuple[int, ...]] = []
        seen = set()
        for assignment in assignments:
            key = tuple(int(choice) for choice in assignment)
            if key in seen or key in self._cache:
                continue
            seen.add(key)
            pending.append(key)
        if not pending:
            return

        # Pre-pass: compile combos, bind capacities, and route the cases the
        # batch cannot represent (trivial, memoised, degenerate-probability,
        # bounds-infeasible) through the scalar path.
        batch: List[Tuple] = []
        for key in pending:
            blocks = [self._blocks[i][choice] for i, choice in enumerate(key)]
            if not blocks or all(block.hops == 0 for block in blocks):
                self.outcome_for(key)
                continue
            combo_key, combo, combo_cached = self._combo_for(blocks)
            capacities = self._capacities[combo.order_array]
            memo_key = (
                combo_key, self._utility_weight, self._cost_weight,
                self._budget_cap, capacities.tobytes(),
            )
            lower_loads = combo.lower_loads
            raw_upper = _min_reduce(
                (capacities - lower_loads + 1.0)[combo.rows_local], axis=1
            )
            if (
                memo_key in structure.solve_memo
                or not combo.fast_path
                or _any(raw_upper < 1.0)
                or _any(lower_loads > capacities + 1e-6)
            ):
                self._combo_precounted[combo_key] = combo_cached
                self.outcome_for(key)
                continue
            if combo_cached:
                self.stats["combo_hits"] += 1
            keys = [
                (request, edge)
                for request, block in zip(self._requests, blocks)
                for edge in block.edge_keys
            ]
            batch.append(
                (key, combo_key, combo, memo_key, keys, capacities,
                 np.maximum(raw_upper, 1.0))
            )
        if not batch:
            return
        if len(batch) == 1:
            # Fall back to the scalar path; its combo lookup was already
            # counted above, so mark it pre-counted as a non-hit.
            key, combo_key = batch[0][0], batch[0][1]
            self._combo_precounted[combo_key] = False
            self.outcome_for(key)
            return

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            self._solve_batch(batch, prune=prune)

    def _solve_batch(self, batch: List[Tuple], prune: bool = False) -> None:
        """Lock-step batched dual ascent over pre-validated combinations.

        Runs under the caller's ``np.errstate``.
        """
        options = self._options
        structure = self._structure
        V = self._utility_weight
        q = self._cost_weight
        tol = options.dual_tolerance
        C = len(batch)
        combos = [entry[2] for entry in batch]
        N = max(combo.n for combo in combos)
        M = max(combo.m for combo in combos)
        width = combos[0].rows_local.shape[1]
        BIG = 1e18

        # Padded batch arrays: padding variables are pinned to [1, 1] and
        # point at a per-combo dummy row (index M) with effectively infinite
        # capacity, so they influence neither objectives nor loads.
        mask = np.zeros((C, N), dtype=bool)
        p_b = np.full((C, N), 0.5)
        rows_b = np.full((C, N, width), M, dtype=np.intp)
        caps_b = np.full((C, M + 1), BIG)
        row_mask = np.zeros((C, M + 1), dtype=bool)
        upper_b = np.ones((C, N))
        for c, (key, combo_key, combo, memo_key, keys, capacities, upper) in enumerate(batch):
            n, m = combo.n, combo.m
            mask[c, :n] = True
            p_b[c, :n] = combo.p
            rows_b[c, :n, :] = combo.rows_local
            caps_b[c, :m] = capacities
            row_mask[c, :m] = True
            upper_b[c, :n] = upper
        lower_b = np.ones((C, N))
        a_b = -np.log1p(-p_b)
        va_b = V * a_b
        neg_b = np.log1p(-p_b)
        # Every price is q plus non-negative multipliers, so with q >= 1e-300
        # the price floor and the non-positive-price branch are no-ops.
        plain_prices = q >= 1e-300

        flat_rows = (np.arange(C)[:, None, None] * (M + 1) + rows_b).reshape(-1)

        flat_columns = [
            np.arange(C)[:, None] * (M + 1) + rows_b[:, :, j] for j in range(width)
        ]

        # Per-variable reductions over each variable's ``width`` (3 or 4) rows
        # run as a chain of elementwise operations over the row columns,
        # several times cheaper than a ufunc reduce over a short last axis.
        # A minimum does not depend on the order it is taken in.  A sum of
        # fewer than eight terms is what ``np.add.reduce`` computes too: one
        # term after another (tests/test_kernel_oracles.py pins this down);
        # it starts from zero rather than the first term, which only differs
        # for a first term of -0.0, and multipliers are never -0.0.

        def min_over_rows(rows: np.ndarray) -> np.ndarray:
            """Each variable's minimum over its rows, ``(C, N)``."""
            flat = rows.reshape(-1)
            result = flat[flat_columns[0]]
            for column in flat_columns[1:]:
                np.minimum(result, flat[column], out=result)
            return result

        def sum_over_rows(rows: np.ndarray) -> np.ndarray:
            """Each variable's sum over its rows, ``(C, N)``."""
            flat = rows.reshape(-1)
            result = flat[flat_columns[0]]
            for column in flat_columns[1:]:
                result += flat[column]
            return result

        def batch_loads(x: np.ndarray) -> np.ndarray:
            return np.bincount(
                flat_rows, weights=np.repeat(x.reshape(-1), width),
                minlength=C * (M + 1),
            ).reshape(C, M + 1)

        lower_loads_b = batch_loads(lower_b)

        def batch_obj(x: np.ndarray) -> np.ndarray:
            log_terms = np.log(-np.expm1(x * neg_b))
            utility = _add_reduce(np.where(mask, log_terms, 0.0), axis=-1)
            return V * utility - q * _add_reduce(np.where(mask, x, 0.0), axis=-1)

        def batch_best_response(prices: np.ndarray) -> np.ndarray:
            if plain_prices:
                x = np.log1p(va_b / prices)
                x /= a_b
            else:
                x = np.log1p(va_b / np.maximum(prices, 1e-300))
                x /= a_b
                x = np.where(prices <= 0.0, upper_b, x)
            return _clip(x, lower_b, upper_b, out=x)

        def batch_repair(x: np.ndarray) -> np.ndarray:
            """Feasible by construction: each variable's excess over its
            lower bound is scaled by the worst slack/overflow ratio of its
            rows, so no row can end above its capacity."""
            _clip(x, lower_b, upper_b, out=x)
            loads = batch_loads(x)
            over = loads - lower_loads_b
            avail = caps_b - lower_loads_b
            s_row = np.where(
                loads > caps_b + 1e-12,
                avail / np.maximum(over, 1e-300),
                1.0,
            )
            _clip(s_row, 0.0, 1.0, out=s_row)
            s_var = min_over_rows(s_row)
            return lower_b + (x - lower_b) * s_var

        def batch_polish(x: np.ndarray) -> np.ndarray:
            """Vectorised water-fill towards the per-variable optimum (the
            batch counterpart of the sequential ``fast_polish``)."""
            loads = batch_loads(x)
            slack = caps_b - loads
            head = min_over_rows(slack)
            raise_by = _clip(x_unc - x, 0.0, np.maximum(head, 0.0))
            inc = batch_loads(raise_by)
            ratios = np.where(inc > 0.0, slack / inc, 1.0)
            scale = np.minimum(1.0, min_over_rows(ratios))
            lower_by = _clip(x - x_unc, 0.0, x - lower_b)
            return x + raise_by * np.maximum(scale, 0.0) - lower_by

        x_unc = batch_best_response(np.full((C, N), q))

        # Warm starts: a seen combination re-uses its own multipliers, new
        # ones project the global per-resource vector onto their rows.
        mult = np.zeros((C, M + 1))
        offset_b = np.zeros(C)
        warm_enabled = options.warm_start and tol > 0.0
        if warm_enabled:
            for c, entry in enumerate(batch):
                combo_key, combo = entry[1], entry[2]
                warm = structure.combo_warm.get(combo_key)
                if warm is not None:
                    mult[c, : combo.m] = warm[0]
                    offset_b[c] = warm[1]
                elif structure.warm_ready:
                    mult[c, : combo.m] = structure.warm_mult[combo.order_array]
                    offset_b[c] = structure.step_offset

        if options.initial_step is not None:
            step_scale = np.full(C, float(options.initial_step))
        else:
            step_scale = np.asarray(
                [
                    max(V, 1.0) / max(float(_max_reduce(entry[5])), 1.0)
                    for entry in batch
                ]
            )
        step_cap = 5.0 * step_scale

        active = np.ones(C, dtype=bool)
        best_x = np.ones((C, N))
        best_obj = np.full(C, -np.inf)
        best_dual = np.full(C, np.inf)
        best_mult = np.zeros((C, M + 1))
        used = np.full(C, options.dual_iterations)
        max_iterations = options.dual_iterations

        for k in range(max_iterations):
            prices = sum_over_rows(mult)
            prices += q
            x = batch_best_response(prices)
            loads = batch_loads(x)
            violation = np.where(row_mask, loads - caps_b, 0.0)
            dual = batch_obj(x) - _add_reduce(mult * violation, axis=-1)
            improved = active & (dual < best_dual)
            best_dual = np.where(improved, dual, best_dual)
            best_mult[improved] = mult[improved]
            candidate_for = active & (improved | (k == 0))
            if _any(candidate_for):
                candidate = batch_polish(batch_repair(x.copy()))
                objective = batch_obj(candidate)
                better = candidate_for & (objective > best_obj)
                best_obj = np.where(better, objective, best_obj)
                best_x[better] = candidate[better]
            certified = active & np.isfinite(best_obj) & (
                best_dual - best_obj <= tol * np.maximum(1.0, np.abs(best_obj))
            )
            used[certified] = k + 1
            active &= ~certified
            if not _any(active):
                break
            effective = np.where((mult > 0.0) | (violation > 0.0), violation, 0.0)
            norm2 = _add_reduce(effective * effective, axis=-1)
            step = (dual - best_obj) / np.maximum(norm2, 1e-12)
            fallback = step_scale / np.sqrt(offset_b + k + 1.0)
            step = np.where(
                (step > 0.0) & (step < step_cap),
                step,
                np.where(step >= step_cap, step_cap, fallback),
            )
            step = np.where(active & np.isfinite(step), step, 0.0)
            mult = np.maximum(0.0, mult + step[:, None] * violation)

        certified_count = int((used < max_iterations).sum())
        self.stats["early_stops"] += certified_count
        self.stats["dual_iterations"] += int(used.sum())
        self.stats["solves"] += C

        # Per-combo finish: legacy polish on the winner, shared integer
        # stage, warm-state bookkeeping.  With pruning, combos are finished
        # in descending dual-bound order and the integer stage stops once a
        # bound falls strictly below the best rounded objective so far — a
        # pruned combination provably cannot win the argmax.
        finish_order = range(C)
        dual_bounds = best_dual.tolist()
        if prune:
            finish_order = sorted(
                range(C), key=dual_bounds.__getitem__, reverse=True
            )
        best_rounded = -np.inf
        last_finished: Optional[int] = None
        for c in finish_order:
            if prune and dual_bounds[c] < best_rounded:
                self.stats["pruned"] += 1
                continue
            key, combo_key, combo, memo_key, keys, capacities, upper = batch[c]
            n, m = combo.n, combo.m
            x_c = best_x[c, :n].copy()
            if options.polish_rounds > 0:
                cyclic_coordinate_polish(
                    x_c, combo.lower, upper, combo.p, V, q,
                    combo.membership.dot(x_c), capacities, combo.var_rows,
                    options.polish_rounds,
                )
            if warm_enabled:
                final_mult = best_mult[c, :m].copy()
                final_offset = int(
                    min(offset_b[c] + used[c], options.step_offset_cap)
                )
                structure.combo_warm[combo_key] = (final_mult, final_offset)
                last_finished = c
            outcome = self._finalise(
                combo, memo_key, keys, capacities, upper, x_c, int(used[c])
            )
            self._cache[key] = outcome
            self.evaluations += 1
            if outcome.feasible and outcome.objective > best_rounded:
                best_rounded = outcome.objective
        if warm_enabled and last_finished is not None:
            combo = batch[last_finished][2]
            structure.warm_mult[combo.order_array] = best_mult[
                last_finished, : combo.m
            ]
            structure.warm_ready = True
            structure.step_offset = int(
                min(
                    offset_b[last_finished] + used[last_finished],
                    options.step_offset_cap,
                )
            )

    # ------------------------------------------------------------------ #
    # Per-combination solve
    # ------------------------------------------------------------------ #
    def _solve(self, assignment: Tuple[int, ...]) -> "AllocationOutcome":
        self.stats["solves"] += 1
        structure = self._structure
        blocks = [self._blocks[i][choice] for i, choice in enumerate(assignment)]
        if not blocks or all(block.hops == 0 for block in blocks):
            return _outcome_class()(
                allocation={}, objective=0.0, feasible=True, cost=0
            )
        combo_key, combo, combo_cached = self._combo_for(blocks)
        precounted = self._combo_precounted.pop(combo_key, None)
        if combo_cached if precounted is None else precounted:
            self.stats["combo_hits"] += 1

        keys: List[Tuple[object, Tuple[object, object]]] = [
            (request, edge)
            for request, block in zip(self._requests, blocks)
            for edge in block.edge_keys
        ]
        capacities = self._capacities[combo.order_array]

        # A solve is a deterministic function of the combination, the
        # active-row capacities and the weights, so an exact input match —
        # common under static resources (myopic-fixed caps, repeated queue
        # prices, the drop-retry loop) — reuses the previous solution pair.
        memo_key = (
            combo_key, self._utility_weight, self._cost_weight,
            self._budget_cap, capacities.tobytes(),
        )
        memo = structure.solve_memo.get(memo_key)
        if memo is not None:
            structure.solve_memo.move_to_end(memo_key)
            self.stats["memo_hits"] += 1
            relaxed, rounded = memo
            return self._build_outcome(memo_key, keys, relaxed, rounded, store=False)

        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self._solve_combo(combo_key, combo, memo_key, keys, capacities)

    def _solve_combo(
        self,
        combo_key: Tuple,
        combo: _ComboStructure,
        memo_key: Tuple,
        keys: List[Tuple[object, Tuple[object, object]]],
        capacities: np.ndarray,
    ) -> "AllocationOutcome":
        """Dual ascent, polish and integer stage of one unmemoised combination.

        Runs under the caller's ``np.errstate``.
        """
        structure = self._structure
        options = self._options
        V = self._utility_weight
        q = self._cost_weight
        n = combo.n
        m = combo.m
        p = combo.p
        order_array = combo.order_array
        rows_local = combo.rows_local
        lower = combo.lower
        lower_loads = combo.lower_loads

        raw_upper = _min_reduce((capacities - lower_loads + 1.0)[rows_local], axis=1)
        upper = np.maximum(raw_upper, 1.0)

        # ----- minimum-footprint infeasibility: reject the combination --- #
        if _any(raw_upper < 1.0) or _any(lower_loads > capacities + 1e-6):
            relaxed = ContinuousSolution(
                values=(1.0,) * n,
                objective=_relaxed_objective(combo, lower, V, q),
                feasible=False,
            )
            rounded = IntegerSolution(
                values=(1,) * n,
                objective=_integer_objective(combo.p_list, [1.0] * n, V, q),
                feasible=False,
            )
            return self._build_outcome(memo_key, keys, relaxed, rounded)

        membership = combo.membership
        membership_t = combo.membership_t
        tolerance = options.feasibility_tolerance
        lower_tol = lower - tolerance
        caps_tol = capacities + tolerance
        capacity_list = capacities.tolist()

        fast_path = combo.fast_path
        a = combo.a
        va = V * a
        # Every price is q plus non-negative multipliers, so with q >= 1e-300
        # the price floor and the non-positive-price branch are no-ops.
        plain_prices = q >= 1e-300

        def best_response(prices: np.ndarray) -> np.ndarray:
            if fast_path:
                if plain_prices:
                    x = np.log1p(va / prices)
                    x /= a
                else:
                    x = np.log1p(va / np.maximum(prices, 1e-300))
                    x /= a
                    x = np.where(prices <= 0.0, upper, x)
                return _clip(x, lower, upper, out=x)
            return _closed_form_best_response(prices, p, V, lower, upper)

        def repair(
            x: np.ndarray,
            loads: Optional[np.ndarray] = None,
            violation: Optional[np.ndarray] = None,
        ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
            """Mirror of :meth:`AllocationProblem.repair_feasibility`.

            Reductions only ever shrink ``x``, so the rows violated after the
            initial clip are a superset of the rows that need work — the
            common near-feasible iterate costs one matvec and no row loop.
            A caller that already holds the row loads and violation of an
            in-bounds ``x`` passes them (the clip is then a no-op).  Returns
            ``x`` and its row loads, or ``None`` for the loads when a row was
            reduced.
            """
            if loads is None:
                _clip(x, lower, upper, out=x)
                loads = membership.dot(x)
                violation = loads - capacities
            violated = (violation > 1e-12).nonzero()[0]
            if not violated.size:
                return x, loads
            row_members = combo.row_members
            for r in violated.tolist():
                members = row_members[r]
                current = x[members]
                load = float(_add_reduce(current))
                excess = load - capacity_list[r]
                if excess <= 1e-12:
                    continue
                headroom = current - lower[members]
                total_headroom = _add_reduce(headroom)
                if total_headroom <= 0:
                    continue
                reduction = np.minimum(headroom, headroom * (excess / total_headroom))
                shortfall = excess - _add_reduce(reduction)
                if shortfall > 1e-12:
                    order_h = np.argsort(-(headroom - reduction))
                    for index in order_h:
                        available = headroom[index] - reduction[index]
                        take = min(available, shortfall)
                        reduction[index] += take
                        shortfall -= take
                        if shortfall <= 1e-12:
                            break
                x[members] = current - reduction
            return x, None

        def feasible_loads(
            x: np.ndarray, loads: Optional[np.ndarray]
        ) -> Optional[np.ndarray]:
            """Mirror of :meth:`AllocationProblem.is_feasible` at the solver
            tolerance: the row loads of a feasible ``x``, ``None`` otherwise."""
            if _any(x < lower_tol):
                return None
            if loads is None:
                loads = membership.dot(x)
            if _any(loads > caps_tol):
                return None
            return loads

        # ----- warm-started projected-subgradient dual ascent ------------ #
        step_scale = options.initial_step
        if step_scale is None:
            step_scale = max(V, 1.0) / max(float(_max_reduce(capacities)), 1.0)

        # Warm starts and replay mode are mutually exclusive: a warm seed (or
        # saving the last oscillating iterate as one) would break the
        # ``dual_tolerance=0`` promise of replaying the legacy schedule.
        # A revisited combination re-seeds from its own best multipliers
        # (tight for it by construction); a new combination falls back to
        # the global per-resource vector of the previous solve.  ``mult`` is
        # rebound, never written in place, so it can be kept by reference.
        warm_enabled = options.warm_start and options.dual_tolerance > 0.0
        combo_warm = structure.combo_warm.get(combo_key) if warm_enabled else None
        if combo_warm is not None:
            mult = combo_warm[0].copy()
            offset = combo_warm[1]
        elif warm_enabled and structure.warm_ready:
            mult = structure.warm_mult[order_array]
            offset = structure.step_offset
        else:
            mult = np.zeros(m, dtype=float)
            offset = 0

        best_x: Optional[np.ndarray] = None
        best_objective = -math.inf
        best_dual = math.inf
        best_mult: Optional[np.ndarray] = None
        gap_tolerance = options.dual_tolerance
        max_iterations = options.dual_iterations
        check_every = options.primal_check_every
        used = max_iterations
        x = lower.copy()

        def polish(candidate: np.ndarray, rounds: Optional[int] = None) -> np.ndarray:
            rounds = options.polish_rounds if rounds is None else rounds
            if rounds > 0:
                cyclic_coordinate_polish(
                    candidate, lower, upper, p, V, q, membership.dot(candidate),
                    capacities, combo.var_rows, rounds,
                )
            return candidate

        x_unconstrained: Optional[np.ndarray] = None

        def fast_polish(candidate: np.ndarray, loads: np.ndarray) -> np.ndarray:
            """One vectorised water-fill step towards the per-variable optimum.

            The horizon-mode stand-in for the in-loop single cyclic polish
            round: every variable moves towards its unconstrained optimum
            simultaneously — decreases are always feasible, increases are
            capped by the row slacks and scaled back so that no shared row
            can overflow (each variable's scale is bounded by every one of
            its rows' slack/increase ratios).  ~10 array ops instead of a
            per-variable Python loop, at a slightly looser (still feasible)
            primal bound.  ``loads`` are the row loads of ``candidate``.
            """
            target = x_unconstrained
            slack = capacities - loads
            headroom = _min_reduce(slack[rows_local], axis=1)
            raise_by = _clip(target - candidate, 0.0, np.maximum(headroom, 0.0))
            increase = membership.dot(raise_by)
            ratios = np.where(increase > 0.0, slack / increase, 1.0)
            scale = np.minimum(1.0, _min_reduce(ratios[rows_local], axis=1))
            lower_by = _clip(candidate - target, 0.0, candidate - lower)
            candidate += raise_by * np.maximum(scale, 0.0) - lower_by
            return candidate

        polished_final = False
        direct = False
        direct_mult: Optional[np.ndarray] = None
        if options.horizon_mode and gap_tolerance > 0.0:
            # Exact KKT shortcuts of the horizon-compiled mode.  The
            # objective is separable and concave, so (a) a feasible
            # unconstrained best response is the optimum of the whole
            # relaxation, and (b) when only the budget row binds, the
            # optimum is the best response at ``q + λ*`` where the single
            # multiplier λ* makes the budget tight — found by bisection
            # (the total allocation is continuous and decreasing in λ).
            base_prices = np.full(n, q)
            x0 = best_response(base_prices)
            x_unconstrained = x0
            violated0 = membership.dot(x0) > caps_tol
            if not _any(violated0):
                best_x = x0
                used = 1
                direct = True
                direct_mult = np.zeros(m, dtype=float)
            elif (
                self._use_budget
                and bool(violated0[m - 1])
                and not _any(violated0[: m - 1])
            ):
                cap_total = capacities[m - 1]
                lo, hi = 0.0, max(step_scale, 1.0)
                evals = 1
                while float(_add_reduce(best_response(base_prices + hi))) > cap_total and evals < 80:
                    lo, hi = hi, hi * 2.0
                    evals += 1
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    evals += 1
                    if float(_add_reduce(best_response(base_prices + mid))) > cap_total:
                        lo = mid
                    else:
                        hi = mid
                x_star = best_response(base_prices + hi)
                # λ > 0 may only tighten the other rows (x decreases in
                # λ), so feasibility of the budget row is feasibility of
                # the whole system.
                if float(_add_reduce(x_star)) <= cap_total + tolerance:
                    best_x = x_star
                    used = evals
                    direct = True
                    direct_mult = np.zeros(m, dtype=float)
                    direct_mult[m - 1] = hi
            if direct:
                self.stats["direct_solves"] += 1
                best_objective = _relaxed_objective(combo, best_x, V, q)
        if direct:
            pass
        elif gap_tolerance > 0.0:
            # Adaptive mode: Polyak-sized steps aimed at the best polished
            # primal bound, with a duality-gap early stop.  The repaired
            # subgradient iterate alone is a weak primal bound — polishing
            # every candidate is what makes the gap certify within a
            # handful of iterations (and what sizes the steps well).
            polished_final = True
            step_cap = 5.0 * step_scale
            for k in range(max_iterations):
                prices = membership_t.dot(mult)
                prices += q
                x = best_response(prices)
                loads = membership.dot(x)
                violation = loads - capacities
                dual_value = _relaxed_objective(combo, x, V, q)
                dual_value -= float(mult.dot(violation))
                improved = dual_value < best_dual
                if improved:
                    best_dual = dual_value
                    best_mult = mult
                if improved or k == 0:
                    # A tighter dual iterate is also the better primal
                    # candidate; repairing/polishing only then skips the
                    # oscillating iterates.  One polish round tightens
                    # the primal bound enough for the gap test; the
                    # winner gets the remaining rounds after the loop.
                    repaired, repaired_loads = repair(x.copy(), loads, violation)
                    repaired_loads = feasible_loads(repaired, repaired_loads)
                    if repaired_loads is not None:
                        if x_unconstrained is not None:
                            candidate = fast_polish(repaired, repaired_loads)
                        else:
                            candidate = polish(
                                repaired, rounds=min(options.polish_rounds, 1)
                            )
                        objective = _relaxed_objective(combo, candidate, V, q)
                        if objective > best_objective:
                            best_objective = objective
                            best_x = candidate
                if (
                    best_x is not None
                    and best_dual - best_objective
                    <= gap_tolerance * max(1.0, abs(best_objective))
                ):
                    used = k + 1
                    self.stats["early_stops"] += 1
                    break
                # Polyak step towards the best primal bound; the reduced
                # violation zeroes rows whose multiplier is pinned at 0.
                effective = np.where((mult > 0.0) | (violation > 0.0), violation, 0.0)
                norm2 = float(effective.dot(effective))
                step = (dual_value - best_objective) / max(norm2, 1e-12)
                if not (0.0 < step < step_cap):
                    step = (
                        step_cap
                        if step >= step_cap
                        else step_scale / math.sqrt(offset + k + 1.0)
                    )
                mult = np.maximum(0.0, mult + step * violation)
        else:
            # Replay mode (``dual_tolerance=0``): the legacy solver's
            # fixed subgradient schedule, checkpoints and final polish,
            # reproduced exactly — the cross-check reference.
            for k in range(max_iterations):
                prices = membership_t.dot(mult)
                prices += q
                x = best_response(prices)
                loads = membership.dot(x)
                violation = loads - capacities
                step = step_scale / math.sqrt(offset + k + 1.0)
                mult = np.maximum(0.0, mult + step * violation)
                if (k + 1) % check_every == 0 or k == max_iterations - 1:
                    repaired, repaired_loads = repair(x.copy(), loads, violation)
                    if feasible_loads(repaired, repaired_loads) is not None:
                        objective = _relaxed_objective(combo, repaired, V, q)
                        if objective > best_objective:
                            best_objective = objective
                            best_x = repaired

        self.stats["dual_iterations"] += used
        if warm_enabled:
            # Seed the next combination (or the next slot's binding) with the
            # multipliers of the best dual bound seen — the last subgradient
            # iterate oscillates; the best iterate is the tight one.  Direct
            # solves store their exact multipliers (zero, or λ* on the
            # budget row).
            if direct:
                final_mult = direct_mult
            else:
                final_mult = mult if best_mult is None else best_mult
            final_offset = min(offset + used, options.step_offset_cap)
            structure.warm_mult[order_array] = final_mult
            structure.warm_ready = True
            structure.step_offset = final_offset
            structure.combo_warm[combo_key] = (final_mult, final_offset)

        if best_x is None:
            best_x = repair(x.copy())[0]
            polished_final = False
        if direct:
            # The direct solutions are exact optima of the separable concave
            # relaxation; the coordinate-wise polish is a no-op on them.
            pass
        elif polished_final and x_unconstrained is not None:
            # Horizon mode: in-loop candidates saw only the vectorised
            # water-fill; the winner gets the full legacy polish effort.
            best_x = polish(best_x)
        elif polished_final:
            # The winning candidate saw one polish round in the loop; give it
            # the remaining rounds to reach the legacy polish effort.
            best_x = polish(best_x, rounds=max(options.polish_rounds - 1, 0))
        else:
            best_x = polish(best_x)
        guard = guard_hooks.get()
        if guard is not None:
            # Strict-level dual certificates: multipliers stay finite and
            # non-negative, and the best dual value bounds the best feasible
            # primal value (weak duality).  Observational only — the solve
            # itself is untouched.
            guard.check_kernel_dual(
                best_dual,
                best_objective,
                multipliers=direct_mult
                if direct
                else (best_mult if best_mult is not None else mult),
                gap_tolerance=gap_tolerance,
            )
        return self._finalise(
            combo, memo_key, keys, capacities, upper, best_x, used
        )

    # ------------------------------------------------------------------ #
    # Shared integer stage (down-round + surplus) of a relaxed solution
    # ------------------------------------------------------------------ #
    def _finalise(
        self,
        combo: _ComboStructure,
        memo_key: Tuple,
        keys: List[Tuple[object, Tuple[object, object]]],
        capacities: np.ndarray,
        upper: np.ndarray,
        best_x: np.ndarray,
        used: int,
    ) -> "AllocationOutcome":
        """Round a (polished) relaxed point and build the cached outcome.

        Runs under the caller's ``np.errstate``.
        """
        V = self._utility_weight
        q = self._cost_weight
        membership = combo.membership
        lower = combo.lower
        tolerance = self._options.feasibility_tolerance

        relaxed = ContinuousSolution(
            values=tuple(best_x.tolist()),
            objective=_relaxed_objective(combo, best_x, V, q),
            feasible=not (
                _any(best_x < lower - tolerance)
                or _any(membership.dot(best_x) > capacities + tolerance)
            ),
            iterations=used,
        )

        # ----- down-round and hand out the surplus ----------------------- #
        floored = np.maximum(np.floor(best_x + 1e-9), 1.0)
        loads: Optional[np.ndarray] = None
        if relaxed.feasible and not _any(floored < lower - 1e-6):
            loads = membership.dot(floored)
            if _any(loads > capacities + 1e-6):
                loads = None
        if loads is None:
            values = floored.tolist()
            rounded = IntegerSolution(
                values=tuple(map(int, values)),
                objective=_integer_objective(combo.p_list, values, V, q),
                feasible=False,
            )
            return self._build_outcome(memo_key, keys, relaxed, rounded)

        slack_total = float(_add_reduce(np.maximum(capacities - loads, 0.0)))
        surplus_pass(
            floored, upper, combo.p, V, q, loads, capacities, combo.rows_local,
            int(slack_total) + combo.n,
        )
        values = floored.tolist()
        objective = _integer_objective(combo.p_list, values, V, q)
        if not math.isfinite(objective):
            objective = float("-inf")
        rounded = IntegerSolution(
            values=tuple(map(int, values)), objective=objective, feasible=True
        )
        return self._build_outcome(memo_key, keys, relaxed, rounded)

    def _build_outcome(
        self,
        memo_key: Tuple,
        keys: List[Tuple[object, Tuple[object, object]]],
        relaxed: ContinuousSolution,
        rounded: IntegerSolution,
        store: bool = True,
    ) -> "AllocationOutcome":
        """The single point where solved pairs enter the memo and become outcomes."""
        guard = guard_hooks.get()
        if guard is not None:
            guard.check_kernel_solution(relaxed, rounded)
        if store:
            structure = self._structure
            structure.solve_memo[memo_key] = (relaxed, rounded)
            while len(structure.solve_memo) > MAX_SOLVE_MEMO:
                structure.solve_memo.popitem(last=False)
        allocation = {
            key: int(value) for key, value in zip(keys, rounded.values)
        }
        return _outcome_class()(
            allocation=allocation,
            objective=rounded.objective,
            feasible=rounded.feasible,
            cost=int(sum(rounded.values)) if rounded.feasible else 0,
            integer_solution=rounded,
            relaxed_solution=relaxed,
        )


class KernelCache:
    """Horizon-scoped cache of compiled structures and aggregate kernel stats.

    Owned by one :class:`~repro.core.per_slot.PerSlotSolver` (i.e. one
    policy): route selectors call :meth:`bind` once per select — across the
    drop-retry loop, consecutive slots and whole horizons — and get back a
    :class:`SlotKernel` bound to the slot's right-hand sides but sharing the
    compiled structure and the carried warm-start duals.  Across binds the
    cache keeps the route blocks, the warm multipliers, the solve memo and
    the combination keys; each binding compiles the combination layouts it
    needs, and they are released with it at the next :meth:`bind`.  The
    cache is strictly per-process and per-policy, so parallel study workers
    (which each build their own solvers) stay byte-identical to serial runs.
    """

    def __init__(self, max_structures: int = 4) -> None:
        if max_structures < 1:
            raise ValueError("max_structures must be at least 1")
        self.max_structures = int(max_structures)
        self._structures: "OrderedDict[Tuple, CompiledStructure]" = OrderedDict()
        self._last_kernel: Optional[SlotKernel] = None
        self._totals: Dict[str, int] = {key: 0 for key in STAT_KEYS}
        self._totals["binds"] = 0
        self._totals["structure_compiles"] = 0
        self._totals["evaluations"] = 0

    # ------------------------------------------------------------------ #
    # Binding
    # ------------------------------------------------------------------ #
    def bind(
        self,
        allocator,
        context: "SlotContext",
        requests: Sequence["SDPair"],
        candidate_routes: Sequence[Sequence["Route"]],
        utility_weight: float = 1.0,
        cost_weight: float = 0.0,
        budget_cap: Optional[float] = None,
        dual_tolerance: Optional[float] = None,
        warm_start: bool = True,
    ) -> Optional[SlotKernel]:
        """Bind a kernel for this slot, compiling the structure only on miss.

        Returns ``None`` when the allocator's relaxed solver does not map
        onto the kernel (callers fall back to the legacy object path).
        """
        options = kernel_options_for(
            allocator.solver,
            dual_tolerance=dual_tolerance,
            warm_start=warm_start,
            horizon_mode=True,
        )
        if options is None:
            return None
        self._flush_last()
        signature = structure_signature(context.graph)
        structure = self._structures.get(signature)
        if structure is None:
            structure = CompiledStructure(context.graph)
            self._structures[signature] = structure
            self._totals["structure_compiles"] += 1
            while len(self._structures) > self.max_structures:
                self._structures.popitem(last=False)
        else:
            self._structures.move_to_end(signature)
        self._totals["binds"] += 1
        kernel = SlotKernel(
            context=context,
            requests=requests,
            candidate_routes=candidate_routes,
            utility_weight=utility_weight,
            cost_weight=cost_weight,
            budget_cap=budget_cap,
            options=options,
            structure=structure,
        )
        self._last_kernel = kernel
        return kernel

    # ------------------------------------------------------------------ #
    # Stats & lifecycle
    # ------------------------------------------------------------------ #
    def _flush_last(self) -> None:
        kernel = self._last_kernel
        if kernel is None:
            return
        for key in STAT_KEYS:
            self._totals[key] += kernel.stats.get(key, 0)
        self._totals["evaluations"] += kernel.evaluations
        self._last_kernel = None

    def aggregate_stats(self) -> Dict[str, int]:
        """Horizon totals: binds, structure compiles, solves, cache hits, …

        ``binds - structure_compiles`` is the number of *re-binds* — slots
        (or drop-retry iterations) that reused a compiled structure instead
        of recompiling it.
        """
        self._flush_last()
        totals = dict(self._totals)
        totals["rebinds"] = totals["binds"] - totals["structure_compiles"]
        return totals

    def reset(self) -> None:
        """Drop all structures, warm state and totals (fresh-run semantics)."""
        self._structures.clear()
        self._last_kernel = None
        for key in self._totals:
            self._totals[key] = 0
