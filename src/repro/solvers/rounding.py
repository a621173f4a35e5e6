"""Rounding of relaxed allocations (Algorithm 2, step 4).

The paper rounds the relaxed optimum ``ñ*`` by *down-rounding* each value
(never below the lower bound of one channel) and then re-allocating any
capacity surplus to edges that can still accept it.  Down-rounding keeps
the allocation feasible, the surplus pass only adds channels where all
constraints still have slack, and the resulting integer solution satisfies
``n* >= 1`` and ``ñ* − n* <= 1`` (paper, Eq. 8), which drives the
``Δ``-optimality bound of Proposition 2.

The surplus pass operates on flat arrays (:func:`surplus_pass`) so the same
routine serves both the legacy object path and the compiled slot kernel:
the initial marginal gains are vectorised, and each increment updates only
the one gain and the few rows it touches.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.network.channels import log_multi_channel_success_unchecked as _log_success
from repro.solvers.allocation_problem import (
    AllocationProblem,
    ContinuousSolution,
    IntegerSolution,
)

#: Minimal gain that justifies handing out one more surplus channel.
_GAIN_EPSILON = 1e-12


def _marginal_gain(
    slot_success: float, value: float, utility_weight: float, cost_weight: float
) -> float:
    """Objective gain of one extra channel: ``V·[log P(n+1) − log P(n)] − q``.

    ``-inf`` marks variables that can never profit (``p = 0`` yields a
    ``-inf − -inf`` marginal in the object path, which is equally never
    selected).
    """
    if slot_success <= 0.0:
        return float("-inf")
    gain = _log_success(slot_success, value + 1.0) - _log_success(slot_success, value)
    if math.isnan(gain):
        return float("-inf")
    return utility_weight * gain - cost_weight


def surplus_pass(
    values: np.ndarray,
    upper: np.ndarray,
    slot_successes: Sequence[float],
    utility_weight: float,
    cost_weight: float,
    loads: np.ndarray,
    capacities: np.ndarray,
    var_rows: Sequence[Sequence[int]],
    max_passes: int,
) -> None:
    """Greedily hand out leftover capacity, one channel at a time (in place).

    ``values`` (float array of integral values) and ``loads`` are updated in
    place; ``var_rows[i]`` lists the constraint rows variable ``i`` belongs
    to.  Each pass increments the variable with the largest positive
    marginal gain among those whose constraints all retain at least one unit
    of slack; near-ties (within 1e-12) resolve to the lowest index, matching
    the original scan order.

    Eligibility only ever shrinks (values and loads only grow), so it is
    gathered once and then maintained incrementally: after an increment only
    the rows of the incremented variable can lose slack, and only the
    members of a row that just ran out of it drop out.  The increments run
    on Python floats: the same IEEE double operations as on NumPy scalars,
    without a dispatch per tiny array.  The weights must be finite (a NaN
    gain would make NumPy's and Python's maxima disagree).
    """
    n = int(values.shape[0])
    if n == 0 or max_passes <= 0:
        return

    rows_of = var_rows.tolist() if isinstance(var_rows, np.ndarray) else var_rows

    # Initial marginal gains, vectorised: V·[log P(n+1) − log P(n)] − q with
    # the degenerate probabilities pinned exactly as _marginal_gain pins them.
    p = np.asarray(slot_successes, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        lp = np.log1p(-np.clip(p, 0.0, 1.0 - 1e-15))
        new_log = np.log(-np.expm1((values + 1.0) * lp))
        old_log = np.log(-np.expm1(values * lp))
        gains = utility_weight * (new_log - old_log) - cost_weight
    gains[p <= 0.0] = -math.inf
    gains[p >= 1.0] = -cost_weight
    gains[np.isnan(gains)] = -math.inf

    current = values.tolist()
    limits = upper.tolist()
    row_loads = loads.tolist()
    caps = capacities.tolist()
    # ``masked`` is the gain of every still-eligible variable, -inf elsewhere.
    masked = gains.tolist()
    for i in range(n):
        if current[i] + 1.0 <= limits[i] + 1e-9:
            for r in rows_of[i]:
                if not caps[r] - row_loads[r] >= 1.0 - 1e-9:
                    masked[i] = -math.inf
                    break
        else:
            masked[i] = -math.inf
    for _ in range(max_passes):
        best_gain = max(masked)
        if best_gain <= _GAIN_EPSILON:
            break
        if math.isinf(best_gain):
            best_index = masked.index(math.inf)
        else:
            # The first gain within epsilon of the best.  A gain so large
            # that subtracting epsilon leaves it unchanged has nothing
            # compare greater; index 0 is then taken, as it always was.
            cutoff = best_gain - _GAIN_EPSILON
            for best_index, gain in enumerate(masked):
                if gain > cutoff:
                    break
            else:
                best_index = 0
        value = current[best_index] + 1.0
        current[best_index] = value
        gain = _marginal_gain(
            float(slot_successes[best_index]), value, utility_weight, cost_weight
        )
        masked[best_index] = (
            gain if value + 1.0 <= limits[best_index] + 1e-9 else -math.inf
        )
        # A repeated row is loaded once, as ``loads[rows] += 1`` would.
        for r in dict.fromkeys(rows_of[best_index]):
            load = row_loads[r] + 1.0
            row_loads[r] = load
            if not caps[r] - load >= 1.0 - 1e-9:
                for i, rows in enumerate(rows_of):
                    if r in rows:
                        masked[i] = -math.inf
    values[:] = current
    loads[:] = row_loads


def round_down_with_surplus(
    problem: AllocationProblem,
    relaxed: ContinuousSolution,
    max_surplus_passes: Optional[int] = None,
) -> IntegerSolution:
    """Down-round a relaxed solution and greedily hand out leftover capacity.

    The surplus pass repeatedly adds one channel to the variable with the
    largest positive marginal objective gain (``V·[log P(n+1) − log P(n)] −
    q``) among variables whose constraints all still have at least one unit
    of slack; it stops when no variable can be incremented profitably.
    ``max_surplus_passes`` bounds the number of increments (defaults to the
    total remaining integer capacity, which always terminates).
    """
    n = problem.num_variables
    if n == 0:
        return IntegerSolution(values=(), objective=0.0, feasible=True)

    lower = problem.lower_bounds()
    relaxed_values = relaxed.as_array()
    floored = np.maximum(np.floor(relaxed_values + 1e-9), np.ceil(lower - 1e-9))
    values = floored.astype(int)

    feasible = problem.is_feasible(values) and relaxed.feasible
    if not feasible:
        # The relaxed point itself was infeasible (e.g. the all-ones
        # allocation does not fit); report the floored point without trying
        # to "fix" it, so callers can reject this route combination.
        return IntegerSolution(
            values=tuple(int(v) for v in values),
            objective=problem.objective(values),
            feasible=False,
        )

    constraints = problem.constraints
    capacities = np.asarray([c.capacity for c in constraints], dtype=float)
    loads = np.asarray([c.load(values) for c in constraints], dtype=float)
    var_constraints: List[List[int]] = [[] for _ in range(n)]
    for c_index, constraint in enumerate(constraints):
        for member in constraint.members:
            var_constraints[member].append(c_index)

    if max_surplus_passes is None:
        slack_total = float(np.sum(np.maximum(capacities - loads, 0.0))) if len(constraints) else 0.0
        max_surplus_passes = int(slack_total) + n

    working = values.astype(float)
    surplus_pass(
        working,
        problem.upper_bounds(),
        problem.slot_successes(),
        problem.utility_weight,
        problem.cost_weight,
        loads,
        capacities,
        var_constraints,
        max_surplus_passes,
    )
    values = working.astype(int)

    objective = problem.objective(values)
    # Guard against pathological float issues: the returned point must be
    # feasible because we only incremented where slack existed.
    assert problem.is_feasible(values), "surplus allocation produced an infeasible point"
    if not math.isfinite(objective):
        objective = float("-inf")
    return IntegerSolution(
        values=tuple(int(v) for v in values),
        objective=objective,
        feasible=True,
    )
