"""Solvers for the continuous relaxation of the qubit-allocation problem.

The paper's Algorithm 2 relaxes the integrality constraint ``n_e ∈ Z₊₊`` to
``n_e >= 1``; Proposition 1 shows the relaxed problem is convex (the
objective is a sum of concave ``V·log P_e(n_e) − q·n_e`` terms and the
constraints are linear).  Two solvers are provided:

* :class:`DualDecompositionSolver` — the default.  It dualises the capacity
  constraints; for fixed multipliers the Lagrangian separates per variable
  and each one-dimensional subproblem has a closed-form maximiser, so a
  projected-subgradient ascent on the multipliers converges quickly.  A
  final feasibility repair plus a coordinate polish make the primal output
  reliable.
* :class:`SLSQPSolver` — a scipy-based reference solver used to cross-check
  the dual solver in tests and ablations.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.solvers.allocation_problem import AllocationProblem, ContinuousSolution
from repro.utils.validation import check_positive


class RelaxedSolver(ABC):
    """Solves the continuous relaxation of an :class:`AllocationProblem`."""

    @abstractmethod
    def solve(self, problem: AllocationProblem) -> ContinuousSolution:
        """Return the (approximately) optimal relaxed allocation ``ñ*``."""


def _closed_form_best_response(
    prices: np.ndarray,
    slot_successes: np.ndarray,
    utility_weight: float,
    lower: np.ndarray,
    upper: np.ndarray,
) -> np.ndarray:
    """Maximise ``V log(1-(1-p)^x) - price·x`` per variable over ``[lower, upper]``.

    The stationary point solves ``V·a·(1-p)^x / (1-(1-p)^x) = price`` with
    ``a = -ln(1-p)``, i.e. ``x = ln((1+s)/s)/a`` where ``s = price/(V·a)``.
    Non-positive prices push the allocation to the upper bound; degenerate
    probabilities (p=0 or p=1) fall back to the bounds directly.
    """
    x = np.empty_like(prices)
    a = -np.log1p(-np.clip(slot_successes, 0.0, 1.0 - 1e-15))
    degenerate = (slot_successes <= 0.0) | (slot_successes >= 1.0) | (a <= 0.0)
    non_positive_price = prices <= 0.0

    # Non-positive price: utility is increasing, take the upper bound.
    x[non_positive_price] = upper[non_positive_price]

    # Degenerate probabilities with positive price: allocate the minimum
    # (p=1 gains nothing from more channels; p=0 gains nothing at all).
    deg_pos = degenerate & ~non_positive_price
    x[deg_pos] = lower[deg_pos]

    regular = ~degenerate & ~non_positive_price
    if np.any(regular):
        s = prices[regular] / (utility_weight * a[regular])
        with np.errstate(divide="ignore", over="ignore"):
            stationary = np.log1p(1.0 / s) / a[regular]
        x[regular] = stationary
    return np.clip(x, lower, upper)


def cyclic_coordinate_polish(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    successes: np.ndarray,
    utility_weight: float,
    cost_weight: float,
    loads: np.ndarray,
    capacities: np.ndarray,
    var_rows: Sequence[Sequence[int]],
    rounds: int,
) -> np.ndarray:
    """Exact cyclic coordinate maximisation within residual capacities.

    Each coordinate is set to its closed-form maximiser given the residual
    capacity of the constraints it belongs to (``var_rows[i]`` lists the
    constraint rows of variable ``i``; ``loads`` is updated in place
    alongside ``x``, a float array).  Shared by
    :class:`DualDecompositionSolver` and the compiled slot kernel so both
    paths polish to the same point.  The sweep runs on Python floats (the
    same IEEE double operations as on NumPy scalars, without the boxing),
    and each coordinate's unconstrained maximiser, which does not depend on
    ``x``, is computed once rather than once per round.
    """
    n = int(x.shape[0])
    if rounds <= 0 or n == 0:
        return x
    price = float(cost_weight)
    xs = x.tolist()
    row_loads = loads.tolist()
    caps = np.asarray(capacities, dtype=float).tolist()
    lows = np.asarray(lower, dtype=float).tolist()
    highs = np.asarray(upper, dtype=float).tolist()

    # targets[i]: None takes the capacity-limited upper end, a float is
    # clamped into [lo, hi] (a degenerate coordinate's target is lo itself).
    targets: List[Optional[float]] = []
    for i in range(n):
        lo = lows[i]
        if price <= 0.0:
            target = None
        else:
            p_i = float(successes[i])
            if p_i <= 0.0 or p_i >= 1.0:
                target = lo
            else:
                a_i = -math.log1p(-min(p_i, 1.0 - 1e-15))
                va_i = utility_weight * a_i
                if va_i <= 0.0:
                    # s would be +inf: the stationary point is 0,
                    # clipped up to the lower bound.
                    target = lo
                else:
                    s = price / va_i
                    if s == 0.0:
                        # Underflowed price: 1/s is +inf, the stationary
                        # point exceeds any bound.
                        target = None
                    else:
                        target = math.log1p(1.0 / s) / a_i
        targets.append(target)

    for _ in range(rounds):
        for i in range(n):
            hi = highs[i]
            xi = xs[i]
            rows = var_rows[i]
            for r in rows:
                headroom = caps[r] - (row_loads[r] - xi)
                if headroom < hi:
                    hi = headroom
            lo = lows[i]
            if hi < lo:
                continue
            best = targets[i]
            if best is None:
                best = hi
            elif best < lo:
                best = lo
            elif best > hi:
                best = hi
            delta = best - xi
            if abs(delta) > 1e-12:
                for r in rows:
                    row_loads[r] += delta
                xs[i] = best
    x[:] = xs
    loads[:] = row_loads
    return x


@dataclass
class DualDecompositionSolver(RelaxedSolver):
    """Lagrangian dual solver with closed-form inner maximisation.

    Parameters
    ----------
    iterations:
        Number of projected-subgradient steps on the dual multipliers.
    initial_step:
        Initial step size; the step decays as ``initial_step / sqrt(k + 1)``.
        ``None`` picks a scale automatically from the problem data.
    polish_rounds:
        Number of cyclic coordinate-maximisation passes applied to the
        repaired primal point (each pass is exact per coordinate given the
        residual capacities), which removes most of the subgradient noise.
    primal_check_every:
        How often (in dual iterations) the current dual point is repaired to
        a feasible primal candidate; checking every iteration would be
        wasteful because consecutive dual points barely differ.
    tolerance:
        Constraint-violation tolerance used for the feasibility flag.
    """

    iterations: int = 150
    initial_step: Optional[float] = None
    polish_rounds: int = 2
    primal_check_every: int = 25
    tolerance: float = 1e-6

    def __post_init__(self) -> None:
        check_positive(self.iterations, "iterations")
        check_positive(self.primal_check_every, "primal_check_every")
        if self.polish_rounds < 0:
            raise ValueError("polish_rounds must be non-negative")

    def solve(self, problem: AllocationProblem) -> ContinuousSolution:
        n = problem.num_variables
        if n == 0:
            return ContinuousSolution(values=(), objective=0.0, feasible=True)
        lower = problem.lower_bounds()
        upper = problem.upper_bounds()
        successes = problem.slot_successes()
        constraints = problem.constraints

        if not problem.lower_bound_feasible():
            values = tuple(float(v) for v in lower)
            return ContinuousSolution(
                values=values,
                objective=problem.objective_array(lower),
                feasible=False,
            )

        if not constraints:
            prices = np.full(n, problem.cost_weight)
            x = _closed_form_best_response(
                prices, successes, problem.utility_weight, lower, upper
            )
            return ContinuousSolution(
                values=tuple(float(v) for v in x),
                objective=problem.objective_array(x),
                feasible=True,
                iterations=1,
            )

        # Constraint-membership matrix: A[c, i] = 1 iff variable i belongs to
        # constraint c.  All per-iteration work becomes dense linear algebra
        # on tiny matrices, which keeps a full solve in the low-millisecond
        # range even from pure Python.
        num_constraints = len(constraints)
        membership_matrix = np.zeros((num_constraints, n), dtype=float)
        for index, constraint in enumerate(constraints):
            membership_matrix[index, list(constraint.members)] = 1.0
        capacities = np.asarray([c.capacity for c in constraints], dtype=float)
        multipliers = np.zeros(num_constraints, dtype=float)

        step_scale = self.initial_step
        if step_scale is None:
            # Scale the step with the objective's natural magnitude so the
            # same solver works for V=1 baselines and V=2500 OSCAR problems.
            step_scale = max(problem.utility_weight, 1.0) / max(capacities.max(), 1.0)

        best_x: Optional[np.ndarray] = None
        best_objective = -math.inf
        x = lower.copy()
        base_prices = np.full(n, problem.cost_weight)
        membership_t = membership_matrix.T.copy()

        # Precompute the per-variable constants of the closed-form inner
        # maximiser: a = -ln(1-p) and V*a.  Degenerate probabilities (p=0 or
        # p=1) are handled by the generic helper instead of the fast path.
        degenerate = (successes <= 0.0) | (successes >= 1.0)
        fast_path = not bool(np.any(degenerate))
        a = -np.log1p(-np.clip(successes, 0.0, 1.0 - 1e-15))
        va = problem.utility_weight * a

        for k in range(self.iterations):
            prices = base_prices + membership_t @ multipliers
            if fast_path:
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    x = np.log1p(va / np.maximum(prices, 1e-300)) / a
                x = np.where(prices <= 0.0, upper, x)
                np.clip(x, lower, upper, out=x)
            else:
                x = _closed_form_best_response(
                    prices, successes, problem.utility_weight, lower, upper
                )
            # Subgradient of the dual: constraint loads minus capacities.
            violation = membership_matrix @ x - capacities
            step = step_scale / math.sqrt(k + 1.0)
            multipliers = np.maximum(0.0, multipliers + step * violation)

            if (k + 1) % self.primal_check_every == 0 or k == self.iterations - 1:
                repaired = problem.repair_feasibility(x.copy())
                if problem.is_feasible(repaired, self.tolerance):
                    objective = problem.objective_array(repaired)
                    if objective > best_objective:
                        best_objective = objective
                        best_x = repaired

        if best_x is None:
            best_x = problem.repair_feasibility(x.copy())
            best_objective = problem.objective_array(best_x)

        best_x = self._polish(problem, best_x)
        best_objective = problem.objective_array(best_x)
        feasible = problem.is_feasible(best_x, self.tolerance)
        return ContinuousSolution(
            values=tuple(float(v) for v in best_x),
            objective=best_objective,
            feasible=feasible,
            iterations=self.iterations,
        )

    def _polish(self, problem: AllocationProblem, x: np.ndarray) -> np.ndarray:
        """Cyclic exact coordinate maximisation within the residual capacities."""
        if self.polish_rounds == 0:
            return x
        constraints = problem.constraints
        var_constraints: list = [[] for _ in range(problem.num_variables)]
        for c_index, constraint in enumerate(constraints):
            for member in constraint.members:
                var_constraints[member].append(c_index)
        loads = np.asarray([c.load(x) for c in constraints], dtype=float)
        capacities = np.asarray([c.capacity for c in constraints], dtype=float)
        return cyclic_coordinate_polish(
            x,
            problem.lower_bounds(),
            problem.upper_bounds(),
            problem.slot_successes(),
            problem.utility_weight,
            problem.cost_weight,
            loads,
            capacities,
            var_constraints,
            self.polish_rounds,
        )


@dataclass
class SLSQPSolver(RelaxedSolver):
    """Reference solver based on :func:`scipy.optimize.minimize` (SLSQP).

    Slower than :class:`DualDecompositionSolver` but useful as an independent
    cross-check; the unit tests assert that the two agree on random
    instances.
    """

    max_iterations: int = 200
    tolerance: float = 1e-9

    def solve(self, problem: AllocationProblem) -> ContinuousSolution:
        n = problem.num_variables
        if n == 0:
            return ContinuousSolution(values=(), objective=0.0, feasible=True)
        lower = problem.lower_bounds()
        upper = problem.upper_bounds()
        if not problem.lower_bound_feasible():
            return ContinuousSolution(
                values=tuple(float(v) for v in lower),
                objective=problem.objective_array(lower),
                feasible=False,
            )

        def negative_objective(x: np.ndarray) -> float:
            return -problem.objective_array(np.clip(x, lower, None))

        def negative_gradient(x: np.ndarray) -> np.ndarray:
            return -problem.gradient(np.clip(x, lower, None))

        scipy_constraints = []
        for constraint in problem.constraints:
            members = np.asarray(constraint.members, dtype=int)
            capacity = constraint.capacity

            def make_fun(members=members, capacity=capacity):
                return lambda x: capacity - x[members].sum()

            scipy_constraints.append({"type": "ineq", "fun": make_fun()})

        # Imported here, not at module level: scipy costs tens of MB and about
        # a second to load, and only this reference solver uses it.
        from scipy import optimize

        bounds = [(float(lo), float(hi) if math.isfinite(hi) else None) for lo, hi in zip(lower, upper)]
        start = np.clip(lower + 0.5, lower, upper)
        result = optimize.minimize(
            negative_objective,
            start,
            jac=negative_gradient,
            bounds=bounds,
            constraints=scipy_constraints,
            method="SLSQP",
            options={"maxiter": self.max_iterations, "ftol": self.tolerance},
        )
        x = problem.repair_feasibility(np.asarray(result.x, dtype=float))
        return ContinuousSolution(
            values=tuple(float(v) for v in x),
            objective=problem.objective_array(x),
            feasible=problem.is_feasible(x, 1e-6),
            iterations=int(result.nit) if hasattr(result, "nit") else 0,
        )
