"""Bit-identity oracles for the compiled slot kernel's hot helpers.

These are the straightforward implementations of the kernel's combination
layout (:class:`ReferenceComboStructure`), the integer surplus pass
(:func:`reference_surplus_pass`) and the cyclic coordinate polish
(:func:`reference_cyclic_coordinate_polish`): every field built eagerly,
eligibility re-gathered on every surplus increment, NumPy scalars throughout.
The shipped versions in :mod:`repro.solvers.kernel`,
:mod:`repro.solvers.rounding` and :mod:`repro.solvers.relaxed` must produce
exactly the same arrays and floats; ``tests/test_kernel_oracles.py`` holds
them to that, field by field and solve by solve.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.network.channels import log_multi_channel_success

#: Minimal gain that justifies handing out one more surplus channel.
_GAIN_EPSILON = 1e-12


class ReferenceComboStructure:
    """Static arrays of one route combination (request- and slot-independent).

    Everything here depends only on which routes were combined (and whether a
    budget row is active) — membership matrices, the legacy first-touch
    constraint ordering, probability tables — so it is compiled once per
    distinct route multiset and reused across slots and request sets.
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
        "membership",
        "membership_t",
        "var_rows",
        "row_members",
        "lower",
        "lower_loads",
        "block_hops",
    )

    def __init__(
        self, blocks: Sequence["_RouteBlock"], budget_row: Optional[int]
    ) -> None:
        n = sum(block.hops for block in blocks)
        self.n = n
        self.block_hops = [block.hops for block in blocks]
        self.p = np.concatenate([block.p for block in blocks])
        self.p_list = [v for block in blocks for v in block.p_list]
        triples = np.vstack([block.row_triples for block in blocks])

        # Active constraints, ordered exactly as the legacy problem builder
        # orders them (nodes by first touch, then edges, then the budget) so
        # the repair pass visits them in the same sequence.
        seen_nodes: Dict[int, None] = {}
        seen_edges: Dict[int, None] = {}
        for u_row, v_row, e_row in triples.tolist():
            if u_row not in seen_nodes:
                seen_nodes[u_row] = None
            if v_row not in seen_nodes:
                seen_nodes[v_row] = None
            if e_row not in seen_edges:
                seen_edges[e_row] = None
        order: List[int] = list(seen_nodes) + list(seen_edges)
        if budget_row is not None:
            order.append(budget_row)
        self.order_array = np.asarray(order, dtype=np.intp)
        m = len(order)
        self.m = m

        local: Dict[int, int] = {row: i for i, row in enumerate(order)}
        rows_local = np.asarray(
            [local[int(row)] for row in triples.ravel()], dtype=np.intp
        ).reshape(triples.shape)
        if budget_row is not None:
            rows_local = np.hstack(
                [rows_local, np.full((n, 1), m - 1, dtype=np.intp)]
            )
        self.rows_local = rows_local
        width = rows_local.shape[1]

        membership = np.zeros((m, n), dtype=float)
        membership[rows_local.ravel(), np.repeat(np.arange(n), width)] = 1.0
        self.membership = membership
        self.membership_t = membership.T.copy()
        self.var_rows = [rows_local[i] for i in range(n)]
        self.row_members = [np.nonzero(membership[r])[0] for r in range(m)]

        self.lower = np.ones(n, dtype=float)
        self.lower_loads = membership.sum(axis=1)

        p = self.p
        degenerate = (p <= 0.0) | (p >= 1.0)
        self.fast_path = not bool(np.any(degenerate))
        self.a = -np.log1p(-np.clip(p, 0.0, 1.0 - 1e-15))
        self.neg_log1p = np.log1p(-p)


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
    gain = log_multi_channel_success(slot_success, value + 1.0) - log_multi_channel_success(
        slot_success, value
    )
    if math.isnan(gain):
        return float("-inf")
    return utility_weight * gain - cost_weight


def reference_surplus_pass(
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
    """
    n = int(values.shape[0])
    if n == 0 or max_passes <= 0:
        return
    m = int(capacities.shape[0])

    # Pad the per-variable row lists into a rectangular gather matrix; the
    # dummy row m has infinite slack so it never masks anything.  A 2-D
    # index array (the kernel's compiled form) is used as-is.
    if isinstance(var_rows, np.ndarray) and var_rows.ndim == 2:
        rows_matrix = var_rows
    else:
        width = max((len(rows) for rows in var_rows), default=0)
        if width == 0:
            rows_matrix = np.full((n, 1), m, dtype=np.intp)
        else:
            rows_matrix = np.full((n, width), m, dtype=np.intp)
            for i, rows in enumerate(var_rows):
                if len(rows):
                    rows_matrix[i, : len(rows)] = rows

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

    slack_ext = np.empty(m + 1, dtype=float)
    slack_ext[m] = math.inf
    for _ in range(max_passes):
        slack_ext[:m] = capacities - loads
        eligible = (values + 1.0 <= upper + 1e-9) & (
            slack_ext[rows_matrix].min(axis=1) >= 1.0 - 1e-9
        )
        masked = np.where(eligible, gains, -math.inf)
        best_gain = float(masked.max())
        if best_gain <= _GAIN_EPSILON:
            break
        if math.isinf(best_gain):
            best_index = int(np.argmax(np.isposinf(masked)))
        else:
            best_index = int(np.argmax(masked > best_gain - _GAIN_EPSILON))
        values[best_index] += 1.0
        rows = var_rows[best_index]
        if len(rows):
            loads[np.asarray(rows, dtype=np.intp)] += 1.0
        gains[best_index] = _marginal_gain(
            float(slot_successes[best_index]),
            float(values[best_index]),
            utility_weight,
            cost_weight,
        )


def reference_cyclic_coordinate_polish(
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
    alongside ``x``).  Shared by :class:`DualDecompositionSolver` and the
    compiled slot kernel so both paths polish to the same point; scalar
    arithmetic per coordinate replaces the former per-coordinate
    ``np.asarray([...])`` round trips.
    """
    price = float(cost_weight)
    n = int(x.shape[0])
    for _ in range(rounds):
        for i in range(n):
            hi = float(upper[i])
            xi = float(x[i])
            rows = var_rows[i]
            for r in rows:
                headroom = float(capacities[r]) - (float(loads[r]) - xi)
                if headroom < hi:
                    hi = headroom
            lo = float(lower[i])
            if hi < lo:
                continue
            if price <= 0.0:
                best = hi
            else:
                p_i = float(successes[i])
                if p_i <= 0.0 or p_i >= 1.0:
                    best = lo
                else:
                    a_i = -math.log1p(-min(p_i, 1.0 - 1e-15))
                    va_i = utility_weight * a_i
                    if va_i <= 0.0:
                        # s would be +inf: the stationary point is 0,
                        # clipped up to the lower bound.
                        best = lo
                    else:
                        s = price / va_i
                        if s == 0.0:
                            # Underflowed price: 1/s is +inf, the stationary
                            # point exceeds any bound.
                            best = hi
                        else:
                            best = math.log1p(1.0 / s) / a_i
                            if best < lo:
                                best = lo
                            elif best > hi:
                                best = hi
            delta = best - xi
            if abs(delta) > 1e-12:
                for r in rows:
                    loads[r] += delta
                x[i] = best
    return x
