"""Bit-identity of the kernel's hot helpers against their reference oracles.

The compiled slot kernel builds combination layouts lazily, runs the surplus
pass incrementally and the coordinate polish on Python floats.  Each of those
is an exact re-arrangement of the straightforward implementation kept in
``tests/oracles/kernel_reference.py``: the same floating-point operations in
the same order.  These tests hold them to exact equality (``np.array_equal``
plus identical bytes, ``==`` on floats), field by field on random instances
and outcome by outcome on whole Gibbs and exhaustive selections.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.kernel_reference import (
    ReferenceComboStructure,
    reference_cyclic_coordinate_polish,
    reference_surplus_pass,
)
from repro.core.problem import SlotContext
from repro.core.route_selection import ExhaustiveRouteSelector, GibbsRouteSelector
from repro.experiments.config import ExperimentConfig
from repro.solvers import kernel
from repro.solvers.kernel import KernelCache, _ComboStructure, _RouteBlock
from repro.solvers.relaxed import cyclic_coordinate_polish
from repro.solvers.rounding import surplus_pass

#: Probabilities with the degenerate ends and exact repeats (gain ties).
P_POOL = [0.0, 1.0, 0.3, 0.3, 0.05, 0.9, 1e-6, 0.5]

probabilities = st.one_of(st.sampled_from(P_POOL), st.floats(0.0, 1.0))
utility_weights = st.one_of(
    st.sampled_from([1.0, 2500.0, 1e5]), st.floats(0.1, 1e4)
)
cost_weights = st.one_of(st.sampled_from([0.0, 10.0]), st.floats(0.0, 100.0))


def assert_identical(new, reference) -> None:
    """Exact equality: same shape, dtype, values and bytes."""
    new = np.asarray(new)
    reference = np.asarray(reference)
    assert new.dtype == reference.dtype
    assert np.array_equal(new, reference)
    assert new.tobytes() == reference.tobytes()


# --------------------------------------------------------------------------- #
# Combination layout
# --------------------------------------------------------------------------- #
@st.composite
def route_blocks(draw):
    """Route blocks over a small row registry (nodes, then edges, then budget)."""
    num_nodes = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(num_nodes) for v in range(num_nodes) if u < v]
    edge_row = {pair: num_nodes + j for j, pair in enumerate(pairs)}
    budget_row = num_nodes + len(pairs)
    blocks = []
    for index in range(draw(st.integers(1, 4))):
        hops = draw(st.integers(0, 4))
        edges = [draw(st.sampled_from(pairs)) for _ in range(hops)]
        if draw(st.booleans()):
            edges = [(v, u) for u, v in edges]  # either endpoint first
        triples = [(u, v, edge_row[(min(u, v), max(u, v))]) for u, v in edges]
        p = np.asarray([draw(probabilities) for _ in edges], dtype=float)
        blocks.append(
            _RouteBlock(
                index=index,
                edge_keys=edges,
                p=p,
                row_triples=np.asarray(triples, dtype=np.intp).reshape(-1, 3),
            )
        )
    if all(block.hops == 0 for block in blocks):
        # The kernel never compiles an all-empty combination.
        blocks.append(
            _RouteBlock(
                index=len(blocks),
                edge_keys=[(0, 1)],
                p=np.asarray([draw(probabilities)]),
                row_triples=np.asarray([[0, 1, edge_row[(0, 1)]]], dtype=np.intp),
            )
        )
    return blocks, (budget_row if draw(st.booleans()) else None)


class TestComboStructureOracle:
    @settings(max_examples=200, deadline=None)
    @given(route_blocks())
    def test_every_field_matches_the_eager_reference(self, instance):
        blocks, budget_row = instance
        # p = 1 takes log1p(-1) = -inf in both builds, as in production.
        with np.errstate(divide="ignore"):
            combo = _ComboStructure(blocks, budget_row)
            reference = ReferenceComboStructure(blocks, budget_row)
        assert (combo.n, combo.m) == (reference.n, reference.m)
        assert combo.p_list == reference.p_list
        assert combo.fast_path == reference.fast_path
        for name in (
            "p", "a", "neg_log1p", "order_array", "rows_local", "lower",
            "lower_loads", "membership", "membership_t",
        ):
            assert_identical(getattr(combo, name), getattr(reference, name))
        # The products sum in memory order, so the layouts must match too.
        assert combo.membership.flags.c_contiguous
        assert combo.membership_t.flags.c_contiguous
        assert len(combo.var_rows) == len(reference.var_rows)
        for rows, reference_rows in zip(combo.var_rows, reference.var_rows):
            assert np.array_equal(rows, reference_rows)
        assert len(combo.row_members) == len(reference.row_members)
        for members, reference_members in zip(combo.row_members, reference.row_members):
            assert_identical(members, reference_members)

    def test_dense_layout_is_built_on_first_use_only(self):
        block = _RouteBlock(
            index=0, edge_keys=[(0, 1), (1, 2)], p=np.asarray([0.4, 0.6]),
            row_triples=np.asarray([[0, 1, 3], [1, 2, 4]], dtype=np.intp),
        )
        combo = _ComboStructure([block], budget_row=5)
        assert combo._membership is None and combo._row_members is None
        assert combo.membership is combo.membership
        assert combo._membership is not None


# --------------------------------------------------------------------------- #
# Surplus pass
# --------------------------------------------------------------------------- #
@st.composite
def surplus_instances(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    compiled = draw(st.booleans())
    if compiled:
        # The kernel's form: a rectangular array of distinct rows per variable.
        width = draw(st.integers(1, m))
        var_rows = np.asarray(
            [draw(st.permutations(range(m)))[:width] for _ in range(n)], dtype=np.intp
        )
        row_lists = var_rows.tolist()
    else:
        row_lists = [
            draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True))
            for _ in range(n)
        ]
        var_rows = row_lists
    values = np.asarray([float(draw(st.integers(1, 5))) for _ in range(n)])
    # A binding upper bound: some variables cannot take a single extra channel.
    upper = values + np.asarray([float(draw(st.integers(0, 4))) for _ in range(n)])
    p = [draw(probabilities) for _ in range(n)]
    loads = np.zeros(m)
    for i, rows in enumerate(row_lists):
        for r in rows:
            loads[r] += values[i]
    slack = []
    for _ in range(m):
        slack.append(
            draw(
                st.one_of(
                    st.integers(0, 6).map(float),
                    st.floats(0.0, 6.0),
                    st.just(math.inf),  # an infinite budget cap
                )
            )
        )
    capacities = loads + np.asarray(slack)
    finite_slack = sum(s for s in slack if math.isfinite(s))
    max_passes = draw(st.one_of(st.just(int(finite_slack) + n), st.integers(0, 40)))
    return dict(
        values=values, upper=upper, slot_successes=p,
        utility_weight=draw(utility_weights), cost_weight=draw(cost_weights),
        loads=loads, capacities=capacities, var_rows=var_rows,
        max_passes=max_passes,
    )


def run_surplus(function, instance):
    values = instance["values"].copy()
    loads = instance["loads"].copy()
    function(
        values, instance["upper"].copy(), list(instance["slot_successes"]),
        instance["utility_weight"], instance["cost_weight"], loads,
        instance["capacities"].copy(), instance["var_rows"], instance["max_passes"],
    )
    return values, loads


class TestSurplusPassOracle:
    @settings(max_examples=300, deadline=None)
    @given(surplus_instances())
    def test_in_place_values_and_loads_match_the_reference(self, instance):
        values, loads = run_surplus(surplus_pass, instance)
        ref_values, ref_loads = run_surplus(reference_surplus_pass, instance)
        assert_identical(values, ref_values)
        assert_identical(loads, ref_loads)

    def test_exact_gain_tie_goes_to_the_lowest_index(self):
        instance = dict(
            values=np.ones(3), upper=np.full(3, 5.0), slot_successes=[0.3, 0.3, 0.3],
            utility_weight=2500.0, cost_weight=10.0, loads=np.asarray([3.0]),
            capacities=np.asarray([4.0]), var_rows=[[0], [0], [0]], max_passes=4,
        )
        values, loads = run_surplus(surplus_pass, instance)
        ref_values, ref_loads = run_surplus(reference_surplus_pass, instance)
        assert values.tolist() == [2.0, 1.0, 1.0]
        assert_identical(values, ref_values)
        assert_identical(loads, ref_loads)

    def test_zero_cost_weight_fills_every_unit_of_slack(self):
        instance = dict(
            values=np.ones(2), upper=np.full(2, 10.0), slot_successes=[0.2, 0.7],
            utility_weight=1.0, cost_weight=0.0, loads=np.asarray([2.0, 1.0]),
            capacities=np.asarray([6.0, math.inf]), var_rows=[[0, 1], [0]],
            max_passes=20,
        )
        values, loads = run_surplus(surplus_pass, instance)
        ref_values, ref_loads = run_surplus(reference_surplus_pass, instance)
        assert loads[0] == 6.0
        assert_identical(values, ref_values)
        assert_identical(loads, ref_loads)


# --------------------------------------------------------------------------- #
# Cyclic coordinate polish
# --------------------------------------------------------------------------- #
@st.composite
def polish_instances(draw):
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 5))
    row_lists = [
        draw(st.lists(st.integers(0, m - 1), max_size=m, unique=True)) for _ in range(n)
    ]
    lower = np.ones(n)
    upper = lower + np.asarray([draw(st.floats(0.0, 10.0)) for _ in range(n)])
    share = np.asarray([draw(st.floats(0.0, 1.0)) for _ in range(n)])
    x = lower + (upper - lower) * share
    loads = np.zeros(m)
    for i, rows in enumerate(row_lists):
        for r in rows:
            loads[r] += x[i]
    # Negative slack makes some coordinates' windows empty (they are skipped).
    capacities = loads + np.asarray(
        [draw(st.one_of(st.floats(-2.0, 5.0), st.just(math.inf))) for _ in range(m)]
    )
    var_rows = row_lists
    if draw(st.booleans()):
        var_rows = [np.asarray(rows, dtype=np.intp) for rows in row_lists]
    return dict(
        x=x, lower=lower, upper=upper,
        successes=np.asarray([draw(probabilities) for _ in range(n)]),
        utility_weight=draw(utility_weights), cost_weight=draw(cost_weights),
        loads=loads, capacities=capacities, var_rows=var_rows,
        rounds=draw(st.integers(0, 3)),
    )


def run_polish(function, instance):
    x = instance["x"].copy()
    loads = instance["loads"].copy()
    result = function(
        x, instance["lower"], instance["upper"], instance["successes"],
        instance["utility_weight"], instance["cost_weight"], loads,
        instance["capacities"], instance["var_rows"], instance["rounds"],
    )
    assert result is x
    return x, loads


class TestCyclicPolishOracle:
    @settings(max_examples=300, deadline=None)
    @given(polish_instances())
    def test_in_place_point_and_loads_match_the_reference(self, instance):
        x, loads = run_polish(cyclic_coordinate_polish, instance)
        ref_x, ref_loads = run_polish(reference_cyclic_coordinate_polish, instance)
        assert_identical(x, ref_x)
        assert_identical(loads, ref_loads)


# --------------------------------------------------------------------------- #
# Short per-variable reductions in the batched dual ascent
# --------------------------------------------------------------------------- #
class TestShortReductionChains:
    """The batched solve folds each variable's 3 or 4 row values with a chain
    of elementwise operations instead of a ufunc reduce over the last axis;
    that is exact only while NumPy sums fewer than eight terms in order."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(3, 4),
        st.integers(1, 40),
        st.integers(1, 15),
        st.integers(0, 2**32 - 1),
    )
    def test_chains_equal_numpy_reductions(self, width, combos, variables, seed):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-3, 1.0, 1e3], size=(combos, variables, width))
        values = rng.random((combos, variables, width)) * scale
        values[rng.random(values.shape) < 0.2] = 0.0
        total = values[..., 0].copy()
        smallest = values[..., 0].copy()
        for j in range(1, width):
            total += values[..., j]
            np.minimum(smallest, values[..., j], out=smallest)
        assert_identical(total, np.add.reduce(values, axis=-1))
        assert_identical(smallest, np.minimum.reduce(values, axis=-1))


# --------------------------------------------------------------------------- #
# Whole selections: shipped helpers vs the oracles patched into the kernel
# --------------------------------------------------------------------------- #
def slot_contexts(graph_seed: int, trace_seed: int):
    config = ExperimentConfig(
        num_nodes=9, horizon=6, total_budget=400.0, trials=1, max_pairs=4,
        gibbs_iterations=15, num_candidate_routes=3, base_seed=2024,
    )
    graph = config.build_graph(seed=graph_seed)
    trace = config.build_trace(graph, seed=trace_seed)
    contexts = []
    for t in range(trace.horizon):
        slot = trace.slot(t)
        if slot.num_requests:
            contexts.append(
                SlotContext(
                    t=slot.t, graph=graph, snapshot=slot.snapshot,
                    requests=slot.requests,
                    candidate_routes={r: trace.routes_for(r) for r in slot.requests},
                )
            )
    return contexts


def outcome_fingerprint(outcome):
    relaxed = outcome.relaxed_solution
    rounded = outcome.integer_solution
    return (
        tuple(sorted((repr(key), value) for key, value in outcome.allocation.items())),
        outcome.objective,
        outcome.feasible,
        outcome.cost,
        None if relaxed is None
        else (relaxed.values, relaxed.objective, relaxed.feasible),
        None if rounded is None
        else (rounded.values, rounded.objective, rounded.feasible),
    )


def run_selections(contexts, selector_cls, weights, **selector_kwargs):
    """Every outcome each slot's kernel evaluated, the picks, and the counters."""
    utility_weight, cost_weight, budget_cap = weights
    cache = KernelCache()
    trail = []
    for context in contexts:
        selector = selector_cls(use_kernel=True, kernel_cache=cache, **selector_kwargs)
        result = selector.select(
            context, context.servable_requests(), utility_weight, cost_weight,
            budget_cap=budget_cap, seed=3,
        )
        evaluated = cache._last_kernel._cache
        trail.append(
            (
                sorted((key, outcome_fingerprint(o)) for key, o in evaluated.items()),
                sorted((repr(r), repr(route)) for r, route in result.selection.items()),
                outcome_fingerprint(result.outcome),
                result.objective,
            )
        )
    return trail, cache.aggregate_stats()


WEIGHTS = [
    (2500.0, 10.0, None),  # OSCAR-like queue weights
    (1.0, 0.0, None),  # q = 0: the MA/MF baselines
    (2500.0, 10.0, 40.0),  # a binding budget row
]


class TestWholeSolveIdentity:
    @pytest.mark.parametrize("weights", WEIGHTS)
    @pytest.mark.parametrize(
        "selector_cls, selector_kwargs",
        [(ExhaustiveRouteSelector, {}), (GibbsRouteSelector, {"iterations": 12})],
        ids=["exhaustive", "gibbs"],
    )
    @pytest.mark.parametrize("seeds", [(1, 51), (3, 53)])
    def test_outcomes_and_counters_match_the_oracles(
        self, monkeypatch, seeds, selector_cls, selector_kwargs, weights
    ):
        contexts = slot_contexts(*seeds)
        shipped = run_selections(contexts, selector_cls, weights, **selector_kwargs)
        monkeypatch.setattr(kernel, "_ComboStructure", ReferenceComboStructure)
        monkeypatch.setattr(kernel, "surplus_pass", reference_surplus_pass)
        monkeypatch.setattr(
            kernel, "cyclic_coordinate_polish", reference_cyclic_coordinate_polish
        )
        oracle = run_selections(contexts, selector_cls, weights, **selector_kwargs)
        assert shipped[1] == oracle[1]
        assert shipped[0] == oracle[0]
