"""The layer tables every per-layer code path reads.

The diagnostics layers around the OSCAR solver (kernel, physical, event
backend, serving, faults, guard, telemetry) are described by two tables:

* :data:`CONFIG_GROUPS` — the :class:`ExperimentConfig` field groups behind
  the ``Scenario.with_*`` builders and the dotted :class:`Study` axis paths
  (``"physical.swap_success"``).  Prefixed groups derive their fields from
  the config, so a new ``serving_*`` field joins its group on its own.
* :data:`STATS_FAMILIES` — each family's key in
  ``SimulationResult.diagnostics`` and its cross-run merge, behind
  ``layer_stats(name)`` on records and study results and the CLI
  ``[health]`` line.

A new layer is one entry in each table, plus its renderer in the CLI health
registry.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Mapping, Optional

from repro.analysis.stats import merge_stat_mappings
from repro.experiments.config import ExperimentConfig
from repro.telemetry.tracer import merge_telemetry_stats

CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))


@dataclass(frozen=True)
class ConfigGroup:
    """One config field group.

    ``builder`` names the :class:`~repro.api.scenario.Scenario` method that
    sets the group (used in its error messages).  Short names gain
    ``prefix`` (``"swap_success"`` → ``"physical_swap_success"``) and
    ``aliases`` map convenience names to fields.
    """

    builder: str
    fields: frozenset
    prefix: str = ""
    aliases: Mapping[str, str] = field(default_factory=dict)

    def field_name(self, name: str) -> str:
        """The config field a (short or aliased) name refers to."""
        name = self.aliases.get(name, name)
        if self.prefix and not name.startswith(self.prefix):
            name = self.prefix + name
        return name


def _prefixed(builder: str, prefix: str) -> ConfigGroup:
    fields = frozenset(name for name in CONFIG_FIELDS if name.startswith(prefix))
    return ConfigGroup(builder, fields, prefix)


#: Axis-group name → field group; ``config`` (any field) is not a group.
CONFIG_GROUPS: Dict[str, ConfigGroup] = {
    "topology": ConfigGroup(
        "with_topology",
        frozenset({
            "topology_kind", "num_nodes", "area", "waxman_alpha", "target_degree",
            "qubit_capacity_min", "qubit_capacity_max",
            "channel_capacity_min", "channel_capacity_max",
            "attempt_success", "attempts_per_slot",
        }),
        aliases={"kind": "topology_kind"},
    ),
    "workload": ConfigGroup(
        "with_workload",
        frozenset({"horizon", "min_pairs", "max_pairs", "num_candidate_routes", "max_extra_hops"}),
    ),
    "budget": ConfigGroup(
        "with_budget", frozenset({"total_budget", "trade_off_v", "initial_queue", "gamma"})
    ),
    "solver": ConfigGroup(
        "with_solver",
        frozenset({"use_kernel", "dual_tolerance", "kernel_cache", "solve_deadline"}),
    ),
    "physical": _prefixed("with_physical", "physical_"),
    "timing": ConfigGroup(
        "with_backend",
        frozenset({"backend", "signaling_latency_s", "edge_latency_s", "slot_guard_time_s"}),
        aliases={
            "latency": "signaling_latency_s",
            "edge_latencies": "edge_latency_s",
            "guard_time": "slot_guard_time_s",
        },
    ),
    "serving": _prefixed("with_serving", "serving_"),
    "faults": _prefixed("with_faults", "fault_"),
    "guard": ConfigGroup("with_guard", frozenset({"guard_level"})),
    "telemetry": _prefixed("with_telemetry", "telemetry_"),
}

_sum_as_int = partial(merge_stat_mappings, cast=int)

#: Diagnostics key → merge, in ``[health]`` line order.  Every merge skips
#: ``None`` and non-mapping entries and returns ``None`` when nothing is left.
STATS_FAMILIES: Dict[str, Callable] = {
    # solves, reuse, binds, dual iterations, exhaustive/gibbs/greedy slots
    "kernel": _sum_as_int,
    # delivery chain: attempts, losses, raw pairs, float fidelity sum
    "physical": merge_stat_mappings,
    # events, heralds, classical messages, deadline misses
    "eventsim": merge_stat_mappings,
    # sessions, requests, sojourn, Jain fairness moments
    "serving": merge_stat_mappings,
    # downtime, degraded slots, failures/repairs, lost requests
    "faults": _sum_as_int,
    # slots observed, checks per layer pack, breaches
    "guard": _sum_as_int,
    # span profiles, counters, histograms; sorted keys pin the float sums
    "telemetry": merge_telemetry_stats,
}


def merge_layer(name: str, stats_mappings) -> Optional[Dict[str, float]]:
    """Merge stats mappings of family ``name`` with the family's merge."""
    merge = STATS_FAMILIES.get(name)
    if merge is None:
        raise ValueError(
            f"unknown stats family {name!r}; choose from {', '.join(STATS_FAMILIES)}"
        )
    return merge(stats_mappings)


class LayerStatsAccessors:
    """Named per-family accessors over the subclass's ``layer_stats(name)``.

    ``layer_stats(name)`` sums family ``name`` of :data:`STATS_FAMILIES`
    over everything the object holds; ``None`` when nothing carried it
    (the layer was off, or the solver ran without a kernel cache).
    Diagnostics are in-memory only: on a record loaded from JSON or a study
    point served from the result store every family is ``None`` except
    telemetry, which is persisted.
    """

    def kernel_stats(self) -> Optional[Dict[str, int]]:
        return self.layer_stats("kernel")

    def physical_stats(self) -> Optional[Dict[str, float]]:
        return self.layer_stats("physical")

    def event_stats(self) -> Optional[Dict[str, float]]:
        return self.layer_stats("eventsim")

    def serving_stats(self) -> Optional[Dict[str, float]]:
        return self.layer_stats("serving")

    def fault_stats(self) -> Optional[Dict[str, int]]:
        return self.layer_stats("faults")

    def guard_stats(self) -> Optional[Dict[str, int]]:
        return self.layer_stats("guard")

    def telemetry_stats(self) -> Optional[Dict[str, float]]:
        return self.layer_stats("telemetry")
