"""The layer tables: config groups, stats families and the health line.

Pins what every per-layer code path produces: the ``[health]`` line of a
record and of a study carrying all seven diagnostics families (golden
strings), the merge each family applies, and the config field groups the
``with_*`` builders and study axis paths accept.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

import pytest

from repro import api
from repro.api.layers import CONFIG_GROUPS, STATS_FAMILIES
from repro.api.records import RunRecord
from repro.api.study import StudyPoint, StudyResult, resolve_config_path
from repro.cli import _HEALTH_REGISTRY, _health_line, _kernel_stats_fragment
from repro.experiments.config import ExperimentConfig
from repro.simulation.results import SimulationResult


# --------------------------------------------------------------------- #
# Hand-built records carrying all seven families
# --------------------------------------------------------------------- #
def _kernel(scale):
    return {
        "solves": 10 * scale, "binds": 4 * scale, "structure_compiles": 1,
        "cache_hits": 3 * scale, "memo_hits": scale, "pruned": 2 * scale,
        "dual_iterations": 50 * scale, "exhaustive_slots": 6 * scale,
        "gibbs_slots": 2 * scale,
    }


def _physical(scale):
    return {
        "requests": 6 * scale, "attempts": 5 * scale, "delivered": 4 * scale,
        "fidelity_served": 3 * scale, "fidelity_sum": 3.25 * scale,
        "purify_failures": scale, "cutoff_discards": 0, "swap_failures": 2,
        "pairs_consumed": 12 * scale,
    }


def _eventsim(scale):
    return {
        "events": 40.0 * scale, "delivered": 4.0 * scale, "messages": 9.0 * scale,
        "deadline_misses": 1.0, "cutoff_expired_pairs": 0.0,
    }


def _serving(scale):
    return {
        "requests_arrived": 20 * scale, "requests_served": 15 * scale,
        "sessions_admitted": 3 * scale, "sessions_rejected": 1,
        "sojourn_slots": 30.0 * scale, "requests_departed": 15 * scale,
        "sim_seconds": 2.5 * scale, "fairness_users": 2 * scale,
        "fairness_served_sq": 113 * scale,
    }


def _faults(scale):
    return {
        "slots": 10, "element_slots": 70, "down_element_slots": 3 * scale,
        "degraded_slots": 2, "node_failures": 1, "edge_failures": scale,
        "repairs": 1, "requests_unservable": scale, "requests_interrupted": 0,
    }


def _guard(scale):
    return {"slots": 10, "checks": 30 * scale, "checks_kernel": 10 * scale, "breaches": 0}


def _telemetry(scale):
    return {
        "tracers": 1, "spans": 25 * scale,
        "span.kernel.solve.wall_s": 0.5 * scale, "span.kernel.solve.count": 10 * scale,
        "span.simulation.run.wall_s": 0.25 * scale,
    }


FAMILY_BUILDERS = {
    "kernel": _kernel,
    "physical": _physical,
    "eventsim": _eventsim,
    "serving": _serving,
    "faults": _faults,
    "guard": _guard,
    "telemetry": _telemetry,
}


def _result(name, diagnostics):
    return SimulationResult(
        policy_name=name, horizon=0, total_budget=0.0, records=(), diagnostics=diagnostics
    )


def _record(scale=1):
    """Two trials of two line-up entries; one entry carries no diagnostics."""
    full = {family: build(scale) for family, build in FAMILY_BUILDERS.items()}
    double = {family: build(2 * scale) for family, build in FAMILY_BUILDERS.items()}
    return RunRecord(
        scenario={},
        trials=[
            {"oscar": _result("oscar", full), "mf": _result("mf", {})},
            {"oscar": _result("oscar", double), "mf": _result("mf", dict(full))},
        ],
    )


def _study():
    scenario = api.Scenario.tiny()
    points = [
        StudyPoint(index=(i,), coordinates={"total_budget": budget},
                   scenario=scenario.with_name(f"point-{i}"))
        for i, budget in enumerate((200.0, 250.0))
    ]
    return StudyResult(
        name="study",
        axes=[{"label": "total_budget", "values": [200.0, 250.0]}],
        points=points,
        records=[_record(1), _record(3)],
    )


RECORD_HEALTH = (
    "[health] kernel 40 solve(s), 24 reused/pruned, 16 bind(s) from 3 compiled "
    "structure(s), 200 dual iteration(s); 24 exhaustive / 8 gibbs slot(s)"
    " | physical 16/20 delivered (mean F 0.812), 12 fidelity-served, "
    "4 purify/0 cutoff/6 swap loss(es), 48 raw pair(s)"
    " | eventsim 160 event(s), 16 delivered (2.25 msg(s)/delivery), "
    "3 deadline miss(es), 0 cutoff-expired pair(s)"
    " | serving 60/80 request(s) served (6.0 req/s simulated), "
    "12 admitted/3 rejected session(s), mean sojourn 2.00 slot(s), Jain 0.996"
    " | faults 0.943 availability, 3 node/4 edge outage(s), "
    "4 unservable/0 interrupted request(s)"
    " | guard 120 check(s) over 30 slot(s), 0 breach(es)"
    " | telemetry 100 span(s) from 3 tracer(s), 3.00 s traced wall"
)

STUDY_HEALTH = (
    "[health] kernel 160 solve(s), 96 reused/pruned, 64 bind(s) from 6 compiled "
    "structure(s), 800 dual iteration(s); 96 exhaustive / 32 gibbs slot(s)"
    " | physical 64/80 delivered (mean F 0.812), 48 fidelity-served, "
    "16 purify/0 cutoff/12 swap loss(es), 192 raw pair(s)"
    " | eventsim 640 event(s), 64 delivered (2.25 msg(s)/delivery), "
    "6 deadline miss(es), 0 cutoff-expired pair(s)"
    " | serving 240/320 request(s) served (6.0 req/s simulated), "
    "48 admitted/6 rejected session(s), mean sojourn 2.00 slot(s), Jain 0.996"
    " | faults 0.886 availability, 6 node/16 edge outage(s), "
    "16 unservable/0 interrupted request(s)"
    " | guard 480 check(s) over 60 slot(s), 0 breach(es)"
    " | telemetry 400 span(s) from 6 tracer(s), 12.00 s traced wall"
)


class TestHealthLineGolden:
    def test_record(self):
        assert _health_line(_record()) == RECORD_HEALTH

    def test_study(self):
        assert _health_line(_study()) == STUDY_HEALTH

    def test_empty_sources_render_nothing(self):
        assert _health_line(RunRecord(scenario={})) is None
        assert _health_line(RunRecord(scenario={}, trials=[{"mf": _result("mf", {})}])) is None


class TestGreedySlots:
    def test_suffix_only_when_present(self):
        stats = dict(_kernel(1), greedy_slots=5)
        assert _kernel_stats_fragment(stats).endswith(
            "; 6 exhaustive / 2 gibbs / 5 greedy slot(s)"
        )
        assert _kernel_stats_fragment(_kernel(1)).endswith(
            "; 6 exhaustive / 2 gibbs slot(s)"
        )

    def test_deadline_run_reports_every_slot(self):
        record = (
            api.Scenario.tiny().with_policies("oscar").with_trials(1)
            .with_solver(solve_deadline=3).run()
        )
        stats = record.kernel_stats()
        slots = stats["exhaustive_slots"] + stats["gibbs_slots"] + stats["greedy_slots"]
        assert slots == record.scenario_config().horizon
        assert stats["greedy_slots"] > 0
        assert (
            f"{stats['exhaustive_slots']} exhaustive / {stats['gibbs_slots']} gibbs"
            f" / {stats['greedy_slots']} greedy slot(s)"
        ) in _health_line(record)


# --------------------------------------------------------------------- #
# Stats families
# --------------------------------------------------------------------- #
ACCESSORS = {
    "kernel": "kernel_stats",
    "physical": "physical_stats",
    "eventsim": "event_stats",
    "serving": "serving_stats",
    "faults": "fault_stats",
    "guard": "guard_stats",
    "telemetry": "telemetry_stats",
}

INT_FAMILIES = {"kernel", "faults", "guard"}


def _reference_merge(family, mappings):
    """Key-wise sum: non-mappings skipped, int cast, sorted telemetry keys."""
    totals = {}
    found = False
    for mapping in mappings:
        if not isinstance(mapping, Mapping):
            continue
        found = True
        for key in sorted(mapping) if family == "telemetry" else mapping:
            value = int(mapping[key]) if family in INT_FAMILIES else mapping[key]
            totals[key] = totals.get(key, 0) + value
    return totals if found else None


def _raw_entries(family):
    """One family's per-result entries: a skip of each kind, fractional
    values (the int cast truncates them) and a later mapping with its keys
    reversed plus a key the first one lacks (pins the merged key order)."""
    first = FAMILY_BUILDERS[family](1)
    later = {key: float(value) + 0.5 for key, value in reversed(list(first.items()))}
    later["extra"] = 1.5
    return [None, first, "not-a-mapping", later]


def _record_of(family, entries):
    return RunRecord(
        scenario={},
        trials=[{f"p{i}": _result(f"p{i}", {family: entry}) for i, entry in enumerate(entries)}],
    )


def test_tables_cover_the_same_families_in_order():
    assert list(STATS_FAMILIES) == list(ACCESSORS)
    assert [family for family, _renderer in _HEALTH_REGISTRY] == list(STATS_FAMILIES)


def test_unknown_family_is_a_clean_error():
    with pytest.raises(ValueError, match="unknown stats family 'event'"):
        _record().layer_stats("event")


@pytest.mark.parametrize("family", list(ACCESSORS))
class TestStatsFamilies:
    def test_record_merge(self, family):
        entries = _raw_entries(family)
        record = _record_of(family, entries)
        merged = record.layer_stats(family)
        expected = _reference_merge(family, entries)
        assert merged == expected
        assert list(merged) == list(expected)
        assert getattr(record, ACCESSORS[family])() == merged
        kinds = {type(value) for value in merged.values()}
        assert kinds == ({int} if family in INT_FAMILIES else {float})

    def test_study_merges_point_records(self, family):
        records = [_record_of(family, _raw_entries(family)), _record_of(family, [None]),
                   _record(2)]
        study = StudyResult(name="s", axes=[], points=[], records=records)
        expected = _reference_merge(family, [r.layer_stats(family) for r in records])
        assert study.layer_stats(family) == expected
        assert list(study.layer_stats(family)) == list(expected)
        assert getattr(study, ACCESSORS[family])() == expected

    def test_absent_family_is_none(self, family):
        record = _record_of(family, [None, "not-a-mapping"])
        assert record.layer_stats(family) is None
        assert getattr(record, ACCESSORS[family])() is None
        assert StudyResult(name="s", axes=[], points=[], records=[record]).layer_stats(
            family
        ) is None

    def test_only_telemetry_survives_persistence(self, family):
        record = _record()
        loaded = RunRecord.from_dict(record.to_dict())
        if family == "telemetry":
            assert loaded.layer_stats(family) == record.layer_stats(family)
        else:
            assert record.layer_stats(family) is not None
            assert loaded.layer_stats(family) is None


# --------------------------------------------------------------------- #
# Config groups
# --------------------------------------------------------------------- #
#: The field groups as they were listed by hand before the group table
#: derived the prefixed ones from :class:`ExperimentConfig`.
LITERAL_GROUPS = {
    "topology": frozenset({
        "topology_kind", "num_nodes", "area", "waxman_alpha", "target_degree",
        "qubit_capacity_min", "qubit_capacity_max",
        "channel_capacity_min", "channel_capacity_max",
        "attempt_success", "attempts_per_slot",
    }),
    "workload": frozenset(
        {"horizon", "min_pairs", "max_pairs", "num_candidate_routes", "max_extra_hops"}
    ),
    "budget": frozenset({"total_budget", "trade_off_v", "initial_queue", "gamma"}),
    "solver": frozenset({"use_kernel", "dual_tolerance", "kernel_cache", "solve_deadline"}),
    "physical": frozenset({
        "physical_enabled", "physical_swap_success", "physical_link_fidelity",
        "physical_memory_time", "physical_dwell_fraction",
        "physical_purify_rounds", "physical_cutoff_fidelity",
        "physical_fidelity_target", "physical_fidelity_constrained",
        "physical_engine",
    }),
    "timing": frozenset(
        {"backend", "signaling_latency_s", "edge_latency_s", "slot_guard_time_s"}
    ),
    "serving": frozenset({
        "serving_enabled", "serving_arrival_kind", "serving_arrival_rate",
        "serving_arrival_trace", "serving_session_rate",
        "serving_session_lifetime", "serving_renew_probability",
        "serving_session_budget", "serving_admission",
        "serving_admission_threshold", "serving_token_rate",
        "serving_token_burst", "serving_shards", "serving_merge_every",
        "serving_shard_workers", "serving_shard_timeout_s",
        "serving_min_availability",
    }),
    "faults": frozenset({
        "fault_enabled", "fault_node_mtbf", "fault_edge_mtbf", "fault_mttr",
        "fault_outages", "fault_aware",
    }),
    "guard": frozenset({"guard_level"}),
    "telemetry": frozenset({"telemetry_level", "telemetry_span_ring"}),
}

SHORT_PREFIXES = {
    "physical": "physical_", "serving": "serving_", "faults": "fault_",
    "telemetry": "telemetry_",
}

ALIASES = {
    "topology.kind": "topology_kind",
    "timing.latency": "signaling_latency_s",
    "timing.edge_latencies": "edge_latency_s",
    "timing.guard_time": "slot_guard_time_s",
}

CONFIG_FIELDS = [f.name for f in dataclasses.fields(ExperimentConfig)]


class TestConfigGroups:
    def test_table_matches_the_literal_groups(self):
        assert set(CONFIG_GROUPS) == set(LITERAL_GROUPS)
        for name, group in CONFIG_GROUPS.items():
            assert group.fields == LITERAL_GROUPS[name], name

    @pytest.mark.parametrize("group", sorted(LITERAL_GROUPS))
    def test_group_membership(self, group):
        allowed = LITERAL_GROUPS[group]
        for name in CONFIG_FIELDS:
            if name in allowed:
                assert resolve_config_path(f"{group}.{name}") == name
                assert resolve_config_path(name) == name
            else:
                with pytest.raises(ValueError, match=f"not a {group} field"):
                    resolve_config_path(f"{group}.{name}")

    @pytest.mark.parametrize("group", sorted(SHORT_PREFIXES))
    def test_short_names(self, group):
        prefix = SHORT_PREFIXES[group]
        for name in LITERAL_GROUPS[group]:
            assert resolve_config_path(f"{group}.{name[len(prefix):]}") == name

    @pytest.mark.parametrize("path", sorted(ALIASES))
    def test_aliases(self, path):
        assert resolve_config_path(path) == ALIASES[path]

    def test_config_group_and_errors(self):
        assert resolve_config_path("config.gibbs_iterations") == "gibbs_iterations"
        with pytest.raises(ValueError, match="unknown axis group 'bogus'"):
            resolve_config_path("bogus.horizon")
        with pytest.raises(ValueError, match="unknown config field"):
            resolve_config_path("config.bogus")
        with pytest.raises(ValueError, match="too many components"):
            resolve_config_path("a.b.c")

    @pytest.mark.parametrize(
        "builder, group, preset",
        [
            ("with_physical", "physical", "physical_enabled"),
            ("with_serving", "serving", "serving_enabled"),
            ("with_faults", "faults", "fault_enabled"),
            ("with_telemetry", "telemetry", "telemetry_level"),
        ],
    )
    def test_prefixed_builders(self, builder, group, preset):
        base = api.Scenario.tiny()
        prefix = SHORT_PREFIXES[group]
        for name in LITERAL_GROUPS[group] - {preset}:
            value = getattr(base.config, name)
            for key in (name, name[len(prefix):]):
                scenario = getattr(base, builder)(**{key: value})
                assert getattr(scenario.config, name) == value
        with pytest.raises(TypeError, match=f"{builder}\\(\\) got unexpected field"):
            getattr(base, builder)(horizon=3)

    def test_backend_aliases(self):
        scenario = api.Scenario.tiny().with_backend(
            latency=0.05, edge_latencies={"0|1": 0.2}, guard_time=0.1
        )
        assert scenario.config.signaling_latency_s == 0.05
        assert scenario.config.edge_latency_s == {"0|1": 0.2}
        assert scenario.config.slot_guard_time_s == 0.1
        with pytest.raises(TypeError, match="with_backend\\(\\) got unexpected field"):
            api.Scenario.tiny().with_backend(horizon=3)
