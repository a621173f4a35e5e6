"""End-to-end and per-layer benchmark of the OSCAR reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-compare --seed 1 --seconds 40 --trace 0

A workload is a fixed list of instances derived from ``--seed``.
``--trace 0`` times the program as shipped.  It sets every instance up
several times (median reported as ``setup_s``, plus import time), then runs
a fixed number of rounds over all instances, as many as fill about
``--seconds`` seconds on a 2-core x86 VM and at least two, and reports
end-to-end metrics from the mean round.  The host's speed flips between a
fast and a slow state every few seconds, so the time of the whole run is
steadier than a median or minimum of its parts.  ``--trace 1`` runs the
instances once untraced and once with timing wrappers around the program's
public layer boundaries, checks both produce identical result tables, and
reports per-layer calls, busy time and self time.  It also writes the
spans as a Chrome trace to ``.perfbench/``.

The last stdout line is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 1 when a correctness check fails and 2 when the program
cannot be imported.  ``perfbench/expected.json`` holds the recorded success
rates, seeds and tolerances the checks use.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())

#: Set-up repetitions per untraced run (``setup_s`` is their median).
SETUP_REPEATS = 3

#: Rounds over every instance in an untraced run, at the least.
MIN_ROUNDS = 2

#: Boundaries that contain other timed boundaries and so report ``.self_s``.
PARENT_LAYERS = (
    "core.decide",
    "core.per_slot.solve",
    "core.route_selection.exhaustive",
    "core.route_selection.gibbs",
    "solvers.kernel.best_of",
    "simulation.run",
    "serving.run",
)

#: Kernel counters reported from ``RunRecord.kernel_stats()``.
KERNEL_COUNTERS = (
    "solves", "dual_iterations", "early_stops", "pruned", "memo_hits",
    "cache_hits", "combo_hits", "structure_compiles", "rebinds",
    "evaluations", "exhaustive_slots", "gibbs_slots",
)

SERVING_COUNTERS = ("requests_arrived", "requests_served", "sessions_arrived", "sessions_rejected")
EVENT_COUNTERS = ("events", "messages", "deadline_misses")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program next to the benchmark."""


def import_program():
    """Import the program from ``src/`` of this checkout; returns the seconds it took."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {source}")
    started = time.perf_counter()
    sys.path.insert(0, str(source))
    import workloads  # noqa: F401  (imports the program and its dependencies)
    import repro

    elapsed = time.perf_counter() - started
    if Path(repro.__file__).resolve().parent != source / "repro":
        raise ProgramMissing(f"imported repro from {repro.__file__}, not from {source}")
    return elapsed


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------- #
# Correctness checks shared by both modes
# --------------------------------------------------------------------------- #
def check_outputs(name: str, seed: int, batch) -> List[str]:
    """Failures of the recorded-value and invariant checks on one run."""
    failures = []
    expected = EXPECTED["success_rate"][name]
    rate = batch.success_rate()
    recorded = expected.get(str(seed))
    if recorded is not None:
        if abs(rate - recorded) > EXPECTED["success_tolerance"]:
            failures.append(
                f"success_rate {rate:.6f} differs from the recorded {recorded:.6f} "
                f"by more than {EXPECTED['success_tolerance']}"
            )
    else:
        low, high = expected["range"]
        if not low <= rate <= high:
            failures.append(f"success_rate {rate:.6f} outside [{low}, {high}]")
    slack = EXPECTED["oscar_budget_slack"]
    for result in batch.results():
        if result.policy_name == "OSCAR" and result.budget_utilisation > 1.0 + slack:
            failures.append(
                f"OSCAR budget_utilisation {result.budget_utilisation:.4f} exceeds 1 + {slack}"
            )
    if batch.stats("physical"):
        fidelity = delivered_fidelity(batch)
        if not 0.0 < fidelity <= 1.0:
            failures.append(f"delivered fidelity {fidelity} outside (0, 1]")
    stats = batch.stats("serving")
    if stats:
        if stats["sessions_admitted"] + stats["sessions_rejected"] != stats["sessions_arrived"]:
            failures.append("serving: admitted + rejected != arrived sessions")
        if not 0 < stats["requests_served"] <= stats["requests_arrived"]:
            failures.append("serving: served requests outside (0, arrived]")
    return failures


def delivered_fidelity(batch) -> float:
    stats = batch.stats("physical")
    delivered = stats.get("delivered", 0)
    return stats.get("fidelity_sum", 0.0) / delivered if delivered else 0.0


def accounting(batch) -> Tuple[int, int]:
    """(operations, failed) in the workload's own terms.

    EC requests issued (for serving, requests that arrived) and those left
    unserved, plus refused serving sessions, each counted as failed.
    """
    issued, served = batch.requests()
    refused = int(batch.stats("serving").get("sessions_rejected", 0))
    return issued + refused, issued - served + refused


# --------------------------------------------------------------------------- #
# The two modes
# --------------------------------------------------------------------------- #
def measure_end_to_end(name: str, seed: int, seconds: float, import_s: float):
    import workloads
    import numpy as np
    from harness import installed_wrappers, tail_percentile

    workload = workloads.WORKLOADS[name]
    scenarios = workload.scenarios(seed)
    targets = workloads.layer_targets()
    failures = [f"wrapper installed in an untraced run: {w}" for w in installed_wrappers(targets)]

    setups = []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        workloads.construct(scenarios)
        setups.append(time.perf_counter() - started)

    batches = [workloads.run_batch(scenarios) for _ in range(workload.rounds(seconds, MIN_ROUNDS))]
    rss = peak_rss_mb()
    failures += [f"wrapper installed in an untraced run: {w}" for w in installed_wrappers(targets)]

    first = batches[0]
    if any(batch.tables() != first.tables() for batch in batches[1:]):
        failures.append("repeated runs of the same inputs gave different tables")
    failures += check_outputs(name, seed, first)
    gaps = [gap for batch in batches for gap in batch.gaps_ms]
    tail = tail_percentile(len(gaps))
    if tail is None or tail < 98.0:
        failures.append(f"{len(gaps)} slot samples cannot support a p98")

    run_s = statistics.fmean(batch.wall_s for batch in batches)
    setup_s = import_s + statistics.median(setups)
    served = first.requests()[1]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(run_s, "s"),
        "slot_solves_per_s": metric(first.decisions / run_s, "1/s"),
        "requests_per_s": metric(served / run_s, "1/s"),
        "success_rate": metric(first.success_rate(), "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    # Slot-latency percentiles are printed here and reported by the traced
    # run, not gated: slots are a mix of short exhaustive and long Gibbs
    # solves whose share follows the topology, and every slot of a slow
    # phase of the host counts in them.
    p50, p98 = np.percentile(gaps, [50.0, 98.0])
    note = (
        f"instances={len(scenarios)} rounds={len(batches)} setup_repeats={SETUP_REPEATS} "
        f"import_s={import_s:.4f} round_s={','.join(f'{b.wall_s:.3f}' for b in batches)} "
        f"slot_samples={len(gaps)} tail_percentile=p{tail} "
        f"slot_ms.p50={p50:.6g} slot_ms.p98={p98:.6g}"
    )
    return first, metrics, failures, note


def measure_layers(name: str, seed: int):
    import numpy as np
    import workloads
    from harness import Instrumentation, installed_wrappers
    from repro.network.store import default_topology_store
    from repro.serving.scheduler import mean_sojourn_slots
    from repro.telemetry import write_chrome_trace

    scenarios = workloads.WORKLOADS[name].scenarios(seed)
    targets = workloads.layer_targets()
    failures = [f"wrapper installed before the traced run: {w}" for w in installed_wrappers(targets)]

    default_topology_store.clear()
    plain = workloads.run_batch(scenarios)

    default_topology_store.clear()
    with Instrumentation(targets) as recorder:
        root = recorder.open("api")
        traced = workloads.run_batch(scenarios)
        recorder.close("api", root)
    failures += [f"wrapper left installed after the traced run: {w}" for w in installed_wrappers(targets)]
    if traced.tables() != plain.tables():
        failures.append("traced and untraced runs gave different tables")
    failures += check_outputs(name, seed, traced)

    totals = recorder.totals()
    wall = traced.wall_s
    self_sum = sum(layer.self_s for layer in totals.values())
    if abs(self_sum - wall) > 0.03 * wall:
        failures.append(f"self times sum to {self_sum:.4f} s, traced wall is {wall:.4f} s")

    metrics: Dict[str, Dict[str, object]] = {}
    for target_name in sorted({t.name for t in targets}):
        layer = totals.get(target_name)
        metrics[f"{target_name}.calls"] = metric(layer.calls if layer else 0, "count")
        metrics[f"{target_name}.busy_s"] = metric(layer.busy_s if layer else 0.0, "s")
        if target_name in PARENT_LAYERS:
            metrics[f"{target_name}.self_s"] = metric(layer.self_s if layer else 0.0, "s")
    metrics["core.per_slot.dropped_requests"] = metric(
        recorder.counters.get("core.per_slot.dropped_requests", 0), "count"
    )

    kernel = traced.stats("kernel")
    for key in KERNEL_COUNTERS:
        metrics[f"solvers.kernel.{key}"] = metric(kernel.get(key, 0), "count")
    solves = kernel.get("solves", 0)
    metrics["solvers.kernel.dual_iterations_per_solve"] = metric(
        kernel.get("dual_iterations", 0) / solves if solves else 0.0, "count"
    )
    metrics["solvers.kernel.prune_ratio"] = metric(
        kernel.get("pruned", 0) / solves if solves else 0.0, "ratio"
    )

    faults = traced.stats("fault")
    metrics["faults.requests_unservable"] = metric(faults.get("requests_unservable", 0), "count")

    events = traced.stats("event")
    for key in EVENT_COUNTERS:
        metrics[f"simulation.eventsim.{key}"] = metric(events.get(key, 0), "count")
    sim_busy = totals["simulation.run"].busy_s if "simulation.run" in totals else 0.0
    metrics["simulation.eventsim.events_per_s"] = metric(
        events.get("events", 0) / sim_busy if sim_busy else 0.0, "1/s"
    )
    metrics["physical.delivered_fidelity"] = metric(delivered_fidelity(traced), "ratio")

    serving = traced.stats("serving")
    for key in SERVING_COUNTERS:
        metrics[f"serving.{key}"] = metric(serving.get(key, 0), "count")
    metrics["serving.sojourn_slots"] = metric(mean_sojourn_slots(serving) or 0.0, "slots")

    gaps = plain.gaps_ms
    p50, p98 = np.percentile(gaps, [50.0, 98.0])
    metrics["slot_ms.p50"] = metric(float(p50), "ms")
    metrics["slot_ms.p98"] = metric(float(p98), "ms")
    metrics["api.self_s"] = metric(totals["api"].self_s, "s")
    metrics["trace.wall_s"] = metric(wall, "s")
    metrics["trace.overhead"] = metric(wall / plain.wall_s - 1.0, "ratio")

    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    trace_path = out / f"trace-{name}-{seed}.json"
    written = write_chrome_trace(recorder.chrome_events(), str(trace_path), label=f"{name} seed {seed}")
    note = (
        f"instances={len(scenarios)} slot_samples={len(gaps)} "
        f"chrome_trace={trace_path.relative_to(ROOT)} spans={written}"
    )
    return traced, metrics, failures, note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="OSCAR reproduction benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=EXPECTED["default_seed"])
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_s = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    try:
        if args.trace:
            batch, metrics, failures, note = measure_layers(args.workload, args.seed)
        else:
            batch, metrics, failures, note = measure_end_to_end(
                args.workload, args.seed, args.seconds, import_s
            )
        identity = workloads.kernel_cache_identity()
    except Exception:
        # A raised slot aborts the run: nothing it measured can be trusted.
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if args.trace:
        metrics["identity.kernel_cache"] = metric(int(identity), "bool")
    operations, unserved = accounting(batch)

    print(f"workload={args.workload} seed={args.seed} trace={args.trace}")
    for key, entry in metrics.items():
        print(f"  {key:<48} {entry['value']:>16.6g} {entry['unit']}")
    print(f"tables.digest={batch.digest()}")
    print(f"operations={operations} failed={unserved}")
    print(f"identity.kernel_cache={'true' if identity else 'false'}")
    print(note)
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    # Unserved requests and refused sessions are decisions of the policies
    # and the admission gate, reported above; no operation failed unless a
    # slot raised, which ends the run on the path above.
    result = {
        "correct": not failures,
        "attempted": max(1, operations),
        "failed": 0,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
