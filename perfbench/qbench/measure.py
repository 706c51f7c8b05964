"""One benchmark run: set up, measure, check, and summarise as metrics.

With tracing off a run reports the end-to-end metrics.  With tracing on it
first measures an untraced phase and then a traced one, each for half the
run, and reports the per-layer metrics of the traced phase.

Layer self-times are averaged over the *median band*: the traced requests
whose latency lies between the 40th and 60th percentile.  The band's
self-times, summed, must come within ``RECONCILE_TOLERANCE`` of the traced
median latency; the remainder is reported as ``layers.unaccounted_ms``.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.api import QASSA

from qbench.layers import (
    ADAPTATION,
    COMPOSE,
    DISCOVERY,
    EXECUTION,
    SELECT,
    LayerTracer,
)
from qbench.workloads import WORKLOADS, Phase, Sample, Workload

#: Allowed gap between the summed layer self-times and the traced median
#: latency, as a share of that median.
RECONCILE_TOLERANCE = 0.10

#: The end-to-end metrics, in output order: ``(name, unit)``.
END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_rps", "1/s"),
    ("completed_ratio", "ratio"),
    ("plan_utility_mean", "utility"),
    ("peak_rss_mb", "MB"),
)

#: The per-layer metrics, in output order: ``(name, unit)``.
PER_LAYER = (
    ("qassa.select_ms", "ms"),
    ("qassa.local_ms", "ms"),
    ("qassa.pareto_kept_ratio", "ratio"),
    ("qassa.combinations_explored", "count"),
    ("qassa.utility_evaluations", "count"),
    ("qassa.clustering_iterations", "count"),
    ("selection_cache.hit_ratio", "ratio"),
    ("coalescer.hit_ratio", "ratio"),
    ("discovery.busy_ms", "ms"),
    ("runtime.queue_wait_ms", "ms"),
    ("runtime.service_ms", "ms"),
    ("runtime.overhead_ms", "ms"),
    ("runtime.rejected", "count"),
    ("runtime.requeued", "count"),
    ("backend.compose_ms", "ms"),
    ("backend.overhead_ms", "ms"),
    ("snapshot.refreshes", "count"),
    ("snapshot.acquires", "count"),
    ("execution.busy_ms", "ms"),
    ("execution.invocations", "count"),
    ("execution.retries", "count"),
    ("adaptation.busy_ms", "ms"),
    ("adaptation.triggers", "count"),
    ("adaptation.success_ratio", "ratio"),
    ("trace.latency_p50_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("layers.unaccounted_ms", "ms"),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its live worker processes.

    ``ru_maxrss`` covers this process only; each worker process reports
    its own high-water mark in ``/proc/<pid>/status``.
    """
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            pass  # the worker exited between listing and reading
    return total_kb / 1024.0


def setup_workload(name: str, seed: int) -> Tuple[Workload, float]:
    """Set the workload up ``setup_repeats`` times; keep the last one.

    Returns it with the median set-up time.  Each set-up starts from a
    collected heap, so whether a full collection falls inside it does not
    depend on what ran before.
    """
    cls = WORKLOADS[name]
    durations = []
    workload = None
    for _ in range(cls.setup_repeats):
        if workload is not None:
            workload.close()
        workload = cls(seed)
        gc.collect()
        started = time.perf_counter()
        try:
            workload.setup()
        except BaseException:
            workload.close()
            raise
        durations.append(time.perf_counter() - started)
    return workload, statistics.median(durations)


def run_phase(workload: Workload, seconds: Optional[float],
              requests: Optional[int],
              tracer: Optional[LayerTracer]) -> Phase:
    """One timed phase, with the runtime counters' change over it."""
    gc.collect()  # leave set-up's garbage out of the timed window
    before = workload.counters()
    if tracer is not None:
        tracer.install(workload.world.middleware,
                       getattr(workload, "runtime", None))
    try:
        phase = workload.run(seconds, requests, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = workload.counters()
    phase.counters = {k: after[k] - before[k] for k in after}
    return phase


def latencies_ms(phase: Phase) -> List[float]:
    return [s.latency * 1e3 for s in phase.completed]


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles`` method)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setup_s: float, rss_mb: float) -> Dict[str, float]:
    completed = phase.completed
    latency = latencies_ms(phase)
    if len(latency) < 100:
        print(
            f"perfbench: only {len(latency)} completed requests; p90 has "
            "fewer than ten samples beyond it", file=sys.stderr,
        )
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(latency),
        "latency_p90_ms": percentile(latency, 0.90),
        "throughput_rps": len(completed) / phase.wall,
        "completed_ratio": len(completed) / len(phase.samples),
        "plan_utility_mean": statistics.fmean(s.utility for s in completed),
        "peak_rss_mb": rss_mb,
    }


def self_times(sample: Sample, brokered: bool) -> Dict[str, float]:
    """One request's latency split into layer self-times, in seconds."""
    layers = sample.layers
    own = layers.self_seconds
    split = {
        "discovery": own[DISCOVERY],
        "select": own[SELECT],
        "backend": own[COMPOSE],
        "execution": own[EXECUTION],
        "adaptation": own[ADAPTATION],
    }
    if brokered:
        # The request went through the runtime: its admission, queueing
        # and commit machinery is the runtime's self time.
        split["queue"] = sample.queue
        split["runtime"] = (
            sample.submit_gap + sample.service - layers.top_seconds
        )
    return split


def per_layer(workload: Workload, untraced: Phase, traced: Phase,
              tracer: LayerTracer, errors: List[str]) -> Dict[str, float]:
    completed = traced.completed
    latency = latencies_ms(traced)
    p50 = statistics.median(latency)
    low, high = percentile(latency, 0.40), percentile(latency, 0.60)
    band = [s for s in completed if low <= s.latency * 1e3 <= high]
    splits = [self_times(s, workload.brokered) for s in band]

    def band_ms(part: str) -> float:
        return statistics.fmean(split.get(part, 0.0) for split in splits) * 1e3

    def band_total_ms(layer: str) -> float:
        return statistics.fmean(
            s.layers.total_seconds[layer] for s in band
        ) * 1e3

    parts = {part for split in splits for part in split}
    accounted = sum(band_ms(part) for part in parts)
    unaccounted = p50 - accounted
    if abs(unaccounted) > RECONCILE_TOLERANCE * p50:
        errors.append(
            f"layer self-times sum to {accounted:.3f} ms against a traced "
            f"median of {p50:.3f} ms (tolerance "
            f"{RECONCILE_TOLERANCE:.0%})"
        )

    stats = tracer.statistics
    hits = sum(s.cache_hits for s in stats)
    lookups = hits + sum(s.cache_misses for s in stats)

    def mean_of(attribute: str) -> float:
        return statistics.fmean(getattr(s, attribute) for s in stats) \
            if stats else 0.0

    probe_ms, kept_ratio, discovery_probe_ms = local_probe(workload, tracer)
    counters = traced.counters

    def ratio(part: str, whole: str) -> float:
        total = counters.get(whole, 0)
        return counters.get(part, 0) / total if total else 0.0

    triggers = sum(s.triggers for s in completed)
    untraced_p50 = statistics.median(latencies_ms(untraced))
    return {
        "qassa.select_ms": band_ms("select"),
        "qassa.local_ms": probe_ms,
        "qassa.pareto_kept_ratio": kept_ratio,
        "qassa.combinations_explored": mean_of("combinations_explored"),
        "qassa.utility_evaluations": mean_of("utility_evaluations"),
        "qassa.clustering_iterations": mean_of("clustering_iterations"),
        "selection_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "coalescer.hit_ratio": ratio("coalescer.coalesced",
                                     "coalescer.lookups"),
        "discovery.busy_ms": (
            discovery_probe_ms if discovery_probe_ms is not None
            else band_ms("discovery")
        ),
        "runtime.queue_wait_ms": band_ms("queue"),
        "runtime.service_ms": statistics.fmean(s.service for s in band) * 1e3,
        "runtime.overhead_ms": band_ms("runtime"),
        "runtime.rejected": sum(
            1 for s in traced.samples if s.error.startswith("rejected")
        ),
        "runtime.requeued": counters.get("runtime.requeued", 0),
        "backend.compose_ms": band_total_ms(COMPOSE),
        "backend.overhead_ms": band_ms("backend"),
        "snapshot.refreshes": counters.get("snapshot.refreshes", 0),
        "snapshot.acquires": counters.get("snapshot.acquires", 0),
        "execution.busy_ms": band_ms("execution"),
        "execution.invocations": statistics.fmean(
            s.invocations for s in completed
        ),
        "execution.retries": statistics.fmean(s.retries for s in completed),
        "adaptation.busy_ms": band_ms("adaptation"),
        "adaptation.triggers": triggers / len(completed),
        "adaptation.success_ratio": (
            sum(s.adapted for s in completed) / triggers if triggers else 0.0
        ),
        "trace.latency_p50_ms": p50,
        "trace.overhead_ratio": p50 / untraced_p50,
        "layers.unaccounted_ms": unaccounted,
    }


def local_probe(workload: Workload, tracer: LayerTracer
                ) -> Tuple[float, float, Optional[float]]:
    """Time ``QASSA.local_selections`` on pools the run selected over.

    Returns the median probe time in ms, the share of offered candidates
    the Pareto filter kept, and — where discovery ran out of sight, in a
    worker process — the median time of the discovery probe in ms.
    """
    middleware = workload.world.middleware
    times, discovery, kept, offered = [], [], 0, 0
    for request, candidates, discovery_seconds in workload.probe_inputs(tracer):
        selector = QASSA(middleware.properties, middleware.config.aggregation,
                         middleware.config.qassa)
        started = time.perf_counter()
        locals_ = selector.local_selections(request, candidates)
        times.append((time.perf_counter() - started) * 1e3)
        kept += sum(len(local.services) for local in locals_.values())
        offered += sum(len(pool) for _, pool in candidates.items())
        if discovery_seconds is not None:
            discovery.append(discovery_seconds * 1e3)
    if not times:
        return 0.0, 0.0, None
    return (
        statistics.median(times),
        kept / offered,
        statistics.median(discovery) if discovery else None,
    )


# ----------------------------------------------------------------------
def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; the result object the command prints."""
    workload, setup_s = setup_workload(name, seed)
    errors: List[str] = []
    try:
        if trace:
            untraced = run_phase(workload, seconds / 2, None, None)
            tracer = LayerTracer()
            traced = run_phase(workload, seconds / 2, None, tracer)
            phases = [untraced, traced]
            metrics = per_layer(workload, untraced, traced, tracer, errors)
            units = dict(PER_LAYER)
        else:
            phases = [run_phase(workload, seconds, None, None)]
            # Read while the worker processes are still alive.
            metrics = end_to_end(phases[0], setup_s, peak_rss_mb())
            units = dict(END_TO_END)
        errors.extend(self_check(workload, phases))
        errors.extend(workload.check())
    finally:
        workload.close()
    samples = [s for phase in phases for s in phase.samples]
    for sample in samples:
        if not sample.ok:
            print(f"perfbench: request {sample.index} failed: "
                  f"{sample.error}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": len(samples),
        "failed": sum(1 for s in samples if not s.ok),
        "metrics": {
            metric: {"value": metrics[metric], "unit": units[metric]}
            for metric in units
        },
        "errors": errors,
    }


def self_check(workload: Workload, phases: List[Phase]) -> List[str]:
    """Inline latencies must cover the selection time they contain."""
    if workload.brokered:
        return []
    return [
        f"request {s.index}: latency {s.latency!r} s is shorter than its "
        f"selection time {s.selection_seconds!r} s"
        for phase in phases for s in phase.completed
        if s.latency < s.selection_seconds
    ]
